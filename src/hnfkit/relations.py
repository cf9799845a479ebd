"""Transformations of integer relations lattices.

The relations lattice of (M, F) is the set of integer rows p with p*F inside
the row lattice of M.  The routines here rewrite a description (M, F) into
progressively simpler ones preserving the lattice.  `to_smith_coprime` chains
six such rewrites (pivot block, Smith form, compression to a Hermite modulus,
Smith form, common right divisor removed, Smith form) to turn an arbitrary
full-column-rank modulus into a coprime Smith-modulus pair, the input format
of the recursive Hermite basis solver.

`relations_basis_oracle` is ground truth: the Hermite basis of the relations
lattice read off a naive Hermite computation of the bordered stack
[M 0; F I].
"""

from __future__ import annotations

from . import oracle
from .intmat import (
    DimensionError,
    HermiteBasis,
    IntMat,
    InternalError,
    PreconditionError,
    SmithForm,
    _bareiss,
    colmod_mul,
    determinant,
    hstack,
    vstack,
)
from .massager import _entry_massager, _lifted_determinant, smith_massager
from .structured_hermite import coprime_parts, hermite_of_stack

# the square route's gate: every entry of M below a machine word in size
_WORD = 1 << 64


def pivot_permutation(m: IntMat) -> tuple[tuple[int, ...], int]:
    """Row order placing `m.cols` independent rows of a full-column-rank
    matrix first, and the absolute determinant of that leading block.

    One fraction-free elimination over all rows, `intmat._bareiss`: each
    column's pivot is the first remaining row whose eliminated entry there
    is nonzero.  The chosen rows come first in the order they were picked,
    the others follow in their original order.  A column without a pivot
    means rank deficiency and raises PreconditionError.

    `to_smith_coprime` runs it on tall moduli, on square ones with entries
    wider than a machine word, and as the fallback of the square route (see
    `_pivot_block`).
    """
    if m.cols > m.rows:
        raise PreconditionError("more columns than rows: cannot have full column rank")
    res = _bareiss(m)
    if res is None:
        raise PreconditionError("modulus does not have full column rank")
    order, last = res
    return order, abs(last)


def apply_row_order(m: IntMat, order: tuple[int, ...]) -> IntMat:
    return IntMat._of_rows([list(m.data[i]) for i in order], m.rows, m.cols)


def _pivot_block(m: IntMat) -> tuple[IntMat, int, list[int] | None]:
    """M with a nonsingular block on top, |det| of that block, and
    y = |det|*block^-1*b when the p-adic solve already ran.

    A square M is its own block: a row permutation has the same massagers,
    and the Hermite basis is canonical.  If it is upper triangular, |det| is
    its diagonal product.  If its entries fit in a machine word,
    `massager._lifted_determinant` certifies |det| from one LU mod p and one
    Dixon lift, and falls back to `pivot_permutation`'s Bareiss elimination
    only when a bound fails.  Any other M gets `pivot_permutation`.  A
    singular or rank-deficient M raises PreconditionError.
    """
    if m.is_square():
        if m.is_upper_triangular():
            det = abs(determinant(m))
            if det == 0:
                raise PreconditionError("modulus does not have full column rank")
            return m, det, None
        if all(-_WORD < x < _WORD for row in m.data for x in row):
            det, y = _lifted_determinant(m, lambda: pivot_permutation(m)[1])
            return m, det, y
    order, det = pivot_permutation(m)
    return apply_row_order(m, order), det, None


def to_smith_coprime(m: IntMat, g: IntMat) -> tuple[SmithForm, IntMat]:
    """Rewrite the relations input (M, G) as a coprime Smith-modulus pair.

    Six rewrites: pick a nonsingular pivot block of M; massage it to Smith
    form, folding the rest of M and G through the massager; compress the
    stacked modulus to its Hermite basis; massage that to Smith form; remove
    the common right divisor; massage the result to Smith form.  Each step
    preserves the relations lattice, and every modular product is one
    `colmod_mul`.

    Step 1 knows |det| of the pivot block (`_pivot_block`), and for a square
    word-size M also the p-adic solve that certified it.  Step 2 hands both
    to the entry massager, which gets the dense part of the Smith form from
    that solve (running it itself when it has not run yet).  The later
    massager inputs are Hermite bases, which go to the deterministic
    `smith_massager`; `determinant` reads their determinant off the
    diagonal.
    """
    if m.cols != g.cols:
        raise DimensionError("modulus and G must agree on column count")
    cols = m.cols
    # 1: a nonsingular block on top, with |det| of it
    pm, det, y = _pivot_block(m)
    # 2: Smith form of the pivot block, folded through the massager
    m1 = pm.submatrix(0, cols, 0, cols)
    m2 = pm.submatrix(cols, pm.rows, 0, cols)
    mas1 = _entry_massager(m1, det, y)
    s1, v1 = mas1.s, mas1.f
    m3 = colmod_mul(m2, v1, s1)
    g1 = colmod_mul(g, v1, s1)
    # 3: compress the stacked modulus [S1; M3] to its Hermite basis
    t1 = hermite_of_stack(m3, s1)
    # 4: Smith form of the compressed modulus
    mas2 = smith_massager(t1.mat)
    s2, v2 = mas2.s, mas2.f
    g2 = colmod_mul(g1, v2, s2)
    # 5: remove the common right divisor
    t2 = hermite_of_stack(g2, s2)
    c, k = coprime_parts(t2, g2, s2)
    # 6: Smith form of the coprime modulus
    mas3 = smith_massager(k.mat)
    s3, v3 = mas3.s, mas3.f
    f = colmod_mul(c, v3, s3)
    return s3, f


def relations_basis_oracle(m: IntMat, f: IntMat) -> HermiteBasis:
    """Ground-truth Hermite basis of the relations lattice of (M, F).

    The bordered stack [M 0; F I] has Hermite basis [T *; 0 H] with H the
    Hermite basis of the relations lattice; computed naively.
    """
    if m.cols != f.cols:
        raise DimensionError("modulus and F must agree on column count")
    n = f.rows
    cols = m.cols
    bordered = vstack(hstack(m, IntMat.zeros(m.rows, n)),
                      hstack(f, IntMat.identity(n)))
    h = oracle.naive_hnf(bordered).mat
    if h.submatrix(cols, cols + n, 0, cols) != IntMat.zeros(n, cols):
        raise InternalError("bordered Hermite basis lost its block shape")
    return HermiteBasis(h.submatrix(cols, cols + n, cols, cols + n))

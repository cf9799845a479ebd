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

import random

from . import oracle
from .intmat import (
    DimensionError,
    HermiteBasis,
    IntMat,
    InternalError,
    PreconditionError,
    SmithForm,
    colmod_mul,
    determinant,
    hstack,
    vstack,
)
from .linmul import column_bitlengths
from .massager import smith_massager
from .structured_hermite import coprime_parts, hermite_of_stack


def remainder_with_respect_to(f: IntMat, t: HermiteBasis) -> IntMat:
    """Unique F + Q*T reduced column-modulo the diagonal of T."""
    if f.cols != t.dim:
        raise DimensionError("column count does not match the basis dimension")
    rows = t.mat.data
    out = []
    for frow in f.data:
        x = list(frow)
        for j in range(t.dim):
            q = x[j] // rows[j][j]
            if q:
                for c in range(j, t.dim):
                    x[c] -= q * rows[j][c]
        out.append(x)
    return IntMat(out, f.rows, f.cols)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _column_bit_budget(m: IntMat) -> int:
    d = sum(column_bitlengths(m))
    cols = max(m.cols, 1)
    return d + (cols * max(1, cols.bit_length())) // 2


def _select_rows_bareiss(m: IntMat) -> tuple[list[int], int]:
    """Indices of rows forming a nonsingular top block, by fraction-free
    elimination with row pivoting, and |det| of that block (the last pivot)."""
    work = {i: list(row) for i, row in enumerate(m.data)}
    remaining = list(range(m.rows))
    selected = []
    prev = 1
    for col in range(m.cols):
        pick = None
        for i in remaining:
            if work[i][col] != 0:
                pick = i
                break
        if pick is None:
            raise PreconditionError("modulus does not have full column rank")
        selected.append(pick)
        remaining.remove(pick)
        pr = work[pick]
        for i in remaining:
            ri = work[i]
            fct = ri[col]
            for j in range(col + 1, m.cols):
                ri[j] = (ri[j] * pr[col] - fct * pr[j]) // prev
            ri[col] = 0
        prev = pr[col]
    return selected, abs(prev)


def _select_rows_mod_p(m: IntMat, p: int) -> list[int] | None:
    work = [[x % p for x in row] for row in m.data]
    remaining = list(range(m.rows))
    selected = []
    for col in range(m.cols):
        pick = None
        for i in remaining:
            if work[i][col] % p != 0:
                pick = i
                break
        if pick is None:
            return None
        selected.append(pick)
        remaining.remove(pick)
        inv = pow(work[pick][col], -1, p)
        prow = [x * inv % p for x in work[pick]]
        for i in remaining:
            f = work[i][col]
            if f:
                work[i] = [(x - f * y) % p for x, y in zip(work[i], prow)]
    return selected


def pivot_permutation(m: IntMat, seed: int | None = None
                      ) -> tuple[tuple[int, ...], int]:
    """Row order placing m independent rows of a full-column-rank matrix
    first, and the absolute determinant of that leading block.

    Deterministic by default (exact fraction-free elimination, whose last
    pivot is the determinant).  With a seed, a randomized modular fast path
    picks candidate rows modulo random primes and verifies the chosen block
    by its exact determinant, falling back to the deterministic path after
    four failed primes.
    """
    if m.cols > m.rows:
        raise PreconditionError("more columns than rows: cannot have full column rank")
    if m.cols == 0:
        return tuple(range(m.rows)), 1
    selected = None
    if seed is not None:
        rng = random.Random(seed)
        bits = max(17, _column_bit_budget(m).bit_length() + 20)
        for _ in range(4):
            p = 0
            while not _is_probable_prime(p):
                p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            cand = _select_rows_mod_p(m, p)
            if cand is None:
                continue
            block = IntMat([m.row(i) for i in cand], m.cols, m.cols)
            det = abs(determinant(block))
            if det != 0:
                selected = cand
                break
    if selected is None:
        selected, det = _select_rows_bareiss(m)
    rest = [i for i in range(m.rows) if i not in set(selected)]
    return tuple(selected + rest), det


def apply_row_order(m: IntMat, order: tuple[int, ...]) -> IntMat:
    return IntMat([m.row(i) for i in order], m.rows, m.cols)


def to_smith_coprime(m: IntMat, g: IntMat, *,
                     seed: int | None = None) -> tuple[SmithForm, IntMat]:
    """Rewrite the relations input (M, G) as a coprime Smith-modulus pair.

    Six rewrites: pick a nonsingular pivot block of M; massage it to Smith
    form, folding the rest of M and G through the massager; compress the
    stacked modulus to its Hermite basis; massage that to Smith form; remove
    the common right divisor; massage the result to Smith form.  Each step
    preserves the relations lattice, and every modular product is one
    `colmod_mul`.

    The pivot selection already knows |det| of the pivot block, so step 2
    hands it to the massager instead of eliminating the block a second time.
    The later massager inputs are Hermite bases, whose determinant
    `determinant` reads off the diagonal.
    """
    if m.cols != g.cols:
        raise DimensionError("modulus and G must agree on column count")
    cols = m.cols
    # 1: permute a nonsingular block to the top
    order, det = pivot_permutation(m, seed=seed)
    pm = apply_row_order(m, order)
    # 2: Smith form of the pivot block, folded through the massager
    m1 = pm.submatrix(0, cols, 0, cols)
    m2 = pm.submatrix(cols, pm.rows, 0, cols)
    mas1 = smith_massager(m1, det=det)
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

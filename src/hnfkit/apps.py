"""Applications phrased as relations-lattice Hermite basis computations.

Each wrapper encodes its problem as a relations lattice and calls the
recursive solver: the Hermite form of a full-column-rank matrix, remainders
modulo a Hermite basis, the Hermite form of a product without forming the
product, lattice intersection, and the multivariable Chinese remainder
problem over arbitrary moduli.
"""

from __future__ import annotations

from .hermite_basis import relations_hermite_basis
from .intmat import (
    DiagonalModulus,
    DimensionError,
    HermiteBasis,
    IntMat,
    InternalError,
    colmod,
    hstack,
    matneg,
    vstack,
)


def hnf(a: IntMat) -> HermiteBasis:
    """Hermite basis of a full-column-rank matrix, via its relations lattice
    against the identity."""
    return relations_hermite_basis(a, IntMat.identity(a.cols))


def remainder_mod_hermite(f: IntMat, t: HermiteBasis) -> IntMat:
    """Remainder of F with respect to a Hermite basis T: F + Q*T, reduced.

    Read off the index (n, m) relations basis of (T, [-F; I]), whose
    Hermite basis is [I Fbar; 0 T].
    """
    if f.cols != t.dim:
        raise DimensionError("column count does not match the basis dimension")
    n, m = f.rows, t.dim
    g = vstack(matneg(f), IntMat.identity(m))
    h = relations_hermite_basis(t.mat, g, index=(n, m))
    if h.mat.submatrix(n, n + m, n, n + m) != t.mat:
        raise InternalError("relations basis lost its remainder shape")
    return h.mat.submatrix(0, n, n, n + m)


def product_hnf(a: IntMat, b: IntMat) -> HermiteBasis:
    """Hermite basis of A*B without forming the product.

    Encoded as the relations lattice of the bordered modulus
    [A 0; I B] against [0 I]; the bordering keeps every entry as small as
    the inputs even when A*B would be dense with huge entries.  The bordered
    modulus has full column rank exactly when A*B does, so the solver's pivot
    selection rejects a rank-deficient product.
    """
    if a.cols != b.rows:
        raise DimensionError("inner dimensions differ")
    n, m, p = a.rows, a.cols, b.cols
    modulus = vstack(hstack(a, IntMat.zeros(n, p)),
                     hstack(IntMat.identity(m), b))
    g = hstack(IntMat.zeros(p, m), IntMat.identity(p))
    return relations_hermite_basis(modulus, g)


def lattice_intersection(a: IntMat, b: IntMat) -> HermiteBasis:
    """Hermite basis of L(A) intersected with L(B).

    The modulus [A 0; 0 B] has full column rank exactly when A and B both
    do, so the solver's pivot selection rejects a rank-deficient input.
    """
    if a.cols != b.cols:
        raise DimensionError("lattices live in different dimensions")
    n = a.cols
    modulus = vstack(hstack(a, IntMat.zeros(a.rows, n)),
                     hstack(IntMat.zeros(b.rows, n), b))
    g = hstack(IntMat.identity(n), IntMat.identity(n))
    return relations_hermite_basis(modulus, g)


def multivariable_crt(m: DiagonalModulus, a: IntMat, b: IntMat
                      ) -> tuple[int, IntMat, HermiteBasis]:
    """Minimal scaling h, particular solution x_p, and homogeneous basis.

    Solves x*A == h*b column-modulo M with h in Z_{>0} minimal; the full
    solution set of the scaled system is x_p + {v*Hbar}.  Everything is read
    off the Hermite basis of the relations lattice of (M, [-b; A]).
    """
    n = m.dim
    m.require_nonsingular()
    if a.rows != n or a.cols != n or b.rows != 1 or b.cols != n:
        raise DimensionError("need square A, diagonal M, and a 1 x n right side")
    a_red = colmod(a, m)
    b_red = colmod(b, m)
    g = vstack(matneg(b_red), a_red)
    h = relations_hermite_basis(m.as_matrix(), g)
    hval = h.mat[0, 0]
    x_p = h.mat.submatrix(0, 1, 1, n + 1)
    hbar = HermiteBasis._trusted(h.mat.submatrix(1, n + 1, 1, n + 1))
    return hval, x_p, hbar

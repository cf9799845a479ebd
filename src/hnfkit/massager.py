"""Reduced Smith massagers.

A Smith massager for a nonsingular M is a pair (S, F) with S the Smith form
of M, M*F == 0 column-modulo S, and (S, F) coprime; the reduced variant keeps
F column-reduced modulo S.  The massager compactly carries the denominator
structure of M^{-1} and is the interchange format of the whole pipeline.

`smith_massager` here is a deterministic engine: alternating row and column
Hermite passes carried out modulo the determinant, tracking only the right
multiplier, then a gcd/lcm repair of the divisibility chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import modn, structured_hermite
from .intmat import (
    DimensionError,
    IntMat,
    InternalError,
    PreconditionError,
    SmithForm,
    colmod,
    determinant,
    matmul,
    require_colreduced,
)


@dataclass(frozen=True)
class SmithMassager:
    """Reduced massager pair: S (m x m Smith form) and F (n x m, reduced)."""

    s: SmithForm
    f: IntMat

    def __post_init__(self):
        require_colreduced(self.f, self.s, "massager F")


def _is_diagonal(a: list[list[int]], n: int) -> bool:
    return all(a[i][j] == 0 for i in range(n) for j in range(n) if i != j)


def _row_pass_modd(a: list[list[int]], n: int, d: int) -> None:
    """Row Hermite pass with all entries kept in [0, d).

    Valid because d*Z^n lies inside the working lattice throughout, so every
    entrywise reduction modulo d is a row operation against the implicit
    d-scaled block; that block never leaves the lattice since the column
    transform stays unimodular.  Each pivot is additionally folded with d, so
    pivots are always divisors of d.
    """
    for col in range(n):
        for i in range(col + 1, n):
            b = a[i][col]
            if b == 0:
                continue
            p = a[col][col]
            if p != 0 and b % p == 0:
                q = b // p
                a[i] = [(x - q * y) % d for x, y in zip(a[i], a[col])]
                continue
            g, uu, vv = modn.ext_gcd(p, b)
            c21, c22 = -(b // g), p // g
            ak, ai = a[col], a[i]
            a[col] = [(uu * x + vv * y) % d for x, y in zip(ak, ai)]
            a[i] = [(c21 * x + c22 * y) % d for x, y in zip(ak, ai)]
            a[col][col] = g % d
        p = a[col][col]
        gd = gcd(p, d)
        if gd != p:
            # fold in the implicit d-row so the pivot divides d; the scaling
            # must be a unit modulo d to preserve the lattice mod d*Z^n
            if p == 0:
                a[col][col] = d
            else:
                w = modn.unit_stabilizer(p, d)
                a[col] = [(w * x) % d for x in a[col]]
                a[col][col] = gd
        for i in range(col + 1, n):
            b = a[i][col]
            if b:
                q = b // a[col][col]
                a[i] = [(x - q * y) % d for x, y in zip(a[i], a[col])]
        p = a[col][col]
        for i in range(col):
            q = a[i][col] // p
            if q:
                a[i] = [(x - q * y) % d for x, y in zip(a[i], a[col])]


def _col_pass_modd(a: list[list[int]], v: list[list[int]], n: int, d: int) -> None:
    """Column Hermite pass with entries in [0, d); transform tracked mod d."""

    def col_op(j, k, c11, c12, c21, c22):
        for row in a:
            x, y = row[k], row[j]
            row[k], row[j] = (c11 * x + c12 * y) % d, (c21 * x + c22 * y) % d
        for row in v:
            x, y = row[k], row[j]
            row[k], row[j] = (c11 * x + c12 * y) % d, (c21 * x + c22 * y) % d

    for r in range(n):
        for j in range(r + 1, n):
            b = a[r][j]
            if b == 0:
                continue
            p = a[r][r]
            if p != 0 and b % p == 0:
                q = b // p
                for row in a:
                    row[j] = (row[j] - q * row[r]) % d
                for row in v:
                    row[j] = (row[j] - q * row[r]) % d
                continue
            g, uu, vv = modn.ext_gcd(p, b)
            col_op(j, r, uu, vv, -(b // g), p // g)
            a[r][r] = g % d
        p = a[r][r]
        gd = gcd(p, d)
        if gd != p:
            if p == 0:
                a[r][r] = d
            else:
                # the fold is a unit row scaling, so it does not touch the
                # column transform
                w = modn.unit_stabilizer(p, d)
                a[r] = [(w * x) % d for x in a[r]]
                a[r][r] = gd
        for j in range(r + 1, n):
            b = a[r][j]
            if b:
                q = b // a[r][r]
                for row in a:
                    row[j] = (row[j] - q * row[r]) % d
                for row in v:
                    row[j] = (row[j] - q * row[r]) % d
        p = a[r][r]
        for j in range(r):
            q = a[r][j] // p
            if q:
                for row in a:
                    row[j] = (row[j] - q * row[r]) % d
                for row in v:
                    row[j] = (row[j] - q * row[r]) % d


def smith_massager(m: IntMat, *, det: int | None = None) -> SmithMassager:
    """Reduced Smith massager of a nonsingular matrix.

    Works modulo d = |det m| throughout: d*Z^n lies inside the lattice, so
    entries and the right multiplier stay determinant-bounded, and the left
    multiplier is never formed.  The reduced massager colmod(V, S) is
    unchanged by the modular tracking because every invariant factor divides
    the determinant.  The invariant-factor product is checked against d.

    A caller that already knows d may pass it as `det`, which must equal
    |det m| exactly; otherwise it is computed here.
    """
    if not m.is_square():
        raise DimensionError("smith massager needs a square matrix")
    n = m.rows
    d = abs(determinant(m)) if det is None else det
    if d == 0:
        raise PreconditionError("singular input to smith massager")
    if d == 1:
        return SmithMassager(SmithForm((1,) * n), IntMat.zeros(n, n))
    a = [[x % d for x in row] for row in m.data]
    v = IntMat.identity(n).to_rows()
    passes = 0
    while not _is_diagonal(a, n):
        _row_pass_modd(a, n, d)
        if _is_diagonal(a, n):
            break
        _col_pass_modd(a, v, n, d)
        passes += 1
        if passes > 16 * (n + 4):
            raise InternalError("modular smith reduction failed to converge")
    diag = [a[i][i] if a[i][i] else d for i in range(n)]
    diag = [gcd(x, d) for x in diag]
    # chain repair on divisors of d; column side folds into the transform
    for i in range(n):
        for j in range(i + 1, n):
            di, dj = diag[i], diag[j]
            if dj % di == 0:
                continue
            g = gcd(di, dj)
            lcm = di // g * dj
            # row i gains column j's entry, then the pair splits as gcd/lcm;
            # on the transform side column i absorbs column j once
            for row in v:
                row[i] = (row[i] + row[j]) % d
            _, uu, vv = modn.ext_gcd(di, dj)
            q = (vv * dj) // g
            for row in v:
                row[j] = (row[j] - q * row[i]) % d
            diag[i], diag[j] = g, lcm
    prod = 1
    for x in diag:
        prod *= x
    if prod != d:
        raise InternalError("invariant factor product does not match the determinant")
    s = SmithForm(diag)
    return SmithMassager(s, colmod(IntMat(v, n, n), s))


def verify_massager(m: IntMat, mas: SmithMassager) -> bool:
    """Check M*F == 0 column-modulo S and coprimality of (S, F).

    Coprimality is decided by the fast stacked-Hermite computation: the
    Hermite basis of L(F) + L(S) must be the identity.  Works for trimmed
    massagers too (F may have fewer columns than M).
    """
    if m.cols != mas.f.rows:
        raise DimensionError("massager row count must match matrix dimension")
    prod = matmul(m, mas.f)
    for row in prod.data:
        for x, d in zip(row, mas.s.diag):
            if x % d != 0:
                return False
    t = structured_hermite.hermite_of_stack(mas.f, mas.s)
    return t.mat == IntMat.identity(mas.s.dim)

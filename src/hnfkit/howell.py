"""Howell form over Z/(N), with transform recovery, and its Hermite liftings.

The Howell form is the canonical echelon form over Z/(N): pivots divide N,
entries above a pivot are reduced modulo that pivot, and stabilizer rows are
inserted so the form spans every span element with a given leading-zero
prefix.  For a full column rank A with s*I contained in L(A), the canonical
lift of the Howell form over Z/(s^2) is the Hermite form of A over Z.  The
index check of `hnfkit verify`, the invariant check of `hermite_of_stack` and
the reference stage eliminator work that way, modulo a single invariant
factor instead of a determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import modn
from .intmat import (
    DimensionError,
    HermiteBasis,
    IntMat,
    InternalError,
    PreconditionError,
    SmithForm,
    matmul,
    vstack,
)


@dataclass(frozen=True)
class HowellResult:
    """Canonical Howell form H plus a transform U with U*A == H (mod N).

    H carries no zero rows.  U has one row per row of H and one column per
    row of the input, so the transform identity holds entrywise with no
    padding bookkeeping.
    """

    h: IntMat
    u: IntMat
    modulus: int


def _row_scale(row: list[int], c: int, n: int) -> list[int]:
    return [(c * x) % n for x in row]


def howell_form(a: IntMat, n: int) -> HowellResult:
    """Canonical Howell form of `a` over Z/(N) together with its transform."""
    h, u = _howell(a, n, transform=True)
    return HowellResult(IntMat._of_rows(h, len(h), a.cols),
                        IntMat._of_rows(u, len(h), a.rows), n)


def _howell(a: IntMat, n: int, transform: bool):
    """Core routine; returns (pivot rows, matching transform rows or None)."""
    if n < 1:
        raise PreconditionError("modulus must be positive")
    m = a.cols
    r0 = a.rows
    work = [[x % n for x in row] for row in a.data]
    # spare zero rows host stabilizer insertions; at most one per pivot
    spares = m + 1
    work.extend([0] * m for _ in range(spares))
    if transform:
        urows = [[1 if j == i else 0 for j in range(r0)] for i in range(r0)]
        urows.extend([0] * r0 for _ in range(spares))
    total = r0 + spares
    piv = 0
    pivots = []
    if n == 1:
        return [], ([] if transform else None)
    for col in range(m):
        for i in range(piv + 1, total):
            b = work[i][col]
            if b == 0:
                continue
            aa = work[piv][col]
            if aa == 0:
                work[piv], work[i] = work[i], work[piv]
                if transform:
                    urows[piv], urows[i] = urows[i], urows[piv]
                continue
            if b % aa == 0:
                q = b // aa
                work[i] = [(x - q * y) % n for x, y in zip(work[i], work[piv])]
                if transform:
                    urows[i] = [(x - q * y) % n for x, y in zip(urows[i], urows[piv])]
                continue
            g, uu, vv = modn.ext_gcd(aa, b)
            p, q = -(b // g), aa // g
            wp, wi = work[piv], work[i]
            work[piv] = [(uu * x + vv * y) % n for x, y in zip(wp, wi)]
            work[i] = [(p * x + q * y) % n for x, y in zip(wp, wi)]
            if transform:
                up, ui = urows[piv], urows[i]
                urows[piv] = [(uu * x + vv * y) % n for x, y in zip(up, ui)]
                urows[i] = [(p * x + q * y) % n for x, y in zip(up, ui)]
        if work[piv][col] == 0:
            continue
        # normalize the pivot to the divisor gcd(a, N) via a unit scaling
        aa = work[piv][col]
        g = gcd(aa, n)
        if aa != g:
            w = modn.unit_stabilizer(aa, n)
            work[piv] = _row_scale(work[piv], w, n)
            if transform:
                urows[piv] = _row_scale(urows[piv], w, n)
        # stabilizer row captures the span of (N/g) times this row
        t = n // g
        if t > 1:
            srow = _row_scale(work[piv], t, n)
            if any(srow[col + 1:]):
                for i in range(piv + 1, total):
                    if not any(work[i]):
                        target = i
                        break
                else:
                    raise InternalError("ran out of spare rows for a stabilizer")
                work[target] = srow
                if transform:
                    urows[target] = _row_scale(urows[piv], t, n)
        pivots.append((piv, col))
        piv += 1
    # reduce entries above every pivot modulo that pivot
    for i, col in pivots:
        d = work[i][col]
        for i2 in range(i):
            q = work[i2][col] // d
            if q:
                work[i2] = [(x - q * y) % n for x, y in zip(work[i2], work[i])]
                if transform:
                    urows[i2] = [(x - q * y) % n for x, y in zip(urows[i2], urows[i])]
    h = work[:piv]
    return h, (urows[:piv] if transform else None)


def hermite_via_howell(a: IntMat, s: int) -> HermiteBasis:
    """Hermite basis of `a` over Z, computed over Z/(s^2).

    Requires full column rank and s*I inside L(a); a violated precondition
    surfaces as a lift that is not a valid Hermite basis.
    """
    if s < 1:
        raise PreconditionError("s must be positive")
    if s == 1:
        # I is contained in L(a), so the basis is the identity outright
        return HermiteBasis._trusted(IntMat.identity(a.cols))
    rows, _ = _howell(a, s * s, transform=False)
    if len(rows) != a.cols:
        raise PreconditionError(
            f"howell lift has {len(rows)} rows for {a.cols} columns; "
            "precondition sI within L(A) or full column rank violated")
    try:
        return HermiteBasis(IntMat._of_rows(rows, a.cols, a.cols))
    except PreconditionError as exc:
        raise PreconditionError(f"howell lift is not a Hermite basis: {exc}") from exc


def hermite_with_eliminator(s: SmithForm, a: IntMat) -> tuple[HermiteBasis, IntMat]:
    """Hermite basis T of L(a) + L(s) plus an eliminator E in [0, s)^{m x n}.

    E satisfies E*a == T modulo integer row combinations of diag(s): column j
    of T - E*a is divisible by s_j.  The pair drives one slicing stage.
    """
    m = s.dim
    if a.cols != m:
        raise DimensionError("column count does not match the modulus dimension")
    sval = s.largest
    ared = IntMat._of_rows([[x % sval for x in row] for row in a.data], a.rows, a.cols)
    if sval == 1:
        return HermiteBasis._trusted(IntMat.identity(m)), IntMat.zeros(m, a.rows)
    stack = vstack(s.as_matrix(), ared)
    res = howell_form(stack, sval * sval)
    if res.h.rows != m:
        raise PreconditionError("stack over a nonsingular Smith form must have full rank")
    t = HermiteBasis(res.h)
    e = IntMat._of_rows([[res.u[i, m + j] % sval for j in range(a.rows)] for i in range(m)],
                        m, a.rows)
    _check_eliminator(t, e, ared, s)
    return t, e


def _check_eliminator(t: HermiteBasis, e: IntMat, a: IntMat, s: SmithForm) -> None:
    delta = matmul(e, a)
    for i in range(t.dim):
        for j in range(t.dim):
            if (t.mat[i, j] - delta[i, j]) % s.diag[j] != 0:
                raise PreconditionError("eliminator identity failed")


def check_transform(a: IntMat, res: HowellResult) -> bool:
    """Does U*a == H hold entrywise modulo N?"""
    prod = matmul(res.u, a)
    n = res.modulus
    return all(prod[i, j] % n == res.h[i, j] % n
               for i in range(res.h.rows) for j in range(res.h.cols))


def is_howell(h: IntMat, n: int) -> bool:
    """Shape invariants of a (trimmed) Howell form over Z/(N)."""
    lead = []
    for i in range(h.rows):
        row = h.row(i)
        nz = [j for j, x in enumerate(row) if x % n != 0]
        if not nz:
            return False
        lead.append(nz[0])
    if lead != sorted(set(lead)):
        return False
    for i, col in enumerate(lead):
        d = h[i, col]
        if n % d != 0:
            return False
        for i2 in range(i):
            if not (0 <= h[i2, col] < d):
                return False
    return True

"""Slow, independently coded ground truth for differential tests.

Nothing here shares code with the fast path beyond the IntMat carrier; that
independence is the point.  `naive_hnf` is a classical column-by-column gcd
triangularization with off-diagonal reduction after every pivot; `naive_smith`
is iterated row/column elimination with divisibility repair; `brute_span`
enumerates a Z/(N) row span outright.
"""

from __future__ import annotations

from itertools import product

from .intmat import (
    DimensionError,
    HermiteBasis,
    IntMat,
    PreconditionError,
    SmithForm,
)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _combine_rows(rows: list[list[int]], i: int, j: int, col: int) -> None:
    # unimodular 2x2 putting gcd(rows[i][col], rows[j][col]) at (i, col)
    a, b = rows[i][col], rows[j][col]
    if b == 0:
        return
    if a == 0:
        rows[i], rows[j] = rows[j], rows[i]
        return
    if b % a == 0:
        q = b // a
        rows[j] = [x - q * y for x, y in zip(rows[j], rows[i])]
        return
    g, u, v = _xgcd(a, b)
    p, q = -(b // g), a // g
    ri, rj = rows[i], rows[j]
    rows[i] = [u * x + v * y for x, y in zip(ri, rj)]
    rows[j] = [p * x + q * y for x, y in zip(ri, rj)]


def naive_hnf(a: IntMat) -> HermiteBasis:
    """Hermite basis of a full column rank matrix (Kannan-Bachem style)."""
    rows = a.to_rows()
    m = a.cols
    piv = 0
    for col in range(m):
        for i in range(piv + 1, len(rows)):
            _combine_rows(rows, piv, i, col)
        if piv >= len(rows) or rows[piv][col] == 0:
            raise PreconditionError("input does not have full column rank")
        if rows[piv][col] < 0:
            rows[piv] = [-x for x in rows[piv]]
        d = rows[piv][col]
        for i in range(piv):
            q = rows[i][col] // d
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[piv])]
        piv += 1
    return HermiteBasis(IntMat(rows[:m], m, m))


def naive_smith(a: IntMat) -> SmithForm:
    """Smith form of a square nonsingular matrix.

    Iterated row and column gcd elimination with divisibility repair.  Every
    round re-centers the smallest entry as pivot and clears its column and
    row with one sweep of 2x2 transforms, so the pivot shrinks by a gcd every
    round and entry growth stays tame.
    """
    if not a.is_square():
        raise DimensionError("naive_smith needs a square matrix")
    n = a.rows
    m = a.to_rows()
    diag = []
    for k in range(n):
        while True:
            # move a nonzero entry of smallest magnitude to the pivot slot
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                raise PreconditionError("singular input")
            bi, bj = best
            m[k], m[bi] = m[bi], m[k]
            for row in m:
                row[k], row[bj] = row[bj], row[k]
            for i in range(k + 1, n):
                _combine_rows(m, k, i, k)
            col_clean = True
            for j in range(k + 1, n):
                b = m[k][j]
                if b == 0:
                    continue
                p = m[k][k]
                if b % p == 0:
                    q = b // p
                    for row in m:
                        row[j] -= q * row[k]
                else:
                    g, u, v = _xgcd(p, b)
                    pg, bg = p // g, b // g
                    for row in m:
                        x, y = row[k], row[j]
                        row[k], row[j] = u * x + v * y, -bg * x + pg * y
                    col_clean = False
            if not col_clean or any(m[i][k] for i in range(k + 1, n)):
                continue
            # divisibility repair: the pivot must divide the trailing block
            fix = None
            for i in range(k + 1, n):
                if any(x % m[k][k] for x in m[i][k + 1:]):
                    fix = i
                    break
            if fix is None:
                break
            m[k] = [x + y for x, y in zip(m[k], m[fix])]
        diag.append(abs(m[k][k]))
    return SmithForm(diag)


def brute_span(a: IntMat, n: int) -> frozenset[tuple[int, ...]]:
    """All Z/(N)-combinations of the rows of `a`, as reduced tuples.

    Exponential; intended for dimensions <= 3 and N <= 64.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    if a.rows > 4:
        raise PreconditionError("brute_span row count too large to enumerate")
    span = set()
    rows = a.to_rows()
    for coeffs in product(range(n), repeat=a.rows):
        v = [0] * a.cols
        for c, row in zip(coeffs, rows):
            if c:
                for j in range(a.cols):
                    v[j] += c * row[j]
        span.add(tuple(x % n for x in v))
    return frozenset(span)

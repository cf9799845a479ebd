"""Independent checks of hnfkit outputs.

Nothing here calls hnfkit: every check works on plain lists of Python ints,
so a defect in the library cannot make its own output look correct.  Each
certificate proves that an output is the unique canonical answer:

* a Hermite basis H of a full-rank lattice L is certified by the Hermite
  shape, L contained in L(H), and det H == det L;
* a Howell form is certified by its shape, the Howell property, and span
  equality in both directions;
* a relations-lattice basis is certified by containment and by its index,
  det T(M) / det T(M + F), with both Hermite bases computed modulo a
  determinant by `hnf_mod`.
"""

from __future__ import annotations

from math import prod


def det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pk, rk = m[k][k], m[k]
        for i in range(k + 1, n):
            ri = m[i]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - f * rk[j]) // prev
        prev = pk
    return sign * m[n - 1][n - 1] if n else 1


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def is_hermite(h: list[list[int]]) -> bool:
    """Square, upper triangular, positive diagonal, entries above each
    diagonal entry reduced into [0, diagonal)."""
    n = len(h)
    if any(len(r) != n for r in h):
        return False
    for i in range(n):
        if h[i][i] <= 0 or any(h[i][j] != 0 for j in range(i)):
            return False
        for j in range(i + 1, n):
            if not 0 <= h[i][j] < h[j][j]:
                return False
    return True


def in_lattice(h: list[list[int]], v: list[int]) -> bool:
    """Is v an integer combination of the rows of the Hermite basis h?"""
    x = list(v)
    n = len(h)
    for j in range(n):
        q, r = divmod(x[j], h[j][j])
        if r:
            return False
        if q:
            hj = h[j]
            for c in range(j, n):
                x[c] -= q * hj[c]
    return True


def diag_product(h: list[list[int]]) -> int:
    return prod(h[i][i] for i in range(len(h)))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def hnf_mod(rows: list[list[int]], d: int) -> list[list[int]]:
    """Hermite basis of the row lattice L of `rows`, given d*Z^n inside L.

    Column by column, the pivot row starts as d*e_j (a member of L) and
    absorbs every remaining row by a unimodular 2x2 step; all entries right
    of the pivot column are kept modulo d, which d*Z^n inside L allows.
    """
    n = len(rows[0])
    work = [[x % d for x in r] for r in rows]
    basis = []
    for j in range(n):
        piv = [0] * n
        piv[j] = d
        rest = []
        for r in work:
            b = r[j]
            if b == 0:
                rest.append(r)
                continue
            a = piv[j]
            g, u, v = _xgcd(a, b)
            p, q = a // g, b // g
            new_piv = [(u * x + v * y) % d for x, y in zip(piv, r)]
            new_piv[j] = g
            r2 = [(p * y - q * x) % d for x, y in zip(piv, r)]
            piv = new_piv
            if any(r2):
                rest.append(r2)
        basis.append(piv)
        work = rest
    for j in range(n):
        dj = basis[j][j]
        for i in range(j):
            q = basis[i][j] // dj
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], basis[j])]
    return basis


def certify_hnf(h: list[list[int]], a: list[list[int]], det_abs: int) -> bool:
    """H is the Hermite basis of L(A), for A of full column rank with
    lattice determinant det_abs."""
    return (len(h) == len(a[0]) and is_hermite(h)
            and diag_product(h) == det_abs
            and all(in_lattice(h, row) for row in a))


def certify_relations_basis(h: list[list[int]], m: list[list[int]],
                            f: list[list[int]], d: int) -> bool:
    """H is the Hermite basis of {p : p*F in L(M)}, given d*Z^m inside L(M).

    The lattice has index det T(M) / det T(M + F) in Z^n, so containment
    plus that determinant pins H down.
    """
    tm = hnf_mod(m, d)
    tmf = hnf_mod(m + f, d)
    index, rem = divmod(diag_product(tm), diag_product(tmf))
    return (rem == 0 and len(h) == len(f) and is_hermite(h)
            and diag_product(h) == index
            and all(in_lattice(tm, row) for row in matmul(h, f)))


def certify_intersection(h: list[list[int]], a: list[list[int]],
                         b: list[list[int]], da: int, db: int) -> bool:
    """H is the Hermite basis of L(A) meet L(B) for nonsingular square A, B.

    det(L(A) meet L(B)) * det(L(A) + L(B)) == det A * det B.
    """
    ta, tb = hnf_mod(a, da), hnf_mod(b, db)
    tab = hnf_mod(a + b, da)
    index, rem = divmod(da * db, diag_product(tab))
    return (rem == 0 and is_hermite(h) and len(h) == len(a[0])
            and diag_product(h) == index
            and all(in_lattice(ta, row) and in_lattice(tb, row) for row in h))


def certify_remainder(fbar: list[list[int]], f: list[list[int]],
                      t: list[list[int]]) -> bool:
    """Fbar is F reduced modulo the Hermite basis T: Fbar - F lies in L(T)
    row by row, and every entry lies in [0, diagonal of its column)."""
    n = len(t)
    return (len(fbar) == len(f)
            and all(len(r) == n and all(0 <= r[j] < t[j][j] for j in range(n))
                    for r in fbar)
            and all(in_lattice(t, [x - y for x, y in zip(r, s)])
                    for r, s in zip(fbar, f)))


def _reduces_to_zero(v: list[int], h: list[list[int]], pivots: list[int],
                     n_mod: int, start: int = 0) -> bool:
    x = [e % n_mod for e in v]
    for i in range(start, len(h)):
        c = pivots[i]
        q, r = divmod(x[c], h[i][c])
        if r:
            return False
        if q:
            x = [(e - q * y) % n_mod for e, y in zip(x, h[i])]
    return not any(x)


def certify_howell(h: list[list[int]], u: list[list[int]], a: list[list[int]],
                   n_mod: int) -> bool:
    """(H, U) is the Howell form of A over Z/(N) with U*A == H.

    Shape: no zero rows, strictly increasing pivot columns, pivots dividing
    N, entries above a pivot reduced below it.  Howell property: (N/d)*row
    reduces to zero by the rows after it.  U*A == H gives L(H) inside L(A);
    every row of A reducing to zero by H gives the converse.  The Howell
    form is unique, so these pin H down.
    """
    pivots = []
    for i, row in enumerate(h):
        nz = [j for j, x in enumerate(row) if x % n_mod]
        if (not nz or (pivots and nz[0] <= pivots[-1])
                or any(not 0 <= x < n_mod for x in row)):
            return False
        c = nz[0]
        if n_mod % row[c] or any(not 0 <= h[k][c] < row[c] for k in range(i)):
            return False
        pivots.append(c)
    if any(not _reduces_to_zero([(n_mod // row[c]) * x for x in row], h, pivots,
                                n_mod, i + 1)
           for i, (row, c) in enumerate(zip(h, pivots))):
        return False
    ua = matmul(u, a)
    return (all((x - y) % n_mod == 0 for r, s in zip(ua, h) for x, y in zip(r, s))
            and len(ua) == len(h)
            and all(_reduces_to_zero(row, h, pivots, n_mod) for row in a))


def certify_crt(h: int, x_p: list[int], hbar: list[list[int]], a: list[list[int]],
                b: list[int], moduli: list[int]) -> bool:
    """(h, x_p, Hbar) solves x*A == h*b column-modulo M with h minimal.

    Requires x -> x*A to map Z^n onto the sum of the Z/(m_j), which the
    generator proves per prime.  Then h == 1, and the relations basis
    [h x_p; 0 Hbar] has index prod(m_j); containment and that determinant
    pin it down.
    """
    n = len(moduli)
    full = [[h] + list(x_p)] + [[0] + list(r) for r in hbar]
    if h != 1 or len(full) != n + 1 or not is_hermite(full):
        return False
    if diag_product(full) != prod(moduli):
        return False
    for r in full:
        coef, x = r[0], r[1:]
        for j, mj in enumerate(moduli):
            if (sum(xi * a[i][j] for i, xi in enumerate(x)) - coef * b[j]) % mj:
                return False
    return True


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    work = [[x % p for x in r] for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][c], -1, p)
        prow = [x * inv % p for x in work[rank]]
        for i in range(rank + 1, len(work)):
            f = work[i][c]
            if f:
                work[i] = [(x - f * y) % p for x, y in zip(work[i], prow)]
        rank += 1
    return rank


def golden_selftest() -> bool:
    """The relations checker accepts the golden basis for S = 24,
    F = [19; 10; 3] and rejects diag(24, 24, 24), whose rows annihilate F
    modulo S but span a sublattice of index 24^2."""
    m, f = [[24]], [[19], [10], [3]]
    good = [[1, 2, 3], [0, 3, 6], [0, 0, 8]]
    bad = [[24, 0, 0], [0, 24, 0], [0, 0, 24]]
    return (certify_relations_basis(good, m, f, 24)
            and not certify_relations_basis(bad, m, f, 24))

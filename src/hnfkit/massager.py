"""Reduced Smith massagers.

A Smith massager for a nonsingular M is a pair (S, F) with S the Smith form
of M, M*F == 0 column-modulo S, and (S, F) coprime; the reduced variant keeps
F column-reduced modulo S.  The massager compactly carries the denominator
structure of M^{-1} and is the interchange format of the whole pipeline.

Two engines share one modular core, `_massager_mod`: one Hermite pass
modulo a divisor N of the determinant, run alternately on the rows of M and,
as the column pass, on the rows of [M^T | V^T], so that only the right
multiplier V is tracked; then a gcd/lcm repair of the divisibility chain.

* `smith_massager`, the public engine, runs the core with N = |det M|.
* `_entry_massager` serves only the dense pivot block of
  `relations.to_smith_coprime` (step 2), the one massager input that is not
  triangular.  Following the Smith-massager method of Birmpilis, Labahn and
  Storjohann (ISSAC 2020; J. Symbolic Comput. 2023), it gets the dense part
  of the Smith form from one Dixon p-adic solve (Dixon 1982) of
  y = det*M^-1*b.  That splits |det M| = d1*d2, with d1 the part coprime to
  the content of y; the core then runs modulo the small leftover d2 only.

The entry engine certifies its result by two exact checks: prod S == |det M|
and M*F == 0 column-modulo S.  They suffice by this lemma.  Let
G = M^-1*Z^n / Z^n, a group of order |det M| isomorphic to the cokernel of
M.  The second check places each f_j/s_j in M^-1*Z^n, so the map
Z/s_1 + ... + Z/s_n -> G sending e_j to f_j/s_j is well defined.  It is
injective: at the primes of d2 the columns come from the core's unimodular
transform, and at each prime q of d1 the last column has the full q-order of
G, because q does not divide the content of y.  By the first check the two
groups have the same order, so the map is onto, G has invariant factors
s_1 | ... | s_n, and by the uniqueness of invariant factors S is the Smith
form of M.

For a square modulus with entries below a machine word, step 1 of
`relations.to_smith_coprime` takes |det M| from `_lifted_determinant`
instead of a Bareiss elimination, following Abbott, Bronstein and Mulders
(ISSAC 1999).  One LU mod p gives det M mod p; one lift without a
determinant gives (e, y) with M*y == e*b checked exactly and gcd(e, y) = 1,
so e is the exact denominator of x = M^-1*b.  det*M^-1 is integral, hence
e | det, and p, which does not divide det, does not divide e.  With H the
Hadamard bound and Q the product of the primes used, |det/e| <= H/e < Q/2,
so det/e is the one integer of absolute value below Q/2 congruent to
det*e^-1 modulo Q: det = e*(det/e) is a proof, not a probabilistic check.
When Q would need more than one extra prime, or p divides det, Bareiss
supplies |det| and the lifted y is reused.  The gate on entry size is
decided from the input alone: wider entries (a 1024-bit determinant against
a Hadamard bound near 48k bits, say) would fail the bound after a lift that
costs more than the Bareiss it replaces, so they keep the pivot route.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, prod
from operator import mul
from typing import Callable, Iterable

from . import modn, structured_hermite
from .intmat import (
    DimensionError,
    IntMat,
    InternalError,
    PreconditionError,
    SmithForm,
    annihilates,
    colmod,
    determinant,
    invariant_checks_enabled,
    require_colreduced,
)

# the lifting prime of the entry massager, a word-size Mersenne prime, and
# the Mersenne prime of the one extra determinant residue
_P = (1 << 61) - 1
_P2 = (1 << 127) - 1


@dataclass(frozen=True)
class SmithMassager:
    """Reduced massager pair: S (m x m Smith form) and F (n x m, reduced)."""

    s: SmithForm
    f: IntMat

    def __post_init__(self):
        require_colreduced(self.f, self.s, "massager F")


def _is_diagonal(a: list[list[int]]) -> bool:
    return not any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(a))


def _hermite_pass(rows: list[list[int]], n: int, d: int, fold_column: bool) -> None:
    """Row Hermite pass on the leading n x n block, all entries in [0, d).

    Every row operation acts on whole rows, so entries past column n (the
    transform, when the rows are those of [M^T | V^T]) follow along.  Valid
    because d*Z^n lies inside the working lattice throughout, so every
    entrywise reduction modulo d is a row operation against the implicit
    d-scaled block; that block never leaves the lattice since the column
    transform stays unimodular.  Each pivot is additionally folded with d, so
    pivots are always divisors of d.  The fold scales a row of M, which the
    transform does not track: row k here, or with `fold_column` (the rows
    hold columns of M) column k.
    """
    for k in range(n):
        for i in range(k + 1, n):
            b = rows[i][k]
            if b == 0:
                continue
            p = rows[k][k]
            if p != 0 and b % p == 0:
                q = b // p
                rows[i] = [(x - q * y) % d for x, y in zip(rows[i], rows[k])]
                continue
            g, uu, vv = modn.ext_gcd(p, b)
            c21, c22 = -(b // g), p // g
            ak, ai = rows[k], rows[i]
            rows[k] = [(uu * x + vv * y) % d for x, y in zip(ak, ai)]
            rows[i] = [(c21 * x + c22 * y) % d for x, y in zip(ak, ai)]
            rows[k][k] = g % d
        p = rows[k][k]
        gd = gcd(p, d)
        if gd != p:
            # fold in the implicit d-row so the pivot divides d; the scaling
            # must be a unit modulo d to preserve the lattice mod d*Z^n.  The
            # entries below the pivot are zero already, so they need no pass.
            if p:
                w = modn.unit_stabilizer(p, d)
                if fold_column:
                    for row in rows[:k]:
                        row[k] = w * row[k] % d
                else:
                    rows[k] = [w * x % d for x in rows[k]]
            rows[k][k] = p = gd
        for i in range(k):
            q = rows[i][k] // p
            if q:
                rows[i] = [(x - q * y) % d for x, y in zip(rows[i], rows[k])]


def _massager_mod(a: list[list[int]], n: int, d: int) -> tuple[list[int], list[list[int]]]:
    """Smith form of M over Z/(d) and a right transform V, tracked mod d.

    `a` holds M with entries in [0, d) and is consumed.  The diagonal
    entries are gcd(s_i, d) for the invariant factors s_i of M, in a
    divisibility chain; every column j of V satisfies M*v_j == 0 modulo the
    j-th entry.  d must be a unitary divisor of |det M| (coprime to its
    cofactor), so the entries multiply to d exactly; that is checked.
    """
    vt = IntMat.identity(n).to_rows()   # V^T, transposed back on return
    passes = 0
    while not _is_diagonal(a):
        _hermite_pass(a, n, d, fold_column=False)
        if _is_diagonal(a):
            break
        # the column pass: row j of [M^T | V^T] is column j of M, then of V
        t = [list(col) + vr for col, vr in zip(zip(*a), vt)]
        _hermite_pass(t, n, d, fold_column=True)
        a = [list(row) for row in zip(*[tr[:n] for tr in t])]
        vt = [tr[n:] for tr in t]
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
            vt[i] = [(x + y) % d for x, y in zip(vt[i], vt[j])]
            _, uu, vv = modn.ext_gcd(di, dj)
            q = (vv * dj) // g
            vt[j] = [(x - q * y) % d for x, y in zip(vt[j], vt[i])]
            diag[i], diag[j] = g, lcm
    if prod(diag) != d:
        raise InternalError("invariant factor product does not match the determinant")
    return diag, [list(col) for col in zip(*vt)]


def smith_massager(m: IntMat) -> SmithMassager:
    """Reduced Smith massager of a nonsingular matrix.

    Works modulo d = |det m| throughout: d*Z^n lies inside the lattice, so
    entries and the right multiplier stay determinant-bounded, and the left
    multiplier is never formed.  The reduced massager colmod(V, S) is
    unchanged by the modular tracking because every invariant factor divides
    the determinant.  The invariant-factor product is checked against d.
    """
    if not m.is_square():
        raise DimensionError("smith massager needs a square matrix")
    n = m.rows
    d = abs(determinant(m))
    if d == 0:
        raise PreconditionError("singular input to smith massager")
    if d == 1:
        return SmithMassager(SmithForm((1,) * n), IntMat.zeros(n, n))
    diag, v = _massager_mod([[x % d for x in row] for row in m.data], n, d)
    s = SmithForm(diag)
    return SmithMassager(s, colmod(IntMat._of_rows(v, n, n), s))


def _lu_mod(rows: tuple[tuple[int, ...], ...], n: int, p: int
            ) -> tuple[Callable[[list[int]], list[int]], int] | None:
    """One LU factorisation of M modulo the prime p.

    Returns the solver of M*x == r (mod p), which takes r with entries in
    [0, p), and det M mod p: the pivot product, negated once per row swap.
    None when a column has no pivot, that is when p divides det M.
    """
    a = [[x % p for x in row] for row in rows]
    perm = list(range(n))
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            perm[k], perm[piv] = perm[piv], perm[k]
            det = -det
        rk = a[k]
        det = det * rk[k] % p
        inv = pow(rk[k], -1, p)
        tail = rk[k + 1:]
        for ri in a[k + 1:]:
            if ri[k]:
                f = ri[k] * inv % p
                ri[k] = f
                ri[k + 1:] = [(x - f * y) % p for x, y in zip(ri[k + 1:], tail)]
    # L below the diagonal as prefixes; U above it as reversed suffixes, so
    # both substitutions are one zip against the solution built so far
    lower = [a[i][:i] for i in range(n)]
    upper = [a[i][:i:-1] for i in range(n)]
    pivinv = [pow(a[i][i], -1, p) for i in range(n)]

    def solve(r: list[int]) -> list[int]:
        z = []
        for i in range(n):
            z.append((r[perm[i]] - sum(map(mul, lower[i], z))) % p)
        xr = []
        for i in range(n - 1, -1, -1):
            xr.append((z[i] - sum(map(mul, upper[i], xr))) * pivinv[i] % p)
        return xr[::-1]

    return solve, det


def _hadamard_bits(sqnorms: Iterable[int]) -> int:
    """An h with 2^h above the product of the square roots of `sqnorms`:
    the Hadamard bound of a matrix whose rows have these squared norms."""
    return (sum(x.bit_length() for x in sqnorms) + 1) // 2


def _common_denominator(x: list[int], pk: int) -> int | None:
    """Vector rational reconstruction of x modulo pk, with balanced bounds.

    With B = isqrt(pk // 2), so that 2*B*B < pk: the least d <= B found with
    every d*x_i congruent modulo pk to an integer of absolute value at most
    B, or None.  One half-extended Euclid per entry, on the running multiple
    d*x_i.  The answer is the denominator of x whenever x = y/e with
    |y_i| <= B and e <= B.
    """
    bound = isqrt(pk >> 1)
    d = 1
    for xi in x:
        r0, r1, t0, t1 = pk, d * xi % pk, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        d *= abs(t1)
        if d > bound:
            return None
    return d


def _lifted_solution(m: IntMat, solve: Callable[[list[int]], list[int]],
                     det: int | None = None) -> tuple[int, list[int]]:
    """x = M^-1*b for the fixed right-hand side b = (1, 2, ..., n), as a pair
    (e, y) with x = y/e and M*y == e*b checked exactly.

    Dixon p-adic lifting with p = _P: `solve` is M's LU solver mod p, and
    each step adds one p-adic digit of x.  |det*x_i| is a minor with column
    i replaced by b, whose Hadamard bound caps the steps; a vector that
    still fails there raises InternalError.  Two stopping rules:

    * det given (p must not divide it): e = det.  det*M^-1 is integral, so
      y is the symmetric residue of det*x mod p^k once p^k > 2*max|y|;
      lifting stops once that residue repeats and the check holds.
    * det None: vector rational reconstruction at steps spaced about x1.25
      in bits yields a candidate e; in between, the residue of e*x must
      repeat as above.  Reconstruction finds e once p^k > 2*max(|y|, e)^2,
      and e <= |det M| is below the Hadamard bound of M.  gcd(e, y) is then
      divided out, so e is the exact denominator of x, which divides the
      last invariant factor of M and so det M.
    """
    rows, n = m.data, m.rows
    b = list(range(1, n + 1))
    sq = [sum(x * x for x in row) for row in rows]
    cramer_bits = _hadamard_bits(s + br * br for s, br in zip(sq, b))
    e = det
    if det is None:
        cap = 2 * max(cramer_bits, _hadamard_bits(sq)) + 2
        next_try = 0
    else:
        cap = cramer_bits + 2
    r, x, pk, prev = b, [0] * n, 1, None
    while True:
        digit = solve([ri % _P for ri in r])
        x = [xi + pk * di for xi, di in zip(x, digit)]
        pk *= _P
        r = [(ri - sum(map(mul, row, digit))) // _P for ri, row in zip(r, rows)]
        bits = pk.bit_length()
        final = bits > cap
        if det is None and (bits >= next_try or final):
            next_try = bits * 5 // 4
            cand = _common_denominator(x, pk)
            if cand is not None and cand != e:
                e, prev = cand, None
        if e is None:
            if final:
                raise InternalError("p-adic lifting passed the Hadamard bound unsolved")
            continue
        half = pk >> 1
        y = [(e * xi + half) % pk - half for xi in x]
        if y == prev or final:
            if [sum(map(mul, row, y)) for row in rows] == [e * bi for bi in b]:
                if det is None:
                    g = gcd(e, *y)
                    e, y = e // g, [yi // g for yi in y]
                return e, y
            if final:
                raise InternalError("p-adic lifting passed the Hadamard bound unsolved")
        prev = y


def _lifted_determinant(m: IntMat, bareiss: Callable[[], int]
                        ) -> tuple[int, list[int] | None]:
    """|det M| of a square M, and y = |det M|*M^-1*b for `_entry_massager`
    when the p-adic solve ran (None when it did not).

    One LU mod p gives det M mod p.  det/e is the symmetric residue of
    det*e^-1 once the residues' modulus exceeds 2*H/e, H the Hadamard bound
    of M.  With e = 1 that may hold for p alone; then det is read off the LU
    and y lifted with det known, from the same LU (no lift when det is 1).
    Otherwise one lift without a determinant gives x = y/e with e | det M,
    and one more LU modulo _P2 adds a residue when needed.  `bareiss`
    supplies |det M| when p divides det M (the LU finds no pivot; M may be
    singular), when the bound needs more residues, or when _P2 divides
    det M; a lifted vector is then reused, scaled by |det|/e.
    """
    rows, n = m.data, m.rows
    lu = _lu_mod(rows, n, _P)
    if lu is None:
        return bareiss(), None
    solve, det_p = lu
    h = _hadamard_bits(sum(x * x for x in row) for row in rows)
    # H < 2^h, so a modulus of more than h + 2 - e.bit_length() bits is
    # above 2*H/e; with e = 1, p alone may already be
    if _P.bit_length() > h + 1:
        det = abs(det_p - _P if 2 * det_p > _P else det_p)
        return det, None if det == 1 else _lifted_solution(m, solve, det)[1]
    e, y = _lifted_solution(m, solve)
    need = h + 2 - e.bit_length()
    q, mod = det_p * pow(e, -1, _P) % _P, _P
    if mod.bit_length() <= need < (_P * _P2).bit_length():
        lu2 = _lu_mod(rows, n, _P2)
        if lu2 is not None:
            q2 = lu2[1] * pow(e, -1, _P2) % _P2
            q += _P * ((q2 - q) * pow(_P, -1, _P2) % _P2)
            mod *= _P2
    if mod.bit_length() > need:
        det = e * abs(q - mod if 2 * q > mod else q)
    else:
        det = bareiss()
        if det % e:
            raise InternalError("lifted denominator does not divide the determinant")
    return det, [det // e * yi for yi in y]


def _entry_massager(m: IntMat, det: int, y: list[int] | None = None) -> SmithMassager:
    """Reduced Smith massager of a nonsingular M whose |det M| is known.

    One p-adic solve y = det*M^-1*b (run here unless the caller hands y in)
    splits det = d1*d2 with d1 the part of det coprime to the content of y.
    At each prime q of d1 the element y/det of G = M^-1*Z^n / Z^n has the
    full order q^v_q(det), so the q-part of G is cyclic and the Smith form
    carries all of d1 in its last factor.  The deterministic passes then
    run modulo the leftover d2 only, and the last massager column is the CRT
    of theirs with y mod d1.  An upper-triangular block, or one whose det
    the lifting prime divides, skips the solve (d1 = 1): the result is then
    smith_massager's.

    The result is certified by prod S == det and M*F == 0 column-modulo S;
    see the module docstring for why that suffices.  A failure raises
    InternalError.
    """
    n, rows = m.rows, m.data
    if det == 1:
        return SmithMassager(SmithForm((1,) * n), IntMat.zeros(n, n))
    if y is None and det % _P and not m.is_upper_triangular():
        y = _lifted_solution(m, _lu_mod(rows, n, _P)[0], det)[1]
    d1 = 1 if y is None else modn.coprime_part(det, gcd(det, *y))
    d2 = det // d1
    diag, v = _massager_mod([[x % d2 for x in row] for row in rows], n, d2)
    if d1 > 1:
        last = diag[-1]
        w = pow(last, -1, d1)   # last divides d2, which is coprime to d1
        for row, yi in zip(v, y):
            x = row[-1] % last
            row[-1] = x + last * ((yi - x) * w % d1)
        diag[-1] = last * d1
    s = SmithForm(diag)
    f = colmod(IntMat._of_rows(v, n, n), s)
    if prod(diag) != det:
        raise InternalError("entry massager: invariant factor product is not the determinant")
    if not annihilates(m, f, s):
        raise InternalError("entry massager: M*F is not zero column-modulo S")
    mas = SmithMassager(s, f)
    if invariant_checks_enabled() and not verify_massager(m, mas):
        raise InternalError("entry massager failed verify_massager")
    return mas


def verify_massager(m: IntMat, mas: SmithMassager) -> bool:
    """Check M*F == 0 column-modulo S and coprimality of (S, F).

    Coprimality is decided by the fast stacked-Hermite computation: the
    Hermite basis of L(F) + L(S) must be the identity.  Works for trimmed
    massagers too (F may have fewer columns than M).
    """
    if m.cols != mas.f.rows:
        raise DimensionError("massager row count must match matrix dimension")
    if not annihilates(m, mas.f, mas.s):
        return False
    t = structured_hermite.hermite_of_stack(mas.f, mas.s)
    return t.mat == IntMat.identity(mas.s.dim)

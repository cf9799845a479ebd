"""Recursive divide-and-conquer computation of relations-lattice Hermite bases.

Given a coprime pair (S, F) with S a nonsingular Smith form, the Hermite
basis H of the relations lattice factors as H = H2*H1 along any column
partition of its nontrivial band.  Part 1 builds a subproblem whose basis is
H1 by stacking the trailing rows of F onto S, compressing to a Hermite
modulus, and massaging it to Smith form; part 2 folds H1 through F, strips
the common divisor, massages again, and recurses for H2.  The two factors
overlay into H without any arithmetic.

The band is described by an index pair (k, m): the basis is the identity
outside an m-column window starting at column k.  The base case m == 1 is a
single modular division.

A band whose modulus is cyclic, (1, ..., 1, s), is the common case: a random
square matrix almost always has a cyclic cokernel.  Its lattice is
{p : p.f == 0 (mod s)} for F's last column f, and without a trace such a
node is solved by one gcd sweep over f instead of the recursion.  The sweep
hands wrong bands and non-coprime pairs back to the recursion, so every
error is the recursion's own; `trace=` always runs the recursion in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable

from .intmat import (
    DimensionError,
    HermiteBasis,
    IntMat,
    InternalError,
    PreconditionError,
    SmithForm,
    annihilates,
    colmod_mul,
    invariant_checks_enabled,
    matmul,
    require_colreduced,
)
from .massager import smith_massager
from .relations import to_smith_coprime
from .structured_hermite import coprime_parts, hermite_of_stack

TraceFn = Callable[[dict], None]


@dataclass(frozen=True)
class HBCall:
    """One invocation frame: modulus S, reduced F, band (k, m)."""

    s: SmithForm
    f: IntMat
    k: int
    m: int

    def __post_init__(self):
        if self.s.dim != self.m or self.f.cols != self.m:
            raise DimensionError("S and F must have column dimension m")
        if not 0 <= self.k <= self.f.rows - self.m:
            raise PreconditionError("band index out of range: need 0 <= k <= n - m")
        require_colreduced(self.f, self.s, "F")


def base_case(s: int, f: IntMat, k: int) -> HermiteBasis:
    """Index (k, 1) Hermite basis of the relations lattice of (s*I_1, F).

    The only nontrivial column has diagonal s; the entries above it are the
    unique residues c with c*F[k] == -F[i] (mod s).  Requires F[k] to be a
    unit modulo s and F zero below row k, both consequences of the claimed
    index; violations raise.  The shapes are those `HBCall` checked.
    """
    n = f.rows
    col = [row[0] % s for row in f.data]
    for i in range(k + 1, n):
        if col[i] != 0:
            raise PreconditionError("claimed index (k, 1) but F is nonzero below row k")
    pivot = col[k]
    if gcd(pivot, s) != 1:
        raise PreconditionError("claimed index (k, 1) but the pivot entry is not a unit")
    inv = pow(pivot, -1, s) if s > 1 else 0
    rows = IntMat.identity(n).to_rows()
    rows[k][k] = s
    for i in range(k):
        rows[i][k] = (-col[i] * inv) % s
    return HermiteBasis._trusted(IntMat._of_rows(rows, n, n))


def _overlay(h2: HermiteBasis, h1: HermiteBasis, k: int, m1: int, m2: int) -> HermiteBasis:
    """Assemble H2*H1 by block overlay; the product costs no arithmetic.

    H1 is index (k, m1) and H2 index (k+m1, m2): every block of the product
    is a block of one factor, because each factor is the identity where the
    other is nontrivial.
    """
    n = h1.dim
    band = k + m1
    top = h2.mat.data[:band]
    rows = [r2[:k] + r1[k:band] + r2[band:] for r2, r1 in zip(top, h1.mat.data)]
    rows.extend(list(r2) for r2 in h2.mat.data[band:])
    out = HermiteBasis._trusted(IntMat._of_rows(rows, n, n))
    if invariant_checks_enabled() and out.mat != matmul(h2.mat, h1.mat):
        raise InternalError("block overlay differs from the product H2*H1")
    return out


def _cyclic_sweep(s: int, f: tuple[int, ...], k: int, m: int) -> HermiteBasis | None:
    """Index (k, m) Hermite basis of {p : p.f == 0 (mod s)} by one gcd sweep.

    With g_n = s and g_i = gcd(f_i, g_{i+1}), row i has diagonal
    d_i = g_{i+1} / g_i and entries only in the columns j > i with d_j > 1;
    each entry is the unique residue mod d_j that makes the running sum
    vanish mod g_{j+1}.  Returns None when g_0 != 1 (the pair is not
    coprime) or a nontrivial column lies outside [k, k+m) (the band is
    wrong), so that the recursion reports the violation in its own words.
    """
    n = len(f)
    g = [0] * n + [s]
    for i in range(n - 1, -1, -1):
        g[i] = gcd(f[i], g[i + 1])
    if g[0] != 1:
        return None
    d = [g[i + 1] // g[i] for i in range(n)]
    live = [j for j in range(n) if d[j] > 1]
    if live and (live[0] < k or live[-1] >= k + m):
        return None
    inv = {j: pow(f[j] // g[j], -1, d[j]) for j in live}
    rows = IntMat.identity(n).to_rows()
    for i, row in enumerate(rows):
        row[i] = d[i]
        r = d[i] * f[i] % s
        for j in live:
            if j > i:
                p = -(r // g[j]) * inv[j] % d[j]
                row[j] = p
                r = (r + p * f[j]) % s
        if r:
            raise InternalError("cyclic sweep left a row outside the relations lattice")
    return HermiteBasis._trusted(IntMat._of_rows(rows, n, n))


def hermite_basis(call: HBCall, trace: TraceFn | None = None) -> HermiteBasis:
    """Hermite basis of the relations lattice of a coprime (S, F).

    Preconditions: (S, F) coprime and the basis is index (k, m).  Splits the
    band m = floor(m/2) + ceil(m/2), computes H1 from the first part and H2
    from the second, and overlays.

    Without a trace, a node whose band modulus is cyclic (every invariant
    factor but the last is 1, so only F's last column f is nonzero) is
    solved by `_cyclic_sweep` instead, in O(n * |J|) for the J columns
    whose diagonal exceeds 1.  The Hermite basis is unique, so both routes
    give the same matrix; a trace always sees the full recursion.
    """
    s, f, k, m = call.s, call.f, call.k, call.m
    n = f.rows
    if m == 0:
        return HermiteBasis._trusted(IntMat.identity(n))
    if trace is None and m > 1 and all(d == 1 for d in s.diag[:-1]):
        h = _cyclic_sweep(s.diag[-1], f.column(m - 1), k, m)
        if h is not None:
            _check_result(h, s, f)
            return h
    if m == 1:
        h = base_case(s.diag[0], f, k)
        if trace is not None:
            trace({"kind": "base", "k": k, "s": s.diag[0], "f": f, "h": h})
        _check_result(h, s, f)
        return h
    m1 = m // 2
    m2 = m - m1
    # part 1: H1 from the relations lattice of ([S; A], F), A = last n-k-m1 rows
    a = f.submatrix(k + m1, n, 0, m)
    t = hermite_of_stack(a, s)
    mas1 = smith_massager(t.mat)
    s1, v1 = mas1.s, mas1.f
    f1 = colmod_mul(f, v1, s1)
    s1bar, f1bar = _strip_to_band(s1, f1, m1)
    h1 = hermite_basis(HBCall(s1bar, f1bar, k, m1), trace)
    # part 2: H2 from the relations lattice of (S, H1*F)
    b = colmod_mul(h1.mat, f, s)
    c, kk = coprime_parts(t, b, s)
    mas2 = smith_massager(kk.mat)
    s2, v2 = mas2.s, mas2.f
    f2 = colmod_mul(c, v2, s2)
    s2bar, f2bar = _strip_to_band(s2, f2, m2)
    h2 = hermite_basis(HBCall(s2bar, f2bar, k + m1, m2), trace)
    h = _overlay(h2, h1, k, m1, m2)
    if trace is not None:
        trace({"kind": "split", "k": k, "m": m, "s": s, "f": f, "t": t,
               "h1": h1, "b": b, "c": c, "kk": kk, "s2bar": s2bar,
               "f2bar": f2bar, "h2": h2, "h": h})
    _check_result(h, s, f)
    return h


def _strip_to_band(s: SmithForm, f: IntMat, band: int) -> tuple[SmithForm, IntMat]:
    """Keep the trailing `band` columns; the leading ones must be trivial."""
    m = s.dim
    lead = m - band
    if any(d != 1 for d in s.diag[:lead]):
        raise PreconditionError(
            "subproblem modulus has a nontrivial invariant factor outside its band; "
            "the claimed index (k, m) is too narrow")
    return SmithForm(s.diag[lead:]), f.submatrix(0, f.rows, lead, m)


def _check_result(h: HermiteBasis, s: SmithForm, f: IntMat) -> None:
    if h.determinant() != s.determinant():
        raise PreconditionError("determinant of the basis differs from det S")
    if invariant_checks_enabled() and not annihilates(h.mat, f, s):
        raise PreconditionError("H*F is not zero column-modulo S")


def relations_hermite_basis(m: IntMat, g: IntMat, *,
                            index: tuple[int, int] | None = None,
                            trace: TraceFn | None = None) -> HermiteBasis:
    """Hermite basis of the relations lattice of an arbitrary (M, G).

    M must have full column rank.  The input is first rewritten as a coprime
    Smith-modulus pair, then solved recursively.  `index` may supply a known
    (k, m) band of the answer; the default is the whole dimension (0, n).
    """
    n = g.rows
    k, band = index if index is not None else (0, n)
    if band < 0 or not 0 <= k <= n - band:
        raise PreconditionError("index band out of range")
    s, f = to_smith_coprime(m, g)
    if s.dim >= band:
        # columns with invariant factor 1 are zero, since F is reduced mod S
        s_band, f_band = _strip_to_band(s, f, band)
    else:
        pad = band - s.dim
        s_band = SmithForm((1,) * pad + s.diag)
        f_band = IntMat._of_rows([[0] * pad + list(row) for row in f.data], n, band)
    return hermite_basis(HBCall(s_band, f_band, k, band), trace)

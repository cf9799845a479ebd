"""Matrix products column-modulo a diagonal matrix, via partial linearization.

The four kernels are the paper-faithful, tested reference.  The pipeline
calls the plain `intmat.colmod_mul` instead: in CPython the linearized
kernels were measured no faster than native big-integer products.

Each operation here is bit-identical to "multiply exactly, then reduce": the
linearization is purely a balancing device.  Columns (or rows) whose entries
are bounded by a diagonal modulus are split into radix-X digit columns, one
ordinary product is taken, and the digits are recombined modulo the target
modulus.  X is the smallest power of two whose log covers the average column
bitlength, which keeps the expanded dimensions below twice the original.

With invariant checks enabled, every product is cross-checked against plain
multiply-then-reduce.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intmat import (
    DiagonalModulus,
    DimensionError,
    HermiteBasis,
    IntMat,
    InternalError,
    PreconditionError,
    colmod,
    invariant_checks_enabled,
    matmul,
    matsub,
    require_colreduced,
)


@dataclass(frozen=True)
class XadicPlan:
    """Radix and per-column digit counts for one linearized operand."""

    x: int
    lengths: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.lengths)

    def offsets(self) -> list[int]:
        out = [0]
        for e in self.lengths:
            out.append(out[-1] + e)
        return out


def choose_radix(d_bits: int, m: int) -> int:
    """Smallest power of two X with log2(X) >= d_bits/m (at least 2)."""
    if m <= 0:
        return 2
    return 1 << max(1, -(-d_bits // m))


def make_plan(moduli: tuple[int, ...], x: int) -> XadicPlan:
    """Minimal digit counts e_i with X^{e_i} >= modulus_i; entry 1 gives 0."""
    lengths = []
    for d in moduli:
        e = 0
        p = 1
        while p < d:
            p *= x
            e += 1
        lengths.append(e)
    return XadicPlan(x, tuple(lengths))


def _expand_columns(a: IntMat, plan: XadicPlan) -> list[list[int]]:
    """Column linearization: digits of column i occupy e_i new columns.

    Requires 0 <= a[r][i] < X^{e_i}; returns rows of the expanded matrix.
    """
    x = plan.x
    out = []
    for row in a.data:
        new = []
        for v, e in zip(row, plan.lengths):
            for _ in range(e):
                v, digit = divmod(v, x)
                new.append(digit)
            if v != 0:
                raise PreconditionError("entry exceeds its declared column modulus")
        out.append(new)
    return out


def _compress_columns(rows: list[list[int]], plan: XadicPlan,
                      f: DiagonalModulus) -> IntMat:
    """Column compression followed by reduction column-modulo f."""
    x = plan.x
    offs = plan.offsets()
    out = []
    for row in rows:
        new = []
        for i, d in enumerate(f.diag):
            acc = 0
            for j in range(offs[i + 1] - 1, offs[i] - 1, -1):
                acc = acc * x + row[j]
            new.append(acc % d)
        out.append(new)
    return IntMat(out, len(rows), f.dim)


def _expand_rows_mod(b: IntMat, plan: XadicPlan, f: DiagonalModulus) -> list[list[int]]:
    """Row expansion of b: row i becomes X^j * row_i mod f, j in [0, e_i).

    Reduction is eager after every multiply-by-X so residues stay bounded.
    """
    x = plan.x
    fd = f.diag
    out = []
    for row, e in zip(b.data, plan.lengths):
        cur = [v % d for v, d in zip(row, fd)]
        for j in range(e):
            if j > 0:
                cur = [(x * v) % d for v, d in zip(cur, fd)]
            out.append(list(cur))
    return out


def _mul_rows(a_rows: list[list[int]], b_rows: list[list[int]], width: int) -> list[list[int]]:
    if not b_rows:
        return [[0] * width for _ in a_rows]
    bt = list(zip(*b_rows))
    return [[sum(x * y for x, y in zip(arow, bcol)) for bcol in bt] for arow in a_rows]


def _require_rowreduced(a: IntMat, e: DiagonalModulus, what: str) -> None:
    if a.rows != e.dim:
        raise DimensionError(f"{what}: row count vs modulus dimension")
    e.require_nonsingular()
    for row, d in zip(a.data, e.diag):
        for v in row:
            if not 0 <= v < d:
                raise PreconditionError(f"{what} is not reduced row-modulo its modulus")


def colmod_mul_tall_square(a: IntMat, e: DiagonalModulus, b: IntMat,
                           f: DiagonalModulus) -> IntMat:
    """colmod(a*b, f) for a reduced column-modulo e and b column-modulo f.

    Five steps: column-linearize a, row-expand b modulo f, column-linearize
    the expansion, one plain product, column compression modulo f.
    """
    require_colreduced(a, e, "left factor")
    require_colreduced(b, f, "right factor")
    if a.cols != b.rows:
        raise DimensionError("inner dimensions differ")
    result = _tall_square(a, e, b, f)
    if invariant_checks_enabled() and result != colmod(matmul(a, b), f):
        raise InternalError("linearized product differs from the plain product")
    return result


def _tall_square(a: IntMat, e: DiagonalModulus, b: IntMat, f: DiagonalModulus) -> IntMat:
    if a.rows == 0 or a.cols == 0 or f.dim == 0:
        return IntMat.zeros(a.rows, f.dim)
    d_bits = max(e.ceil_log2_det(), f.ceil_log2_det())
    x = max(choose_radix(d_bits, a.cols), choose_radix(d_bits, f.dim))
    eplan = make_plan(e.diag, x)
    abar = _expand_columns(a, eplan)
    bhat = _expand_rows_mod(b, eplan, f)
    fplan = make_plan(f.diag, x)
    bbar = _expand_columns(IntMat(bhat, len(bhat), f.dim), fplan)
    cbar = _mul_rows(abar, bbar, fplan.total)
    return _compress_columns(cbar, fplan, f)


def column_bitlengths(a: IntMat) -> tuple[int, ...]:
    """Bitlength of the largest magnitude per column (1 for a zero column)."""
    out = []
    for j in range(a.cols):
        best = 1
        for i in range(a.rows):
            best = max(best, abs(a[i, j]).bit_length())
        out.append(best)
    return tuple(out)


def colmod_mul_signed(a: IntMat, b: IntMat, f: DiagonalModulus) -> IntMat:
    """colmod(a*b, f) for arbitrary signed a and b reduced column-modulo f.

    Splits a into its positive part and the positive part of -a, runs the
    tall-square product on each against power-of-two column bounds, and
    subtracts modulo f.
    """
    require_colreduced(b, f, "right factor")
    if a.cols != b.rows:
        raise DimensionError("inner dimensions differ")
    if a.cols == 0 or a.rows == 0 or f.dim == 0:
        return IntMat.zeros(a.rows, f.dim)
    bounds = DiagonalModulus(tuple(1 << d for d in column_bitlengths(a)))
    apos = IntMat([[x if x > 0 else 0 for x in row] for row in a.data], a.rows, a.cols)
    aneg = IntMat([[-x if x < 0 else 0 for x in row] for row in a.data], a.rows, a.cols)
    c1 = _tall_square(apos, bounds, b, f)
    c2 = _tall_square(aneg, bounds, b, f)
    result = colmod(matsub(c1, c2), f)
    if invariant_checks_enabled() and result != colmod(matmul(a, b), f):
        raise InternalError("linearized product differs from the plain product")
    return result


def colmod_mul_hermite(h: HermiteBasis, m: IntMat, s: DiagonalModulus) -> IntMat:
    """colmod(H*m, s) for a Hermite basis H with few nontrivial columns.

    Uses H*m = (H - I)*m + m; only the columns of H with diagonal > 1 carry
    anything, and their entries are bounded by that diagonal.
    """
    n = h.dim
    require_colreduced(m, s, "right factor")
    if m.rows != n:
        raise DimensionError("row count does not match the basis dimension")
    if s.dim > n:
        raise PreconditionError("modulus dimension exceeds the basis dimension")
    sel = [j for j in range(n) if h.mat[j, j] > 1]
    if len(sel) > s.dim:
        raise PreconditionError(
            f"basis has {len(sel)} nontrivial columns, more than the allowed {s.dim}")
    if not sel:
        return m
    hbar = IntMat([[h.mat[i, j] - (1 if i == j else 0) for j in sel]
                   for i in range(n)], n, len(sel))
    mbar = IntMat([m.row(j) for j in sel], len(sel), m.cols)
    bounds = DiagonalModulus(tuple(h.mat[j, j] for j in sel))
    prod = _tall_square(hbar, bounds, mbar, s)
    result = IntMat([[(x + y) % d for x, y, d in zip(prow, mrow, s.diag)]
                     for prow, mrow in zip(prod.data, m.data)], n, s.dim)
    if invariant_checks_enabled() and result != colmod(matmul(h.mat, m), s):
        raise InternalError("linearized product differs from the plain product")
    return result


def colmod_mul_wide_tall(a: IntMat, e: DiagonalModulus, b: IntMat,
                         f: DiagonalModulus) -> IntMat:
    """colmod(a*b, f) for a reduced row-modulo e and b column-modulo f.

    Seven steps: row-linearize a, column-linearize b, split the inner
    dimension into chunks, one plain product per chunk, per-chunk column
    compression modulo f, a modular sum, and a final Horner-style row
    compression modulo f.
    """
    _require_rowreduced(a, e, "left factor")
    require_colreduced(b, f, "right factor")
    if a.cols != b.rows:
        raise DimensionError("inner dimensions differ")
    result = _wide_tall(a, e, b, f)
    if invariant_checks_enabled() and result != colmod(matmul(a, b), f):
        raise InternalError("linearized product differs from the plain product")
    return result


def _wide_tall(a: IntMat, e: DiagonalModulus, b: IntMat, f: DiagonalModulus) -> IntMat:
    mr, inner, p = a.rows, a.cols, f.dim
    if mr == 0 or inner == 0 or p == 0:
        return IntMat.zeros(mr, p)
    d_bits = max(e.ceil_log2_det(), f.ceil_log2_det())
    x = max(choose_radix(d_bits, mr), choose_radix(d_bits, p))
    eplan = make_plan(e.diag, x)
    fplan = make_plan(f.diag, x)
    # row linearization of a: row i becomes e_i digit rows
    abar = []
    for row, elen in zip(a.data, eplan.lengths):
        digits = [[0] * inner for _ in range(elen)]
        for j, v in enumerate(row):
            for t in range(elen):
                digits[t][j] = v % x
                v //= x
            if v != 0:
                raise PreconditionError("entry exceeds its declared row modulus")
        abar.extend(digits)
    bbar = _expand_columns(b, fplan)
    width = max(mr, p, 1)
    chunks = range(0, inner, width)
    acc = [[0] * p for _ in range(len(abar))]
    for c0 in chunks:
        c1 = min(c0 + width, inner)
        ablock = [row[c0:c1] for row in abar]
        bblock = bbar[c0:c1]
        cbar = _mul_rows(ablock, bblock, fplan.total)
        chat = _compress_columns(cbar, fplan, f)
        acc = [[(u + v) % d for u, v, d in zip(arow, crow, f.diag)]
               for arow, crow in zip(acc, chat.data)]
    # row compression: Horner accumulation of the digit rows, reduced eagerly
    out = []
    offs = eplan.offsets()
    for i, elen in enumerate(eplan.lengths):
        cur = [0] * p
        for t in range(elen - 1, -1, -1):
            row = acc[offs[i] + t]
            cur = [(x * u + v) % d for u, v, d in zip(cur, row, f.diag)]
        out.append(cur)
    return IntMat(out, mr, p)

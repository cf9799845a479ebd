"""Dense arbitrary-precision integer matrices and the reduction primitives.

Everything downstream works on `IntMat`: an immutable row-major matrix of
Python ints.  The public constructor validates its input; the results of the
operations here are built by the trusted `IntMat._of_rows`, because their
shape holds by construction.  Diagonal moduli get their own small types
(`DiagonalModulus`, `SmithForm`) so that column/row reduction and
divisibility-chain invariants are checked at construction time.
`HermiteBasis` wraps a matrix that satisfies the Hermite invariants (upper
triangular, positive diagonal, off-diagonal entries reduced below the column
diagonal).  Its public constructor verifies them; `HermiteBasis._trusted`
builds internal results that are Hermite by construction and re-checks them
only under `invariant_checks(True)`.

Residues are always taken in [0, d), i.e. the mathematical mod, never the
sign-following remainder.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import chain
from math import prod
from operator import index, lt, mul
from typing import Iterable, Iterator, Sequence

# the switch for the expensive runtime assertion suite; a contextvar, so a
# setting made in one thread or asyncio task does not leak into another
_INVARIANT_CHECKS: ContextVar[bool] = ContextVar("hnfkit_invariant_checks", default=False)


@contextmanager
def invariant_checks(enabled: bool) -> Iterator[None]:
    """Run the block with the runtime assertion suite on or off, then restore
    the previous setting."""
    token = _INVARIANT_CHECKS.set(bool(enabled))
    try:
        yield
    finally:
        _INVARIANT_CHECKS.reset(token)


def invariant_checks_enabled() -> bool:
    return _INVARIANT_CHECKS.get()


class PreconditionError(ValueError):
    """A mathematical precondition was violated (rank, reduction, shape...)."""


class DimensionError(PreconditionError):
    """Operands have incompatible dimensions."""


class ParseError(ValueError):
    """Matrix text input is malformed."""


class InternalError(RuntimeError):
    """An internal consistency check failed: a bug, not a bad input."""


class IntMat:
    """Immutable dense matrix of arbitrary-precision signed integers."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[int]], rows: int | None = None,
                 cols: int | None = None):
        tup = tuple(tuple(map(index, row)) for row in data)
        if rows is None:
            rows = len(tup)
        if cols is None:
            cols = len(tup[0]) if tup else 0
        if rows < 0 or cols < 0:
            raise DimensionError("negative dimensions")
        if cols == 0:
            if any(len(r) != 0 for r in tup) or len(tup) not in (0, rows):
                raise DimensionError("ragged or mis-sized row data")
            tup = ((),) * rows
        elif len(tup) != rows or any(len(r) != cols for r in tup):
            raise DimensionError("ragged or mis-sized row data")
        if rows == 0:
            tup = ()
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", tup)

    def __setattr__(self, name, value):
        raise AttributeError("IntMat is immutable")

    @classmethod
    def _of_rows(cls, data: Iterable[Sequence[int]], rows: int, cols: int) -> "IntMat":
        """Trusted constructor: `data` must be `rows` rows of `cols` ints, each
        a list or a tuple that no other matrix holds.  Skips every check."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", tuple([tuple(r) for r in data]))
        return self

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMat":
        return cls._of_rows([[0] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        data = [[0] * n for _ in range(n)]
        for i, row in enumerate(data):
            row[i] = 1
        return cls._of_rows(data, n, n)

    @classmethod
    def from_flat(cls, rows: int, cols: int, entries: Sequence[int]) -> "IntMat":
        if len(entries) != rows * cols:
            raise DimensionError("entry count does not match rows*cols")
        return cls([entries[i * cols:(i + 1) * cols] for i in range(rows)], rows, cols)

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "IntMat":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)], n, n)

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.data)

    def to_rows(self) -> list[list[int]]:
        return [list(r) for r in self.data]

    def transpose(self) -> "IntMat":
        if self.rows == 0:
            return IntMat.zeros(self.cols, 0)
        return IntMat._of_rows(zip(*self.data), self.cols, self.rows)

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "IntMat":
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise DimensionError("submatrix range out of bounds")
        rows = self.data[r0:r1]
        if c1 - c0 == self.cols:
            # a full-width slice of a tuple is the tuple itself, so copy
            return IntMat._of_rows([list(r) for r in rows], r1 - r0, self.cols)
        return IntMat._of_rows([r[c0:c1] for r in rows], r1 - r0, c1 - c0)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_upper_triangular(self) -> bool:
        """No nonzero entry left of the diagonal; the scan stops at the first
        row that has one."""
        rows = self.data
        return not any(any(rows[i][:i]) for i in range(1, self.rows))

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMat) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"IntMat({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"IntMat({self.rows}x{self.cols}: {body})"


@dataclass(frozen=True)
class DiagonalModulus:
    """Nonnegative diagonal matrix stored as its diagonal vector."""

    diag: tuple[int, ...]

    def __init__(self, diag: Sequence[int]):
        entries = tuple(map(index, diag))
        if any(d < 0 for d in entries):
            raise PreconditionError("diagonal modulus entries must be nonnegative")
        object.__setattr__(self, "diag", entries)

    @property
    def dim(self) -> int:
        return len(self.diag)

    def is_nonsingular(self) -> bool:
        return all(d > 0 for d in self.diag)

    def require_nonsingular(self) -> None:
        if not self.is_nonsingular():
            raise PreconditionError("diagonal modulus has a zero entry")

    def determinant(self) -> int:
        return prod(self.diag)

    def ceil_log2_det(self) -> int:
        # ceil(log2 det) for a nonsingular modulus; 0 when det == 1
        d = self.determinant()
        return (d - 1).bit_length()

    def as_matrix(self) -> IntMat:
        return IntMat.diagonal(self.diag)


class SmithForm(DiagonalModulus):
    """Diagonal modulus with the Smith divisibility chain s_i | s_{i+1}."""

    def __init__(self, diag: Sequence[int]):
        entries = tuple(map(index, diag))
        if any(d < 1 for d in entries):
            raise PreconditionError("Smith form entries must be >= 1")
        for a, b in zip(entries, entries[1:]):
            if b % a != 0:
                raise PreconditionError(f"divisibility chain broken: {a} does not divide {b}")
        object.__setattr__(self, "diag", entries)

    @property
    def largest(self) -> int:
        """Largest invariant factor (1 for the empty form)."""
        return self.diag[-1] if self.diag else 1


class HermiteBasis:
    """Square nonsingular matrix verified to be in Hermite form."""

    __slots__ = ("mat",)

    def __init__(self, mat: IntMat):
        if not mat.is_square():
            raise PreconditionError("Hermite basis must be square")
        rows = mat.data
        for i, row in enumerate(rows):
            if row[i] <= 0:
                raise PreconditionError("Hermite basis needs positive diagonal entries")
            if any(row[:i]):
                raise PreconditionError("Hermite basis must be upper triangular")
        diag = [row[i] for i, row in enumerate(rows)]
        for i, row in enumerate(rows):
            upper = row[i + 1:]
            if upper and (min(upper) < 0 or not all(map(lt, upper, diag[i + 1:]))):
                raise PreconditionError("off-diagonal entry not reduced below its column diagonal")
        object.__setattr__(self, "mat", mat)

    @classmethod
    def _trusted(cls, mat: IntMat) -> "HermiteBasis":
        """Trusted constructor for a matrix in Hermite form by construction:
        the full check runs only under `invariant_checks(True)`."""
        if _INVARIANT_CHECKS.get():
            return cls(mat)
        self = object.__new__(cls)
        object.__setattr__(self, "mat", mat)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("HermiteBasis is immutable")

    @property
    def dim(self) -> int:
        return self.mat.rows

    def diagonal(self) -> tuple[int, ...]:
        return tuple(row[i] for i, row in enumerate(self.mat.data))

    def determinant(self) -> int:
        return prod(self.diagonal())

    def __eq__(self, other) -> bool:
        return isinstance(other, HermiteBasis) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return f"HermiteBasis({self.mat!r})"


def colmod(a: IntMat, s: DiagonalModulus) -> IntMat:
    """Reduce each column of `a` modulo the matching diagonal entry of `s`."""
    if a.cols != s.dim:
        raise DimensionError(f"colmod: {a.cols} columns vs modulus of dimension {s.dim}")
    s.require_nonsingular()
    d = s.diag
    return IntMat._of_rows([[x % dj for x, dj in zip(row, d)] for row in a.data],
                           a.rows, a.cols)


def require_colreduced(a: IntMat, mod: DiagonalModulus, what: str) -> None:
    """Raise unless every entry of `a` lies in [0, d) for its column's d."""
    if a.cols != mod.dim:
        raise DimensionError(f"{what}: {a.cols} columns vs modulus of dimension {mod.dim}")
    mod.require_nonsingular()
    for row in a.data:
        for v, d in zip(row, mod.diag):
            if not 0 <= v < d:
                raise PreconditionError(f"{what} is not reduced column-modulo its modulus")


def rowmod(a: IntMat, s: DiagonalModulus) -> IntMat:
    """Reduce each row of `a` modulo the matching diagonal entry of `s`."""
    if a.rows != s.dim:
        raise DimensionError(f"rowmod: {a.rows} rows vs modulus of dimension {s.dim}")
    s.require_nonsingular()
    return IntMat._of_rows([[x % d for x in row] for row, d in zip(a.data, s.diag)],
                           a.rows, a.cols)


def matmul(a: IntMat, b: IntMat) -> IntMat:
    """Exact product; an empty inner dimension yields the zero matrix."""
    if a.cols != b.rows:
        raise DimensionError(f"matmul: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    if a.cols == 0:
        return IntMat.zeros(a.rows, b.cols)
    bt = list(zip(*b.data))
    out = [[sum(map(mul, arow, bcol)) for bcol in bt] for arow in a.data]
    return IntMat._of_rows(out, a.rows, b.cols)


def colmod_mul(a: IntMat, b: IntMat, f: DiagonalModulus) -> IntMat:
    """colmod(a*b, f) for any integer `a` and `b`: each live column of the
    product is reduced exactly, so `b` need not be reduced.  A column whose
    modulus is 1 is zero by definition and is never multiplied out."""
    if a.cols != b.rows:
        raise DimensionError(f"colmod_mul: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    if b.cols != f.dim:
        raise DimensionError(f"colmod_mul: {b.cols} columns vs modulus of dimension {f.dim}")
    f.require_nonsingular()
    live = [(j, d, b.column(j)) for j, d in enumerate(f.diag) if d != 1]
    out = []
    for arow in a.data:
        row = [0] * f.dim
        for j, d, bcol in live:
            row[j] = sum(map(mul, arow, bcol)) % d
        out.append(row)
    return IntMat._of_rows(out, a.rows, f.dim)


def annihilates(a: IntMat, b: IntMat, f: DiagonalModulus) -> bool:
    """Is a*b zero column-modulo f?  Exact for any integer `a` and `b`."""
    return not any(map(any, colmod_mul(a, b, f).data))


def matadd(a: IntMat, b: IntMat) -> IntMat:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionError("matadd: shape mismatch")
    return IntMat._of_rows([[x + y for x, y in zip(ra, rb)]
                            for ra, rb in zip(a.data, b.data)], a.rows, a.cols)


def matsub(a: IntMat, b: IntMat) -> IntMat:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionError("matsub: shape mismatch")
    return IntMat._of_rows([[x - y for x, y in zip(ra, rb)]
                            for ra, rb in zip(a.data, b.data)], a.rows, a.cols)


def matneg(a: IntMat) -> IntMat:
    return IntMat._of_rows([[-x for x in r] for r in a.data], a.rows, a.cols)


def hstack(*mats: IntMat) -> IntMat:
    mats = tuple(m for m in mats)
    if not mats:
        raise DimensionError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionError("hstack: row counts differ")
    return IntMat._of_rows([list(chain.from_iterable(parts))
                            for parts in zip(*(m.data for m in mats))],
                           rows, sum(m.cols for m in mats))


def vstack(*mats: IntMat) -> IntMat:
    mats = tuple(m for m in mats)
    if not mats:
        raise DimensionError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionError("vstack: column counts differ")
    return IntMat._of_rows([list(r) for m in mats for r in m.data],
                           sum(m.rows for m in mats), cols)


def _bareiss(m: IntMat) -> tuple[tuple[int, ...], int] | None:
    """Fraction-free (Bareiss) elimination of m (m.rows >= m.cols) over all
    rows; each column's pivot is the first remaining row nonzero there.

    Returns the row order (pivot rows as picked, then the rest in their
    original order) and the last pivot: the determinant of the leading
    m.cols rows in that order, 1 with no columns.  None when a column has no
    pivot."""
    work = [list(row) for row in m.data]
    remaining = list(range(m.rows))
    selected = []
    prev = 1
    for col in range(m.cols):
        for pick in remaining:
            if work[pick][col] != 0:
                break
        else:
            return None
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
    return tuple(selected + remaining), prev


def determinant(a: IntMat) -> int:
    """Exact determinant: the diagonal product for an upper-triangular input,
    otherwise the sign of the pivot order times the last pivot of `_bareiss`,
    or 0 when a column has no pivot."""
    if not a.is_square():
        raise DimensionError("determinant of a non-square matrix")
    if a.is_upper_triangular():
        return prod(a.data[i][i] for i in range(a.rows))
    res = _bareiss(a)
    if res is None:
        return 0
    order, last = res
    inversions = sum(x > y for i, x in enumerate(order) for y in order[i + 1:])
    return -last if inversions % 2 else last


def lattice_contains(h: HermiteBasis, v: Sequence[int]) -> bool:
    """Is the row vector v an integer combination of the rows of h?

    Back-substitution column by column: the coefficient of row j is fixed by
    coordinate j once rows before j are peeled off, and each step must divide
    exactly by the diagonal.
    """
    n = h.dim
    if len(v) != n:
        raise DimensionError("vector length does not match basis dimension")
    x = [int(c) for c in v]
    rows = h.mat.data
    for j in range(n):
        q, r = divmod(x[j], rows[j][j])
        if r != 0:
            return False
        if q:
            for c in range(j, n):
                x[c] -= q * rows[j][c]
    return True


def _parse_int(tok: str) -> int:
    body = tok[1:] if tok.startswith("-") else tok
    # isdigit alone admits digits such as '²' or '٣' that int() rejects or
    # reads; only ASCII 0-9 passes both tests
    if not (body.isascii() and body.isdigit()):
        raise ParseError(f"bad integer token {tok!r}")
    return int(tok)


def parse_matrix(text: str) -> IntMat:
    """Parse the matrix text format: `rows cols` then row-major entries."""
    toks = text.split()
    if len(toks) < 2:
        raise ParseError("matrix text needs at least the two dimension tokens")
    rows, cols = _parse_int(toks[0]), _parse_int(toks[1])
    if rows < 0 or cols < 0:
        raise ParseError("negative dimension")
    need = rows * cols
    if len(toks) - 2 != need:
        raise ParseError(f"expected {need} entries, found {len(toks) - 2}")
    return IntMat.from_flat(rows, cols, [_parse_int(t) for t in toks[2:]])


def format_matrix(a: IntMat) -> str:
    """Bit-exact writer: header line, then one row per line, trailing newline."""
    lines = [f"{a.rows} {a.cols}"]
    if a.cols > 0:
        lines.extend(" ".join(str(x) for x in row) for row in a.data)
    return "\n".join(lines) + "\n"

"""Shared random-instance generators for the suite.

Everything is seeded: each helper takes an explicit random.Random so tests
are reproducible run to run.
"""

import random

import pytest

from hnfkit.intmat import IntMat, SmithForm
from hnfkit.oracle import naive_hnf
from hnfkit.relations import pivot_permutation


def rand_mat(rng: random.Random, rows: int, cols: int, lo: int = -20, hi: int = 20) -> IntMat:
    return IntMat([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)],
                  rows, cols)


def rand_full_col_rank(rng: random.Random, rows: int, cols: int,
                       lo: int = -20, hi: int = 20) -> IntMat:
    while True:
        m = rand_mat(rng, rows, cols, lo, hi)
        try:
            pivot_permutation(m)
            return m
        except Exception:
            continue


def rand_nonsingular(rng: random.Random, n: int, lo: int = -20, hi: int = 20) -> IntMat:
    while True:
        m = rand_mat(rng, n, n, lo, hi)
        try:
            naive_hnf(m)
            return m
        except Exception:
            continue


def rand_smith(rng: random.Random, m: int, factors=(1, 1, 2, 2, 3, 4, 5)) -> SmithForm:
    diag = []
    cur = 1
    for _ in range(m):
        cur *= rng.choice(factors)
        diag.append(cur)
    return SmithForm(diag)


def rand_reduced(rng: random.Random, rows: int, s: SmithForm) -> IntMat:
    return IntMat([[rng.randrange(d) for d in s.diag] for _ in range(rows)],
                  rows, s.dim)


def rand_hermite(rng: random.Random, n: int, max_diag: int = 9):
    """Random Hermite basis by generating and normalizing a nonsingular stack."""
    from hnfkit.intmat import HermiteBasis
    diag = [rng.randint(1, max_diag) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diag[i]
        for j in range(i + 1, n):
            rows[i][j] = rng.randrange(diag[j])
    return HermiteBasis(IntMat(rows, n, n))


def assert_trusted(out: IntMat, *inputs: IntMat) -> None:
    """`out` equals its validated rebuild, holds plain ints and owns its rows:
    no nonempty row tuple is shared with another row of `out` or with a row
    of an input."""
    assert out == IntMat(out.to_rows(), out.rows, out.cols)
    assert all(type(x) is int for r in out.data for x in r)
    mine = [id(r) for r in out.data if r]
    assert len(set(mine)) == len(mine)
    assert {id(r) for m in inputs for r in m.data}.isdisjoint(mine)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260808)

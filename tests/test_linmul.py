import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnfkit.intmat import (
    DiagonalModulus,
    IntMat,
    PreconditionError,
    colmod,
    matmul,
    rowmod,
)
from hnfkit.linmul import (
    choose_radix,
    colmod_mul_hermite,
    colmod_mul_signed,
    colmod_mul_tall_square,
    colmod_mul_wide_tall,
    column_bitlengths,
    make_plan,
)

from .conftest import rand_mat


def rand_modulus(rng, m, hi=60):
    return DiagonalModulus([rng.randint(1, hi) for _ in range(m)])


class TestXadicPlan:
    def test_radix_is_power_of_two(self):
        for d in range(0, 40):
            for m in range(1, 7):
                x = choose_radix(d, m)
                assert x & (x - 1) == 0 and x >= 2
                assert x.bit_length() - 1 >= -(-d // m) or d == 0

    def test_lengths_minimal(self):
        plan = make_plan((1, 2, 9, 16), 4)
        assert plan.lengths == (0, 1, 2, 2)
        assert plan.total == 5

    def test_total_bound(self, rng):
        # |e| < 2m whenever the radix covers the average bitlength
        for _ in range(200):
            m = rng.randint(1, 7)
            mod = rand_modulus(rng, m, 10 ** 6)
            d_bits = mod.ceil_log2_det()
            x = choose_radix(d_bits, m)
            plan = make_plan(mod.diag, x)
            assert plan.total < 2 * m

    def test_expand_compress_round_trip(self, rng):
        from hnfkit.linmul import _compress_columns, _expand_columns
        for _ in range(50):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            mod = rand_modulus(rng, m, 500)
            a = colmod(rand_mat(rng, n, m, 0, 10 ** 6), mod)
            x = choose_radix(mod.ceil_log2_det(), m)
            plan = make_plan(mod.diag, x)
            expanded = _expand_columns(a, plan)
            assert _compress_columns(expanded, plan, mod) == a


class TestTallSquare:
    def test_identity_factor(self):
        a = IntMat([[19], [10], [3]])
        e = DiagonalModulus([24])
        got = colmod_mul_tall_square(a, e, IntMat([[1]]), e)
        assert got == a

    def test_worked_pair(self):
        a = IntMat([[3, 1], [2, 0], [1, 1]])
        e = DiagonalModulus([4, 2])
        b = IntMat([[1, 1], [0, 1]])
        f = DiagonalModulus([4, 4])
        assert colmod_mul_tall_square(a, e, b, f) == IntMat(
            [[3, 0], [2, 2], [1, 2]])

    def test_zero_right_factor(self, rng):
        e = rand_modulus(rng, 3)
        f = rand_modulus(rng, 3)
        a = colmod(rand_mat(rng, 5, 3, 0, 100), e)
        assert colmod_mul_tall_square(a, e, IntMat.zeros(3, 3), f) == IntMat.zeros(5, 3)

    def test_unreduced_rejected(self):
        e = DiagonalModulus([5])
        with pytest.raises(PreconditionError):
            colmod_mul_tall_square(IntMat([[7]]), e, IntMat([[1]]), e)

    def test_oracle_equivalence(self, rng):
        for _ in range(500):
            n = rng.randint(1, 8)
            m = rng.randint(1, min(n, 6))
            p = rng.randint(1, 6)
            e = rand_modulus(rng, m)
            f = rand_modulus(rng, p)
            a = colmod(rand_mat(rng, n, m, 0, 10 ** 6), e)
            b = colmod(rand_mat(rng, m, p, 0, 10 ** 6), f)
            assert colmod_mul_tall_square(a, e, b, f) == colmod(matmul(a, b), f)


# Under python -O every `assert` is stripped, so the cross-check must be an
# explicit raise to catch a wrong product.
_WRONG_PRODUCT_SCRIPT = """
from hnfkit import linmul
from hnfkit.intmat import DiagonalModulus, IntMat, InternalError, invariant_checks

assert False, "assertions must be stripped"
linmul._tall_square = lambda a, e, b, f: IntMat.zeros(a.rows, f.dim)
e = DiagonalModulus([4, 2])
f = DiagonalModulus([4, 4])
try:
    with invariant_checks(True):
        linmul.colmod_mul_tall_square(IntMat([[3, 1], [2, 0]]), e, IntMat([[1, 1], [0, 1]]), f)
except InternalError as exc:
    print("raised:", exc)
"""


class TestChecksUnderOptimize:
    def test_wrong_product_raises_under_dash_o(self):
        proc = subprocess.run([sys.executable, "-O", "-c", _WRONG_PRODUCT_SCRIPT],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised:")


class TestSigned:
    def test_negative_column(self):
        got = colmod_mul_signed(IntMat([[-1], [2]]), IntMat([[3]]), DiagonalModulus([5]))
        assert got == IntMat([[2], [1]])

    def test_zero(self):
        f = DiagonalModulus([7, 7])
        assert colmod_mul_signed(IntMat.zeros(3, 2), IntMat.identity(2), f) == \
            IntMat.zeros(3, 2)

    def test_identity_right(self):
        f = DiagonalModulus([7, 7])
        a = IntMat([[-1, 0], [0, -1], [1, 1]])
        assert colmod_mul_signed(a, IntMat.identity(2), f) == IntMat(
            [[6, 0], [0, 6], [1, 1]])

    def test_oracle_equivalence(self, rng):
        for _ in range(500):
            n = rng.randint(1, 8)
            m = rng.randint(1, 6)
            p = rng.randint(1, 6)
            f = rand_modulus(rng, p)
            a = rand_mat(rng, n, m, -10 ** 5, 10 ** 5)
            b = colmod(rand_mat(rng, m, p, 0, 10 ** 6), f)
            assert colmod_mul_signed(a, b, f) == colmod(matmul(a, b), f)

    def test_column_bitlengths(self):
        a = IntMat([[0, -5], [0, 3]])
        assert column_bitlengths(a) == (1, 3)


class TestHermiteShape:
    def test_worked_example(self):
        from hnfkit.intmat import HermiteBasis
        h1 = HermiteBasis(IntMat([[1, 2, 0], [0, 3, 0], [0, 0, 1]]))
        got = colmod_mul_hermite(h1, IntMat([[19], [10], [3]]), DiagonalModulus([24]))
        assert got == IntMat([[15], [6], [3]])

    def test_identity_basis(self, rng):
        from hnfkit.intmat import HermiteBasis
        s = rand_modulus(rng, 2)
        m = colmod(rand_mat(rng, 4, 2, 0, 100), s)
        h = HermiteBasis(IntMat.identity(4))
        assert colmod_mul_hermite(h, m, s) == m

    def test_too_many_nontrivial_columns(self):
        from hnfkit.intmat import HermiteBasis
        h = HermiteBasis(IntMat([[2, 1], [0, 2]]))
        m = IntMat([[0], [1]])
        with pytest.raises(PreconditionError):
            colmod_mul_hermite(h, m, DiagonalModulus([3]))

    def test_oracle_equivalence(self, rng):
        for _ in range(500):
            n = rng.randint(1, 6)
            m = rng.randint(1, n)
            band = sorted(rng.sample(range(n), m))
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = rng.randint(2, 9) if i in band else 1
            for j in range(n):
                for i in range(j):
                    rows[i][j] = rng.randrange(rows[j][j])
            from hnfkit.intmat import HermiteBasis
            h = HermiteBasis(IntMat(rows, n, n))
            s = rand_modulus(rng, m)
            mat = colmod(rand_mat(rng, n, m, 0, 1000), s)
            assert colmod_mul_hermite(h, mat, s) == colmod(matmul(h.mat, mat), s)


class TestWideTall:
    def test_row_vector(self):
        a = IntMat([[1, 0, 1]])
        got = colmod_mul_wide_tall(a, DiagonalModulus([2]),
                                   IntMat([[1], [1], [1]]), DiagonalModulus([4]))
        assert got == IntMat([[2]])

    def test_zero(self, rng):
        e = rand_modulus(rng, 2)
        f = rand_modulus(rng, 2)
        b = colmod(rand_mat(rng, 6, 2, 0, 100), f)
        assert colmod_mul_wide_tall(IntMat.zeros(2, 6), e, b, f) == IntMat.zeros(2, 2)

    def test_worked_shape(self, rng):
        e = DiagonalModulus([8, 8])
        f = DiagonalModulus([8, 8])
        a = rowmod(rand_mat(rng, 2, 6, 0, 100), e)
        b = colmod(rand_mat(rng, 6, 2, 0, 100), f)
        assert colmod_mul_wide_tall(a, e, b, f) == colmod(matmul(a, b), f)

    def test_oracle_equivalence(self, rng):
        for _ in range(500):
            mr = rng.randint(1, 6)
            inner = rng.randint(1, 8)
            p = rng.randint(1, 6)
            e = rand_modulus(rng, mr)
            f = rand_modulus(rng, p)
            a = rowmod(rand_mat(rng, mr, inner, 0, 10 ** 5), e)
            b = colmod(rand_mat(rng, inner, p, 0, 10 ** 5), f)
            assert colmod_mul_wide_tall(a, e, b, f) == colmod(matmul(a, b), f)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_all_shapes_property(data):
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, min(n, 4)))
    p = data.draw(st.integers(1, 4))
    ed = data.draw(st.lists(st.integers(1, 64), min_size=m, max_size=m))
    fd = data.draw(st.lists(st.integers(1, 64), min_size=p, max_size=p))
    e, f = DiagonalModulus(ed), DiagonalModulus(fd)
    a = IntMat([[data.draw(st.integers(0, d - 1)) for d in ed] for _ in range(n)], n, m)
    b = IntMat([[data.draw(st.integers(0, d - 1)) for d in fd] for _ in range(m)], m, p)
    assert colmod_mul_tall_square(a, e, b, f) == colmod(matmul(a, b), f)

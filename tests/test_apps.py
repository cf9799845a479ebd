import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnfkit.apps import (
    hnf,
    lattice_intersection,
    multivariable_crt,
    product_hnf,
    remainder_mod_hermite,
)
from hnfkit.hermite_basis import relations_hermite_basis
from hnfkit.intmat import (
    DiagonalModulus,
    HermiteBasis,
    IntMat,
    PreconditionError,
    colmod,
    hstack,
    lattice_contains,
    matmul,
    matneg,
    matsub,
    vstack,
)
from hnfkit.oracle import naive_hnf
from hnfkit.relations import pivot_permutation, relations_basis_oracle, to_smith_coprime

from .conftest import rand_full_col_rank, rand_hermite, rand_mat, rand_nonsingular

EX4 = IntMat([[1, 2, 3], [4, 5, 6], [7, 8, 1]])


class TestHnf:
    def test_golden(self):
        assert hnf(EX4).mat == IntMat([[1, 2, 3], [0, 3, 6], [0, 0, 8]])

    def test_identity(self):
        assert hnf(IntMat.identity(4)).mat == IntMat.identity(4)

    def test_random_vs_naive(self, rng):
        for _ in range(60):
            n = rng.randint(1, 8)
            m = rng.randint(1, min(n, 6))
            a = rand_full_col_rank(rng, n, m, -99, 99)
            assert hnf(a).mat == naive_hnf(a).mat

    def test_rank_deficient(self):
        with pytest.raises(PreconditionError):
            hnf(IntMat([[2, 4], [1, 2]]))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data())
    def test_smith_products_vs_naive(self, data):
        # U*D*V with unimodular U, V and D a Smith chain, cyclic or not, whose
        # steps reach 2^200: the entry massager's split and local completion
        n = data.draw(st.integers(1, 5))
        cyclic = data.draw(st.booleans())
        steps = st.one_of(st.sampled_from([1, 1, 2, 3, 4, 6, 12]),
                          st.integers(1, 1 << 200))
        diag, cur = [], 1
        for i in range(n):
            if i == n - 1 or not cyclic:
                cur *= data.draw(steps)
            diag.append(cur)
        entry = st.integers(-4, 4)
        lower = [[data.draw(entry) if j < i else int(i == j) for j in range(n)]
                 for i in range(n)]
        upper = [[data.draw(entry) if j > i else int(i == j) for j in range(n)]
                 for i in range(n)]
        a = matmul(matmul(IntMat(lower), IntMat.diagonal(diag)),
                   matmul(IntMat(upper), IntMat(lower[::-1])))
        assert hnf(a).mat == naive_hnf(a).mat


I2 = IntMat.identity(2)


@pytest.mark.parametrize("call", [
    lambda: hnf(EX4, seed=1),
    lambda: remainder_mod_hermite(I2, HermiteBasis(I2), seed=1),
    lambda: product_hnf(I2, I2, seed=1),
    lambda: lattice_intersection(I2, I2, seed=1),
    lambda: multivariable_crt(DiagonalModulus([3, 5]), I2, IntMat([[1, 1]]), seed=1),
    lambda: relations_hermite_basis(EX4, IntMat.identity(3), seed=1),
    lambda: to_smith_coprime(EX4, IntMat.identity(3), seed=1),
    lambda: pivot_permutation(EX4, seed=1),
    # a positional second argument (the old failure budget) is refused too
    lambda: hnf(EX4, 0.5),
], ids=["hnf", "remainder_mod_hermite", "product_hnf", "lattice_intersection",
        "multivariable_crt", "relations_hermite_basis", "to_smith_coprime",
        "pivot_permutation", "hnf_positional"])
def test_seed_is_refused(call):
    # every path is deterministic: no entry point takes a seed
    with pytest.raises(TypeError):
        call()


class TestRemainder:
    def test_multiple_of_rows_reduces_to_zero(self, rng):
        t = rand_hermite(rng, 3)
        q = rand_mat(rng, 2, 3, -5, 5)
        f = matmul(q, t.mat)
        assert remainder_mod_hermite(f, t) == IntMat.zeros(2, 3)

    def test_identity_basis(self, rng):
        t = HermiteBasis(IntMat.identity(3))
        f = rand_mat(rng, 2, 3)
        assert remainder_mod_hermite(f, t) == IntMat.zeros(2, 3)

    def test_random_reduction_properties(self, rng):
        for _ in range(30):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            t = rand_hermite(rng, m)
            f = rand_mat(rng, n, m, -99, 99)
            fbar = remainder_mod_hermite(f, t)
            diff = matsub(fbar, f)
            for i in range(n):
                assert lattice_contains(t, diff.row(i))
            for j in range(m):
                for i in range(n):
                    assert 0 <= fbar[i, j] < t.mat[j, j]


class TestProductHnf:
    def test_identity_factors(self, rng):
        a = rand_nonsingular(rng, 3, -9, 9)
        assert product_hnf(a, IntMat.identity(3)).mat == naive_hnf(a).mat
        assert product_hnf(IntMat.identity(3), a).mat == naive_hnf(a).mat

    def test_adversarial_family(self):
        # bordered factors whose plain product is dense with huge entries
        n = 3
        v = IntMat([[1]] * n, n, 1)
        w = IntMat([[1] * n], 1, n)
        a = vstack(
            hstack(IntMat.identity(n), IntMat([[2 ** n * 1]] * n, n, 1),
                   IntMat.zeros(n, n)),
            hstack(IntMat.zeros(1, n), IntMat([[2 ** n + 1]]), IntMat.zeros(1, n)),
            hstack(IntMat.zeros(n, n), IntMat.zeros(n, 1), IntMat.identity(n)))
        b = vstack(
            hstack(IntMat.identity(n), IntMat.zeros(n, 1), IntMat.zeros(n, n)),
            hstack(IntMat.zeros(1, n), IntMat([[1]]), w),
            hstack(IntMat.zeros(n, n), IntMat.zeros(n, 1),
                   IntMat.diagonal([2] * n)))
        got = product_hnf(a, b)
        assert got.mat == naive_hnf(matmul(a, b)).mat

    def test_random_vs_explicit_product(self, rng):
        for _ in range(30):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            p = rng.randint(1, min(n, m))
            a = rand_mat(rng, n, m, -9, 9)
            b = rand_mat(rng, m, p, -9, 9)
            try:
                expect = naive_hnf(matmul(a, b))
            except PreconditionError:
                continue
            assert product_hnf(a, b).mat == expect.mat

    def test_rank_deficient(self):
        full = IntMat([[2, 1], [0, 3]])
        low = IntMat([[1, 2], [2, 4]])
        for a, b in ((full, low), (low, full)):
            with pytest.raises(PreconditionError):
                product_hnf(a, b)
        # A*B is zero although B has full column rank
        with pytest.raises(PreconditionError):
            product_hnf(IntMat([[1, 0, 1]]), IntMat([[1], [0], [-1]]))


class TestIntersection:
    def test_same_lattice(self, rng):
        a = rand_full_col_rank(rng, 4, 3)
        assert lattice_intersection(a, a).mat == naive_hnf(a).mat

    def test_scaled_identities(self):
        a = IntMat.diagonal([2, 2])
        b = IntMat.diagonal([3, 3])
        assert lattice_intersection(a, b).mat == IntMat.diagonal([6, 6])

    def test_random_vs_oracle(self, rng):
        for _ in range(30):
            m = rng.randint(1, 3)
            n = m + rng.randint(0, 2)
            a = rand_full_col_rank(rng, n, m, -9, 9)
            b = rand_full_col_rank(rng, n, m, -9, 9)
            got = lattice_intersection(a, b)
            mod = vstack(hstack(a, IntMat.zeros(a.rows, m)),
                         hstack(IntMat.zeros(b.rows, m), b))
            g = hstack(IntMat.identity(m), IntMat.identity(m))
            assert got.mat == relations_basis_oracle(mod, g).mat
            for i in range(m):
                assert lattice_contains(naive_hnf(a), got.mat.row(i))
                assert lattice_contains(naive_hnf(b), got.mat.row(i))

    def test_rank_deficient(self):
        full = IntMat([[2, 1], [0, 3]])
        for low in (IntMat([[1, 2], [2, 4], [3, 6]]), IntMat([[1, 2]])):
            for a, b in ((full, low), (low, full)):
                with pytest.raises(PreconditionError):
                    lattice_intersection(a, b)


class TestMultivariableCrt:
    def test_decoupled_classical(self):
        m = DiagonalModulus([3, 5])
        a = IntMat.identity(2)
        b = IntMat([[2, 3]])
        h, xp, hbar = multivariable_crt(m, a, b)
        assert h == 1
        assert xp[0, 0] % 3 == 2 and xp[0, 1] % 5 == 3

    def test_zero_rhs(self):
        m = DiagonalModulus([4, 6])
        a = IntMat([[1, 2], [3, 4]])
        h, xp, hbar = multivariable_crt(m, a, IntMat.zeros(1, 2))
        assert h == 1
        assert xp == IntMat.zeros(1, 2)

    def test_random_solutions(self, rng):
        for _ in range(40):
            n = rng.randint(1, 3)
            m = DiagonalModulus([rng.randint(2, 20) for _ in range(n)])
            a = colmod(rand_mat(rng, n, n, 0, 50), m)
            b = colmod(rand_mat(rng, 1, n, 0, 50), m)
            h, xp, hbar = multivariable_crt(m, a, b)
            lhs = matmul(xp, a)
            for j in range(n):
                assert (lhs[0, j] - h * b[0, j]) % m.diag[j] == 0
            expect = relations_basis_oracle(m.as_matrix(), vstack(matneg(b), a))
            assert h == expect.mat[0, 0]
            assert hbar.mat == expect.mat.submatrix(1, n + 1, 1, n + 1)
            # every homogeneous basis row solves the homogeneous system
            for i in range(n):
                row = matmul(IntMat([hbar.mat.row(i)], 1, n), a)
                for j in range(n):
                    assert row[0, j] % m.diag[j] == 0

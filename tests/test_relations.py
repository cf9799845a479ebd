import pytest

from hnfkit.intmat import (
    IntMat,
    PreconditionError,
    determinant,
    hstack,
    matmul,
    vstack,
)
from hnfkit.oracle import naive_hnf
from hnfkit.relations import (
    apply_row_order,
    pivot_permutation,
    relations_basis_oracle,
    to_smith_coprime,
)

from .conftest import assert_trusted, rand_full_col_rank, rand_mat, rand_nonsingular

EX4 = IntMat([[1, 2, 3], [4, 5, 6], [7, 8, 1]])
EX4_F = IntMat([[19], [10], [3]])


class TestRelationsBasisOracle:
    def test_golden(self):
        h = relations_basis_oracle(IntMat([[24]]), EX4_F)
        assert h.mat == IntMat([[1, 2, 3], [0, 3, 6], [0, 0, 8]])

    def test_zero_f(self):
        h = relations_basis_oracle(IntMat([[24]]), IntMat.zeros(3, 1))
        assert h.mat == IntMat.identity(3)

    def test_identity_modulus(self, rng):
        f = rand_mat(rng, 3, 2)
        h = relations_basis_oracle(IntMat.identity(2), f)
        assert h.mat == IntMat.identity(3)


class TestPivotPermutation:
    def test_forced_rows(self):
        order, det = pivot_permutation(IntMat([[0, 0], [1, 0], [0, 1]]))
        assert order[:2] == (1, 2) and det == 1

    def test_identity_admissible(self):
        order, det = pivot_permutation(IntMat([[2, 1], [0, 3], [5, 5]]))
        assert order[:2] == (0, 1) and det == 6

    def test_random_block_nonsingular(self, rng):
        for _ in range(30):
            m = rng.randint(1, 3)
            a = rand_full_col_rank(rng, m + rng.randint(0, 3), m)
            order, det = pivot_permutation(a)
            assert sorted(order) == list(range(a.rows))
            block = IntMat([a.row(i) for i in order[:m]], m, m)
            assert determinant(block) != 0
            assert det == abs(determinant(block))
            pm = apply_row_order(a, order)
            assert pm.to_rows() == [list(a.row(i)) for i in order]
            assert_trusted(pm, a)
        # a modulus with no columns: every order works and the block is empty
        assert pivot_permutation(IntMat.zeros(3, 0)) == ((0, 1, 2), 1)

    def test_rank_deficient_rejected(self):
        with pytest.raises(PreconditionError):
            pivot_permutation(IntMat([[1, 2], [2, 4], [3, 6]]))


class TestToSmithCoprime:
    def test_golden(self):
        s, f = to_smith_coprime(EX4, IntMat.identity(3))
        assert s.determinant() == 24
        assert relations_basis_oracle(s.as_matrix(), f).mat == naive_hnf(EX4).mat

    def test_identity_modulus(self):
        s, f = to_smith_coprime(IntMat.identity(2), IntMat([[3, 4], [5, 6]]))
        assert s.diag == (1, 1)
        assert relations_basis_oracle(s.as_matrix(), f).mat == IntMat.identity(2)

    def test_postconditions_random(self, rng):
        for _ in range(40):
            m = rng.randint(1, 4)
            ell = m + rng.randint(0, 2)
            modulus = rand_full_col_rank(rng, max(ell, m), m)
            g = rand_mat(rng, rng.randint(0, 4), m)
            s, f = to_smith_coprime(modulus, g)
            # Smith chain holds by construction of SmithForm; F reduced
            for row in f.data:
                for v, d in zip(row, s.diag):
                    assert 0 <= v < d
            # coprime and lattice-preserving
            if f.rows:
                joint = naive_hnf(vstack(s.as_matrix(), f))
                assert joint.mat == IntMat.identity(m)
            expect = relations_basis_oracle(modulus, g)
            got = relations_basis_oracle(s.as_matrix(), f)
            assert got.mat == expect.mat
            # det S equals det of the relations basis
            assert s.determinant() == expect.determinant()

    def test_lattice_preserved_at_every_arrow(self, rng):
        # replay the six-step chain with the library pieces, comparing the
        # oracle basis after each rewrite
        from hnfkit.intmat import DiagonalModulus
        from hnfkit.linmul import colmod_mul_signed, colmod_mul_tall_square
        from hnfkit.massager import _entry_massager, smith_massager
        from hnfkit.structured_hermite import coprime_parts, hermite_of_stack

        for _ in range(40):
            m = rng.randint(1, 4)
            ell = m + rng.randint(0, 2)
            modulus = rand_full_col_rank(rng, max(ell, m), m, -15, 15)
            g = rand_mat(rng, rng.randint(1, 4), m, -15, 15)
            expect = relations_basis_oracle(modulus, g).mat
            order, det = pivot_permutation(modulus)
            pm = apply_row_order(modulus, order)
            assert relations_basis_oracle(pm, g).mat == expect
            mas1 = _entry_massager(pm.submatrix(0, m, 0, m), det)
            m3 = colmod_mul_signed(pm.submatrix(m, pm.rows, 0, m), mas1.f, mas1.s)
            g1 = colmod_mul_signed(g, mas1.f, mas1.s)
            stacked = vstack(mas1.s.as_matrix(), m3)
            assert relations_basis_oracle(stacked, g1).mat == expect
            t1 = hermite_of_stack(m3, mas1.s)
            assert relations_basis_oracle(t1.mat, g1).mat == expect
            mas2 = smith_massager(t1.mat)
            g2 = colmod_mul_tall_square(g1, mas1.s, mas2.f, mas2.s)
            assert relations_basis_oracle(mas2.s.as_matrix(), g2).mat == expect
            t2 = hermite_of_stack(g2, mas2.s)
            c, k = coprime_parts(t2, g2, mas2.s)
            assert relations_basis_oracle(k.mat, c).mat == expect
            mas3 = smith_massager(k.mat)
            f = colmod_mul_tall_square(c, DiagonalModulus(k.diagonal()),
                                       mas3.f, mas3.s)
            assert relations_basis_oracle(mas3.s.as_matrix(), f).mat == expect

    def test_nontrivial_factor_count_bounded(self, rng):
        # the number of nontrivial invariant factors is at most the number of
        # nontrivial columns of the basis
        for _ in range(40):
            m = rng.randint(1, 4)
            modulus = rand_full_col_rank(rng, m + 1, m)
            g = rand_mat(rng, rng.randint(1, 4), m)
            s, f = to_smith_coprime(modulus, g)
            h = relations_basis_oracle(modulus, g)
            nontrivial_cols = sum(1 for i in range(h.dim) if h.mat[i, i] > 1)
            nontrivial_factors = sum(1 for d in s.diag if d > 1)
            assert nontrivial_factors <= nontrivial_cols


class TestLatticeRewrites:
    """The remaining lattice-preserving rewrites, exercised as test-time
    constructions on the oracle."""

    def test_postmultiply_nonsingular(self, rng):
        for _ in range(20):
            m = rng.randint(1, 3)
            modulus = rand_nonsingular(rng, m, -9, 9)
            f = rand_mat(rng, rng.randint(1, 3), m)
            r = rand_nonsingular(rng, m, -5, 5)
            before = relations_basis_oracle(modulus, f)
            after = relations_basis_oracle(matmul(modulus, r), matmul(f, r))
            assert before.mat == after.mat

    def test_block_extension(self, rng):
        for _ in range(20):
            m = rng.randint(1, 3)
            mp = rng.randint(1, 3)
            modulus = rand_nonsingular(rng, m, -9, 9)
            f = rand_mat(rng, rng.randint(1, 3), m)
            ext = rand_nonsingular(rng, mp, -9, 9)
            big_mod = vstack(hstack(ext, IntMat.zeros(mp, m)),
                             hstack(IntMat.zeros(m, mp), modulus))
            big_f = hstack(IntMat.zeros(f.rows, mp), f)
            assert relations_basis_oracle(big_mod, big_f).mat == \
                relations_basis_oracle(modulus, f).mat

    def test_shift_by_modulus_row_multiple(self, rng):
        for _ in range(20):
            m = rng.randint(1, 3)
            modulus = rand_nonsingular(rng, m, -9, 9)
            f = rand_mat(rng, 2, m)
            q = rand_mat(rng, 2, m, -3, 3)
            shifted = IntMat([[x + y for x, y in zip(fr, qr)]
                              for fr, qr in zip(f.data, matmul(q, modulus).data)])
            assert relations_basis_oracle(modulus, shifted).mat == \
                relations_basis_oracle(modulus, f).mat

import contextvars

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnfkit.intmat import (
    DiagonalModulus,
    DimensionError,
    HermiteBasis,
    IntMat,
    ParseError,
    PreconditionError,
    SmithForm,
    annihilates,
    colmod,
    colmod_mul,
    determinant,
    format_matrix,
    hstack,
    invariant_checks,
    invariant_checks_enabled,
    lattice_contains,
    matadd,
    matmul,
    matneg,
    matsub,
    parse_matrix,
    rowmod,
    vstack,
)
from .conftest import assert_trusted, rand_mat

EX4 = IntMat([[1, 2, 3], [4, 5, 6], [7, 8, 1]])
EX4_HNF = IntMat([[1, 2, 3], [0, 3, 6], [0, 0, 8]])


class TestColmod:
    def test_worked_column(self):
        got = colmod(IntMat([[39], [30], [3]]), DiagonalModulus([24]))
        assert got == IntMat([[15], [6], [3]])

    def test_mod_one_is_zero(self):
        a = IntMat([[5, -7], [2, 9]])
        assert colmod(a, DiagonalModulus([1, 1])) == IntMat.zeros(2, 2)

    def test_negative_entries(self):
        assert colmod(IntMat([[-1, 7]]), DiagonalModulus([5, 4])) == IntMat([[4, 3]])

    def test_idempotent(self, rng):
        for _ in range(25):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            s = DiagonalModulus([rng.randint(1, 30) for _ in range(m)])
            a = rand_mat(rng, n, m, -99, 99)
            r = colmod(a, s)
            assert colmod(r, s) == r

    def test_difference_divisible(self, rng):
        for _ in range(25):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            s = DiagonalModulus([rng.randint(1, 30) for _ in range(m)])
            a = rand_mat(rng, n, m, -99, 99)
            r = colmod(a, s)
            for i in range(n):
                for j in range(m):
                    assert (a[i, j] - r[i, j]) % s.diag[j] == 0

    def test_zero_modulus_rejected(self):
        with pytest.raises(PreconditionError):
            colmod(IntMat([[1]]), DiagonalModulus([0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            colmod(IntMat([[1, 2]]), DiagonalModulus([3]))


class TestRowmod:
    def test_per_row_residues(self):
        got = rowmod(IntMat([[7, -1], [9, 9]]), DiagonalModulus([5, 4]))
        assert got == IntMat([[2, 4], [1, 1]])

    def test_zero_matrix(self):
        z = IntMat.zeros(2, 3)
        assert rowmod(z, DiagonalModulus([7, 9])) == z

    def test_mod_one(self):
        a = IntMat([[5, 6], [7, 8]])
        assert rowmod(a, DiagonalModulus([1, 1])) == IntMat.zeros(2, 2)


class TestMatmul:
    def test_massager_product(self):
        assert matmul(EX4, IntMat([[19], [10], [3]])) == IntMat([[48], [144], [216]])

    def test_identity(self, rng):
        a = rand_mat(rng, 4, 4)
        assert matmul(a, IntMat.identity(4)) == a

    def test_against_schoolbook(self, rng):
        a = rand_mat(rng, 4, 4)
        b = rand_mat(rng, 4, 4)
        expect = [[sum(a[i, k] * b[k, j] for k in range(4)) for j in range(4)]
                  for i in range(4)]
        assert matmul(a, b) == IntMat(expect)

    def test_empty_inner_dimension(self):
        a = IntMat([], 2, 0)
        b = IntMat([], 0, 3)
        assert matmul(a, b) == IntMat.zeros(2, 3)


class TestColmodMul:
    def test_matches_colmod_of_product(self, rng):
        for _ in range(60):
            n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
            # about half the moduli are 1, some are large
            f = DiagonalModulus([rng.choice((1, 1, 2, 12, 97, 2**70 + 1))
                                 for _ in range(m)])
            a = rand_mat(rng, n, k, -2**80, 2**80)
            b = colmod(rand_mat(rng, k, m, -2**80, 2**80), f)
            assert colmod_mul(a, b, f) == colmod(matmul(a, b), f)

    def test_empty_shapes(self):
        f = DiagonalModulus([5, 1, 7])
        b = IntMat([[1, 0, 6], [4, 0, 2]])
        assert colmod_mul(IntMat([], 0, 2), b, f) == IntMat([], 0, 3)
        assert colmod_mul(IntMat([[3, -4]]), IntMat([[], []], 2, 0),
                          DiagonalModulus([])) == IntMat([[]], 1, 0)
        assert colmod_mul(IntMat([], 2, 0), IntMat([], 0, 3), f) == IntMat.zeros(2, 3)

    def test_unreduced_and_negative_right_factors(self, rng):
        # colmod(a*b, f) is exact for any integer b, so b need not be reduced
        a = IntMat([[2], [-3]])
        f = DiagonalModulus([5, 3, 1])
        for b in (IntMat([[5, 0, 7]]), IntMat([[0, -1, -4]])):
            assert colmod_mul(a, b, f) == colmod(matmul(a, b), f)
        for _ in range(40):
            n, k = rng.randint(1, 4), rng.randint(1, 4)
            g = DiagonalModulus([rng.choice((1, 2, 12, 2**70 + 1)) for _ in range(3)])
            a = rand_mat(rng, n, k, -2**80, 2**80)
            b = rand_mat(rng, k, 3, -2**90, 2**90)
            assert colmod_mul(a, b, g) == colmod(matmul(a, b), g)

    def test_inner_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            colmod_mul(IntMat([[1, 2]]), IntMat([[1]]), DiagonalModulus([3]))
        with pytest.raises(DimensionError):
            colmod_mul(IntMat([[1]]), IntMat([[1, 2]]), DiagonalModulus([3]))


class TestAnnihilates:
    # EX4 * (19, 10, 3) == (48, 144, 216), zero modulo 24
    F = IntMat([[0, 19], [0, 10], [0, 3]])
    S = DiagonalModulus([1, 24])

    def test_unit_modulus_column(self):
        assert annihilates(EX4, self.F, self.S)
        assert annihilates(EX4, IntMat.zeros(3, 2), DiagonalModulus([1, 1]))

    def test_single_wrong_entry(self):
        for i in range(3):
            rows = self.F.to_rows()
            rows[i][1] += 1
            assert not annihilates(EX4, IntMat(rows), self.S)
            rows = EX4.to_rows()
            rows[i][2] += 1
            assert not annihilates(IntMat(rows), self.F, self.S)

    def test_empty_shapes(self):
        assert annihilates(IntMat([], 0, 3), self.F, self.S)
        assert annihilates(EX4, IntMat([[], [], []], 3, 0), DiagonalModulus([]))
        assert annihilates(IntMat([], 2, 0), IntMat([], 0, 2), self.S)


class TestTrustedResults:
    def test_every_operation(self, rng):
        # random shapes, 0 rows and 0 columns included
        for _ in range(150):
            r, c, k = (rng.randint(0, 4) for _ in range(3))
            a, b = rand_mat(rng, r, c), rand_mat(rng, r, c)
            below = rand_mat(rng, k, c)
            p = rand_mat(rng, c, k)
            fc, fr, fk = (DiagonalModulus([rng.randint(1, 9) for _ in range(d)])
                          for d in (c, r, k))
            r0, r1 = sorted(rng.randint(0, r) for _ in range(2))
            c0, c1 = sorted(rng.randint(0, c) for _ in range(2))
            rows = a.to_rows()
            for lo, hi in ((c0, c1), (0, c)):
                sub = a.submatrix(r0, r1, lo, hi)
                assert_trusted(sub, a)
                assert sub.to_rows() == [row[lo:hi] for row in rows[r0:r1]]
            assert_trusted(IntMat.zeros(r, c))
            assert_trusted(IntMat.identity(r))
            t = a.transpose()
            assert_trusted(t, a)
            assert (t.rows, t.cols) == (c, r)
            assert all(t[j, i] == a[i, j] for i in range(r) for j in range(c))
            for parts in ((a,), (a, b), (b, a, b)):
                h = hstack(*parts)
                assert_trusted(h, *parts)
                assert h.to_rows() == [sum(rs, []) for rs in zip(*(m.to_rows() for m in parts))]
            for parts in ((a,), (a, below), (below, a, below)):
                v = vstack(*parts)
                assert_trusted(v, *parts)
                assert v.to_rows() == sum((m.to_rows() for m in parts), [])
            assert_trusted(colmod(a, fc), a)
            assert_trusted(rowmod(a, fr), a)
            assert_trusted(matmul(a, p), a, p)
            pk = colmod(p, fk)
            assert_trusted(colmod_mul(a, pk, fk), a, pk)
            for out in (matadd(a, b), matsub(a, b)):
                assert_trusted(out, a, b)
            assert_trusted(matneg(a), a)


class TestIntMatType:
    def test_non_integers_rejected(self):
        with pytest.raises(TypeError):
            IntMat([[2.9, 0.5], [0, 3.99]])
        for bad in (3.0, "3", None):
            with pytest.raises(TypeError):
                IntMat([[1, bad]])


class TestDeterminant:
    def test_golden(self):
        assert determinant(EX4) == 24

    def test_identity(self):
        assert determinant(IntMat.identity(5)) == 1

    def test_repeated_row(self):
        assert determinant(IntMat([[1, 2], [1, 2]])) == 0

    def test_row_swap_sign(self):
        assert determinant(IntMat([[0, 1], [1, 0]])) == -1

    def test_singular_with_pivotless_later_column(self):
        # the first column has a pivot; a later one has none, before or
        # after elimination
        for rows in ([[1, 2, 0], [3, 4, 0], [5, 6, 0]],
                     [[1, 2, 3], [2, 4, 5], [3, 6, 7]]):
            assert determinant(IntMat(rows)) == 0

    def test_multiplicative(self, rng):
        for _ in range(20):
            n = rng.randint(1, 6)
            a = rand_mat(rng, n, n, -9, 9)
            b = rand_mat(rng, n, n, -9, 9)
            assert determinant(matmul(a, b)) == determinant(a) * determinant(b)

    def test_upper_triangular_matches_transpose(self, rng):
        # an upper-triangular input takes the diagonal product; its transpose
        # is lower triangular and takes the Bareiss elimination
        def upper(n):
            rows = [[rng.randint(-9, 9) if j >= i else 0 for j in range(n)]
                    for i in range(n)]
            rows[0][n - 1] = rows[0][n - 1] or 1   # keeps the transpose off the scan
            return rows

        cases = [IntMat(upper(rng.randint(2, 7))) for _ in range(40)]
        for _ in range(10):
            rows = upper(rng.randint(2, 7))
            i = rng.randrange(len(rows))
            rows[i][i] = 0
            cases.append(IntMat(rows))
        for rows, det in (([[-3, 5, 1], [0, 2, 7], [0, 0, -4]], 24), ([[-2, 9], [0, 5]], -10),
                          ([[-7]], -7), ([[4, 1, 2], [0, 0, 3], [0, 0, 5]], 0)):
            assert determinant(IntMat(rows)) == det
            cases.append(IntMat(rows))
        for a in cases:
            assert determinant(a) == determinant(a.transpose())


class TestLattice:
    def test_golden_row_membership(self):
        h = HermiteBasis(EX4_HNF)
        assert lattice_contains(h, [1, 2, 3])

    def test_zero_vector(self):
        h = HermiteBasis(EX4_HNF)
        assert lattice_contains(h, [0, 0, 0])

    def test_strict_diagonal(self):
        assert not lattice_contains(HermiteBasis(IntMat([[2]])), [1])

    def test_every_basis_row(self, rng):
        from .conftest import rand_hermite
        for _ in range(20):
            h = rand_hermite(rng, rng.randint(1, 5))
            for i in range(h.dim):
                assert lattice_contains(h, h.mat.row(i))

    def test_equality_is_matrix_equality(self):
        assert HermiteBasis(IntMat.identity(2)) == HermiteBasis(IntMat.identity(2))
        assert HermiteBasis(IntMat([[2]])) != HermiteBasis(IntMat([[3]]))


class TestHermiteBasisType:
    def test_rejects_lower_triangle(self):
        with pytest.raises(PreconditionError):
            HermiteBasis(IntMat([[1, 0], [1, 1]]))

    def test_rejects_unreduced(self):
        with pytest.raises(PreconditionError):
            HermiteBasis(IntMat([[1, 5], [0, 3]]))
        # a negative entry above the diagonal is not reduced either
        with pytest.raises(PreconditionError,
                           match="^off-diagonal entry not reduced below its column diagonal$"):
            HermiteBasis(IntMat([[1, -1, 0], [0, 3, 0], [0, 0, 2]]))

    def test_rejects_nonpositive_diagonal(self):
        for bad in (IntMat([[1, 0], [0, 0]]), IntMat([[-2]])):
            with pytest.raises(PreconditionError,
                               match="^Hermite basis needs positive diagonal entries$"):
                HermiteBasis(bad)

    def test_trusted_checks_only_under_invariant_checks(self):
        bad = IntMat([[1, 5], [0, 3]])
        assert HermiteBasis._trusted(bad).mat == bad
        with invariant_checks(True):
            with pytest.raises(PreconditionError):
                HermiteBasis._trusted(bad)
            assert HermiteBasis._trusted(EX4_HNF) == HermiteBasis(EX4_HNF)

    def test_index_keywords_rejected(self):
        # the basis carries no band metadata
        with pytest.raises(TypeError):
            HermiteBasis(IntMat([[1, 0, 3], [0, 1, 6], [0, 0, 8]]), index_k=2, index_m=1)


class TestSmithFormType:
    def test_chain_enforced(self):
        with pytest.raises(PreconditionError):
            SmithForm([2, 3])
        assert SmithForm([2, 6, 12]).largest == 12

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            SmithForm([0, 2])

    def test_non_integers_rejected(self):
        for bad in (2.0, 2.5, "2"):
            with pytest.raises(TypeError):
                SmithForm([1, bad])


class TestDiagonalModulusType:
    def test_non_integers_rejected(self):
        for bad in (2.0, 2.5, "2"):
            with pytest.raises(TypeError):
                DiagonalModulus([3, bad])


class TestTextFormat:
    def test_golden_round_trip(self):
        text = format_matrix(EX4)
        assert text == "3 3\n1 2 3\n4 5 6\n7 8 1\n"
        assert parse_matrix(text) == EX4

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    def test_round_trip(self, rows, cols, data):
        entries = [data.draw(st.integers(-(10 ** 30), 10 ** 30))
                   for _ in range(rows * cols)]
        a = IntMat.from_flat(rows, cols, entries)
        assert parse_matrix(format_matrix(a)) == a

    def test_rejects_bad_tokens(self):
        with pytest.raises(ParseError):
            parse_matrix("1 1\n+3\n")
        with pytest.raises(ParseError):
            parse_matrix("1 2\n5\n")
        with pytest.raises(ParseError):
            parse_matrix("1 1 5 9")

    @pytest.mark.parametrize("tok", ["\u00b2", "\u0663", "\uff11", "-\u0663", "1\u00b2", "-"])
    def test_rejects_digits_outside_ascii(self, tok):
        # str.isdigit accepts all of these digits; int() rejects '²' with a
        # ValueError and reads '٣' and '１' as 3 and 1
        with pytest.raises(ParseError, match="bad integer token"):
            parse_matrix(f"1 1\n{tok}\n")

    def test_zero_dimension(self):
        a = IntMat([], 0, 3)
        assert parse_matrix(format_matrix(a)) == a
        b = IntMat([[], []], 2, 0)
        assert parse_matrix(format_matrix(b)) == b


class TestInvariantChecks:
    def test_context_manager_nests_and_restores(self):
        assert invariant_checks_enabled() is False
        with invariant_checks(True):
            assert invariant_checks_enabled() is True
            with invariant_checks(False):
                assert invariant_checks_enabled() is False
            assert invariant_checks_enabled() is True
            with pytest.raises(ZeroDivisionError):
                with invariant_checks(False):
                    1 // 0
            assert invariant_checks_enabled() is True
        assert invariant_checks_enabled() is False

    def test_setting_stays_in_its_context(self):
        # a setting made inside a copied context does not leak into the caller
        ctx = contextvars.copy_context()
        block = invariant_checks(True)
        ctx.run(block.__enter__)
        try:
            assert invariant_checks_enabled() is False
            assert ctx.run(invariant_checks_enabled) is True
        finally:
            ctx.run(block.__exit__, None, None, None)
        assert ctx.run(invariant_checks_enabled) is False

from math import gcd

import pytest

from hnfkit import cli, massager
from hnfkit.apps import hnf
from hnfkit.intmat import (
    IntMat,
    InternalError,
    PreconditionError,
    SmithForm,
    determinant,
    format_matrix,
    invariant_checks,
    matmul,
)
from hnfkit.massager import SmithMassager, smith_massager, verify_massager
from hnfkit.modn import coprime_part
from hnfkit.oracle import naive_hnf, naive_smith
from hnfkit.relations import relations_basis_oracle

from .conftest import rand_nonsingular

EX4 = IntMat([[1, 2, 3], [4, 5, 6], [7, 8, 1]])


class TestSmithDecomposition:
    """The Smith form S computed by smith_massager."""

    def test_golden(self):
        # F is not canonical (it follows ext_gcd's cofactors), so it is pinned
        # bit for bit along with S
        cases = [
            (EX4, (1, 1, 24), [[0, 0, 17], [0, 0, 14], [0, 0, 9]]),
            # the column pass folds a pivot with d
            (IntMat([[0, -3, 7], [4, 1, 1], [8, -1, -5]]), (1, 2, 84),
             [[0, 1, 71], [0, 1, 28], [0, 1, 24]]),
            # both the row and the column pass fold a pivot
            (IntMat([[-8, 6, -4, -2], [-9, -1, 4, 1], [-8, 8, -6, 5], [0, -1, -2, 6]]),
             (1, 1, 1, 1572),
             [[0, 0, 0, 760], [0, 0, 0, 1222], [0, 0, 0, 967], [0, 0, 0, 1050]]),
            # diagonal, but not a divisibility chain: the chain repair runs
            (IntMat.diagonal([4, 6]), (2, 12), [[1, 9], [1, 10]]),
        ]
        for m, diag, f in cases:
            mas = smith_massager(m)
            assert (mas.s.diag, mas.f.to_rows()) == (diag, f)
            assert verify_massager(m, mas)

    def test_diagonal_pair(self):
        m = IntMat.diagonal([4, 6])
        mas = smith_massager(m)
        assert mas.s.diag == (2, 12)
        assert verify_massager(m, mas)


class TestSmithMassager:
    def test_known_good_pair_verifies(self):
        mas = SmithMassager(SmithForm([24]), IntMat([[19], [10], [3]]))
        assert verify_massager(EX4, mas)

    def test_known_good_pair_extended_verifies(self):
        mas = SmithMassager(SmithForm([1, 1, 24]),
                            IntMat([[0, 0, 19], [0, 0, 10], [0, 0, 3]]))
        assert verify_massager(EX4, mas)

    def test_perturbed_pair_fails(self):
        mas = SmithMassager(SmithForm([24]), IntMat([[20], [10], [3]]))
        assert not verify_massager(EX4, mas)

    def test_det_keyword_rejected(self):
        with pytest.raises(TypeError):
            smith_massager(EX4, det=24)

    def test_identity(self):
        mas = smith_massager(IntMat.identity(3))
        assert mas.s.diag == (1, 1, 1)
        assert mas.f == IntMat.zeros(3, 3)

    def test_diagonal_instance(self):
        m = IntMat.diagonal([2, 3])
        mas = smith_massager(m)
        assert mas.s.diag == (1, 6)
        assert verify_massager(m, mas)

    def test_singular_rejected(self):
        with pytest.raises(PreconditionError):
            smith_massager(IntMat([[1, 2], [2, 4]]))
        with pytest.raises(PreconditionError, match="singular input to smith massager"):
            smith_massager(IntMat([[3, 1, 2], [0, 0, 5], [0, 0, 7]]))

    def test_det_is_keyword_only(self):
        # a positional 0.25 (the old failure budget) must not become det
        with pytest.raises(TypeError):
            smith_massager(IntMat.identity(2), 0.25)

    def test_computed_massager_verifies(self, rng):
        for _ in range(300):
            n = rng.randint(1, 8)
            m = rand_nonsingular(rng, n, -50, 50)
            mas = smith_massager(m)
            assert verify_massager(m, mas)

    def test_det_matches(self, rng):
        from hnfkit.intmat import determinant
        for _ in range(40):
            n = rng.randint(1, 6)
            m = rand_nonsingular(rng, n, -50, 50)
            mas = smith_massager(m)
            assert mas.s.determinant() == abs(determinant(m))
            assert mas.s == naive_smith(m)

    def test_minimal_denominator(self, rng):
        # the relations lattice of (S, F) has Hermite basis equal to the
        # Hermite form of the source matrix
        for _ in range(40):
            n = rng.randint(1, 5)
            m = rand_nonsingular(rng, n, -20, 20)
            mas = smith_massager(m)
            h = relations_basis_oracle(mas.s.as_matrix(), mas.f)
            assert h.mat == naive_hnf(m).mat

    def test_reduced_invariant_enforced(self):
        with pytest.raises(PreconditionError):
            SmithMassager(SmithForm([4]), IntMat([[5]]))


P61 = (1 << 61) - 1
# unit lower and unit upper triangular, so U*D*V has the Smith form of D
U4 = IntMat([[1, 0, 0, 0], [2, 1, 0, 0], [-1, 3, 1, 0], [4, -2, 5, 1]])
V4 = IntMat([[1, 3, -2, 1], [0, 1, 4, -1], [0, 0, 1, 2], [0, 0, 0, 1]])


def _udv(diag):
    return matmul(matmul(U4, IntMat.diagonal(diag)), V4)


def _lifted_part(m):
    """d1: the part of |det m| that the p-adic solve settles."""
    d = abs(determinant(m))
    solve = massager._lu_mod(m.data, m.rows, P61)[0]
    e, y = massager._lifted_solution(m, solve, d)
    assert e == d
    return coprime_part(d, gcd(d, *y))


class TestEntryMassager:
    """The certified p-adic engine behind step 2 of to_smith_coprime."""

    @staticmethod
    def check(m):
        mas = massager._entry_massager(m, abs(determinant(m)))
        assert verify_massager(m, mas)
        assert mas.s == smith_massager(m).s
        assert hnf(m).mat == naive_hnf(m).mat
        return mas

    @staticmethod
    def no_solve(monkeypatch):
        def refuse(m, det):
            raise AssertionError("the p-adic solve must be skipped here")
        monkeypatch.setattr(massager, "_lifted_solution", refuse)

    def test_cyclic_dense_needs_no_local_pass(self):
        m = IntMat([[5, -1, -2, 9], [-6, 1, -9, -9], [-9, 8, -9, 3], [-3, 4, -9, 7]])
        assert abs(determinant(m)) == 438 == _lifted_part(m)   # d2 == 1
        assert self.check(m).s.diag == (1, 1, 1, 438)

    def test_noncyclic_needs_local_completion(self):
        m = _udv([1, 1, 2, 6])
        assert _lifted_part(m) == 3   # d2 == 4 goes to the deterministic passes
        assert self.check(m).s.diag == (1, 1, 2, 6)

    def test_ci_example_noncyclic(self):
        m = IntMat([[1, 2, -1], [2, 6, 6], [-1, 4, 31]])
        assert self.check(m).s.diag == (1, 2, 6)
        assert hnf(m).mat == IntMat([[1, 0, 3], [0, 2, 2], [0, 0, 6]])

    def test_det_divisible_by_lifting_prime(self, monkeypatch):
        m = _udv([1, 1, 2, 6 * P61])
        self.no_solve(monkeypatch)
        assert self.check(m).s.diag == (1, 1, 2, 6 * P61)

    def test_triangular_block(self, monkeypatch):
        m = IntMat([[4, 7, -3], [0, 6, 5], [0, 0, -10]])
        self.no_solve(monkeypatch)
        mas = self.check(m)
        # with d1 == 1 the engine is smith_massager, column for column
        assert mas == smith_massager(m)

    def test_small_dimensions_and_unit_det(self, monkeypatch):
        self.no_solve(monkeypatch)
        for m in (IntMat([], 0, 0), IntMat([[-7]]), IntMat([[1]]),
                  _udv([1, 1, 1, 1]), IntMat([[2, 1], [1, 1]])):
            self.check(m)
        assert massager._entry_massager(IntMat([], 0, 0), 1).s.diag == ()

    def test_huge_entries(self):
        big = (1 << 211) + 5
        for diag in ([1, 1, 1, big * 3], [1, 2, 2 * big, 6 * big * big]):
            m = _udv(diag)
            assert max(abs(x) for r in m.data for x in r).bit_length() >= 200
            assert self.check(m).s.diag == tuple(diag)

    def test_random_against_smith_massager(self, rng):
        for _ in range(60):
            n = rng.randint(1, 7)
            m = rand_nonsingular(rng, n, -30, 30)
            mas = massager._entry_massager(m, abs(determinant(m)))
            assert mas.s == smith_massager(m).s
            assert verify_massager(m, mas)

    def test_wrong_lifted_vector_is_caught(self, monkeypatch, tmp_path, capsys):
        small = IntMat([[5, -1, -2, 9], [-6, 1, -9, -9], [-9, 8, -9, 3], [-3, 4, -9, 7]])
        # one LU mod p pins small's det down, so hnf lifts with det known;
        # wide's Hadamard bound is above p, so hnf lifts without a det
        wide = IntMat([[-662, -143, 413, -143, 301, -423], [-18, 728, -557, 624, -27, 655],
                       [973, 50, -624, 35, 81, -516], [615, -993, -971, -240, 911, 199],
                       [-123, -858, -703, 626, 539, -524], [888, -523, 422, -913, -105, 513]])
        honest = massager._lifted_solution
        dets = []

        def off_by_one(m, solve, det=None):
            dets.append(det)
            e, y = honest(m, solve, det)
            return e, [y[0] + 1] + y[1:]
        monkeypatch.setattr(massager, "_lifted_solution", off_by_one)
        with pytest.raises(InternalError, match="M\\*F is not zero"):
            massager._entry_massager(small, 438)
        for m in (small, wide):
            with pytest.raises(InternalError, match="M\\*F is not zero"):
                hnf(m)
            path = tmp_path / "m.mat"
            path.write_text(format_matrix(m))
            assert cli.main(["hnf", "--in", str(path)]) == cli.EXIT_INTERNAL
            assert capsys.readouterr().out == ""
        assert dets == [438, 438, 438, None, None]

    def test_invariant_checks_run_verify_massager(self, monkeypatch):
        calls = []

        def counting(m, mas):
            calls.append(m)
            return verify_massager(m, mas)
        monkeypatch.setattr(massager, "verify_massager", counting)
        m = _udv([1, 1, 2, 6])
        massager._entry_massager(m, 12)
        assert calls == []
        with invariant_checks(True):
            massager._entry_massager(m, 12)
        assert calls == [m]

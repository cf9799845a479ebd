import pytest

from hnfkit.intmat import IntMat, PreconditionError, SmithForm
from hnfkit.massager import SmithMassager, smith_massager, verify_massager
from hnfkit.oracle import naive_hnf, naive_smith
from hnfkit.relations import relations_basis_oracle

from .conftest import rand_nonsingular

EX4 = IntMat([[1, 2, 3], [4, 5, 6], [7, 8, 1]])


class TestSmithDecomposition:
    """The Smith form S computed by smith_massager."""

    def test_golden(self):
        mas = smith_massager(EX4)
        assert mas.s.diag == (1, 1, 24)
        assert verify_massager(EX4, mas)

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
            # a caller-supplied determinant gives the same massager
            assert smith_massager(m, det=abs(determinant(m))) == mas

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

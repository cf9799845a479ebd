"""The square route of `relations.to_smith_coprime`: |det M| from one LU mod p
and one Dixon lift, with Bareiss only where a bound fails.

Each test spies on `_bareiss` (through both `intmat` and `relations`, which
imports it by name), on the shared lift `massager._lifted_solution` and on
the LU routine `massager._lu_mod`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnfkit import cli, intmat, massager, relations
from hnfkit.apps import hnf
from hnfkit.intmat import IntMat, PreconditionError, determinant, format_matrix, matmul
from hnfkit.oracle import naive_hnf

P61 = (1 << 61) - 1
P127 = (1 << 127) - 1


@pytest.fixture
def spy(monkeypatch):
    calls = {"bareiss": 0, "lift": [], "lu": []}
    bareiss, lift, lu = intmat._bareiss, massager._lifted_solution, massager._lu_mod

    def counting_bareiss(m):
        calls["bareiss"] += 1
        return bareiss(m)

    def recording_lift(m, solve, det=None):
        calls["lift"].append(det)
        return lift(m, solve, det)

    def recording_lu(rows, n, p):
        calls["lu"].append(p)
        return lu(rows, n, p)

    monkeypatch.setattr(intmat, "_bareiss", counting_bareiss)
    monkeypatch.setattr(relations, "_bareiss", counting_bareiss)
    monkeypatch.setattr(massager, "_lifted_solution", recording_lift)
    monkeypatch.setattr(massager, "_lu_mod", recording_lu)
    return calls


def unit_factors(seed, n, r):
    """A unit lower and a unit upper triangular n x n matrix, entries in
    [-r, r]: U*D*V then has the Smith form of the diagonal D."""
    rng = random.Random(seed)
    lower = IntMat([[rng.randint(-r, r) if j < i else int(i == j) for j in range(n)]
                    for i in range(n)])
    upper = IntMat([[rng.randint(-r, r) if j > i else int(i == j) for j in range(n)]
                    for i in range(n)])
    return lower, upper


def udv(seed, diag, r):
    lower, upper = unit_factors(seed, len(diag), r)
    return matmul(matmul(lower, IntMat.diagonal(diag)), upper)


def check_hnf(m):
    assert hnf(m).mat == naive_hnf(m).mat


class TestSquareRoute:
    def test_lifted_determinant_needs_no_bareiss(self, spy):
        m = IntMat([[-662, -143, 413, -143, 301, -423], [-18, 728, -557, 624, -27, 655],
                    [973, 50, -624, 35, 81, -516], [615, -993, -971, -240, 911, 199],
                    [-123, -858, -703, 626, 539, -524], [888, -523, 422, -913, -105, 513]])
        check_hnf(m)
        assert spy == {"bareiss": 0, "lift": [None], "lu": [P61]}

    def test_small_hadamard_bound_reads_det_off_the_lu(self, spy):
        # 2*H < p: det is the symmetric residue of det mod p, and the lift
        # with det known reuses that LU
        m = IntMat([[1, 2, -1], [2, 6, 6], [-1, 4, 31]])
        check_hnf(m)
        assert spy == {"bareiss": 0, "lift": [12], "lu": [P61]}

    def test_second_residue(self, spy):
        # 2*H/e is about 2^93: one more LU, modulo 2^127 - 1, certifies det/e
        check_hnf(udv(4, [1, 1, 1, 1, 1, 1000003], 999))
        assert spy == {"bareiss": 0, "lift": [None], "lu": [P61, P127]}

    def test_huge_hadamard_gap_falls_back_with_one_lift(self, spy):
        # det = 5040 against a Hadamard bound of about 2^269
        m = udv(7, [1, 2, 3, 4, 5, 6, 7], 1 << 20)
        assert max(abs(x) for row in m.data for x in row) < 1 << 64
        check_hnf(m)
        assert spy == {"bareiss": 1, "lift": [None], "lu": [P61]}

    @pytest.mark.parametrize("rows", [
        [[P61, 0], [1, 1]],
        [[P61, 0, 0], [1, 2, 0], [0, 1, 1]],
        udv(5, [1, 1, P61], 1).to_rows(),
    ])
    def test_p_dividing_det_falls_back_to_bareiss(self, spy, rows):
        m = IntMat(rows)
        check_hnf(m)
        assert spy == {"bareiss": 1, "lift": [], "lu": [P61]}
        assert abs(determinant(m)) % P61 == 0

    def test_singular_square_raises(self, spy, tmp_path, capsys):
        for rows in ([[1, 2], [2, 4]], [[3, -5, 7], [1, 1, 1], [4, -4, 8]]):
            m = IntMat(rows)
            spy.update(bareiss=0, lift=[], lu=[])
            with pytest.raises(PreconditionError, match="modulus does not have full column rank"):
                hnf(m)
            # the LU mod p finds no pivot, and Bareiss confirms the rank
            assert spy == {"bareiss": 1, "lift": [], "lu": [P61]}
            path = tmp_path / "m.mat"
            path.write_text(format_matrix(m))
            assert cli.main(["hnf", "--in", str(path)]) == cli.EXIT_PRECONDITION
            assert capsys.readouterr().out == ""

    def test_wide_entries_keep_the_pivot_path(self, spy):
        m = IntMat([[1 << 64, 1, 0], [1, 1, 5], [2, -3, 1]])
        check_hnf(m)
        det = spy["lift"][0]
        assert spy == {"bareiss": 1, "lift": [det], "lu": [P61]}
        assert det == abs(determinant(m))
        # one below the gate takes the square route
        spy.update(bareiss=0, lift=[], lu=[])
        check_hnf(IntMat([[(1 << 64) - 1, 1, 0], [1, 1, 5], [2, -3, 1]]))
        assert spy["bareiss"] == 0 and spy["lift"] == [None]

    def test_upper_triangular_never_runs_bareiss(self, spy):
        for rows in ([[4, 7, -3], [0, 6, 5], [0, 0, -10]],
                     [[1 << 70, 3, 5], [0, -(1 << 66), 7], [0, 0, 9]],
                     [[5]], [[2, 1], [0, 1]]):
            check_hnf(IntMat(rows))
        with pytest.raises(PreconditionError, match="modulus does not have full column rank"):
            hnf(IntMat([[1, 2, 3], [0, 0, 4], [0, 0, 5]]))
        assert spy == {"bareiss": 0, "lift": [], "lu": []}

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.sampled_from([4, 20, 63, 70]), st.integers(0, 2), st.data())
    def test_against_naive_hnf(self, n, bits, deficient, data):
        entry = st.integers(-(1 << bits), 1 << bits)
        rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        # rank-deficient inputs: rows that are combinations of earlier rows
        for i in range(1, min(deficient, n - 1) + 1):
            c = data.draw(st.integers(-3, 3))
            rows[-i] = [c * x + y for x, y in zip(rows[0], rows[i - 1])]
        m = IntMat(rows)
        try:
            expect = naive_hnf(m).mat
        except PreconditionError:
            with pytest.raises(PreconditionError, match="full column rank"):
                hnf(m)
        else:
            assert hnf(m).mat == expect

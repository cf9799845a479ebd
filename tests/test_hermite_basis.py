import pytest

from hnfkit.hermite_basis import (
    HBCall,
    _overlay,
    base_case,
    hermite_basis,
    relations_hermite_basis,
)
from hnfkit.intmat import (
    IntMat,
    PreconditionError,
    SmithForm,
    colmod,
    invariant_checks,
    matmul,
    vstack,
)
from hnfkit.relations import relations_basis_oracle, to_smith_coprime
from hnfkit.structured_hermite import hermite_of_stack

from .conftest import assert_trusted, rand_full_col_rank, rand_mat

EX4 = IntMat([[1, 2, 3], [4, 5, 6], [7, 8, 1]])
EX4_HNF = IntMat([[1, 2, 3], [0, 3, 6], [0, 0, 8]])


class TestBaseCase:
    def test_displayed_instance(self):
        f = IntMat([[5], [2], [1]])
        h = base_case(8, f, 2)
        assert h.mat == IntMat([[1, 0, 3], [0, 1, 6], [0, 0, 8]])
        assert_trusted(h.mat, f)

    def test_unit_column(self):
        h = base_case(6, IntMat([[0], [1], [0]]), 1)
        assert h.mat == IntMat.diagonal([1, 6, 1])

    def test_congruence_solution(self):
        f = IntMat([[4], [5], [0]])
        h = base_case(6, f, 1)
        assert h.mat[0, 1] == 4
        assert h.mat == IntMat([[1, 4, 0], [0, 6, 0], [0, 0, 1]])
        assert_trusted(h.mat, f)

    def test_nonunit_pivot_rejected(self):
        with pytest.raises(PreconditionError):
            base_case(6, IntMat([[1], [2], [0]]), 1)

    def test_nonzero_tail_rejected(self):
        with pytest.raises(PreconditionError):
            base_case(6, IntMat([[1], [5], [2]]), 1)


class TestHermiteBasisRecursion:
    def test_example_flow(self):
        events = []
        s = SmithForm([1, 1, 24])
        f = IntMat([[0, 0, 19], [0, 0, 10], [0, 0, 3]])
        h = hermite_basis(HBCall(s, f, 0, 3), trace=events.append)
        assert h.mat == EX4_HNF
        # the recursion passes through the two displayed factors and the
        # coprime reduction to modulus 8 with column [5, 2, 1]
        h1_seen = any(ev.get("kind") == "split" and
                      ev["h1"].mat == IntMat([[1, 2, 0], [0, 3, 0], [0, 0, 1]])
                      for ev in events)
        h2_seen = any(ev.get("kind") == "split" and
                      ev["h2"].mat == IntMat([[1, 0, 3], [0, 1, 6], [0, 0, 8]])
                      for ev in events)
        red_seen = any(ev.get("kind") == "split" and ev["s2bar"].diag == (8,) and
                       ev["f2bar"].column(ev["f2bar"].cols - 1) == (5, 2, 1)
                       for ev in events)
        assert h1_seen and h2_seen and red_seen

    def test_identity_inputs(self):
        h = hermite_basis(HBCall(SmithForm([1, 1]), IntMat.zeros(3, 2), 0, 2))
        assert h.mat == IntMat.identity(3)

    def test_zero_band(self):
        h = hermite_basis(HBCall(SmithForm([]), IntMat([], 4, 0), 0, 0))
        assert h.mat == IntMat.identity(4)

    def test_random_coprime_instances(self, rng):
        for _ in range(80):
            m = rng.randint(1, 4)
            modulus = rand_full_col_rank(rng, m + rng.randint(0, 2), m)
            g = rand_mat(rng, rng.randint(1, 5), m)
            n = g.rows
            s, f = to_smith_coprime(modulus, g)
            lead = sum(1 for d in s.diag if d == 1)
            expect = relations_basis_oracle(modulus, g)
            pad = n - (s.dim - lead)
            if pad < 0:
                continue
            s_pad = SmithForm((1,) * pad + s.diag[lead:])
            f_pad = IntMat([[0] * pad + list(row[lead:]) for row in f.data], n, n)
            got = hermite_basis(HBCall(s_pad, f_pad, 0, n))
            assert got.mat == expect.mat

    def test_annihilation_and_determinant(self, rng):
        with invariant_checks(True):
            for _ in range(15):
                m = rng.randint(1, 3)
                modulus = rand_full_col_rank(rng, m + 1, m)
                g = rand_mat(rng, rng.randint(1, 4), m)
                h = relations_hermite_basis(modulus, g)
                # the debug path asserts H*F == 0 col-mod S at every node
                assert h.determinant() == relations_basis_oracle(modulus, g).determinant()

    def test_structural_split_identities(self, rng):
        # the two halves of the factorization are bases of their defining
        # lattices, and part 1's compressed modulus reappears in part 2
        for _ in range(40):
            m = rng.randint(2, 4)
            modulus = rand_full_col_rank(rng, m + 1, m)
            g = rand_mat(rng, rng.randint(2, 5), m)
            n = g.rows
            s, f = to_smith_coprime(modulus, g)
            lead = sum(1 for d in s.diag if d == 1)
            pad = n - (s.dim - lead)
            if pad < 0:
                continue
            s_pad = SmithForm((1,) * pad + s.diag[lead:])
            f_pad = IntMat([[0] * pad + list(row[lead:]) for row in f.data], n, n)
            events = []
            h = hermite_basis(HBCall(s_pad, f_pad, 0, n), trace=events.append)
            top = [ev for ev in events if ev.get("kind") == "split" and ev["m"] == n]
            if not top:
                continue
            ev = top[0]
            k, mm = ev["k"], ev["m"]
            m1 = mm // 2
            a = ev["f"].submatrix(k + m1, n, 0, mm)
            stacked = vstack(ev["s"].as_matrix(), a)
            # H1 is the basis of the relations lattice with the stacked modulus
            assert ev["h1"].mat == relations_basis_oracle(stacked, ev["f"]).mat
            # H2 is the basis of the relations lattice of (S, H1*F)
            h1f = matmul(ev["h1"].mat, ev["f"])
            assert ev["h2"].mat == relations_basis_oracle(ev["s"].as_matrix(), h1f).mat
            # T equals the Hermite basis of [S; H1*F]
            t = hermite_of_stack(colmod(h1f, ev["s"]), ev["s"])
            assert t.mat == ev["t"].mat
            # the parts overlay to H and the split determinants multiply
            assert ev["h"].mat == matmul(ev["h2"].mat, ev["h1"].mat)
            h = _overlay(ev["h2"], ev["h1"], k, m1, mm - m1)
            assert h == ev["h"]
            assert_trusted(h.mat, ev["h2"].mat, ev["h1"].mat)
            assert ev["h1"].determinant() * ev["h2"].determinant() == \
                ev["h"].determinant()


class TestRelationsHermiteBasis:
    def test_golden(self):
        h = relations_hermite_basis(EX4, IntMat.identity(3))
        assert h.mat == EX4_HNF

    def test_identity(self, rng):
        g = rand_mat(rng, 3, 2)
        h = relations_hermite_basis(IntMat.identity(2), g)
        assert h.mat == IntMat.identity(3)

    def test_random_oracle_equality(self, rng):
        for _ in range(60):
            m = rng.randint(1, 4)
            modulus = rand_full_col_rank(rng, m + rng.randint(0, 2), m)
            g = rand_mat(rng, rng.randint(0, 5), m)
            got = relations_hermite_basis(modulus, g)
            assert got.mat == relations_basis_oracle(modulus, g).mat

    def test_known_index_band(self, rng):
        # supplying the true band must give the same answer
        for _ in range(20):
            m = rng.randint(1, 3)
            modulus = rand_full_col_rank(rng, m + 1, m)
            g = rand_mat(rng, rng.randint(1, 4), m)
            h = relations_basis_oracle(modulus, g)
            n = h.dim
            k = 0
            while k < n and h.mat[k, k] == 1 and all(
                    h.mat[k, j] == 0 for j in range(k + 1, n)):
                k += 1
            hi = n
            while hi > k and h.mat[hi - 1, hi - 1] == 1 and all(
                    h.mat[i, hi - 1] == 0 for i in range(hi - 1)):
                hi -= 1
            band = hi - k
            got = relations_hermite_basis(modulus, g, index=(k, band))
            assert got.mat == h.mat
        # a negative band is out of range even when k <= n - band holds
        with pytest.raises(PreconditionError, match="^index band out of range$"):
            relations_hermite_basis(IntMat.identity(2), IntMat.identity(2), index=(3, -1))
        # the band is checked before the rewrite can reject a rank-deficient modulus
        with pytest.raises(PreconditionError, match="^index band out of range$"):
            relations_hermite_basis(IntMat([[1, 2], [2, 4]]), IntMat.identity(2), index=(0, -1))

    def test_rank_deficiency_raises(self):
        with pytest.raises(PreconditionError):
            relations_hermite_basis(IntMat([[1, 2], [2, 4]]), IntMat.identity(2))


class TestCyclicSweep:
    """Untraced cyclic nodes skip the recursion; the traced recursion is the
    reference they must match, errors included."""

    def test_matches_traced_recursion(self, rng):
        primes = (2, 2, 3, 5, 7)
        live_seen, outcomes, full_bands = set(), set(), 0
        for trial in range(300):
            n = rng.randint(2, 7)
            m = rng.randint(2, n)
            steps = [1]
            for _ in range(rng.randint(0, m + 1)):
                steps.append(steps[-1] * rng.choice(primes))
            s = steps[-1]
            # scaling by a divisor of s lengthens the chain of gcds
            f = [rng.randrange(s) * rng.choice(steps) % s for _ in range(n)]
            kind = trial % 3
            if kind == 0:
                k, m = 0, n
            else:
                k = rng.randint(0, n - m)
            if kind == 2:
                # a prime factor of s in every entry makes the pair not coprime
                p = next((q for q in primes if s % q == 0), 1)
                f = [x * p % s for x in f]
            call = HBCall(SmithForm([1] * (m - 1) + [s]),
                          IntMat([[0] * (m - 1) + [x] for x in f], n, m), k, m)
            try:
                want = hermite_basis(call, trace=lambda ev: None)
            except PreconditionError as e:
                with pytest.raises(type(e)) as got:
                    hermite_basis(call)
                assert str(got.value) == str(e)
                outcomes.add(kind + 3)
                continue
            got = hermite_basis(call)
            assert got.mat == want.mat
            assert_trusted(got.mat, call.f)
            live = sum(1 for d in got.diagonal() if d > 1)
            live_seen.add(live)
            full_bands += live == m
            outcomes.add(kind)
        # every kind of call both succeeded and was refused, and the number
        # of nontrivial columns |J| ran from 0 up to the whole band
        assert outcomes == set(range(6))
        assert set(range(5)) <= live_seen and full_bands

    def test_untraced_call_skips_the_recursion(self, monkeypatch):
        import hnfkit.hermite_basis as hb

        def refuse(*args):
            raise AssertionError("the recursion ran on a cyclic band")

        monkeypatch.setattr(hb, "coprime_parts", refuse)
        monkeypatch.setattr(hb, "hermite_of_stack", refuse)
        call = HBCall(SmithForm([1, 1, 24]), IntMat([[0, 0, 19], [0, 0, 10], [0, 0, 3]]), 0, 3)
        assert hermite_basis(call).mat == EX4_HNF
        # criterion 2's input, untraced and end to end
        got = relations_hermite_basis(IntMat([[24]]), IntMat([[19], [10], [3]]))
        assert got.mat == EX4_HNF
        monkeypatch.undo()
        events = []
        assert hermite_basis(call, trace=events.append).mat == EX4_HNF
        assert any(ev.get("kind") == "split" for ev in events)

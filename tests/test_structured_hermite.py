import pytest

import hnfkit.structured_hermite as sh
from hnfkit.apps import multivariable_crt
from hnfkit.hermite_basis import relations_hermite_basis
from hnfkit.howell import hermite_via_howell
from hnfkit.intmat import (
    DiagonalModulus,
    HermiteBasis,
    IntMat,
    InternalError,
    PreconditionError,
    SmithForm,
    colmod,
    hstack,
    invariant_checks,
    matadd,
    matmul,
    vstack,
)
from hnfkit.oracle import naive_hnf
from hnfkit.structured_hermite import (
    _add_mod,
    coprime_parts,
    hermite_of_stack,
    stage_apply,
    stage_transform,
    structured_hermite_blocks,
)

from .conftest import assert_trusted, rand_reduced, rand_smith

WORKED_A = IntMat([[1, 5, 19]])
WORKED_S = SmithForm([2, 6, 72])
WORKED_T = IntMat([[1, 1, 5], [0, 2, 4], [0, 0, 6]])


class TestHermiteOfStack:
    def test_worked_example(self):
        assert hermite_of_stack(WORKED_A, WORKED_S).mat == WORKED_T

    def test_empty_a(self):
        s = SmithForm([2, 6, 72])
        assert hermite_of_stack(IntMat([], 0, 3), s).mat == s.as_matrix()

    def test_unreduced_rejected(self):
        with pytest.raises(PreconditionError):
            hermite_of_stack(IntMat([[5, 5, 5]]), SmithForm([2, 6, 72]))

    def test_matches_naive(self, rng):
        for _ in range(300):
            m = rng.randint(1, 6)
            s = rand_smith(rng, m)
            a = rand_reduced(rng, rng.randint(0, 6), s)
            got = hermite_of_stack(a, s)
            expect = naive_hnf(vstack(a, s.as_matrix()))
            assert got.mat == expect.mat

    def test_stage_modulus_bound(self, rng):
        # at every stage, bitlength(s) <= 2*bitlength(det S)/mbar + 1
        for _ in range(100):
            m = rng.randint(1, 8)
            s = rand_smith(rng, m, factors=(1, 2, 3, 8, 30))
            det_bits = s.determinant().bit_length()
            diag = list(s.diag)
            mbar = m
            off = 0
            while mbar > 0:
                m1 = (mbar + 1) // 2
                sval = diag[off + m1 - 1]
                assert sval.bit_length() * mbar <= 2 * det_bits + mbar
                off += m1
                mbar -= m1

    def test_matches_stage_reference(self, rng):
        # against the paper's halving schedule, replayed from the kept stage
        # functions: factor steps up to 10^6 after leading unit factors, with
        # no rows, a few rows, zero rows, more than 3m rows, or the rows of S
        for i in range(250):
            m = rng.randint(1, 6)
            diag = [1] * rng.randint(0, m - 1)
            while len(diag) < m:
                step = rng.randint(2, 10**6) if rng.random() < 0.5 else rng.choice((1, 2, 3))
                diag.append((diag[-1] if diag else 1) * step)
            s = SmithForm(diag)
            kind = i % 5
            if kind == 0:
                a = IntMat([], 0, m)
            elif kind == 4:
                a = colmod(s.as_matrix(), s)
            else:
                n = rng.randint(3 * m + 1, 3 * m + 4) if kind == 3 else rng.randint(1, 4)
                rows = rand_reduced(rng, n, s).to_rows()
                if kind == 2:
                    for r in rng.sample(range(n), rng.randint(1, n)):
                        rows[r] = [0] * m
                a = IntMat(rows, n, m)
            assert hermite_of_stack(a, s).mat == _staged_hermite(a, s)

    def test_runtime_invariants_enabled(self, rng):
        with invariant_checks(True):
            for _ in range(10):
                m = rng.randint(1, 4)
                s = rand_smith(rng, m)
                a = rand_reduced(rng, rng.randint(0, 3), s)
                hermite_of_stack(a, s)


class TestEliminationPath:
    def test_golden_results_without_stages(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("stage machinery called")

        for name in ("stage_transform", "stage_apply", "hermite_with_eliminator"):
            monkeypatch.setattr(sh, name, fail)
        for checks in (False, True):
            with invariant_checks(checks):
                assert hermite_of_stack(WORKED_A, WORKED_S).mat == WORKED_T
                # both calls below reach hermite_of_stack several times
                h, xp, hbar = multivariable_crt(
                    DiagonalModulus([12, 18, 40]),
                    IntMat([[5, 7, 3], [2, 9, 11], [4, 6, 13]]), IntMat([[1, 2, 3]]))
                assert (h, xp) == (1, IntMat([[11, 1, 43]]))
                assert hbar.mat == IntMat([[12, 4, 40], [0, 6, 78], [0, 0, 120]])
                got = relations_hermite_basis(IntMat([[2, 0, 0], [0, 6, 0], [0, 0, 72]]),
                                              IntMat([[1, 5, 19], [3, 1, 7]]))
                assert got.mat == IntMat([[3, 33], [0, 72]])

    def test_howell_cross_check(self, monkeypatch):
        monkeypatch.setattr(sh, "hermite_via_howell",
                            lambda a, s: HermiteBasis(IntMat.identity(a.cols)))
        assert hermite_of_stack(WORKED_A, WORKED_S).mat == WORKED_T
        with invariant_checks(True):
            with pytest.raises(InternalError):
                hermite_of_stack(WORKED_A, WORKED_S)


class TestCoprimeParts:
    def test_worked_example(self):
        t = hermite_of_stack(WORKED_A, WORKED_S)
        c, k = coprime_parts(t, WORKED_A, WORKED_S)
        assert c == IntMat([[1, 0, 8]])
        assert k.mat == IntMat([[2, 2, 9], [0, 3, 10], [0, 0, 12]])
        assert WORKED_S.determinant() == t.determinant() * k.determinant()

    def test_a_spanning_s(self):
        # A equal to the rows of S forces T = S, K = I, C = 0
        s = SmithForm([2, 4])
        a = IntMat([[0, 0], [0, 0], [2, 0], [0, 4]])
        a = colmod(a, s)
        t = hermite_of_stack(a, s)
        assert t.mat == s.as_matrix()
        c, k = coprime_parts(t, a, s)
        assert k.mat == IntMat.identity(2)
        assert c == IntMat.zeros(4, 2)

    def test_relations_lattice_preserved(self, rng):
        from hnfkit.relations import relations_basis_oracle
        for _ in range(60):
            m = rng.randint(1, 4)
            s = rand_smith(rng, m)
            a = rand_reduced(rng, rng.randint(1, 4), s)
            t = hermite_of_stack(a, s)
            c, k = coprime_parts(t, a, s)
            before = relations_basis_oracle(s.as_matrix(), a)
            after = relations_basis_oracle(k.mat, c)
            assert before.mat == after.mat
            # coprimality: the Hermite basis of the joint stack is the identity
            joint = naive_hnf(vstack(k.mat, c))
            assert joint.mat == IntMat.identity(m)

    def test_determinant_identity(self, rng):
        for _ in range(60):
            m = rng.randint(1, 4)
            s = rand_smith(rng, m)
            a = rand_reduced(rng, rng.randint(0, 4), s)
            t = hermite_of_stack(a, s)
            c, k = coprime_parts(t, a, s)
            assert s.determinant() == t.determinant() * k.determinant()
            HermiteBasis(vstack(hstack(IntMat.identity(a.rows), c),
                                hstack(IntMat.zeros(m, a.rows), k.mat)))

    def test_wrong_t_detected_lattice_violation(self):
        # a T too small to contain L(S) fails the containment check outright
        bad = HermiteBasis(IntMat([[1, 0, 0], [0, 4, 0], [0, 0, 12]]))
        with pytest.raises(PreconditionError):
            coprime_parts(bad, WORKED_A, WORKED_S)

    def test_wrong_t_detected_in_debug_mode(self):
        # a T strictly larger than the stack lattice needs the full recheck
        bad = HermiteBasis(IntMat.identity(3))
        with invariant_checks(True):
            with pytest.raises(PreconditionError):
                coprime_parts(bad, WORKED_A, WORKED_S)


class TestStageTransform:
    def test_worked_first_stage(self):
        s1 = SmithForm([2, 6])
        f1 = IntMat([], 0, 2)
        a1 = IntMat([[1, 5]])
        tr, g1, t1 = stage_transform(f1, a1, s1)
        assert t1.mat == IntMat([[1, 1], [0, 2]])
        assert tr.c == IntMat([[1, 0]])
        assert tr.k.mat == IntMat([[2, 2], [0, 3]])
        assert g1.rows == 0

    def test_empty_slice(self):
        s1 = SmithForm([2, 4])
        tr, g1, t1 = stage_transform(IntMat([], 0, 2), IntMat([], 0, 2), s1)
        assert t1.mat == s1.as_matrix()
        assert tr.k.mat == IntMat.identity(2)

    def test_transform_identity_replay(self, rng):
        from hnfkit.structured_hermite import verify_stage_identity
        for _ in range(60):
            m1 = rng.randint(1, 3)
            s1 = rand_smith(rng, m1)
            f1 = rand_reduced(rng, rng.randint(0, 3), s1)
            a1 = rand_reduced(rng, rng.randint(0, 3), s1)
            tr, g1, t1 = stage_transform(f1, a1, s1)
            verify_stage_identity(tr, g1, t1, f1, a1, s1)
            bound = s1.largest
            for blk in (tr.e, tr.q, tr.c, tr.k.mat):
                for row in blk.data:
                    for x in row:
                        assert 0 <= x <= bound


class TestStageApply:
    def test_zero_eliminator(self, rng):
        from hnfkit.structured_hermite import StageTransform
        s2 = SmithForm([8])
        f2 = rand_reduced(rng, 2, s2)
        a2 = rand_reduced(rng, 3, s2)
        tr = StageTransform(IntMat.zeros(1, 3), IntMat.zeros(2, 1),
                            IntMat.zeros(3, 1), HermiteBasis(IntMat.identity(1)))
        new_f, new_a = stage_apply(tr, f2, a2, s2)
        assert new_f == vstack(f2, IntMat.zeros(1, 1))
        assert new_a == vstack(a2, IntMat.zeros(1, 1))

    def test_matches_plain_arithmetic(self, rng):
        for _ in range(60):
            m1 = rng.randint(1, 3)
            m2 = rng.randint(1, 3)
            s_all = rand_smith(rng, m1 + m2)
            s1 = SmithForm(s_all.diag[:m1])
            s2 = SmithForm(s_all.diag[m1:])
            f1 = rand_reduced(rng, rng.randint(0, 3), s1)
            a1 = rand_reduced(rng, rng.randint(0, 3), s1)
            tr, _, _ = stage_transform(f1, a1, s1)
            f2 = rand_reduced(rng, f1.rows, s2)
            a2 = rand_reduced(rng, a1.rows, s2)
            new_f, new_a = stage_apply(tr, f2, a2, s2)
            eb = matmul(tr.e, a2)
            expect_f = vstack(colmod(matadd(f2, matmul(tr.q, eb)), s2), colmod(eb, s2))
            expect_a = vstack(colmod(matadd(a2, matmul(tr.c, eb)), s2),
                              colmod(matmul(tr.k.mat, eb), s2))
            assert new_f == expect_f
            assert new_a == expect_a


class TestStructuredBlocks:
    def test_worked_blocks_without_f(self):
        t = HermiteBasis(WORKED_T)
        g, q, c, k = structured_hermite_blocks(IntMat([], 0, 3), t, WORKED_A, WORKED_S)
        assert c == IntMat([[1, 0, 8]])
        assert k == IntMat([[2, 2, 9], [0, 3, 10], [0, 0, 12]])
        assert g.rows == 0 and q.rows == 0

    def test_empty_a_and_zero_f(self):
        s = SmithForm([2, 4])
        t = HermiteBasis(s.as_matrix())
        g, q, c, k = structured_hermite_blocks(IntMat.zeros(2, 2), t,
                                               IntMat([], 0, 2), s)
        assert g == IntMat.zeros(2, 2)
        assert q == IntMat.zeros(2, 2)
        assert c == IntMat([], 0, 2)
        assert k == IntMat.identity(2)

    def test_blocks_match_bordered_reference(self, rng):
        # G, Q against the lift of [I F 0; 0 T I; 0 S 0] and C, K against
        # the lift of [T 0 I; A I 0; S 0 0], with F and A taller than 2m
        for _ in range(25):
            m = rng.randint(1, 3)
            s = rand_smith(rng, m)
            a = rand_reduced(rng, rng.randint(2 * m + 1, 2 * m + 3), s)
            f = rand_reduced(rng, rng.randint(2 * m + 1, 2 * m + 3), s)
            t = hermite_of_stack(a, s)
            assert structured_hermite_blocks(f, t, a, s) == _reference_blocks(f, t, a, s)

    def test_blocks_are_trusted_results(self, rng):
        for _ in range(40):
            m = rng.randint(1, 3)
            s = rand_smith(rng, m)
            a = rand_reduced(rng, rng.randint(0, 2 * m + 1), s)
            f = rand_reduced(rng, rng.randint(0, 2 * m + 1), s)
            t = hermite_of_stack(a, s)
            for blk in structured_hermite_blocks(f, t, a, s):
                assert_trusted(blk, f, t.mat, a)

    def test_add_mod_is_trusted(self, rng):
        for _ in range(40):
            s = rand_smith(rng, rng.randint(0, 3))
            a = rand_reduced(rng, rng.randint(0, 3), s)
            b = rand_reduced(rng, a.rows, s)
            out = _add_mod(a, b, s)
            assert_trusted(out, a, b)
            assert out == colmod(matadd(a, b), s)

    def test_containment_precondition(self, rng):
        t4 = HermiteBasis(IntMat([[4]]))
        no_rows = IntMat([], 0, 1)
        # L(A) outside L(T); L(S) outside L(T) with no rows of A; S the
        # identity with T not the identity
        for t, a, s in ((t4, IntMat([[2]]), SmithForm([2])),
                        (t4, no_rows, SmithForm([2])),
                        (HermiteBasis(IntMat([[2]])), no_rows, SmithForm([1]))):
            with pytest.raises(PreconditionError):
                structured_hermite_blocks(no_rows, t, a, s)
        # a wrong T: the stack basis of A and some extra rows, with one
        # diagonal entry scaled by 2 or 3 and the entries above it redrawn;
        # rejected exactly when the reference's leading block is not T, and
        # otherwise the reference's blocks
        rejected = 0
        for _ in range(150):
            m = rng.randint(1, 4)
            s = rand_smith(rng, m)
            a = rand_reduced(rng, rng.randint(0, 2 * m + 1), s)
            f = rand_reduced(rng, rng.randint(0, 2 * m + 1), s)
            extra = rand_reduced(rng, rng.randint(1, 4), s)
            rows = hermite_of_stack(vstack(a, extra), s).mat.to_rows()
            j = rng.randrange(m)
            rows[j][j] *= rng.choice((2, 3))
            for i in range(j):
                rows[i][j] = rng.randrange(rows[j][j])
            t = HermiteBasis(IntMat(rows))
            lift = hermite_via_howell(_bordered_c_k(t, a, s), s.largest).mat
            if lift.submatrix(0, m, 0, m) != t.mat:
                rejected += 1
                with pytest.raises(PreconditionError) as exc:
                    structured_hermite_blocks(f, t, a, s)
                assert str(exc.value) == "T is not the Hermite basis of its stack"
            else:
                assert structured_hermite_blocks(f, t, a, s) == _reference_blocks(f, t, a, s)
        assert 0 < rejected < 150


def _staged_hermite(a, s):
    """Hermite basis of L(A) + L(S) by the paper's staged slicing: each stage
    fixes the leading half of the columns not yet in Hermite form."""
    m = s.dim
    done = []   # finished rows of T; their width grows to m
    fbar, abar, sbar = IntMat.zeros(0, m), a, s
    while sbar.dim > 0:
        mbar = sbar.dim
        m1 = (mbar + 1) // 2
        s1, s2 = SmithForm(sbar.diag[:m1]), SmithForm(sbar.diag[m1:])
        tr, g1, t1 = stage_transform(fbar.submatrix(0, fbar.rows, 0, m1),
                                     abar.submatrix(0, abar.rows, 0, m1), s1)
        for row, grow in zip(done, g1.data):
            row.extend(grow)
        done += [[0] * (m - mbar) + list(t1.mat.row(i)) for i in range(m1)]
        fbar, abar = stage_apply(tr, fbar.submatrix(0, fbar.rows, m1, mbar),
                                 abar.submatrix(0, abar.rows, m1, mbar), s2)
        sbar = s2
    return IntMat(done, m, m)


def _bordered_c_k(t, a, s):
    """[T 0 I; A I 0; S 0 0], whose Hermite form holds C and K."""
    m, n = s.dim, a.rows
    return vstack(hstack(t.mat, IntMat.zeros(m, n), IntMat.identity(m)),
                  hstack(a, IntMat.identity(n), IntMat.zeros(n, m)),
                  hstack(s.as_matrix(), IntMat.zeros(m, n), IntMat.zeros(m, m)))


def _reference_blocks(f, t, a, s):
    """(G, Q, C, K) read off two Hermite lifts of bordered matrices."""
    m, n, h = s.dim, a.rows, f.rows
    ck = hermite_via_howell(_bordered_c_k(t, a, s), s.largest).mat
    # [I F 0; 0 T I; 0 S 0]
    gq = hermite_via_howell(vstack(
        hstack(IntMat.identity(h), f, IntMat.zeros(h, m)),
        hstack(IntMat.zeros(m, h), t.mat, IntMat.identity(m)),
        hstack(IntMat.zeros(m, h), s.as_matrix(), IntMat.zeros(m, m))), s.largest).mat
    return (gq.submatrix(0, h, h, h + m), gq.submatrix(0, h, h + m, h + 2 * m),
            ck.submatrix(m, m + n, m + n, n + 2 * m),
            ck.submatrix(m + n, n + 2 * m, m + n, n + 2 * m))

import random
from itertools import product

import pytest

from hnfkit.howell import (
    check_transform,
    hermite_via_howell,
    hermite_with_eliminator,
    howell_form,
    is_howell,
)
from hnfkit.intmat import (
    IntMat,
    PreconditionError,
    SmithForm,
    matmul,
    vstack,
)
from hnfkit.oracle import brute_span, naive_hnf

from .conftest import assert_trusted, rand_reduced, rand_smith


def leading_index(row, n):
    for j, x in enumerate(row):
        if x % n != 0:
            return j
    return len(row)


def howell_property_holds(h: IntMat, n: int, span) -> bool:
    """Every span element with a leading-zero prefix is spanned by the rows of
    h whose leading index is at least as deep."""
    suffix_spans = {}
    for j in range(h.cols + 1):
        rows = [h.row(i) for i in range(h.rows) if leading_index(h.row(i), n) >= j]
        mat = IntMat(rows, len(rows), h.cols)
        suffix_spans[j] = brute_span(mat, n)
    for v in span:
        j = leading_index(v, n)
        if v not in suffix_spans[min(j, h.cols)]:
            return False
    return True


class TestHowellForm:
    def test_stabilizer_example(self):
        res = howell_form(IntMat([[2, 1]]), 4)
        assert res.h == IntMat([[2, 1], [0, 2]])
        assert check_transform(IntMat([[2, 1]]), res)

    def test_identity(self):
        for n in (2, 6, 9):
            res = howell_form(IntMat.identity(3), n)
            assert res.h == IntMat.identity(3)

    def test_zero_matrix(self):
        res = howell_form(IntMat.zeros(1, 2), 6)
        assert res.h.rows == 0
        assert res.h.cols == 2

    def test_exhaustive_small(self):
        # every 2x2 over Z/(N) for small N: span preserved, Howell shape,
        # Howell property, transform identity, canonical under row mixes
        rng = random.Random(5)
        for n in (2, 3, 4, 6):
            for entries in product(range(n), repeat=4):
                a = IntMat.from_flat(2, 2, list(entries))
                res = howell_form(a, n)
                span = brute_span(a, n)
                assert brute_span(res.h, n) == span
                if res.h.rows:
                    assert is_howell(res.h, n)
                assert check_transform(a, res)
                assert howell_property_holds(res.h, n, span)
                # canonical: an invertible row mix cannot change the form
                c = rng.randrange(n)
                mixed = IntMat([[(entries[0] + c * entries[2]) % n,
                                 (entries[1] + c * entries[3]) % n],
                                [entries[2], entries[3]]])
                assert howell_form(mixed, n).h == res.h

    def test_random_3x3(self, rng):
        for _ in range(60):
            n = rng.randint(2, 8)
            a = IntMat([[rng.randrange(n) for _ in range(3)] for _ in range(3)])
            res = howell_form(a, n)
            span = brute_span(a, n)
            assert brute_span(res.h, n) == span
            assert check_transform(a, res)
            assert howell_property_holds(res.h, n, span)


class TestHermiteViaHowell:
    def test_worked_stack(self):
        a = IntMat([[1, 5, 19], [2, 0, 0], [0, 6, 0], [0, 0, 72]])
        assert hermite_via_howell(a, 72).mat == IntMat(
            [[1, 1, 5], [0, 2, 4], [0, 0, 6]])

    def test_diagonal_fixed_point(self):
        a = IntMat.diagonal([2, 6, 12])
        assert hermite_via_howell(a, 12).mat == a

    def test_matches_naive_on_stacks(self, rng):
        for _ in range(40):
            m = rng.randint(1, 4)
            s = rand_smith(rng, m)
            a = vstack(rand_reduced(rng, rng.randint(0, 4), s), s.as_matrix())
            got = hermite_via_howell(a, s.largest).mat
            assert got == naive_hnf(a).mat
            assert_trusted(got, a)

    def test_precondition_violation_detected(self):
        # a rank-deficient input cannot lift to a square basis
        with pytest.raises(PreconditionError):
            hermite_via_howell(IntMat([[2, 4]]), 5)


class TestHermiteWithEliminator:
    def test_worked_example(self):
        s = SmithForm([2, 6, 72])
        t, e = hermite_with_eliminator(s, IntMat([[1, 5, 19]]))
        assert t.mat == IntMat([[1, 1, 5], [0, 2, 4], [0, 0, 6]])
        assert e.rows == 3 and e.cols == 1
        assert all(0 <= e[i, 0] < 72 for i in range(3))

    def test_empty_a(self):
        s = SmithForm([2, 4])
        t, e = hermite_with_eliminator(s, IntMat([], 0, 2))
        assert t.mat == s.as_matrix()
        assert e == IntMat.zeros(2, 0)

    def test_single_entry(self):
        t, e = hermite_with_eliminator(SmithForm([4]), IntMat([[2]]))
        assert t.mat == IntMat([[2]])
        assert (t.mat[0, 0] - e[0, 0] * 2) % 4 == 0

    def test_identity_on_random(self, rng):
        for _ in range(40):
            m = rng.randint(1, 4)
            s = rand_smith(rng, m)
            a = rand_reduced(rng, rng.randint(0, 5), s)
            t, e = hermite_with_eliminator(s, a)
            stack = vstack(a, s.as_matrix())
            assert t.mat == naive_hnf(stack).mat
            delta = matmul(e, a)
            for i in range(m):
                for j in range(m):
                    assert (t.mat[i, j] - delta[i, j]) % s.diag[j] == 0
            for i in range(m):
                for j in range(a.rows):
                    assert 0 <= e[i, j] < max(s.largest, 1)

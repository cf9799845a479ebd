from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from hnfkit.modn import coprime_part, ext_gcd, stab, unit_stabilizer


def test_ext_gcd_examples():
    g, u, v = ext_gcd(24, 3)
    assert g == 3 and u * 24 + v * 3 == 3
    assert ext_gcd(0, 0) == (0, 0, 0)
    assert ext_gcd(5, 0) == (5, 1, 0)


def test_stab_examples():
    c = stab(2, 3, 6)
    assert gcd(2 + 3 * c, 6) == 1
    assert stab(1, 17, 30) == 0
    assert stab(0, 1, 30) == 1


def test_exhaustive_small_moduli():
    # every identity, for every residue pair, for all N up to 64
    for n in range(1, 65):
        for a in range(n):
            for b in range(n):
                g, u, v = ext_gcd(a, b)
                assert g == gcd(a, b) and u * a + v * b == g
                c = stab(a, b, n)
                assert 0 <= c < n
                assert gcd(a + c * b, n) == gcd(gcd(a, b), n)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10 ** 18, 10 ** 18), st.integers(-10 ** 18, 10 ** 18))
def test_ext_gcd_identity_large(a, b):
    g, u, v = ext_gcd(a, b)
    assert g == gcd(a, b)
    assert u * a + v * b == g


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 12), st.integers(0, 10 ** 12))
def test_coprime_part_splits(n, x):
    c = coprime_part(n, x)
    assert n % c == 0
    assert gcd(c, x) == 1
    rest = n // c
    # every prime of the complementary part divides x
    while rest > 1:
        g = gcd(rest, x)
        assert g > 1
        rest //= g


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 9), st.data())
def test_unit_stabilizer(n, data):
    a = data.draw(st.integers(0, n - 1))
    w = unit_stabilizer(a, n)
    assert gcd(w, n) == 1 or n == 1
    assert w * a % n == gcd(a, n) % n

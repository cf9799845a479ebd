"""Scalar arithmetic over Z/(N): extended gcd and stabilizers.

These are the gcd-level primitives the Howell triangularization leans on.
`stab` is the workhorse: it turns two residues into a single residue carrying
their gcd with N, which lets a row operation concentrate a column gcd without
knowing the factorization of N.
"""

from __future__ import annotations

from math import gcd

from .intmat import InternalError


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b == g == gcd(a, b) >= 0.

    Cofactors come from the classical extended Euclidean recurrence; callers
    must not depend on which valid pair is produced.
    """
    if a == 0 and b == 0:
        return (0, 0, 0)
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return (-old_r, -old_s, -old_t)
    return (old_r, old_s, old_t)


def coprime_part(n: int, x: int) -> int:
    """Largest divisor of n coprime to x (n >= 1).

    Repeatedly strips gcd(n, x); the primes of the stripped part all divide x.
    """
    if n < 1:
        raise ValueError("n must be positive")
    out = n
    while True:
        g = gcd(out, x)
        if g == 1:
            return out
        out //= g


def stab(a: int, b: int, n: int) -> int:
    """Residue c with gcd(a + c*b, n) == gcd(gcd(a, b), n).

    Write a = d*alpha, b = d*beta with gcd(alpha, beta) = 1.  Taking c to be
    the alpha-free part of n makes alpha + c*beta coprime to n: primes of n
    dividing alpha miss c*beta, the rest miss alpha.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    a %= n
    b %= n
    d = gcd(a, b)
    if d == 0:
        return 0
    alpha = a // d
    return coprime_part(n, alpha) % n


def unit_stabilizer(a: int, n: int) -> int:
    """Unit w mod n with w*a == gcd(a, n) (mod n).

    Every residue factors as unit * divisor-of-n; this returns the inverse of
    that unit.  Used to normalize Howell pivots to divisors of N.
    """
    if n == 1:
        return 0
    a %= n
    g = gcd(a, n)
    if g == 0:
        return 1 % n
    a1, n1 = a // g, n // g
    # gcd(a1, n1) = 1 since any common prime p would put p*g into gcd(a, n)
    w = pow(a1, -1, n1) if n1 > 1 else 0
    c = stab(w, n1, n)
    w = (w + c * n1) % n
    if gcd(w, n) != 1:
        raise InternalError("unit stabilizer is not a unit")
    return w

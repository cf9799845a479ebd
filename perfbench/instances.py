"""Seeded inputs for the four workloads, each with an independent certificate.

An `Instance` bundles the timed call into hnfkit with two untimed steps:
`canon` turns the output into plain ints or text, and `check` certifies that
plain form with `certify`, which never calls hnfkit.  Every generator draws
only from the `random.Random` it is given, so a seed fixes the inputs.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import certify

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, int(p ** 0.5) + 1))]


@dataclass
class Instance:
    label: str
    run: Callable[[], object]
    canon: Callable[[object], object]
    check: Callable[[object], bool]


def _rand_rows(rng, rows, cols, bits, signed=True):
    lo = -(1 << (bits - 1)) if signed else 0
    hi = 1 << (bits - 1) if signed else 1 << bits
    return [[rng.randrange(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _nonsingular(rng, n, bits):
    while True:
        rows = _rand_rows(rng, n, n, bits)
        d = abs(certify.det(rows))
        if d:
            return rows, d


def _unit_triangular_product(rng, n):
    lower = [[rng.randint(-3, 3) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[rng.randint(-3, 3) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    return certify.matmul(lower, upper)


def _is_prime(n):
    # Miller-Rabin with these bases is exact below 3.3e24
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factored_modulus(rng, bits, even):
    """A random `bits`-bit modulus of the given parity whose factorization
    is known: small factors below 1000 times a prime cofactor (redrawn
    otherwise)."""
    while True:
        m = rng.getrandbits(bits) | (1 << (bits - 1))
        m = m & ~1 if even else m | 1
        primes, c = set(), m
        for p in _SMALL_PRIMES:
            while c % p == 0:
                primes.add(p)
                c //= p
        if c == 1 or _is_prime(c):
            return m, primes | ({c} if c > 1 else set())


def _hermite_canon(out):
    return out.mat.to_rows()


def _shape(mats):
    return {"input.n": max(max(len(m), len(m[0])) for m in mats),
            "input.entry_bits": max(abs(x).bit_length() for m in mats for r in m for x in r)}


def dense(lib, rng, n, pool):
    apps = lib["apps"]
    out, mats = [], []
    for _ in range(pool):
        rows, d = _nonsingular(rng, n, 16)
        a = lib["IntMat"](rows, n, n)
        mats.append(rows)
        out.append(Instance(f"hnf {n}x{n} dense", lambda a=a: apps.hnf(a), _hermite_canon,
                            lambda h, rows=rows, d=d: certify.certify_hnf(h, rows, d)))
    return out, _shape(mats)


def skewed(lib, rng, n, pool, s_bits=1024):
    apps = lib["apps"]
    out, mats = [], []
    for _ in range(pool):
        s = rng.getrandbits(s_bits) | (1 << (s_bits - 1)) | 1
        u = _unit_triangular_product(rng, n)
        v = _unit_triangular_product(rng, n)
        rows = certify.matmul([r[:-1] + [r[-1] * s] for r in u], v)   # U*diag(1,..,1,s)*V
        a = lib["IntMat"](rows, n, n)
        mats.append(rows)
        # det U == det V == 1, so |det A| == s
        out.append(Instance(f"hnf {n}x{n} skewed", lambda a=a: apps.hnf(a), _hermite_canon,
                            lambda h, rows=rows, s=s: certify.certify_hnf(h, rows, s)))
    return out, _shape(mats)


def crt(lib, rng, n, pool, mod_bits=64, entry_bits=60):
    apps = lib["apps"]
    out, mats = [], []
    for _ in range(pool):
        # exactly half the moduli are even: the count of nontrivial invariant
        # factors of M, which sets the recursion band, is then n/2 for most
        # draws (more only when 3 divides more moduli than 2 does) instead
        # of varying with the number of even draws
        factored = [_factored_modulus(rng, mod_bits, j < n // 2) for j in range(n)]
        moduli = [m for m, _ in factored]
        primes = set().union(*(ps for _, ps in factored))
        while True:
            a_rows = _rand_rows(rng, n, n, entry_bits)
            # x -> x*A is onto the sum of the Z/(m_j) iff, for every prime p,
            # the columns whose modulus p divides have full rank modulo p
            if all(certify.rank_mod_p([[r[j] for j in cols] for r in a_rows], p) == len(cols)
                   for p in primes
                   for cols in [[j for j, m in enumerate(moduli) if m % p == 0]]):
                break
        b_row = _rand_rows(rng, 1, n, entry_bits)[0]
        mod = lib["DiagonalModulus"](moduli)
        a = lib["IntMat"](a_rows, n, n)
        b = lib["IntMat"]([b_row], 1, n)
        mats += [a_rows, [b_row], [moduli]]
        out.append(Instance(
            f"crt n={n}", lambda mod=mod, a=a, b=b: apps.multivariable_crt(mod, a, b),
            lambda r: (r[0], r[1].to_rows()[0], r[2].mat.to_rows()),
            lambda r, a_rows=a_rows, b_row=b_row, moduli=moduli:
                certify.certify_crt(r[0], r[1], r[2], a_rows, b_row, moduli)))
    return out, _shape(mats)


def _write(path, rows):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{len(rows)} {len(rows[0])}\n")
        fh.write("\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    return path


def parse_matrices(text):
    """The CLI output format: matrices as `rows cols` then entries."""
    toks = [int(t) for t in text.split()]
    mats, i = [], 0
    while i < len(toks):
        r, c = toks[i], toks[i + 1]
        flat = toks[i + 2:i + 2 + r * c]
        mats.append([flat[k * c:(k + 1) * c] for k in range(r)])
        i += 2 + r * c
    return mats


def _cli_ok(rc_text, count, certify_fn):
    rc, text = rc_text
    mats = parse_matrices(text)
    return rc == 0 and len(mats) == count and certify_fn(*mats)


def apps_cli(lib, rng, n, pool, workdir):
    """One instance is a mix of five CLI commands; n scales every dimension.

    Each command is (argv, number of output matrices, certificate).
    """
    cli = lib["cli"]

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    out, mats = [], []
    for k in range(pool):
        def write(name, rows):
            return _write(os.path.join(workdir, f"{k}-{name}.mat"), rows)

        calls = []
        a, da = _nonsingular(rng, n, 8)
        b, db = _nonsingular(rng, n, 8)
        mats += [a, b]
        ab = certify.matmul(a, b)
        calls.append((["product-hnf", "--in", write("pa", a),
                       "--in", write("pb", b)], 1,
                      lambda h, ab=ab, d=da * db: certify.certify_hnf(h, ab, d)))

        a, da = _nonsingular(rng, n, 8)
        b, db = _nonsingular(rng, n, 8)
        mats += [a, b]
        calls.append((["intersect", "--in", write("ia", a),
                       "--in", write("ib", b)], 1,
                      lambda h, a=a, b=b, da=da, db=db:
                          certify.certify_intersection(h, a, b, da, db)))

        a, da = _nonsingular(rng, n, 8)
        t = certify.hnf_mod(a, da)
        f = _rand_rows(rng, n * 4 // 3, n, 40)
        mats += [t, f]
        calls.append((["remainder", "--mod", write("rt", t),
                       "--in", write("rf", f)], 1,
                      lambda fbar, f=f, t=t: certify.certify_remainder(fbar, f, t)))

        # a tall modulus whose top block is nonsingular: d*Z^m lies in L(M)
        top, dm = _nonsingular(rng, 2 * n, 16)
        m = top + _rand_rows(rng, 2 * n, 2 * n, 16)
        f = _rand_rows(rng, 2 * n, 2 * n, 16)
        mats += [m, f]
        calls.append((["relbasis", "--mod", write("bm", m),
                       "--in", write("bf", f)], 1,
                      lambda h, m=m, f=f, dm=dm: certify.certify_relations_basis(h, m, f, dm)))

        a = _rand_rows(rng, n * 8 // 3, n * 8 // 3, 30, signed=False)
        big_n = rng.getrandbits(128) | (1 << 127)
        mats.append(a)
        calls.append((["howell", "--in", write("ha", a), str(big_n)], 2,
                      lambda h, u, a=a, big_n=big_n: certify.certify_howell(h, u, a, big_n)))

        out.append(Instance(
            "cli mix: product-hnf, intersect, remainder, relbasis, howell",
            lambda calls=calls: [run(argv) for argv, _, _ in calls], lambda outs: outs,
            lambda outs, calls=calls: len(outs) == len(calls) and all(
                _cli_ok(o, count, fn) for o, (_, count, fn) in zip(outs, calls))))
    return out, _shape(mats)


# workload -> (generator, full size, warm-up size, pool size).  Sizes keep one
# instance near 1-2 s so that a 30 s run times 15-29 of them, and pools hold
# several distinct inputs so that one unusually easy input moves no median.
WORKLOADS = {
    "dense": (dense, 48, 8, 4),
    "skewed": (skewed, 48, 8, 4),
    "crt": (crt, 32, 6, 8),
    "apps_cli": (apps_cli, 16, 3, 4),
}


def build(name, lib, rng, workdir, warm=False):
    make, full, small, pool = WORKLOADS[name]
    kwargs = {}
    if name == "apps_cli":
        kwargs["workdir"] = os.path.join(workdir, "warm" if warm else "pool")
        os.makedirs(kwargs["workdir"], exist_ok=True)
    return make(lib, rng, small if warm else full, 1 if warm else pool, **kwargs)

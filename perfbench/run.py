#!/usr/bin/env python3
"""Outside-in benchmark of hnfkit: one workload per run, or all of them.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root.  The library is imported from ./src and runs
with seed=None, its deterministic path, in this one process with no threads.
Set-up (import, input generation, certificate precomputation and a warm-up
on a small instance) is repeated and its median reported as setup_s.  The
timed loop cycles through the workload's pool of instances until --seconds
have passed; each instance's output must repeat bit for bit and is certified
by `certify`, outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates an untraced
and a traced pass over the pool instead, checks that both give identical
outputs, and prints the per-layer metrics of `spans` per pass.  The last
line of output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
UNITS = {"solve_s_p50": "s", "throughput_ips": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_hnfkit():
    """Import hnfkit from this checkout's src, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    lib = {name: importlib.import_module(f"hnfkit.{name}") for name in ("apps", "cli", "oracle")}
    import_s = perf_counter() - t0
    if not Path(lib["apps"].__file__).resolve().is_relative_to(src):
        raise ImportError(f"hnfkit was not imported from {src}")
    intmat = importlib.import_module("hnfkit.intmat")
    lib["IntMat"], lib["DiagonalModulus"] = intmat.IntMat, intmat.DiagonalModulus
    return lib, import_s


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_bits", "_bits_max")):
        return "bits"
    if name.endswith(("_frac", "_ratio_max")):
        return "ratio"
    return "count"


def checker_selftest(lib, certify) -> bool:
    """The certificates must reject the known wrong basis and agree with
    the library's naive oracle on a small lattice."""
    rng = random.Random(0)
    rows = [[rng.randrange(-50, 50) for _ in range(4)] for _ in range(6)]
    d = abs(certify.det(rows[:4]))
    naive = lib["oracle"].naive_hnf(lib["IntMat"](rows, 6, 4)).mat.to_rows()
    return certify.golden_selftest() and d > 0 and certify.hnf_mod(rows, d) == naive


def certified(inst, canon) -> bool:
    """Does the plain form of an output of `inst` pass its certificate?"""
    try:
        return inst.check(canon)
    except Exception:   # a malformed output fails its certificate
        traceback.print_exc()
        return False


def time_call(inst):
    """Run one instance; return (seconds, output or None on an exception)."""
    t0 = perf_counter()
    try:
        out = inst.run()
    except Exception:   # a failed instance counts against failed, the run goes on
        t1 = perf_counter()
        traceback.print_exc()
        return t1 - t0, None
    return perf_counter() - t0, out


class Outcomes:
    """Per-instance outputs: each must repeat the first bit for bit, and
    the first is certified once at the end."""

    def __init__(self, pool):
        self.pool = pool
        self.first = [None] * len(pool)
        self.ok_attempts = [0] * len(pool)
        self.attempted = self.failed = 0

    def record(self, k, out) -> None:
        self.attempted += 1
        if out is None:
            self.failed += 1
            return
        canon = self.pool[k].canon(out)
        if self.first[k] is None:
            self.first[k] = canon
        if canon != self.first[k]:
            self.failed += 1
            return
        self.ok_attempts[k] += 1

    def certify(self) -> int:
        """Certify each first output; return the number of certified attempts."""
        count = 0
        for k, inst in enumerate(self.pool):
            if self.first[k] is None:
                continue
            if certified(inst, self.first[k]):
                count += self.ok_attempts[k]
            else:
                print(f"certificate failed: {inst.label}", file=sys.stderr)
                self.failed += self.ok_attempts[k]
        return count


def measure(pool, seconds):
    outcomes = Outcomes(pool)
    times = []
    start = perf_counter()
    k = 0
    while not times or perf_counter() - start < seconds:
        dt, out = time_call(pool[k])
        times.append(dt)
        outcomes.record(k, out)
        k = (k + 1) % len(pool)
    certified = outcomes.certify()
    return outcomes, {
        "solve_s_p50": statistics.median(times),
        "throughput_ips": certified / sum(times),
    }, len(times)


def measure_traced(pool, seconds):
    import spans
    outcomes = Outcomes(pool)
    tracer = spans.Tracer()
    untraced_s = traced_s = 0.0
    rounds = 0
    start = perf_counter()
    while True:
        round_start = perf_counter()
        if spans.wrapped_sites():
            raise RuntimeError("a wrapper is installed during the untraced pass")
        for k, inst in enumerate(pool):
            dt, out = time_call(inst)
            untraced_s += dt
            outcomes.record(k, out)
        tracer.install()
        try:
            for k, inst in enumerate(pool):
                dt, out = time_call(inst)
                traced_s += dt
                outcomes.record(k, out)
        finally:
            tracer.uninstall()
        rounds += 1
        # stop before a round that would end after the deadline
        now = perf_counter()
        if now + (now - round_start) - start > seconds:
            break
    outcomes.certify()
    metrics = tracer.metrics(rounds, traced_s)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    return outcomes, metrics


def run_workload(args) -> int:
    try:
        lib, import_s = import_hnfkit()
    except ImportError as exc:
        print(f"cannot import hnfkit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import certify
    import instances

    work_root = ROOT / "perfbench" / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        correct = checker_selftest(lib, certify)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            pool, props = instances.build(args.workload, lib,
                                          random.Random(f"{args.workload}:{args.seed}"), workdir)
            warm, _ = instances.build(args.workload, lib, random.Random(f"warm:{args.seed}"),
                                      workdir, warm=True)
            for inst in warm:
                out = time_call(inst)[1]
                correct &= out is not None and certified(inst, inst.canon(out))
            setup_times.append(perf_counter() - t0)
        if args.trace:
            outcomes, metrics = measure_traced(pool, args.seconds)
            metrics.update(props)
            summary = f"{len(pool)} instances per pass"
        else:
            outcomes, metrics, count = measure(pool, args.seconds)
            metrics["setup_s"] = import_s + statistics.median(setup_times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            summary = f"{count} instances timed, pool of {len(pool)}: " + \
                ", ".join(sorted({inst.label for inst in pool}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by another run
            work_root.rmdir()

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {summary}")
    print(f"python {sys.version.split()[0]}, {os.cpu_count()} cpus")
    print(f"failed_frac = {outcomes.failed / outcomes.attempted:.4f} ratio "
          f"({outcomes.failed} of {outcomes.attempted} attempts)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": bool(correct) and outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    import instances
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in instances.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import instances
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(instances.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

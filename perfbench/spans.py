"""Per-layer spans recorded from outside hnfkit.

hnfkit binds its layer functions with `from .x import y`, so a wrapper must
replace every module attribute that holds the function, not just the one in
the defining module.  `Tracer.install` does that for all loaded hnfkit
modules and `uninstall` puts the originals back.  The recursion inside
`hermite_basis` is caught because it calls itself through its module global.

Spans are kept in memory as [name, start, end, parent, info] and aggregated
after the run.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from math import prod
from time import perf_counter

# layer functions: reported as `<module>.<function>.calls` and `.self_s`
LAYERS = (
    "relations.to_smith_coprime", "relations.pivot_permutation",
    "massager.smith_massager", "intmat.determinant",
    "structured_hermite.hermite_of_stack", "structured_hermite.coprime_parts",
    "structured_hermite.stage_transform", "structured_hermite.stage_apply",
    "howell.hermite_via_howell", "howell.hermite_with_eliminator", "howell.howell_form",
    "linmul.colmod_mul_tall_square", "linmul.colmod_mul_signed",
    "linmul.colmod_mul_hermite", "linmul.colmod_mul_wide_tall",
    "hermite_basis.hermite_basis", "hermite_basis.base_case",
    "cli.main", "intmat.parse_matrix", "intmat.format_matrix",
)
# entry points: reported as `.total_s`; their own code counts as untracked
ENTRIES = (
    "apps.hnf", "apps.product_hnf", "apps.lattice_intersection",
    "apps.remainder_mod_hermite", "apps.multivariable_crt",
    "hermite_basis.relations_hermite_basis",
)
_MARK = "_perfbench_original"


def _is_upper_triangular(m) -> bool:
    return all(m[i, j] == 0 for i in range(m.rows) for j in range(min(i, m.cols)))


# probes run before the timer starts and return the span's info
_PROBES = {
    "hermite_basis.hermite_basis": lambda call, *a, **k: call.m,
    "massager.smith_massager": lambda m, *a, **k: (m.rows, _is_upper_triangular(m)),
    "structured_hermite.hermite_of_stack":
        lambda a, s: (s.dim, max(1, prod(s.diag).bit_length())),
    "structured_hermite.stage_transform": lambda f1, a1, s1: s1.diag[-1] if s1.diag else 1,
}


def wrapped_sites() -> list[tuple[str, str]]:
    """Every hnfkit module attribute that currently holds a wrapper."""
    return [(name, attr) for name, mod in list(sys.modules.items())
            if name == "hnfkit" or name.startswith("hnfkit.")
            for attr, val in vars(mod).items() if hasattr(val, _MARK)]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.plan_ratios: list[float] = []
        self._stack: list[int] = []
        self._sites: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        probe = _PROBES.get(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            info = probe(*args, **kwargs) if probe else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, info]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if name == "massager.smith_massager":
                span[4] += (result.s.diag,)
            return result
        return wrapper

    def _wrap_make_plan(self, fn):
        ratios = self.plan_ratios

        def wrapper(moduli, x):
            plan = fn(moduli, x)
            if moduli:
                ratios.append(sum(plan.lengths) / len(moduli))
            return plan
        return wrapper

    def install(self) -> None:
        mods = [m for n, m in sys.modules.items() if n == "hnfkit" or n.startswith("hnfkit.")]
        for name in LAYERS + ENTRIES + ("linmul.make_plan",):
            mod_name, fn_name = name.split(".")
            orig = getattr(importlib.import_module(f"hnfkit.{mod_name}"), fn_name)
            if name == "linmul.make_plan":
                wrapper = self._wrap_make_plan(orig)
            else:
                wrapper = self._wrap(name, orig)
            setattr(wrapper, _MARK, orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._sites.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._sites):
            setattr(mod, attr, orig)
        self._sites.clear()

    def metrics(self, rounds: int, traced_s: float) -> dict[str, float]:
        """Per-round call counts and times, and the exact counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += t1 - t0 - child[i]
            # total time counts only the outermost span of a recursive name
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total_s[name] += t1 - t0
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls[name] / rounds
            out[f"{name}.self_s"] = self_s[name] / rounds
        out["relations.to_smith_coprime.total_s"] = total_s["relations.to_smith_coprime"] / rounds
        for name in ENTRIES:
            out[f"{name}.total_s"] = total_s[name] / rounds
        out["untracked_s"] = (traced_s - sum(self_s[n] for n in LAYERS)) / rounds
        out.update(self._counters())
        return out

    def _counters(self) -> dict[str, float]:
        spans = self.spans
        depth_max = band_log2_max = 0
        stage_ratio = 0.0
        stage_index: dict[int, int] = defaultdict(int)
        mas_dims, mas_tri = [], []
        inv_count = inv_bits = det_bits = 0
        first_massager: set[int] = set()
        for name, _, _, parent, info in spans:
            if name == "hermite_basis.hermite_basis":
                depth, p = 0, parent
                while p >= 0:
                    depth += spans[p][0] == name
                    p = spans[p][3]
                depth_max = max(depth_max, depth)
                if depth == 0 and info > 0:
                    band_log2_max = max(band_log2_max, (info - 1).bit_length())
            elif name == "structured_hermite.stage_transform" and \
                    spans[parent][0] == "structured_hermite.hermite_of_stack":
                # stage k of a hermite_of_stack(A, S) works on the trailing
                # mbar_k columns: mbar_0 = m, mbar_{k+1} = mbar_k - ceil(mbar_k/2)
                m, det_b = spans[parent][4]
                k = stage_index[parent]
                stage_index[parent] += 1
                mbar = m
                for _ in range(k):
                    mbar -= (mbar + 1) // 2
                stage_ratio = max(stage_ratio, info.bit_length() / (2 * det_b / mbar + 1))
            elif name == "massager.smith_massager":
                mas_dims.append(info[0])
                mas_tri.append(info[1])
                # step 2 of to_smith_coprime massages the pivot block of the
                # modulus: its Smith form describes the workload's input
                if len(info) == 3 and parent >= 0 and parent not in first_massager \
                        and spans[parent][0] == "relations.to_smith_coprime":
                    first_massager.add(parent)
                    diag = info[2]
                    nontrivial = [d for d in diag if d > 1]
                    inv_count = max(inv_count, len(nontrivial))
                    inv_bits = max(inv_bits, max((d.bit_length() for d in nontrivial), default=0))
                    det_bits = max(det_bits, prod(diag).bit_length())
        return {
            "hermite_basis.depth_max": depth_max,
            "hermite_basis.log2_band_max": band_log2_max,
            "structured_hermite.stage_bound_ratio_max": stage_ratio,
            "linmul.linearized_dim_ratio_max": max(self.plan_ratios, default=0.0),
            "massager.smith_massager.dim_max": max(mas_dims, default=0),
            "massager.smith_massager.triangular_frac":
                sum(mas_tri) / len(mas_tri) if mas_tri else 0.0,
            "input.det_bits": det_bits,
            "input.invariant_factors_nontrivial": inv_count,
            "input.invariant_factor_bits_max": inv_bits,
        }

"""Span tracer for the traced run, wrapped around `vpa` from the outside.

`Tracer.request()` patches every public function of the traced layers (and
the evaluator methods of `Problem` and `Polynomial`) for the duration of one
workload call, then restores the originals, so untraced calls run the
program untouched. Each span records name, start, end, parent span and
request id. High-frequency calls (`HOT`) are not spans: they are counted,
and their summed time is charged to the enclosing span as child time, which
keeps the overhead bounded at ~10^5 calls per verdict.

Functions are imported by name into several modules (`minimize_auglag` into
`asymptotics` and `pareto`, `rabier_value` into three), so patching rebinds
every module-level binding of an original, and `check_coverage` fails the
run if any `vpa.*` module still holds an unwrapped one.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("polynomials", "problem", "solvers", "certificates", "asymptotics",
          "pareto", "cli")

# evaluator methods traced besides the module-level public functions
METHODS = {
    "polynomials": ("Polynomial", ("gradient", "hessian_at")),
    "problem": ("Problem", ("f", "g", "h", "jac_f", "jac_g", "jac_h")),
}

EVALUATORS = tuple(f"problem.Problem.{m}" for m in METHODS["problem"][1])

# called thousands of times per verdict: counted, not spanned
HOT = frozenset({
    *EVALUATORS,
    "polynomials.Polynomial.gradient", "polynomials.Polynomial.hessian_at",
    "problem.check_feasible",
    "solvers.project_simplex", "solvers.random_unit_vector",
    "asymptotics.below_ybar", "asymptotics.ybar_all_infinite",
    "pareto.nondominated_filter",
    "cli.to_jsonable",
})


def _outcome_counts(tracer, name, args, kwargs, result, exc, elapsed):
    """Per-function outcome counters, read by `layer_metrics`."""
    counts = tracer.counts
    failed = type(exc).__name__ if exc is not None else None
    if name == "solvers.minimize_auglag":
        if failed == "DivergenceError":
            counts["auglag_diverged"] += 1
        elif result is not None:
            counts[f"auglag_{result.outcome}"] += 1
            counts["auglag_outer_iters"] += result.outer_iterations
    elif name == "solvers.gauss_newton" and result is not None:
        counts["gn_accepted"] += bool(result[1])
    elif name == "problem.project_to_sphere_slice" and failed:
        counts["project_failed"] += 1
    elif name == "problem.polish_to_slice" and failed is None and result is None:
        counts["polish_rejected"] += 1
    elif name == "problem.sample_feasible_ray":
        if result is not None:
            counts["ray_failed_radii"] += len(result.failed_radii)
        elif failed == "RayError":
            radii = kwargs.get("radii", args[1] if len(args) > 1 else ())
            counts["ray_failed_radii"] += len(list(radii))
    elif name == "certificates.tangency_membership" and result is not None:
        counts["tangency_members"] += bool(result.is_member)
    elif name == "pareto.solve_scalarized":
        counts["scalarized_ok"] += failed is None
        if failed == "DivergenceError":
            counts["scalarized_diverged"] += 1
            counts["scalarized_diverged_s"] += elapsed
    elif name == "pareto.solve_front" and result is not None:
        counts["archive_size"] += len(result)
    elif name in ("asymptotics.trace_tangency", "asymptotics.ray_to_trace") \
            and result is not None:
        for trace in (result if isinstance(result, list) else [result]):
            counts["radii_attempted"] += len(trace.attempted_radii)
            counts["radii_covered"] += len(trace.coverage_radii)
    elif name == "cli.main" and result is not None:
        counts["report_bytes"] += _report_bytes(args[0] if args else kwargs["argv"])


def _report_bytes(argv) -> int:
    out = next((a.split("=", 1)[1] for a in argv if a.startswith("--out=")), None)
    if out is None and "--out" in argv:
        out = argv[argv.index("--out") + 1]
    report = Path(out) / f"{argv[0]}_report.json"
    return report.stat().st_size if report.exists() else 0


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, request id, child seconds]
        self.spans: list[list] = []
        self.hot: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.hot_self: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.requests = 0
        self._stack: list[int] = []
        self._hot_depth = 0
        self._request = None
        self._originals: dict[int, str] = {}
        self._bindings = self._collect()

    # -- patching --------------------------------------------------------------

    def _collect(self):
        """(owner, attribute, original, wrapper) for every traced function and
        every module-level binding of it."""
        targets = []
        for layer in LAYERS:
            module = importlib.import_module(f"vpa.{layer}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    targets.append((module, attr, fn, f"{layer}.{attr}", layer))
            if layer in METHODS:
                cls_name, methods = METHODS[layer]
                cls = getattr(module, cls_name)
                for attr in methods:
                    targets.append((cls, attr, vars(cls)[attr],
                                    f"{layer}.{cls_name}.{attr}", layer))
        bindings = []
        modules = _vpa_modules()
        for owner, attr, fn, name, layer in targets:
            wrapper = self._wrap(name, layer, fn)
            self._originals[id(fn)] = name
            bindings.append((owner, attr, fn, wrapper))
            if inspect.isclass(owner):
                continue
            for module in modules:
                for other, value in vars(module).items():
                    if value is fn and (module, other) != (owner, attr):
                        bindings.append((module, other, fn, wrapper))
        return bindings

    def _install(self):
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        self.check_coverage()

    def _uninstall(self):
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def check_coverage(self):
        """Fail if any vpa.* module still binds an unwrapped original."""
        stale = [f"{module.__name__}.{attr} -> {self._originals[id(value)]}"
                 for module in _vpa_modules()
                 for attr, value in vars(module).items()
                 if id(value) in self._originals]
        if stale:
            raise RuntimeError("untraced bindings after patching: " + ", ".join(stale))

    @contextmanager
    def request(self, request_id: str):
        """Trace one workload call."""
        self._request = request_id
        self.requests += 1
        try:
            self._install()
            yield
        finally:
            self._uninstall()
            self._request = None

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name, layer, fn):
        tracer = self
        clock = time.perf_counter

        if name in HOT:
            stat = self.hot[name]

            def hot(*args, **kwargs):
                tracer._hot_depth += 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    tracer._hot_depth -= 1
                    stat[0] += 1
                    stat[1] += elapsed
                    if not tracer._hot_depth:
                        tracer.hot_self[layer] += elapsed
                        if tracer._stack:
                            tracer.spans[tracer._stack[-1]][5] += elapsed
            return hot

        def span(*args, **kwargs):
            if tracer._hot_depth:   # inside a counted call: its time is there
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [name, 0.0, 0.0, parent, tracer._request, 0.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            result = exc = None
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                record[2] = clock()
                tracer._stack.pop()
                if parent >= 0:
                    tracer.spans[parent][5] += record[2] - record[1]
                _outcome_counts(tracer, name, args, kwargs, result, exc,
                                record[2] - record[1])
        return span

    # -- export ------------------------------------------------------------------

    def span_dicts(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0.0
        return [{"name": n, "start": s - origin, "end": e - origin,
                 "parent": p, "request": r}
                for n, s, e, p, r, _ in self.spans]


def _vpa_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "vpa" or name.startswith("vpa."))]


# -- per-layer metrics -----------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced workload call (counts and seconds are
    divided by the number of traced calls; ratios and per-call times are
    not). A layer's self time is its spans' durations minus the time their
    child spans and counted calls cover, plus its own counted calls."""
    calls: Counter = Counter()
    seconds: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float, tracer.hot_self)
    for name, start, end, _, _, child in tracer.spans:
        calls[name] += 1
        seconds[name] += end - start
        layer_self[name.split(".", 1)[0]] += end - start - child
    for name, (count, total) in tracer.hot.items():
        calls[name] += count
        seconds[name] += total
    counts = tracer.counts
    per = 1.0 / max(1, tracer.requests)

    def ratio(num, den):
        return num / den if den else 0.0

    eval_calls = sum(calls[n] for n in EVALUATORS)
    eval_s = sum(seconds[n] for n in EVALUATORS)
    auglag = calls["solvers.minimize_auglag"]
    out = {
        "polynomials.parse_s": (seconds["polynomials.parse"] * per, "s"),
        "polynomials.hessian_calls": (calls["polynomials.Polynomial.hessian_at"] * per, "count"),
        "polynomials.hessian_s": (seconds["polynomials.Polynomial.hessian_at"] * per, "s"),
        "polynomials.self_s": (layer_self["polynomials"] * per, "s"),
        "problem.eval_calls": (eval_calls * per, "count"),
        "problem.eval_s": (eval_s * per, "s"),
        "problem.eval_us_per_call": (ratio(eval_s, eval_calls) * 1e6, "us"),
        "problem.project_calls": (calls["problem.project_to_sphere_slice"] * per, "count"),
        "problem.project_s": (seconds["problem.project_to_sphere_slice"] * per, "s"),
        "problem.project_fail_ratio": (ratio(counts["project_failed"],
                                             calls["problem.project_to_sphere_slice"]), "ratio"),
        "problem.polish_calls": (calls["problem.polish_to_slice"] * per, "count"),
        "problem.polish_s": (seconds["problem.polish_to_slice"] * per, "s"),
        "problem.polish_reject_ratio": (ratio(counts["polish_rejected"],
                                              calls["problem.polish_to_slice"]), "ratio"),
        "problem.ray_calls": (calls["problem.sample_feasible_ray"] * per, "count"),
        "problem.ray_s": (seconds["problem.sample_feasible_ray"] * per, "s"),
        "problem.ray_failed_radii": (counts["ray_failed_radii"] * per, "count"),
        "problem.self_s": (layer_self["problem"] * per, "s"),
        "solvers.auglag_calls": (auglag * per, "count"),
        "solvers.auglag_s": (seconds["solvers.minimize_auglag"] * per, "s"),
        "solvers.auglag_outer_iters": (counts["auglag_outer_iters"] * per, "count"),
        "solvers.auglag_converged": (counts["auglag_converged"] * per, "count"),
        "solvers.auglag_infeasible": (counts["auglag_infeasible"] * per, "count"),
        "solvers.auglag_iteration_limit": (counts["auglag_iteration_limit"] * per, "count"),
        "solvers.auglag_diverged": (counts["auglag_diverged"] * per, "count"),
        "solvers.auglag_converged_ratio": (ratio(counts["auglag_converged"], auglag), "ratio"),
        "solvers.qp_calls": (calls["solvers.minimize_quadratic_pg"] * per, "count"),
        "solvers.qp_s": (seconds["solvers.minimize_quadratic_pg"] * per, "s"),
        "solvers.gn_calls": (calls["solvers.gauss_newton"] * per, "count"),
        "solvers.gn_s": (seconds["solvers.gauss_newton"] * per, "s"),
        "solvers.gn_accept_ratio": (ratio(counts["gn_accepted"],
                                          calls["solvers.gauss_newton"]), "ratio"),
        "solvers.self_s": (layer_self["solvers"] * per, "s"),
        "certificates.rabier_calls": (calls["certificates.rabier_value"] * per, "count"),
        "certificates.rabier_s": (seconds["certificates.rabier_value"] * per, "s"),
        "certificates.tangency_calls": (calls["certificates.tangency_membership"] * per, "count"),
        "certificates.tangency_s": (seconds["certificates.tangency_membership"] * per, "s"),
        "certificates.tangency_member_ratio": (ratio(counts["tangency_members"],
                                                     calls["certificates.tangency_membership"]),
                                               "ratio"),
        "certificates.mfcq_calls": (calls["certificates.mfcq_probe"] * per, "count"),
        "certificates.mfcq_s": (seconds["certificates.mfcq_probe"] * per, "s"),
        "certificates.self_s": (layer_self["certificates"] * per, "s"),
        "asymptotics.trace_s": (seconds["asymptotics.trace_tangency"] * per, "s"),
        "asymptotics.ray_trace_s": (seconds["asymptotics.ray_to_trace"] * per, "s"),
        "asymptotics.record_calls": (calls["asymptotics.make_record"] * per, "count"),
        "asymptotics.record_s": (seconds["asymptotics.make_record"] * per, "s"),
        "asymptotics.classify_s": (seconds["asymptotics.classify"] * per, "s"),
        "asymptotics.self_s": (layer_self["asymptotics"] * per, "s"),
        "asymptotics.coverage_ratio": (ratio(counts["radii_covered"],
                                             counts["radii_attempted"]), "ratio"),
        "pareto.verdict_s": (seconds["pareto.existence_verdict"] * per, "s"),
        "pareto.mfcq_evidence_s": (seconds["pareto.sample_mfcq_evidence"] * per, "s"),
        "pareto.section_s": (seconds["pareto.section_probe"] * per, "s"),
        "pareto.front_s": (seconds["pareto.solve_front"] * per, "s"),
        "pareto.scalarized_calls": (calls["pareto.solve_scalarized"] * per, "count"),
        "pareto.scalarized_s": (seconds["pareto.solve_scalarized"] * per, "s"),
        "pareto.scalarized_ok_ratio": (ratio(counts["scalarized_ok"],
                                             calls["pareto.solve_scalarized"]), "ratio"),
        "pareto.scalarized_diverged": (counts["scalarized_diverged"] * per, "count"),
        "pareto.scalarized_diverged_s": (counts["scalarized_diverged_s"] * per, "s"),
        "pareto.archive_size": (counts["archive_size"] * per, "count"),
        "pareto.self_s": (layer_self["pareto"] * per, "s"),
        "cli.main_s": (seconds["cli.main"] * per, "s"),
        "cli.self_s": (layer_self["cli"] * per, "s"),
        "cli.report_bytes": (counts["report_bytes"] * per, "bytes"),
    }
    return out

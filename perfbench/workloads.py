"""Workload definitions, the pointwise input generator, and the closed loops.

Every workload is one caller in a closed loop: the next `vpa` CLI call is
issued in-process only after the previous one returned and its report was
checked. Inputs depend only on the seed; the program sees nothing but the
problem files, the config files and the `--at` points.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

# Verdict budgets. The schedule is the acceptance schedule (radius_factor=10,
# radius_count=5); the search budgets are shrunk so a run holds several
# verdicts, keeping each workload's dominant stage dominant:
#   motzkin    trace_tangency (~60%), Problem evaluation throughout
#   hyperbola  solve_front (~65%), scalarizations of unattained infima
#   degenerate tangency_membership (~65%), the FISTA certificate QP
# Every verdict runs at one fixed config seed. A config seed changes the
# random starts, projections and weight draws but not the fixture, and it
# moves a verdict's time: the median degenerate verdict took 4.8-5.5 s over
# config seeds 0-2, 2.8-4.6 s of certificate QP. With several config seeds
# per run, a run median measured which configs the run held, not the code.
VERDICT_WORKLOADS = {
    "verdict-motzkin": ("motzkin", dict(weights_per_radius=1, weight_grid=2,
                                        starts_per_weight=2, section_budget=8)),
    "verdict-hyperbola": ("hyperbola", dict(weights_per_radius=1, weight_grid=3,
                                            starts_per_weight=3, section_budget=8)),
    "verdict-degenerate": ("degenerate_line", dict(weights_per_radius=1, weight_grid=1,
                                                   starts_per_weight=1, section_budget=8)),
}
CONFIG_SEED = 0
SCHEDULE = dict(radius_factor=10.0, radius_count=5)

WORKLOADS = (*VERDICT_WORKLOADS, "pointwise-cli")
FIXTURES = ("motzkin", "hyperbola", "degenerate_line")

# a verdict run keeps going while the next call is expected to end before the
# deadline, but always measures at least this many calls after the warm-up
MIN_MEASURED = 3
# nearest-rank p90 needs ten samples beyond it
MIN_QUERIES = 100


def run_config(workload: str):
    from vpa.config import DEFAULT_CONFIG
    _, budgets = VERDICT_WORKLOADS[workload]
    return DEFAULT_CONFIG.replace(seed=CONFIG_SEED, **SCHEDULE, **budgets)


def problem_path(fixture: str) -> str:
    # relative to the checkout root, so reports (which echo the path) are
    # byte-identical wherever the checkout lives
    return f"problems/{fixture}.json"


# -- pointwise inputs ----------------------------------------------------------

@dataclass(frozen=True)
class Query:
    fixture: str
    family: str
    command: str
    point: tuple[float, ...]
    active: tuple[int, ...]   # expected active inequality indices


# (family, command) pairs issued round-robin, each at a fresh seeded point
QUERY_KINDS = (
    ("degenerate-axis", "eval"), ("degenerate-axis", "rabier"),
    ("degenerate-axis", "mfcq"), ("degenerate-axis", "tangency"),
    ("hyperbola-escape", "eval"), ("hyperbola-escape", "rabier"),
    ("motzkin-boundary", "eval"), ("motzkin-boundary", "mfcq"),
    ("motzkin-interior", "eval"), ("motzkin-interior", "tangency"),
)


def _point(family: str, rng: np.random.Generator):
    """A feasible point of a closed-form family and its active set."""
    if family == "degenerate-axis":       # (0, 0, t), t in [1, 1e3]
        return "degenerate_line", (0.0, 0.0, float(10 ** rng.uniform(0, 3))), (0,)
    if family == "hyperbola-escape":      # (k, 1/k, -1), k in [1e2, 1e4]
        k = float(10 ** rng.uniform(2, 4))
        return "hyperbola", (k, 1.0 / k, -1.0), ()
    if family == "motzkin-boundary":      # one coordinate exactly 0
        v = float(10 ** rng.uniform(-1, 1.5))
        axis = int(rng.integers(2))
        point = (0.0, v) if axis == 0 else (v, 0.0)
        return "motzkin", point, (axis,)
    if family == "motzkin-interior":      # both coordinates in [0.1, 10]
        return "motzkin", tuple(float(v) for v in 10 ** rng.uniform(-1, 1, 2)), ()
    raise ValueError(family)


def queries(seed: int):
    """Endless deterministic query stream for one seed. Points are not
    filtered: interior Motzkin points where the program is known to answer
    wrongly stay in and are counted."""
    rng = np.random.default_rng([seed, 0x9017])
    while True:
        for family, command in QUERY_KINDS:
            fixture, point, active = _point(family, rng)
            yield Query(fixture, family, command, point, active)


def query_argv(query: Query, outdir: Path) -> list[str]:
    at = ",".join(repr(v) for v in query.point)
    return [query.command, "--problem", problem_path(query.fixture),
            f"--at={at}", "--out", str(outdir)]


# -- closed loops ----------------------------------------------------------------

class Outcomes:
    """Attempted, failed, checked and wrong counts, plus report digests.
    `exposed` counts the checked outputs that can show the known defect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.wrong = 0
        self.exposed = 0
        self.known_defects = 0
        self.unexpected: list[str] = []
        self.digests: dict[str, str] = {}

    def record(self, errors: list[str], known: bool = False, label: str = "",
               exposed: bool = False):
        self.checked += 1
        self.exposed += exposed
        if errors:
            self.wrong += 1
            if known:
                self.known_defects += 1
            else:
                self.unexpected.append(f"{label}: {'; '.join(errors)}")

    @property
    def correct(self) -> bool:
        return not self.unexpected and \
            self.known_defects <= oracles.known_defects_allowed(self.exposed)


def _call(cli, argv, outcomes: Outcomes):
    """One timed CLI call. Returns (seconds, ok). `cli.main` is looked up per
    call so a traced call runs the wrapped entry point."""
    outcomes.attempted += 1
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:   # benchmark boundary: record, keep the loop going
        outcomes.failed += 1
        outcomes.unexpected.append(f"{argv[0]} raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - start, False
    elapsed = time.perf_counter() - start
    if code != 0:
        outcomes.failed += 1
        outcomes.unexpected.append(f"{' '.join(argv)} exited {code}")
        return elapsed, False
    return elapsed, True


def run_verdicts(cli, workload: str, workdir: Path, deadline: float,
                 outcomes: Outcomes, sampler=None, tracer=None):
    """Run verdicts of one fixture at the workload's config until the deadline.

    The first call warms up and is not timed. Each report is checked against
    the fixture's expected verdict, and its digest must equal that of every
    other verdict of the run. With a tracer, each untraced verdict is followed
    by a traced one; the untraced calls give the latencies.
    Returns (untraced seconds, traced seconds).
    """
    fixture = VERDICT_WORKLOADS[workload][0]
    outdir = workdir / "out"
    check = oracles.VERDICT_CHECKS[fixture]
    report_path = outdir / "verdict_report.json"
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(run_config(workload).to_dict(), sort_keys=True))
    argv = ["verdict", "--problem", problem_path(fixture), "--config", str(cfg_path),
            "--out", str(outdir)]

    plain: list[float] = []
    traced: list[float] = []
    schedule = [False, True] if tracer is not None else [False]
    for calls, use_tracer in enumerate(itertools.chain([False], itertools.cycle(schedule))):
        if use_tracer:
            with tracer.request(f"verdict-{calls}"):
                elapsed, ok = _call(cli, argv, outcomes)
        else:
            elapsed, ok = _call(cli, argv, outcomes)
            if sampler is not None:
                sampler.after(elapsed)
        if ok:
            data = report_path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            first = outcomes.digests.setdefault(f"{fixture}-config{CONFIG_SEED}", digest)
            errors = check(json.loads(data)["result"])
            if digest != first:
                errors.append(f"report digest {digest[:12]} != {first[:12]}")
            outcomes.record(errors, label=f"verdict {calls}")
        if calls > 0:
            (traced if use_tracer else plain).append(elapsed)
        measured = plain + traced
        estimate = float(np.median(measured)) if measured else elapsed
        enough = len(plain) >= MIN_MEASURED and (tracer is None or len(traced) >= 1)
        if enough and time.perf_counter() + estimate > deadline:
            return plain, traced


def run_queries(cli, seed: int, workdir: Path, deadline: float,
                outcomes: Outcomes, sampler=None, tracer=None):
    """Issue pointwise queries until the deadline (and at least MIN_QUERIES).

    The first query of each kind warms up and is not timed. With a tracer,
    each query runs untraced and then traced at the same point, and the two
    reports must be byte-identical. Returns (untraced seconds, traced
    seconds); the digest of the first MIN_QUERIES reports goes to outcomes.
    """
    outdir = workdir / "out"
    plain: list[float] = []
    traced: list[float] = []
    prefix = hashlib.sha256()
    for index, query in enumerate(queries(seed)):
        if index >= MIN_QUERIES and time.perf_counter() > deadline:
            break
        argv = query_argv(query, outdir)
        report_path = outdir / f"{query.command}_report.json"
        label = f"query {index} {query}"
        timed = index >= len(QUERY_KINDS)
        exposed = oracles.exposed_to_known_defect(query)
        elapsed, ok = _call(cli, argv, outcomes)
        if sampler is not None:
            sampler.after(elapsed)
        data = report_path.read_bytes() if ok else None
        if ok:
            if index < MIN_QUERIES:
                prefix.update(data)
            outcomes.record(*oracles.check_query(query, json.loads(data)), label=label,
                            exposed=exposed)
        if timed:
            plain.append(elapsed)
        if tracer is None:
            continue
        with tracer.request(f"query-{index}"):
            elapsed, ok = _call(cli, argv, outcomes)
        if ok:
            traced_data = report_path.read_bytes()
            errors, known = oracles.check_query(query, json.loads(traced_data))
            if data is not None and traced_data != data:
                errors.append("traced report differs from the untraced one")
                known = False
            outcomes.record(errors, known, label=f"traced {label}", exposed=exposed)
        if timed:
            traced.append(elapsed)
    outcomes.digests["first_queries"] = prefix.hexdigest()
    return plain, traced


class SetupSampler:
    """Times fresh set-ups: load_problem of every fixture the workload uses
    plus the first f, g, h and jac_* calls, which fill the lazy gradient
    caches. One set-up is timed per INTERVAL seconds of workload calls, so
    the samples spread over the whole run and slow phases of a shared
    machine weigh on setup_s as they do on the call latencies."""

    INTERVAL = 0.2

    def __init__(self, load_problem, fixtures):
        self.load_problem = load_problem
        self.fixtures = fixtures
        self.samples: list[float] = []
        self._owed = 1.0

    def after(self, elapsed: float):
        self._owed += elapsed / self.INTERVAL
        while self._owed >= 1.0:
            self._owed -= 1.0
            start = time.perf_counter()
            for fixture in self.fixtures:
                prob, _ = self.load_problem(problem_path(fixture))
                x = np.ones(prob.n)
                for fn in (prob.f, prob.g, prob.h, prob.jac_f, prob.jac_g, prob.jac_h):
                    fn(x)
            self.samples.append(time.perf_counter() - start)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]

"""Pareto machinery: nondominated filtering, section-boundedness probing,
weighted-sum scalarization, front sweeps, and the existence verdict that
composes constraint-qualification evidence, section evidence, and the
asymptotic classification. A command samples its feasible rays once, as
one pool (`ray_stage`) whose units also make the MFCQ probes, traces and
section samples that the evidence takes from them. Every stage takes
`(prob, ybar, cfg)` alone.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .asymptotics import (TraceResult, below_ybar, chain_stage, classify,
                          _cut_rows, ray_to_trace)
from .certificates import mfcq_probe, rabier_value
from .config import DEFAULT_CONFIG, RunConfig
from .errors import (ClassifyError, DivergenceError, NonFiniteError, RayError,
                     SectionError, SolveError, TraceError, VpaError)
from .pipeline import Stage, run
from .polynomials import _combine, _product
from .problem import Problem, check_feasible, sample_feasible_ray
from .solvers import _auglag_lanes, minimize_auglag, simplex_lattice

STATUS_GUARANTEED = "existence guaranteed (evidence)"
STATUS_INAPPLICABLE = "theorem inapplicable"
STATUS_UNVERIFIED = "hypothesis unverified"


# -- nondominated filtering ----------------------------------------------------

def nondominated_filter(values: Sequence[Sequence[float]],
                        mode: str = "pareto") -> list[int]:
    """Indices of entries not dominated in the componentwise order.

    pareto mode removes y when some y' <= y with y' != y; weak mode removes
    y only when some y' < y strictly in every component. Exact duplicates
    collapse to the first occurrence in both modes, which makes the filter
    idempotent and stable.
    """
    if mode not in ("pareto", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        return []
    if vals.ndim != 2:
        raise ValueError("values must be a list of equal-length vectors")
    N = vals.shape[0]
    le = np.all(vals[:, None, :] <= vals[None, :, :], axis=2)
    eq = np.all(vals[:, None, :] == vals[None, :, :], axis=2)
    if mode == "pareto":
        dominated = np.any(le & ~eq, axis=0)
    else:
        lt = np.all(vals[:, None, :] < vals[None, :, :], axis=2)
        dominated = np.any(lt, axis=0)
    earlier_dup = np.any(eq & np.tri(N, N, -1, dtype=bool).T, axis=0)
    keep = ~(dominated | earlier_dup)
    return [int(i) for i in np.nonzero(keep)[0]]


@dataclass(frozen=True)
class ArchiveEntry:
    x: tuple[float, ...]
    f: tuple[float, ...]
    weights: tuple[float, ...]
    rabier_residual: float


@dataclass
class ParetoArchive:
    """Mutually nondominated (point, value) pairs; re-filtered on insertion."""
    mode: str = "pareto"
    entries: list[ArchiveEntry] = field(default_factory=list)

    def add(self, entry: ArchiveEntry):
        self.entries.append(entry)
        self.refilter()

    def refilter(self):
        keep = nondominated_filter([e.f for e in self.entries], self.mode)
        self.entries = [self.entries[i] for i in keep]

    def values(self) -> list[tuple[float, ...]]:
        return [e.f for e in self.entries]

    def __len__(self):
        return len(self.entries)


# -- scalarized solving ----------------------------------------------------------

def solve_scalarized(prob: Problem, weights, start,
                     cfg: RunConfig = DEFAULT_CONFIG) -> tuple[np.ndarray, float]:
    """Minimize the weighted objective sum over S from a local start: one
    lane of `_scalarized_lanes`.

    Returns (x, rabier residual). Raises DivergenceError when iterates hit
    the norm cap (likely unbounded scalarization), NonFiniteError when a
    value overflows, and SolveError when the local solver stalls or the
    result is not stationary at tol_stationary.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (prob.p,) or abs(float(weights.sum()) - 1.0) > 1e-9 \
            or np.any(weights < -1e-12):
        raise ValueError("weights must lie on the unit simplex")
    ((label, value),) = _scalarized_lanes(prob, [(weights, start)], cfg)
    if label != "ok":
        raise value
    return value


# how a scalarized run can fail, in the order the front's note counts them
_FAILURES = ("not stationary", "infeasible", "iteration limit", "diverged",
             "non-finite")


def _scalarized_lanes(prob: Problem, draws, cfg: RunConfig) -> list[tuple]:
    """The weighted-sum solves of `draws`, (weights, start) pairs, as lanes
    of one `solvers._auglag_lanes` run on prob's own table: each lane
    applies its weights to the objective rows.

    Returns per draw ("ok", (x, rabier residual)), or a label of
    `_FAILURES` and the error `solve_scalarized` raises for it.
    """
    weights = np.array([w for w, _ in draws], dtype=float)
    results = _auglag_lanes(
        prob._evaluate_batch, [x0 for _, x0 in draws], (prob.p, prob.l, prob.m),
        weights,
        tol_feas=cfg.tol_feas, gtol=1e-9, divergence_cap=cfg.divergence_cap)
    return [_scalarized_outcome(prob, res, cfg) for res in results]


def _scalarized_outcome(prob: Problem, res, cfg: RunConfig) -> tuple:
    """One lane's label and value. A converged lane's point is feasible:
    its violation came from the product row, which is `prob.evaluate`'s
    vector bit for bit, at tol_feas."""
    if isinstance(res, DivergenceError):
        return "diverged", res
    if isinstance(res, NonFiniteError):
        return "non-finite", res
    if not res.converged:
        return res.outcome.replace("_", " "), SolveError(
            f"scalarized solve did not converge (outcome {res.outcome}, "
            f"violation {res.violation:.3e})")
    residual = rabier_value(prob, res.x, cfg).value
    if residual > cfg.tol_stationary:
        return "not stationary", SolveError(
            f"scalarized solve is not stationary (rabier residual {residual:.3e})")
    return "ok", (res.x, residual)


def _weight_draws(p: int, cfg: RunConfig) -> list[np.ndarray]:
    lattice = simplex_lattice(p, cfg.weight_grid)
    rng = np.random.default_rng([cfg.seed, 0xF07])
    randoms = [rng.dirichlet(np.ones(p)) for _ in range(cfg.weight_grid)] \
        if p > 1 else []
    return lattice + randoms


def _starts(prob: Problem, cfg: RunConfig, widx: int) -> list[np.ndarray]:
    rng = np.random.default_rng([cfg.seed, 0x57A7, widx])
    starts = [np.ones(prob.n)]
    for _ in range(cfg.starts_per_weight - 1):
        starts.append(3.0 * rng.standard_normal(prob.n))
    return starts


def solve_front(prob: Problem, ybar: Sequence[float],
                cfg: RunConfig = DEFAULT_CONFIG) -> ParetoArchive:
    """Weighted-sum sweep over a deterministic simplex lattice plus seeded
    draws, multi-started; keeps feasible stationary points below ybar and
    filters them to a mutually nondominated archive.

    Weighted sums only reach supported points, so nonconvex fronts may be
    undersampled; the archive is evidence, not an enumeration. The
    (weight, start) pairs run as lanes of one `_scalarized_lanes` call, one
    unit of `pipeline.run`.
    """
    (front,) = run(front_stage(prob, ybar, cfg))
    return front()


def front_stage(prob: Problem, ybar: Sequence[float],
                cfg: RunConfig = DEFAULT_CONFIG) -> Stage:
    """The scalarizations of `solve_front` as one unit; the stage's result
    is the archive. Raises SolveError, counting the failures by kind, when
    every run fails."""
    draws = [(weights, start)
             for widx, weights in enumerate(_weight_draws(prob.p, cfg))
             for start in _starts(prob, cfg, widx)]

    def archive(values) -> ParetoArchive:
        (outcomes,) = values
        out = ParetoArchive(mode="pareto")
        for (weights, _), (label, value) in zip(draws, outcomes):
            if label != "ok":
                continue
            x, residual = value
            fval = prob.f(x)
            if not below_ybar(fval, ybar, cfg.tol_active):
                continue
            out.add(ArchiveEntry(
                x=tuple(float(t) for t in x),
                f=tuple(float(t) for t in fval),
                weights=tuple(float(t) for t in weights),
                rabier_residual=residual,
            ))
        failed = Counter(label for label, _ in outcomes if label != "ok")
        if sum(failed.values()) == len(draws):
            counts = ", ".join(f"{failed[k]} {k}" for k in _FAILURES if failed[k])
            raise SolveError(f"all {len(draws)} scalarized runs failed ({counts})")
        return out

    return Stage(((_scalarized_lanes, (prob, draws, cfg)),), archive)


# -- section probing --------------------------------------------------------------

@dataclass(frozen=True)
class EscapePoint:
    radius: float
    x: tuple[float, ...]
    f: tuple[float, ...]


@dataclass
class SectionReport:
    bounded_evidence: bool
    lower_witness: tuple[float, ...] | None
    samples_checked: int
    escape_trace: list[EscapePoint] = field(default_factory=list)
    section_values: list[tuple[float, ...]] = field(default_factory=list)


def _section_descent(prob: Problem, ybar, start, cfg: RunConfig):
    """Push max_k(f_k - ybar_k) down over S via the epigraph formulation:
    minimize t subject to x in S and t + ybar_k - f_k >= 0 for finite k,
    t the (n+1)-th variable."""
    _, G, H = prob.maps
    lift = lambda a: {e + (0,): c for e, c in a.items()}
    t = {(0,) * prob.n + (1,): 1.0}
    cuts = [lift(c) | t for c in _cut_rows(prob, ybar).values()]
    local = Problem.local(prob.n + 1, t, map(lift, G), [*map(lift, H), *cuts])
    z0 = np.append(np.asarray(start, dtype=float), 1.0)
    return minimize_auglag(
        local, z0,
        tol_feas=cfg.tol_feas, gtol=1e-9,
        divergence_cap=cfg.divergence_cap,
    )


def _section_count(cfg: RunConfig) -> int:
    """The section probe's count of pooled rays, and of seeded descents."""
    return max(1, cfg.section_budget // 8)


def section_probe(prob: Problem, ybar: Sequence[float],
                  cfg: RunConfig = DEFAULT_CONFIG) -> SectionReport:
    """Gather feasible points with f <= ybar and test for a common lower bound.

    Boundedness here is about section values: the report flags an escape
    only when section values keep drifting downward as the sample norms
    grow, i.e. the values themselves escape every candidate bound along a
    diverging trace. The section rays of the feasible-ray pool and the
    seeded descents (`_section_count`) give the samples, all as units of one
    `pipeline.run`. Raises SectionError when no section point is found.
    """
    rays = ray_stage(prob, ybar, cfg, probe=False, section=True)
    read_rays, read_descents = run(rays, section_stage(prob, ybar, cfg))
    return _section_report(read_rays(), read_descents(), cfg)


def section_stage(prob: Problem, ybar: Sequence[float],
                  cfg: RunConfig = DEFAULT_CONFIG) -> Stage:
    """The seeded descents of `section_probe`, one unit each; the stage's
    result is their (points checked, samples) pairs."""
    if not any(math.isfinite(y) for y in ybar):
        raise ValueError("section_probe needs at least one finite ybar component")
    rng = np.random.default_rng([cfg.seed, 0x5EC, 1])
    starts = [2.0 * rng.standard_normal(prob.n) for _ in range(_section_count(cfg))]
    return Stage(tuple((_descent_samples, (prob, ybar, start, cfg)) for start in starts),
                 list)


def _descent_samples(prob: Problem, ybar, start, cfg: RunConfig) -> tuple[int, list]:
    """`_section_samples` of a descent's end point, converged or at the norm
    cap. A descent that hit the cap left along a direction where the values
    may escape, so that direction is checked at every radius below, too."""
    try:
        res = _section_descent(prob, ybar, start, cfg)
    except NonFiniteError:
        return 0, []
    except DivergenceError as exc:     # its point is where it hit the cap
        x = exc.point[:prob.n]
        norm = float(np.linalg.norm(x))
        return _section_samples(prob, ybar, [x * (r / norm) for r in cfg.radii()
                                             if r < norm] + [x], cfg)
    if not res.converged:
        return 1, []
    return _section_samples(prob, ybar, [res.x[:prob.n]], cfg)


def _section_samples(prob: Problem, ybar, points, cfg: RunConfig) -> tuple[int, list]:
    """(points checked, (norm, x, f(x)) of each feasible point below ybar)."""
    out = []
    for x in points:
        fv = prob.f(x)
        if below_ybar(fv, ybar, cfg.tol_active) and \
                check_feasible(prob, x, cfg.tol_feas, cfg.tol_active).feasible:
            out.append((float(np.linalg.norm(x)), x, fv))
    return len(points), out


def _section_report(rays: list[PooledRay], descents: list[tuple[int, list]],
                    cfg: RunConfig) -> SectionReport:
    """The section evidence of the pooled rays' and the descents' samples."""
    parts = [ray.section for ray in rays if ray.section is not None] + descents
    checked = sum(count for count, _ in parts)
    samples = [sample for _, found in parts for sample in found]
    if not samples:
        raise SectionError(
            "no section point found; ybar may be outside the reachable image")

    samples.sort(key=lambda s: s[0])
    escape = _detect_value_escape(samples, cfg.radii()[-1])
    fvals = np.array([fv for _, _, fv in samples])
    floor = fvals.min(axis=0)
    margin = 1e-6 * np.maximum(1.0, np.abs(floor))
    omega = tuple(float(t) for t in (floor - margin))
    return SectionReport(
        bounded_evidence=not escape,
        lower_witness=None if escape else omega,
        samples_checked=checked,
        escape_trace=[EscapePoint(radius=r, x=tuple(map(float, x)),
                                  f=tuple(map(float, fv)))
                      for r, x, fv in escape] if escape else [],
        section_values=[tuple(float(t) for t in fv) for _, _, fv in samples],
    )


def _detect_value_escape(samples, top: float):
    """Section values escaping downward along diverging sample norms:
    per-decade componentwise minima that keep decreasing through `top`, the
    top of the radius schedule."""
    tiers: dict[int, list[tuple]] = {}
    for sample in samples:
        tiers.setdefault(int(math.floor(math.log10(max(sample[0], 1e-12)))), []).append(sample)
    if len(tiers) < 3:
        return None
    keys = sorted(tiers)
    mins = [np.array([fv for _, _, fv in tiers[k]]).min(axis=0) for k in keys]
    drops = 0
    for a, b in zip(mins, mins[1:]):
        if np.any(b < a - 0.5 * np.maximum(1.0, np.abs(a))):
            drops += 1
    last_reaches_top = any(r >= 0.099 * top for r, _, _ in samples)
    if drops >= len(mins) - 1 and last_reaches_top:
        # each decade's sample with the lowest value in any component
        return [min(tiers[k], key=lambda s: s[2].min()) for k in keys]
    return None


# -- the feasible-ray pool ------------------------------------------------------

@dataclass
class MfcqEvidence:
    holds: bool
    points_checked: int
    failures: list[dict] = field(default_factory=list)


@dataclass
class PooledRay:
    """A sampled ray's MFCQ (points probed, failures), trace and section
    (points checked, samples), each None where no reader takes it."""
    mfcq: tuple[int, list[dict]] | None
    trace: TraceResult | None
    section: tuple[int, list] | None


def ray_stage(prob: Problem, ybar: Sequence[float], cfg: RunConfig = DEFAULT_CONFIG,
              probe: bool = True, section: bool = False) -> Stage:
    """A command's feasible rays, ray k with seed 2000 + k in a unit that
    probes MFCQ at its points and traces it if `probe` and k < 2 (the probe
    rays), and takes its section samples if `section` and k <
    `_section_count(cfg)`; the result lists the sampled rays."""
    probes = 2 if probe else 0
    sections = _section_count(cfg) if section else 0
    return Stage(tuple((_pooled_ray, (prob, ybar, k, k < probes, k < sections, cfg))
                       for k in range(max(probes, sections))),
                 lambda rays: [ray for ray in rays if ray is not None])


def _pooled_ray(prob, ybar, k, probe, section, cfg) -> PooledRay | None:
    """Ray k and what its readers take from it; None if it has no point."""
    try:
        ray = sample_feasible_ray(prob, cfg.radii(), 2000 + k, cfg)
    except RayError:
        return None
    failures = []
    for r, x in ray.points if probe else ():
        report = mfcq_probe(prob, x, cfg)
        if not report.holds:
            failures.append({"radius": r, "x": [float(t) for t in x],
                             "gradient_rank": report.gradient_rank, "margin": report.margin})
    return PooledRay(
        mfcq=(len(ray.points), failures) if probe else None,
        trace=ray_to_trace(prob, ybar, ray, cfg, label=f"ray-{k:02d}") if probe else None,
        section=_section_samples(prob, ybar, [x for _, x in ray.points], cfg)
        if section else None)


def sample_mfcq_evidence(rays: list[PooledRay]) -> MfcqEvidence:
    """The constraint qualification evidence of the pooled rays probed.

    Sampled evidence only: a verdict of True means every probed large-norm
    point passed, not that the qualification is proven.
    """
    probed = [ray.mfcq for ray in rays if ray.mfcq is not None]
    checked = sum(count for count, _ in probed)
    if checked == 0:
        return MfcqEvidence(holds=False, points_checked=0,
                            failures=[{"error": "no feasible points sampled"}])
    failures = [failure for _, found in probed for failure in found]
    return MfcqEvidence(holds=not failures, points_checked=checked, failures=failures)


# -- existence verdict --------------------------------------------------------------

@dataclass
class ExistenceReport:
    status: str
    failing_hypotheses: list[str]
    ybar_membership: str          # verified | unverified | skipped
    mfcq: MfcqEvidence
    section: SectionReport | None
    verdicts: dict
    archive: ParetoArchive
    traces: list[TraceResult]
    notes: list[str] = field(default_factory=list)


def _verify_ybar_membership(prob: Problem, ybar, cfg: RunConfig) -> str:
    """Look for a feasible x with f(x) ~ ybar in the finite components by
    minimizing sum_k (ybar_k - f_k)^2 over S, squared by `_product`: `_mul`'s
    degree limit would refuse an accepted objective of degree above 500."""
    cuts = _cut_rows(prob, ybar)
    if not cuts:
        return "skipped"
    _, G, H = prob.maps
    squares = _combine((1.0, _product(c, c)) for c in cuts.values())
    local = Problem.local(prob.n, squares, G, H)
    rng = np.random.default_rng([cfg.seed, 0xB42])
    for attempt in range(4):
        start = np.ones(prob.n) if attempt == 0 else 2.0 * rng.standard_normal(prob.n)
        try:
            res = minimize_auglag(
                local, start, tol_feas=cfg.tol_feas, gtol=1e-10,
                divergence_cap=cfg.divergence_cap)
        except (DivergenceError, NonFiniteError):
            continue
        if not res.converged:
            continue
        fv = prob.f(res.x)
        if all(abs(fv[k] - ybar[k]) <= 1e-4 for k in cuts):
            return "verified"
    return "unverified"


def existence_verdict(prob: Problem, ybar: Sequence[float],
                      cfg: RunConfig = DEFAULT_CONFIG) -> ExistenceReport:
    """Compose the existence evidence: sampled constraint qualification,
    section boundedness, and the four asymptotic conditions; a front sweep
    is attached as constructive confirmation either way.

    Every stage's units run in one `pipeline.run`; the stages are then
    read in the order below.
    """
    notes = []
    # with ybar +inf in every component there is no section to probe
    finite = any(math.isfinite(y) for y in ybar)
    descents = (section_stage(prob, ybar, cfg) if finite
                else Stage((), lambda values: None))
    # the front's one unit, the longest, is submitted first so that the
    # other children work through the rest meanwhile
    stages = (front_stage(prob, ybar, cfg),
              ray_stage(prob, ybar, cfg, section=finite),
              Stage(((_verify_ybar_membership, (prob, ybar, cfg)),),
                    lambda values: values[0]),
              descents,
              chain_stage(prob, ybar, cfg))
    read_front, read_rays, read_membership, read_descents, read_chains = run(*stages)
    rays = read_rays()
    mfcq = sample_mfcq_evidence(rays)
    membership = read_membership()

    section = None
    if finite:
        try:
            section = _section_report(rays, read_descents(), cfg)
            section_bounded = section.bounded_evidence
        except VpaError as exc:
            notes.append(f"section probe failed: {exc}")
            section_bounded = False
    else:
        notes.append("ybar is +inf in every component; section evidence "
                     "reduces to classification coverage")
        section_bounded = True

    traces: list[TraceResult] = []
    try:
        traces.extend(read_chains())
    except TraceError as exc:
        notes.append(f"sphere tracking failed: {exc}")
    traces.extend(ray.trace for ray in rays if ray.trace is not None)

    try:
        verdicts = classify(prob, ybar, traces, cfg, mfcq_holds=mfcq.holds)
    except ClassifyError as exc:
        verdicts = {}
        notes.append(f"classification failed: {exc}")

    try:
        archive = read_front()
    except SolveError as exc:
        archive = ParetoArchive()
        notes.append(f"front sweep failed: {exc}")

    failing = []
    if not mfcq.holds:
        failing.append("mfcq_at_infinity_evidence")
    if not section_bounded:
        failing.append("bounded_section_evidence")
    condition_ok = any(v.status == "holds_evidence" for v in verdicts.values())
    if not condition_ok:
        failing.append("asymptotic_conditions")

    if failing:
        status = STATUS_INAPPLICABLE
    elif membership == "unverified":
        status = STATUS_UNVERIFIED
        notes.append("could not locate a feasible point with f(x) ~ ybar; "
                     "the membership hypothesis is unverified")
    else:
        status = STATUS_GUARANTEED
    return ExistenceReport(
        status=status,
        failing_hypotheses=failing,
        ybar_membership=membership,
        mfcq=mfcq,
        section=section,
        verdicts=verdicts,
        archive=archive,
        traces=traces,
        notes=notes,
    )


# -- exports ---------------------------------------------------------------------

def front_csv(archive: ParetoArchive, p: int) -> str:
    """The text of front.csv: one row of f_1..f_p per archive entry."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow([f"f_{k+1}" for k in range(p)])
    for entry in archive.entries:
        writer.writerow([repr(v) for v in entry.f])
    return text.getvalue()


def archive_to_jsonable(archive: ParetoArchive) -> list[dict]:
    return [{"x": list(e.x), "f": list(e.f), "weights": list(e.weights),
             "rabier_residual": e.rabier_residual} for e in archive.entries]

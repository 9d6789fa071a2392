"""Pareto machinery: nondominated filtering, section-boundedness probing,
weighted-sum scalarization, front sweeps, and the existence verdict that
composes constraint-qualification evidence, section evidence, and the
asymptotic classification.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .asymptotics import (TraceResult, below_ybar, chain_stage, classify,
                          ray_to_trace)
from .certificates import mfcq_probe, rabier_value
from .config import DEFAULT_CONFIG, RunConfig
from .errors import (ClassifyError, DivergenceError, RayError, SectionError,
                     SolveError, TraceError, VpaError)
from .pipeline import Stage, run, single
from .problem import Problem, check_feasible, sample_feasible_ray
from .solvers import minimize_auglag, simplex_lattice

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
    """Minimize the weighted objective sum over S from a local start.

    Returns (x, rabier residual). Raises DivergenceError when iterates hit
    the norm cap (likely unbounded scalarization) and SolveError when the
    local solver stalls or the result is not stationary at tol_stationary.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (prob.p,) or abs(float(weights.sum()) - 1.0) > 1e-9 \
            or np.any(weights < -1e-12):
        raise ValueError("weights must lie on the unit simplex")

    def evaluate(x):
        fv, gv, hv, Jf, Jg, Jh = prob.evaluate(x)
        return float(weights @ fv), weights @ Jf, gv, Jg, hv, Jh

    res = minimize_auglag(
        evaluate, np.asarray(start, dtype=float),
        tol_feas=cfg.tol_feas, gtol=1e-9,
        divergence_cap=cfg.divergence_cap,
    )
    if not res.converged:
        raise SolveError(f"scalarized solve did not converge (outcome {res.outcome}, "
                         f"violation {res.violation:.3e})")
    report = check_feasible(prob, res.x, cfg.tol_feas, cfg.tol_active)
    if not report.feasible:
        raise SolveError("scalarized solve returned an infeasible point")
    residual = rabier_value(prob, res.x, cfg).value
    if residual > cfg.tol_stationary:
        raise SolveError(f"scalarized solve is not stationary "
                         f"(rabier residual {residual:.3e})")
    return res.x, residual


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
    undersampled; the archive is evidence, not an enumeration. Each
    (weight, start) pair is an independent unit of `pipeline.run`.
    """
    with run(front_stage(prob, ybar, cfg)) as (front,):
        return front()


def front_stage(prob: Problem, ybar: Sequence[float],
                cfg: RunConfig = DEFAULT_CONFIG) -> Stage:
    """The scalarizations of `solve_front`, one unit each; the stage's result
    is the archive."""
    draws = [(weights, start)
             for widx, weights in enumerate(_weight_draws(prob.p, cfg))
             for start in _starts(prob, cfg, widx)]

    def archive(handles) -> ParetoArchive:
        out = ParetoArchive(mode="pareto")
        failures = 0
        for (weights, _), handle in zip(draws, handles):
            try:
                x, residual = handle.result()
            except (SolveError, DivergenceError):
                failures += 1
                continue
            fval = prob.f(x)
            if not below_ybar(fval, ybar, cfg.tol_active):
                continue
            out.add(ArchiveEntry(
                x=tuple(float(t) for t in x),
                f=tuple(float(t) for t in fval),
                weights=tuple(float(t) for t in weights),
                rabier_residual=residual,
            ))
        if failures == len(draws):
            raise SolveError(f"all {len(draws)} scalarized runs failed")
        return out

    return Stage(tuple((_scalarize, (prob, weights, start, cfg))
                       for weights, start in draws), archive)


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
    minimize t subject to x in S and f_k - ybar_k <= t for finite k."""
    finite = [(k, y) for k, y in enumerate(ybar) if math.isfinite(y)]
    n = prob.n
    grad = np.zeros(n + 1)
    grad[-1] = 1.0

    def evaluate(z):
        x, t = z[:n], z[-1]
        fv, gv, hv, Jf, Jg, Jh = prob.evaluate(x)
        rows = [hv] + [[t + y - fv[k]] for k, y in finite]
        jacs = [np.hstack([Jh, np.zeros((prob.m, 1))])] \
            + [np.append(-Jf[k], 1.0)[None, :] for k, _ in finite]
        return (float(t), grad, gv, np.hstack([Jg, np.zeros((prob.l, 1))]),
                np.concatenate(rows), np.vstack(jacs))

    z0 = np.append(np.asarray(start, dtype=float), 1.0)
    return minimize_auglag(
        evaluate, z0,
        tol_feas=cfg.tol_feas, gtol=1e-9,
        divergence_cap=cfg.divergence_cap,
    )


def section_probe(prob: Problem, ybar: Sequence[float], budget: int, seed: int,
                  cfg: RunConfig = DEFAULT_CONFIG) -> SectionReport:
    """Gather feasible points with f <= ybar and test for a common lower bound.

    Boundedness here is about section values: the report flags an escape
    only when section values keep drifting downward as the sample norms
    grow, i.e. the values themselves escape every candidate bound along a
    diverging trace. Raises SectionError when no section point is found.
    """
    if not any(math.isfinite(y) for y in ybar):
        raise ValueError("section_probe needs at least one finite ybar component")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    radii = cfg.radii()
    samples: list[tuple[float, np.ndarray, np.ndarray]] = []
    checked = 0

    n_rays = max(1, budget // 8)
    for ray_idx in range(n_rays):
        try:
            ray = sample_feasible_ray(prob, radii, seed=seed * 31 + ray_idx, cfg=cfg)
        except RayError:
            continue
        for r, x in ray.points:
            checked += 1
            fv = prob.f(x)
            if below_ybar(fv, ybar, cfg.tol_active):
                samples.append((float(np.linalg.norm(x)), x, fv))

    rng = np.random.default_rng([cfg.seed, 0x5EC, seed])
    n_descents = max(1, budget // 8)
    for _ in range(n_descents):
        start = 2.0 * rng.standard_normal(prob.n)
        try:
            res = _section_descent(prob, ybar, start, cfg)
        except DivergenceError as exc:
            x = exc.point[:prob.n] if exc.point is not None else None
            if x is not None:
                fv = prob.f(x)
                checked += 1
                if below_ybar(fv, ybar, cfg.tol_active):
                    samples.append((float(np.linalg.norm(x)), x, fv))
            continue
        checked += 1
        if not res.converged:
            continue
        x = res.x[:prob.n]
        if not check_feasible(prob, x, cfg.tol_feas, cfg.tol_active).feasible:
            continue
        fv = prob.f(x)
        if below_ybar(fv, ybar, cfg.tol_active):
            samples.append((float(np.linalg.norm(x)), x, fv))

    if not samples:
        raise SectionError(
            "no section point found; ybar may be outside the reachable image")

    samples.sort(key=lambda s: s[0])
    escape = _detect_value_escape(samples, radii)
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


def _detect_value_escape(samples, radii):
    """Section values escaping downward along diverging sample norms:
    per-decade componentwise minima that keep decreasing through the top of
    the radius schedule."""
    top = max(radii)
    tiers: dict[int, list[np.ndarray]] = {}
    for r, _, fv in samples:
        tiers.setdefault(int(math.floor(math.log10(max(r, 1e-12)))), []).append(fv)
    if len(tiers) < 3:
        return None
    keys = sorted(tiers)
    mins = [np.array(tiers[k]).min(axis=0) for k in keys]
    drops = 0
    for a, b in zip(mins, mins[1:]):
        if np.any(b < a - 0.5 * np.maximum(1.0, np.abs(a))):
            drops += 1
    last_reaches_top = any(r >= 0.099 * top for r, _, _ in samples)
    if drops >= len(mins) - 1 and last_reaches_top:
        out = []
        for k in keys:
            fvs = tiers[k]
            idx = int(np.argmin([fv.min() for fv in fvs]))
            for r, x, fv in samples:
                if fv is fvs[idx]:
                    out.append((r, x, fv))
                    break
        return out
    return None


# -- existence verdict --------------------------------------------------------------

@dataclass
class MfcqEvidence:
    holds: bool
    points_checked: int
    failures: list[dict] = field(default_factory=list)


def sample_mfcq_evidence(prob: Problem, cfg: RunConfig = DEFAULT_CONFIG,
                         rays: int = 2) -> MfcqEvidence:
    """Probe the constraint qualification along sampled feasible rays.

    Sampled evidence only: a verdict of True means every probed large-norm
    point passed, not that the qualification is proven.
    """
    radii = cfg.radii()
    checked = 0
    failures = []
    for ray_idx in range(rays):
        try:
            ray = sample_feasible_ray(prob, radii, seed=1000 + ray_idx, cfg=cfg)
        except RayError:
            continue
        for r, x in ray.points:
            report = mfcq_probe(prob, x, cfg)
            checked += 1
            if not report.holds:
                failures.append({"radius": r, "x": [float(t) for t in x],
                                 "gradient_rank": report.gradient_rank,
                                 "margin": report.margin})
    if checked == 0:
        return MfcqEvidence(holds=False, points_checked=0,
                            failures=[{"error": "no feasible points sampled"}])
    return MfcqEvidence(holds=not failures, points_checked=checked,
                        failures=failures)


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
    """Look for a feasible x with f(x) ~ ybar in the finite components."""
    finite = [(k, y) for k, y in enumerate(ybar) if math.isfinite(y)]
    if not finite:
        return "skipped"

    def evaluate(x):
        fv, gv, hv, Jf, Jg, Jh = prob.evaluate(x)
        val = sum((fv[k] - y) ** 2 for k, y in finite)
        grad = np.zeros(prob.n)
        for k, y in finite:
            grad += 2.0 * (fv[k] - y) * Jf[k]
        return float(val), grad, gv, Jg, hv, Jh

    rng = np.random.default_rng([cfg.seed, 0xB42])
    for attempt in range(4):
        start = np.ones(prob.n) if attempt == 0 else 2.0 * rng.standard_normal(prob.n)
        try:
            res = minimize_auglag(
                evaluate, start, tol_feas=cfg.tol_feas, gtol=1e-10,
                divergence_cap=cfg.divergence_cap)
        except DivergenceError:
            continue
        if not res.converged:
            continue
        fv = prob.f(res.x)
        if all(abs(fv[k] - y) <= 1e-4 for k, y in finite):
            return "verified"
    return "unverified"


def mfcq_stage(prob: Problem, cfg: RunConfig = DEFAULT_CONFIG) -> Stage:
    """`sample_mfcq_evidence` as one unit."""
    return single(_mfcq_evidence, prob, cfg)


def ray_stage(prob: Problem, ybar: Sequence[float], radii: Sequence[float],
              cfg: RunConfig = DEFAULT_CONFIG) -> Stage:
    """The two feasible trace rays, one unit each; the stage's result is the
    list of their traces, without the rays that could not be sampled."""
    def traces(handles) -> list[TraceResult]:
        out = []
        for ray_idx, handle in enumerate(handles):
            try:
                ray = handle.result()
            except RayError:
                continue
            out.append(ray_to_trace(prob, ybar, ray, cfg, label=f"ray-{ray_idx:02d}"))
        return out

    return Stage(tuple((_sample_ray, (prob, radii, 2000 + ray_idx, cfg))
                       for ray_idx in range(2)), traces)


# Units are sent to worker processes by reference, so each is a private
# module-level function: tracing tools patch the public names, and a patched
# function does not pickle.

def _scalarize(prob, weights, start, cfg):
    return solve_scalarized(prob, weights, start, cfg)


def _mfcq_evidence(prob, cfg):
    return sample_mfcq_evidence(prob, cfg)


def _section(prob, ybar, cfg):
    return section_probe(prob, ybar, cfg.section_budget, seed=1, cfg=cfg)


def _sample_ray(prob, radii, seed, cfg):
    return sample_feasible_ray(prob, radii, seed=seed, cfg=cfg)


def existence_verdict(prob: Problem, ybar: Sequence[float],
                      cfg: RunConfig = DEFAULT_CONFIG) -> ExistenceReport:
    """Compose the existence evidence: sampled constraint qualification,
    section boundedness, and the four asymptotic conditions; a front sweep
    is attached as constructive confirmation either way.

    Every stage's units start at once in one `pipeline.run`; the results
    are read in the order below.
    """
    notes = []
    radii = cfg.radii()
    finite = any(math.isfinite(y) for y in ybar)
    # with ybar +inf in every component there is no section to probe
    section_stage = single(_section, prob, ybar, cfg) if finite \
        else Stage((), lambda handles: None)
    stages = run(mfcq_stage(prob, cfg),
                 single(_verify_ybar_membership, prob, ybar, cfg),
                 section_stage,
                 chain_stage(prob, ybar, radii, weights_seed=1, cfg=cfg),
                 ray_stage(prob, ybar, radii, cfg),
                 front_stage(prob, ybar, cfg))
    with stages as (read_mfcq, read_membership, read_section, read_chains,
                    read_rays, read_front):
        mfcq = read_mfcq()
        membership = read_membership()

        section = None
        section_bounded = None
        if finite:
            try:
                section = read_section()
                section_bounded = section.bounded_evidence
            except (SectionError, VpaError) as exc:
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
        traces.extend(read_rays())

        try:
            verdicts = classify(prob, ybar, traces, cfg,
                                mfcq_holds=mfcq.holds, schedule=radii)
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

def write_front_csv(path, archive: ParetoArchive, p: int):
    header = [f"f_{k+1}" for k in range(p)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for entry in archive.entries:
            writer.writerow([repr(v) for v in entry.f])


def archive_to_jsonable(archive: ParetoArchive) -> list[dict]:
    return [{"x": list(e.x), "f": list(e.f), "weights": list(e.weights),
             "rabier_residual": e.rabier_residual} for e in archive.entries]

"""Sphere-tracking evidence for the asymptotic behaviour of f on S, and the
classification of properness, Palais-Smale, Cerami, and M-tameness at a
reference value ybar.

Evidence comes from sequences of feasible points with growing norms: Pareto
points of randomly weighted objectives on S intersect spheres of the radii
`cfg.radii()` (warm-started continuation), and user-supplied custom rays.
Each point is summarised in a TraceRecord carrying the Rabier value, its
radius-scaled variant, and tangency membership. The chains are also the one
source of far-out points of S: a chain's trace holds one RadiusOutcome per
scheduled radius, with the MFCQ probes the chain made at that radius.
Classification searches the traces for diverging, f-convergent subsequences
below ybar whose defining quantity vanishes (or stays in the tangency
variety), and reports holds_evidence / fails_witness / inconclusive per
condition. Emptiness of an asymptotic set is not decidable by sampling;
holds_evidence is sampled evidence, never a proof.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .certificates import mfcq_probe, rabier_value, tangency_membership
from .config import DEFAULT_CONFIG, RunConfig
from .errors import (ClassifyError, DivergenceError, InfeasiblePointError,
                     NonFiniteError, ProjectionError, TraceError)
from .pipeline import Stage, run
from .polynomials import _combine
from .problem import (TOL_ACTIVE, Problem, _slice_ok, _slice_residual, check_ybar,
                      polish_to_slice, project_to_sphere_slice)
from .solvers import (_EPS, DIVERGENCE_CAP, TOL_FEAS, minimize_auglag,
                      random_unit_vector, simplex_lattice)

CONDITIONS = ("proper", "palais_smale", "cerami", "m_tame")

# a witness sequence must span at least this many decades and reach the top
_MIN_SPAN_DECADES = 2.0
_COVERAGE_DECADES = 3.0
_TREND_SLACK = 1.001
# a quantity vanishes when it ends at most TOL_LIMIT; a tail converges in f
# when its relative spread is below TOL_CLUSTER
TOL_LIMIT, TOL_CLUSTER = 1e-4, 1e-3


def below_ybar(fval: Sequence[float], ybar: Sequence[float]) -> bool:
    """Componentwise f <= ybar to within TOL_ACTIVE * max(1, |ybar_k|): the one
    test of "f <= ybar", for chain points and records, the section and the front."""
    return all(v <= y + TOL_ACTIVE * max(1.0, abs(y)) for v, y in zip(fval, ybar)
               if math.isfinite(y))


@dataclass(frozen=True)
class TraceRecord:
    radius: float
    point: tuple[float, ...]
    f_value: tuple[float, ...]
    rabier: float
    scaled_rabier: float
    in_tangency: bool
    below_ybar: bool


@dataclass(frozen=True)
class RadiusOutcome:
    """What a chain decided at one radius: "point" (with its record), "empty"
    (the below-ybar slice was judged empty: resolved coverage, no point) or
    "failed", and how many MFCQ probes it made there, with their failures."""
    radius: float
    status: str
    record: TraceRecord | None = None
    probes: int = 0
    failures: tuple[dict, ...] = ()


@dataclass(frozen=True)
class TraceResult:
    """A chain's weight (None for a trace built by hand) and its outcomes,
    one per scheduled radius. Its records, one per point, each passed
    `_finish_point`'s below-ybar gate; its coverage radii are the resolved
    ones, a point or an empty slice."""
    label: str
    weight: tuple[float, ...] | None
    outcomes: tuple[RadiusOutcome, ...]

    @property
    def records(self) -> list[TraceRecord]:
        return [o.record for o in self.outcomes if o.status == "point"]

    @property
    def coverage_radii(self) -> list[float]:
        return [o.radius for o in self.outcomes if o.status != "failed"]

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord],
                     label: str = "custom") -> "TraceResult":
        return cls(label, None, tuple(RadiusOutcome(r.radius, "point", r)
                                      for r in sorted(records, key=lambda r: r.radius)))


def make_record(prob: Problem, ybar: Sequence[float], x) -> TraceRecord:
    """Certificate summary of one feasible point (raises if infeasible)."""
    x = prob._point(x)
    fval = prob.f(x)
    radius = float(np.linalg.norm(x))
    rab = rabier_value(prob, x).value
    member = tangency_membership(prob, x).is_member
    return TraceRecord(
        radius=radius,
        point=tuple(float(t) for t in x),
        f_value=tuple(float(t) for t in fval),
        rabier=rab,
        scaled_rabier=radius * rab,
        in_tangency=member,
        below_ybar=below_ybar(fval, ybar),
    )


def trace_from_points(prob: Problem, ybar: Sequence[float], points, *,
                      label: str = "custom") -> TraceResult:
    """Build a trace from explicit points (e.g. a hand-derived ray).

    Infeasible points are skipped rather than fatal, so approximate rays
    survive, but at least one point must pass.
    """
    records = []
    skipped = 0
    for x in points:
        try:
            records.append(make_record(prob, ybar, x))
        except InfeasiblePointError:
            skipped += 1
    if not records:
        raise TraceError(f"no feasible point among the {skipped} supplied")
    return TraceResult.from_records(records, label=label)


# -- sphere-constrained Pareto subproblems ------------------------------------

def _sphere_subproblem(prob: Problem, r: float, weights: np.ndarray,
                       ybar: Sequence[float], start: np.ndarray):
    """Minimize the weighted objective sum over S, the radius-r sphere, and
    (for finite ybar components) the section f_k <= ybar_k.

    Keeping the section constraints inside the subproblem mirrors how
    below-ybar Fritz-John points arise in the theory: the extra objective
    multipliers fold into tau, so converged points still sit in the tangency
    variety. The sphere row is scaled by 1/(2r^2); see `_sphere_rows`.
    """
    objective, sphere, cuts = _sphere_rows(prob, r, weights, ybar, start)
    _, G, H = prob.maps
    local = Problem.local(prob.n, objective, [*G, sphere], [*H, *cuts.values()])
    # the loose tier scales with r: degenerate constraint sets keep the raw
    # violation above TOL_FEAS at large radii no matter the penalty; the
    # Gauss-Newton polish and the final absolute acceptance gate restore
    # record-level accuracy afterwards
    return minimize_auglag(local, start, tol_feas_loose=TOL_FEAS * max(1.0, r),
                           divergence_cap=max(DIVERGENCE_CAP, 10.0 * r))


def _cut_rows(prob: Problem, ybar: Sequence[float]) -> dict[int, dict]:
    """The term maps ybar_k - f_k of the section cuts, keyed by the finite k."""
    one = {(0,) * prob.n: 1.0}
    return {k: _combine(((y, one), (-1.0, prob.maps[0][k])))
            for k, y in enumerate(ybar) if math.isfinite(y)}


def _sphere_rows(prob: Problem, r: float, weights: np.ndarray,
                 ybar: Sequence[float], x):
    """Term maps of the radius-r sphere subproblem: the weighted objective
    over 1 + max |weights @ Jf(x)|, which normalizes it to O(1) at x (far out
    on the sphere its gradient grows polynomially in r and would otherwise
    overpower any bounded penalty on degenerate constraint sets), the sphere
    row (|x|^2 - r^2)/(2r^2), whose value tracks the relative radius error,
    and `_cut_rows`."""
    n = prob.n
    scale = 1.0 + float(np.max(np.abs(weights @ prob.jac_f(x))))
    objective = _combine((w / scale, a) for w, a in zip(weights, prob.maps[0]))
    sphere = {(0,) * i + (2,) + (0,) * (n - i - 1): 0.5 / (r * r)
              for i in range(n)} | {(0,) * n: -0.5}
    return objective, sphere, _cut_rows(prob, ybar)


# every chain seed starts with this entry, after cfg.seed
_CHAIN_SEED = 1


def trace_tangency(prob: Problem, ybar: Sequence[float],
                   cfg: RunConfig = DEFAULT_CONFIG) -> list[TraceResult]:
    """Track approximate Pareto points of f on S intersect S_r over the
    schedule `cfg.radii()`, one warm-started chain per weight draw.

    Each chain holds one seeded weight draw over the whole schedule; chain
    c at radius k warm starts from chain c at radius k-1. A radius where
    the local solver fails counts for nothing; one where the below-ybar
    slice is judged empty still counts as coverage. Raises TraceError when
    nothing converges. The chains run as independent units of
    `pipeline.run`.
    """
    (chains,) = run(chain_stage(prob, ybar, cfg))
    return covered_chains(chains())


def chain_stage(prob: Problem, ybar: Sequence[float],
                cfg: RunConfig = DEFAULT_CONFIG) -> Stage:
    """The chains of `trace_tangency`, one unit each; the stage's result is
    the list of their traces."""
    check_ybar(ybar, prob.p)
    # one weight vector per chain, held fixed across the whole schedule:
    # redrawing per radius makes a chain chase a different Pareto point at
    # every step and destroys the f-convergence the classifier looks for
    rng = np.random.default_rng([cfg.seed, _CHAIN_SEED])
    chain_weights = _chain_weight_draws(prob.p, cfg.weights_per_radius, rng)
    return Stage(tuple((_trace_chain, (prob, ybar, w, c, cfg))
                       for c, w in enumerate(chain_weights)), list)


def covered_chains(traces: list[TraceResult]) -> list[TraceResult]:
    """The traces of `chain_stage`'s result; raises TraceError when no
    radius converged in any chain."""
    if not any(trace.coverage_radii for trace in traces):
        raise TraceError("no radius converged in any chain")
    return traces


def _trace_chain(prob, ybar, weights, c, cfg) -> TraceResult:
    """Chain c: its fixed weight over the whole schedule, each radius warm
    started from the chain's last point, seeds [_CHAIN_SEED, ridx, c]. MFCQ
    is probed, once the schedule is resolved, at every point the chain
    produced and every projected start that reached its slice, in order."""
    resolved = []   # (radius, status, record, points to probe)
    prev = None
    for ridx, r in enumerate(cfg.radii()):
        status, x, points = _resolve_radius(prob, r, weights, ybar, prev, cfg,
                                            seed=[_CHAIN_SEED, ridx, c])
        record = make_record(prob, ybar, x) if status == "point" else None
        if record is not None:
            points.append(x)
            prev = x
        resolved.append((r, status, record, points))
    outcomes = []
    for r, status, record, points in resolved:
        failures = []
        for x in points:
            report = mfcq_probe(prob, x)
            if not report.holds:
                failures.append({"radius": r, "x": [float(t) for t in x],
                                 "gradient_rank": report.gradient_rank, "margin": report.margin})
        outcomes.append(RadiusOutcome(r, status, record, len(points), tuple(failures)))
    return TraceResult(f"pareto-chain-{c:02d}", tuple(float(w) for w in weights),
                       tuple(outcomes))


def _chain_weight_draws(p: int, count: int, rng) -> list[np.ndarray]:
    """Half a small deterministic lattice, half seeded simplex draws."""
    lattice = simplex_lattice(p, max(2, (count + 1) // 2)) if p > 1 else []
    draws = list(lattice[:count])
    while len(draws) < count:
        draws.append(rng.dirichlet(np.ones(p)))
    return draws


def _finish_point(prob, r, weights, ybar, x, active_from=None):
    """The KKT polish, then the slice polish unless the KKT-polished point
    is on the slice to rounding level: it passes `_slice_ok` and its slice
    residual has norm at most eps. There the slice polish's Gauss-Newton,
    with one sphere row and n unknowns on the hyperbola, only walks the
    point along the slice, which flipped `in_tangency` flags. A point that
    passes `_slice_ok` with a larger residual, as on the degenerate line
    far out, is still pinned by it."""
    refined = _kkt_polish(prob, r, weights, ybar, x, active_from=active_from)
    if refined is not None:
        x = refined
    if refined is None or not _slice_ok(prob, x, r) \
            or float(np.linalg.norm(_slice_residual(prob, r)(x)[0])) > _EPS:
        polished = polish_to_slice(prob, x, r)
        if polished is not None:
            x = polished
    return x if _slice_ok(prob, x, r) and below_ybar(prob.f(x), ybar) else None


# a radius solves from at most _ATTEMPTS starts, projected from at most
# _DIRECTIONS seeded directions
_ATTEMPTS, _DIRECTIONS = 3, 27


def _resolve_radius(prob, r, weights, ybar, warm, cfg, seed):
    """One (radius, weight) subproblem: Newton continuation from the warm
    point when available, otherwise augmented-Lagrangian attempts from the
    starts of `_radius_starts`, at most _ATTEMPTS of them, until one gives
    a point.

    Returns ("point", x) on success, ("empty", None) when at least two
    projected starts were tried and every one found the slice infeasible,
    ("failed", None) otherwise, each with the list of projected starts that
    were tried (all on the slice).
    """
    guess = None
    if warm is not None and np.linalg.norm(warm) > 1e-12:
        guess = warm * (r / np.linalg.norm(warm))
        x = _finish_point(prob, r, weights, ybar, guess, active_from=warm)
        if x is not None:
            return "point", x, []

    starts = []
    infeasible_votes = 0
    for start, projected in itertools.islice(
            _radius_starts(prob, r, guess, cfg, seed), _ATTEMPTS):
        if projected:
            starts.append(start)
        try:
            res = _sphere_subproblem(prob, r, weights, ybar, start)
        except (DivergenceError, NonFiniteError):
            continue
        if res.outcome == "infeasible":
            # emptiness evidence only counts from a start that actually sat
            # on S intersect S_r; the warm guess's solve is just a failed one
            infeasible_votes += projected
            continue
        if res.outcome != "converged":
            continue
        x = _finish_point(prob, r, weights, ybar, res.x)
        if x is not None:
            return "point", x, starts
    if len(starts) >= 2 and infeasible_votes == len(starts):
        return "empty", None, starts
    return "failed", None, starts


def _radius_starts(prob, r, guess, cfg, seed):
    """The starts of one radius as (start, projected) pairs: the warm guess
    when there is one, then `project_to_sphere_slice` of r * direction k,
    the seeded direction of `[cfg.seed, *seed, k]`, for k below _DIRECTIONS.
    A direction whose projection fails gives no start."""
    if guess is not None:
        yield guess, False
    for k in range(_DIRECTIONS):
        direction = random_unit_vector(np.random.default_rng([cfg.seed, *seed, k]), prob.n)
        try:
            start = project_to_sphere_slice(prob, r, r * direction)
        except ProjectionError:
            continue
        yield start, True


def _kkt_polish(prob, r, weights, ybar, x0, active_from=None):
    """Newton (damped, exact Hessians) on the active-set KKT system of the
    sphere subproblem.

    Local solvers leave points with loose stationarity when the sphere
    radius makes the raw variables badly scaled; a few KKT Newton steps pin
    the point quadratically so the recorded Rabier values reflect the true
    subproblem optimum. `active_from` lets warm continuation detect the
    active set at the previous radius point, where it is reliable. Returns
    None when the polish wanders or fails.
    """
    n = prob.n
    x0 = np.asarray(x0, dtype=float)
    objective, sphere, cuts = _sphere_rows(prob, r, weights, ybar, x0)
    _, G, H = prob.maps

    probe = x0 if active_from is None else np.asarray(active_from, dtype=float)
    fv0, _, hv0, _, _, _ = prob.evaluate(probe)
    window = max(TOL_ACTIVE, TOL_FEAS * max(1.0, r) * 10.0)
    active_h = [j for j in range(prob.m) if hv0[j] <= window * (1.0 + abs(hv0[j]))]
    active_cut = [k for k in cuts if ybar[k] - fv0[k] <= window * max(1.0, abs(ybar[k]))]

    def solve_for(active_h, active_cut, x_start):
        # the active constraints as equalities, in the order of their rows
        local = Problem.local(n, objective, [*G, sphere, *(H[j] for j in active_h),
                                             *(cuts[k] for k in active_cut)])
        _, vals0, _, grad0, jacs0, _ = local.evaluate(x_start)
        lam0 = np.linalg.lstsq(jacs0.T, grad0[0], rcond=None)[0]
        k = vals0.size

        def residual(z):
            x, lam = z[:n], z[n:]
            _, vals, _, grad, jacs, _ = local.evaluate(x)
            return np.concatenate([grad[0] - jacs.T @ lam, vals]), jacs

        def jacobian(z, jacs):
            x, lam = z[:n], z[n:]
            Hf, Hg, _ = local.hessians(x)
            J = np.zeros((n + k, n + k))
            J[:n, :n] = Hf[0] - np.tensordot(lam, Hg, axes=1)
            J[:n, n:] = -jacs.T
            J[n:, :n] = jacs
            return J

        z = _newton_stall(residual, jacobian, np.concatenate([x_start, lam0]))
        return z[:n], z[n:]

    # active-set correction: inequality rows whose multiplier comes out
    # negative are not binding at the true subproblem optimum; drop and redo
    x = x0
    for _ in range(3):
        x_new, lam = solve_for(active_h, active_cut, x)
        if not np.all(np.isfinite(x_new)):
            return None
        x = x_new
        base = prob.l + 1
        lam_scale = 1.0 + float(np.max(np.abs(lam), initial=0.0))
        bad_h = [j for slot, j in enumerate(active_h)
                 if lam[base + slot] < -1e-7 * lam_scale]
        nh = len(active_h)
        bad_cut = [k for slot, k in enumerate(active_cut)
                   if lam[base + nh + slot] < -1e-7 * lam_scale]
        if not bad_h and not bad_cut:
            break
        active_h = [j for j in active_h if j not in bad_h]
        active_cut = [k for k in active_cut if k not in bad_cut]
    if np.linalg.norm(x - x0) > 5e-2 * (1.0 + r):
        return None
    return x


def _newton_stall(residual, jacobian, z0):
    """Backtracking Newton on a square system, row-equilibrated and solved by
    least squares: KKT systems on large spheres are too ill-conditioned for
    normal equations. Halves each step until the residual norm decreases and
    stops once every component of `step * d` is below its own coordinate's
    float resolution, |dz_i| <= eps * |z_i| (halving cannot make it useful),
    or after 60 Newton steps. The test is componentwise, not normwise as in
    `step_below_resolution`: far out, a coordinate that should be 0 is tiny
    next to |z|, and a normwise stop would leave it where it is.

    `residual(z)` returns the residual and the partial results that
    `jacobian(z, partial)` builds the Jacobian from. Only the points a step
    starts from get a Jacobian; a rejected trial costs one residual."""
    z = np.asarray(z0, dtype=float).copy()
    res, partial = residual(z)
    phi = float(np.linalg.norm(res))
    for _ in range(60):
        J = jacobian(z, partial)
        scale = np.maximum(1e-12, np.max(np.abs(J), axis=1))
        try:
            d = np.linalg.lstsq(J / scale[:, None], -res / scale, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(d)):
            break
        step = 1.0
        improved = False
        for _ in range(25):
            dz = step * d
            if np.all(np.abs(dz) <= _EPS * np.abs(z)):
                break
            z_new = z + dz
            res_new, partial_new = residual(z_new)
            phi_new = float(np.linalg.norm(res_new))
            if phi_new < phi:
                z, res, partial, phi = z_new, res_new, partial_new, phi_new
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return z


def flatten_records(traces: Iterable[TraceResult]) -> list[TraceRecord]:
    """Every trace's records in the order they were gathered, trace by trace."""
    return [rec for tr in traces for rec in tr.records]


# -- classification ------------------------------------------------------------

@dataclass(frozen=True)
class FailureWitness:
    limit: tuple[float, ...]
    records: tuple[TraceRecord, ...]
    source: str
    propagated_from: str | None = None


@dataclass(frozen=True)
class Verdict:
    condition: str
    status: str            # holds_evidence | fails_witness | inconclusive
    witness: FailureWitness | None = None
    note: str = ""


@dataclass(frozen=True)
class _Candidate:
    witness: FailureWitness
    rabier_trend: bool
    scaled_trend: bool
    all_in_tangency: bool


def _relative_spread(fs: np.ndarray) -> float:
    span = fs.max(axis=0) - fs.min(axis=0)
    scale = np.maximum(1.0, np.abs(fs).max(axis=0))
    return float((span / scale).max())


def _vanishing_trend(records: list[TraceRecord], key: str) -> bool:
    top = records[-1].radius
    window = [getattr(r, key) for r in records if r.radius >= top / 100.0]
    if len(window) < 2:
        return False
    last_ok = window[-1] <= TOL_LIMIT
    monotone = all(b <= a * _TREND_SLACK for a, b in zip(window, window[1:]))
    return last_ok and monotone


def _candidates(traces: list[TraceResult], top_radius: float) -> list[_Candidate]:
    out = []
    for tr in traces:
        recs = sorted((r for r in tr.records if r.below_ybar),
                      key=lambda r: r.radius)
        if len(recs) < 4:
            continue
        if recs[-1].radius < 0.99 * top_radius:
            continue
        if recs[-1].radius < recs[0].radius * 10 ** _MIN_SPAN_DECADES:
            continue
        tail = recs[-max(2, math.ceil(len(recs) / 4)):]
        fs = np.array([r.f_value for r in tail])
        if _relative_spread(fs) >= TOL_CLUSTER:
            continue
        limit = tuple(float(t) for t in fs.mean(axis=0))
        witness = FailureWitness(limit=limit, records=tuple(recs), source=tr.label)
        out.append(_Candidate(
            witness=witness,
            rabier_trend=_vanishing_trend(recs, "rabier"),
            scaled_trend=_vanishing_trend(recs, "scaled_rabier"),
            all_in_tangency=all(r.in_tangency for r in recs),
        ))
    # deterministic, order-independent preference among witnesses
    out.sort(key=lambda c: (tuple(round(v, 9) for v in c.witness.limit),
                            c.witness.source))
    return out


def classify(prob: Problem, ybar: Sequence[float], traces: Sequence[TraceResult],
             cfg: RunConfig = DEFAULT_CONFIG,
             mfcq_holds: bool = False) -> dict[str, Verdict]:
    """Classify the four asymptotic conditions at ybar from gathered traces,
    judging their coverage against the schedule `cfg.radii()`. Hand-built
    records enter through `TraceResult.from_records`.

    Per condition, fails_witness needs a diverging, f-convergent, below-ybar
    subsequence whose defining quantity matches the set definition (bounded
    f for properness, vanishing Rabier values for Palais-Smale, vanishing
    scaled values for Cerami, tangency membership throughout for M-tameness).
    Logical closure: a Cerami failure always implies a Palais-Smale failure,
    and under sampled MFCQ-at-infinity evidence an M-tameness failure implies
    a Cerami failure; any failure implies a properness failure since the
    witness has convergent f.
    """
    check_ybar(ybar, prob.p)
    radii = sorted({r for tr in traces for r in tr.coverage_radii})
    if not radii:
        raise ClassifyError("empty traces: nothing to classify")

    covered = _coverage(radii, cfg.radii()[-1])
    cands = _candidates(traces, radii[-1])

    # each condition's witness is the first candidate that fails it
    failing: dict[str, FailureWitness] = {}
    for cond, fails in zip(CONDITIONS, (lambda c: True, lambda c: c.rabier_trend,
                                        lambda c: c.scaled_trend,
                                        lambda c: c.all_in_tangency)):
        cand = next((c for c in cands if fails(c)), None)
        if cand is not None:
            failing[cond] = cand.witness

    # inclusion closure (the scaled quantity dominates the plain one for
    # radius >= 1, and the tangency set sits inside the Cerami set under
    # the constraint qualification)
    if mfcq_holds and "m_tame" in failing and "cerami" not in failing:
        failing["cerami"] = replace(failing["m_tame"], propagated_from="m_tame")
    if "cerami" in failing and "palais_smale" not in failing:
        failing["palais_smale"] = replace(failing["cerami"],
                                          propagated_from="cerami")

    verdicts = {}
    note = "" if covered else "radius schedule not fully covered by evidence"
    for cond in CONDITIONS:
        if cond in failing:
            verdicts[cond] = Verdict(cond, "fails_witness", failing[cond])
        elif covered:
            verdicts[cond] = Verdict(
                cond, "holds_evidence",
                note="sampled evidence only; emptiness is not decidable by sampling")
        else:
            verdicts[cond] = Verdict(cond, "inconclusive", note=note)
    return verdicts


def _coverage(radii: list[float], top: float) -> bool:
    return (len(radii) >= 4 and radii[-1] >= 0.99 * top
            and radii[-1] >= radii[0] * 10 ** _COVERAGE_DECADES)


# -- export --------------------------------------------------------------------

def trace_csv(records: Iterable[TraceRecord], n: int, p: int) -> str:
    """The text of trace.csv. Columns: radius, x_1..x_n, f_1..f_p, rabier,
    scaled_rabier, in_tangency, below_ybar (booleans as 0/1)."""
    header = (["radius"] + [f"x_{i+1}" for i in range(n)]
              + [f"f_{k+1}" for k in range(p)]
              + ["rabier", "scaled_rabier", "in_tangency", "below_ybar"])
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    for rec in records:
        writer.writerow([repr(rec.radius)]
                        + [repr(v) for v in rec.point]
                        + [repr(v) for v in rec.f_value]
                        + [repr(rec.rabier), repr(rec.scaled_rabier),
                           int(rec.in_tangency), int(rec.below_ybar)])
    return text.getvalue()

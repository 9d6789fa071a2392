"""Sphere-tracking evidence for the asymptotic behaviour of f on S, and the
classification of properness, Palais-Smale, Cerami, and M-tameness at a
reference value ybar.

Evidence comes from sequences of feasible points with growing norms: Pareto
points of randomly weighted objectives on S intersect spheres of the radii
`cfg.radii()` (warm-started continuation), feasible rays, and user-supplied
custom rays. Each point is summarised in a TraceRecord carrying the Rabier
value, its radius-scaled variant, and tangency membership. Classification
searches the traces for diverging, f-convergent subsequences below ybar
whose defining quantity vanishes (or stays in the tangency variety), and
reports holds_evidence / fails_witness / inconclusive per condition.
Emptiness of an asymptotic set is not decidable by sampling; holds_evidence
is sampled evidence, never a proof.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .certificates import rabier_value, tangency_membership
from .config import DEFAULT_CONFIG, RunConfig
from .errors import (ClassifyError, DivergenceError, InfeasiblePointError,
                     NonFiniteError, ProjectionError, TraceError)
from .pipeline import Stage, run
from .polynomials import _combine
from .problem import (Problem, RaySample, _slice_ok, _slice_residual,
                      polish_to_slice, project_to_sphere_slice)
from .solvers import (_EPS, minimize_auglag, random_unit_vector, simplex_lattice,
                      step_below_resolution)

CONDITIONS = ("proper", "palais_smale", "cerami", "m_tame")

# a witness sequence must span at least this many decades and reach the top
_MIN_SPAN_DECADES = 2.0
_COVERAGE_DECADES = 3.0
_TREND_SLACK = 1.001


def ybar_all_infinite(ybar: Sequence[float]) -> bool:
    return all(math.isinf(y) for y in ybar)


def below_ybar(fval: Sequence[float], ybar: Sequence[float], slack: float) -> bool:
    """Componentwise f <= ybar with a small absolute-relative slack."""
    return all(v <= y + slack * max(1.0, abs(y)) if math.isfinite(y) else True
               for v, y in zip(fval, ybar))


@dataclass(frozen=True)
class TraceRecord:
    radius: float
    point: tuple[float, ...]
    f_value: tuple[float, ...]
    rabier: float
    scaled_rabier: float
    in_tangency: bool
    below_ybar: bool


@dataclass
class TraceResult:
    """One coherent sequence of trace records plus gathering bookkeeping.

    coverage_radii holds every scheduled radius where the subproblem was
    resolved: either a point was produced or the below-ybar slice was judged
    empty (positive evidence). counts_for_coverage is False for traces that
    were not constrained to the section when ybar is finite.
    """
    label: str
    records: list[TraceRecord] = field(default_factory=list)
    attempted_radii: list[float] = field(default_factory=list)
    coverage_radii: list[float] = field(default_factory=list)
    filtered_radii: list[float] = field(default_factory=list)
    counts_for_coverage: bool = True

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord],
                     label: str = "custom") -> "TraceResult":
        records = sorted(records, key=lambda r: r.radius)
        radii = [r.radius for r in records]
        return cls(label=label, records=records, attempted_radii=radii,
                   coverage_radii=list(radii))


def make_record(prob: Problem, ybar: Sequence[float], x,
                cfg: RunConfig = DEFAULT_CONFIG) -> TraceRecord:
    """Certificate summary of one feasible point (raises if infeasible).

    The below-ybar slack grows with the radius, matching what local solvers
    can enforce on section cuts far out; witness limits carry the same
    uncertainty either way.
    """
    x = prob._point(x)
    fval = prob.f(x)
    radius = float(np.linalg.norm(x))
    rab = rabier_value(prob, x, cfg).value
    member = tangency_membership(prob, x, cfg).is_member
    return TraceRecord(
        radius=radius,
        point=tuple(float(t) for t in x),
        f_value=tuple(float(t) for t in fval),
        rabier=rab,
        scaled_rabier=radius * rab,
        in_tangency=member,
        below_ybar=below_ybar(fval, ybar, _ybar_slack(radius, cfg)),
    )


def _ybar_slack(radius: float, cfg: RunConfig) -> float:
    return cfg.tol_active + cfg.tol_feas * max(1.0, radius)


def trace_from_points(prob: Problem, ybar: Sequence[float], points,
                      cfg: RunConfig = DEFAULT_CONFIG,
                      label: str = "custom") -> TraceResult:
    """Build a trace from explicit points (e.g. a hand-derived ray).

    Infeasible points are skipped rather than fatal, so approximate rays
    survive, but at least one point must pass.
    """
    records = []
    skipped = 0
    for x in points:
        try:
            records.append(make_record(prob, ybar, x, cfg))
        except InfeasiblePointError:
            skipped += 1
    if not records:
        raise TraceError(f"no feasible point among the {skipped} supplied")
    return TraceResult.from_records(records, label=label)


def ray_to_trace(prob: Problem, ybar: Sequence[float], ray: RaySample,
                 cfg: RunConfig = DEFAULT_CONFIG,
                 label: str = "ray") -> TraceResult:
    result = TraceResult(label=label,
                         counts_for_coverage=ybar_all_infinite(ybar))
    for r, x in ray.points:
        result.attempted_radii.append(r)
        try:
            rec = make_record(prob, ybar, x, cfg)
        except InfeasiblePointError:
            continue
        result.coverage_radii.append(r)
        if rec.below_ybar:
            result.records.append(rec)
        else:
            result.filtered_radii.append(r)
    result.attempted_radii.extend(ray.failed_radii)
    return result


# -- sphere-constrained Pareto subproblems ------------------------------------

def _sphere_subproblem(prob: Problem, r: float, weights: np.ndarray,
                       ybar: Sequence[float], start: np.ndarray,
                       cfg: RunConfig):
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
    # violation above tol_feas at large radii no matter the penalty; the
    # Gauss-Newton polish and the final absolute acceptance gate restore
    # record-level accuracy afterwards
    return minimize_auglag(
        local, start,
        tol_feas=cfg.tol_feas,
        tol_feas_loose=cfg.tol_feas * max(1.0, r),
        gtol=1e-9,
        divergence_cap=max(cfg.divergence_cap, 10.0 * r),
    )


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
    c at radius k warm starts from chain c at radius k-1. Radii where the
    local solver fails are dropped; radii where the below-ybar slice is
    judged empty still count as resolved coverage. Raises TraceError when
    nothing converges. The chains run as independent units of
    `pipeline.run`.
    """
    (chains,) = run(chain_stage(prob, ybar, cfg))
    return chains()


def chain_stage(prob: Problem, ybar: Sequence[float],
                cfg: RunConfig = DEFAULT_CONFIG) -> Stage:
    """The chains of `trace_tangency`, one unit each; the stage's result is
    the list of chains."""
    # one weight vector per chain, held fixed across the whole schedule:
    # redrawing per radius makes a chain chase a different Pareto point at
    # every step and destroys the f-convergence the classifier looks for
    rng = np.random.default_rng([cfg.seed, _CHAIN_SEED])
    chain_weights = _chain_weight_draws(prob.p, cfg.weights_per_radius, rng)
    return Stage(tuple((_trace_chain, (prob, ybar, w, c, cfg))
                       for c, w in enumerate(chain_weights)), _collect_chains)


def _collect_chains(chains) -> list[TraceResult]:
    if not any(chain.coverage_radii for chain in chains):
        raise TraceError("no radius converged in any chain")
    return chains


def _trace_chain(prob, ybar, weights, c, cfg) -> TraceResult:
    """Chain c: its fixed weight over the whole schedule, each radius warm
    started from the chain's last point, seeds [_CHAIN_SEED, ridx, c]."""
    chain = TraceResult(label=f"pareto-chain-{c:02d}")
    prev = None
    for ridx, r in enumerate(cfg.radii()):
        chain.attempted_radii.append(r)
        status, x = _resolve_radius(prob, r, weights, ybar, prev, cfg,
                                    seed=[_CHAIN_SEED, ridx, c])
        if status == "empty":
            # the below-ybar slice at this radius looks empty from every
            # restart: resolved coverage with no point
            chain.coverage_radii.append(r)
            continue
        if status != "point":
            continue
        rec = make_record(prob, ybar, x, cfg)
        chain.coverage_radii.append(r)
        prev = x
        if rec.below_ybar:
            chain.records.append(rec)
        else:
            chain.filtered_radii.append(r)
    return chain


def _chain_weight_draws(p: int, count: int, rng) -> list[np.ndarray]:
    """Half a small deterministic lattice, half seeded simplex draws."""
    lattice = simplex_lattice(p, max(2, (count + 1) // 2)) if p > 1 else []
    draws = list(lattice[:count])
    while len(draws) < count:
        draws.append(rng.dirichlet(np.ones(p)))
    return draws


def _slice_point_ok(prob, x, r, ybar, cfg):
    if not _slice_ok(prob, x, r, cfg):
        return False
    # section cuts must stay satisfied when the trace is filtered to them
    return below_ybar(prob.f(x), ybar, _ybar_slack(r, cfg))


def _finish_point(prob, r, weights, ybar, x, cfg, active_from=None):
    """The KKT polish, then the slice polish unless the KKT-polished point
    is on the slice to rounding level: it passes `_slice_ok` and its slice
    residual has norm at most eps. There the slice polish's Gauss-Newton,
    with one sphere row and n unknowns on the hyperbola, only walks the
    point along the slice, which flipped `in_tangency` flags. A point that
    passes `_slice_ok` with a larger residual, as on the degenerate line
    far out, is still pinned by it."""
    refined = _kkt_polish(prob, r, weights, ybar, x, cfg,
                          active_from=active_from)
    if refined is not None:
        x = refined
    if refined is None or not _slice_ok(prob, x, r, cfg) \
            or float(np.linalg.norm(_slice_residual(prob, r)(x)[0])) > _EPS:
        polished = polish_to_slice(prob, x, r, cfg)
        if polished is not None:
            x = polished
    return x if _slice_point_ok(prob, x, r, ybar, cfg) else None


def _resolve_radius(prob, r, weights, ybar, warm, cfg, seed):
    """One (radius, weight) subproblem: Newton continuation from the warm
    point when available, otherwise augmented-Lagrangian attempts from
    projected starts.

    Returns ("point", x) on success, ("empty", None) when every projected
    attempt reports an infeasible slice, ("failed", None) otherwise.
    """
    guess = None
    if warm is not None and np.linalg.norm(warm) > 1e-12:
        guess = warm * (r / np.linalg.norm(warm))
        x = _finish_point(prob, r, weights, ybar, guess, cfg, active_from=warm)
        if x is not None:
            return "point", x

    projected_attempts = 0
    infeasible_votes = 0
    for attempt in range(3):
        if attempt == 0 and guess is not None:
            start, projected = guess, False
        else:
            start, projected = _chain_start(prob, r, cfg, seed=[*seed, attempt])
        projected_attempts += int(projected)
        try:
            res = _sphere_subproblem(prob, r, weights, ybar, start, cfg)
        except (DivergenceError, NonFiniteError):
            continue
        if res.outcome == "infeasible":
            # emptiness evidence only counts from a start that actually sat
            # on S intersect S_r; anything else is just a failed solve
            if projected:
                infeasible_votes += 1
            continue
        if res.outcome != "converged":
            continue
        x = _finish_point(prob, r, weights, ybar, res.x, cfg)
        if x is not None:
            return "point", x
    if projected_attempts >= 2 and infeasible_votes == projected_attempts:
        return "empty", None
    return "failed", None


def _kkt_polish(prob, r, weights, ybar, x0, cfg, active_from=None):
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
    window = max(cfg.tol_active, cfg.tol_feas * max(1.0, r) * 10.0)
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

        z = _newton_stall(residual, jacobian, np.concatenate([x_start, lam0]),
                          max_iter=60)
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


def _newton_stall(residual, jacobian, z0, max_iter=60):
    """Backtracking Newton on a square system, row-equilibrated and solved by
    least squares: KKT systems on large spheres are too ill-conditioned for
    normal equations. Halves each step until the residual norm decreases and
    stops once `step_below_resolution(step * d, z)` holds (halving cannot
    make it useful) or after `max_iter` Newton steps.

    `residual(z)` returns the residual and the partial results that
    `jacobian(z, partial)` builds the Jacobian from. Only the points a step
    starts from get a Jacobian; a rejected trial costs one residual."""
    z = np.asarray(z0, dtype=float).copy()
    res, partial = residual(z)
    phi = float(np.linalg.norm(res))
    for _ in range(max_iter):
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
            if step_below_resolution(dz, z):
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


def _chain_start(prob, r, cfg, seed):
    """Seeded start on (or near) the slice; the flag says whether the
    projection actually succeeded."""
    try:
        x = project_to_sphere_slice(
            prob, r,
            r * random_unit_vector(np.random.default_rng([cfg.seed, *seed]), prob.n),
            cfg, seed=seed)
        return x, True
    except ProjectionError:
        rng = np.random.default_rng([cfg.seed, 0xFA11, *seed])
        return r * random_unit_vector(rng, prob.n), False


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


def _vanishing_trend(records: list[TraceRecord], key: str, cfg: RunConfig) -> bool:
    top = records[-1].radius
    window = [getattr(r, key) for r in records if r.radius >= top / 100.0]
    if len(window) < 2:
        return False
    last_ok = window[-1] <= cfg.tol_limit
    monotone = all(b <= a * _TREND_SLACK for a, b in zip(window, window[1:]))
    return last_ok and monotone


def _candidates(traces: list[TraceResult], top_radius: float,
                cfg: RunConfig) -> list[_Candidate]:
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
        if _relative_spread(fs) >= cfg.tol_cluster:
            continue
        limit = tuple(float(t) for t in fs.mean(axis=0))
        witness = FailureWitness(limit=limit, records=tuple(recs), source=tr.label)
        out.append(_Candidate(
            witness=witness,
            rabier_trend=_vanishing_trend(recs, "rabier", cfg),
            scaled_trend=_vanishing_trend(recs, "scaled_rabier", cfg),
            all_in_tangency=all(r.in_tangency for r in recs),
        ))
    # deterministic, order-independent preference among witnesses
    out.sort(key=lambda c: (tuple(round(v, 9) for v in c.witness.limit),
                            c.witness.source))
    return out


def classify(prob: Problem, ybar: Sequence[float], traces: Sequence[TraceResult],
             cfg: RunConfig = DEFAULT_CONFIG,
             mfcq_holds: bool | None = None) -> dict[str, Verdict]:
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
    if len(ybar) != prob.p:
        raise ClassifyError(f"ybar has {len(ybar)} entries, problem has p={prob.p}")
    if not any(tr.coverage_radii for tr in traces):
        raise ClassifyError("empty traces: nothing to classify")

    top_attained = max(max(tr.coverage_radii, default=0.0) for tr in traces)
    covered = _coverage(traces, cfg.radii()[-1])
    cands = _candidates(traces, top_attained, cfg)

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


def _coverage(traces: Sequence[TraceResult], top: float) -> bool:
    radii = sorted({r for tr in traces if tr.counts_for_coverage
                    for r in tr.coverage_radii})
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

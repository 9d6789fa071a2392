"""Pointwise certificates: Rabier value, tangency-variety membership, and
the Mangasarian-Fromovitz direction probe.

All three take a feasible point of a Problem and are pure functions of
(problem, point, config); a point whose values or Jacobians are not finite
is rejected with NonFiniteError. Complementarity is enforced through the
activity tolerance: an inequality multiplier is free (and nonnegative) only
for constraints with |h_j(x)| <= tol_active, and pinned to zero otherwise.

All three certificates run on one exact least-norm kernel
(`solvers.min_norm_simplex_cone`) after eliminating their free multipliers
or directions by projection, and normalize differently:

- Rabier: tau on the unit simplex, nu in the cone, raw gradients; the value
  is in the units of the objective gradients.
- Tangency: every gradient column and x scaled to unit length, (tau, nu)
  jointly on the unit simplex; the residual is relative to the gradient
  magnitudes.
- MFCQ: the raw active inequality gradients projected off the row space
  of Jg, all on the unit simplex; the nearest point of their convex hull
  is the max-margin direction, and its norm the Euclidean margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import InfeasiblePointError
from .problem import Problem, _feasibility, evaluate_finite
from .solvers import min_norm_simplex_cone


@dataclass(frozen=True)
class MultiplierVector:
    """Fritz-John multipliers (tau, lam, nu, mu) with their cone constraints."""
    tau: tuple[float, ...]
    lam: tuple[float, ...]
    nu: tuple[float, ...]
    mu: float

    def as_arrays(self):
        return (np.array(self.tau), np.array(self.lam),
                np.array(self.nu), self.mu)


@dataclass(frozen=True)
class RabierResult:
    value: float
    minimizer: MultiplierVector


@dataclass(frozen=True)
class MembershipResult:
    is_member: bool
    residual: float
    threshold: float
    witness: MultiplierVector | None
    tau_weight: float   # sum of tau in the witness; ~0 flags a degenerate witness


@dataclass(frozen=True)
class MfcqReport:
    holds: bool
    gradient_rank: int
    witness: tuple[float, ...] | None
    margin: float | None
    active: tuple[int, ...]


# constraint gradients below this fraction of the data scale are treated as
# zero when multipliers are unbounded: points pinned to a feasible set at
# float precision carry coordinate noise whose induced gradient error sits
# near 1e-8 of scale, and "cancelling" objective gradients against such noise
# needs multipliers ~1e8 and collapses the least-norm value spuriously
_NOISE_FLOOR = 1e-7


def _require_feasible(prob: Problem, x, cfg: RunConfig):
    """Feasibility report and the evaluation (f, g, h, Jf, Jg, Jh) at x."""
    values = evaluate_finite(prob, x)
    report = _feasibility(values[1], values[2], cfg.tol_feas, cfg.tol_active)
    if not report.feasible:
        raise InfeasiblePointError(
            f"point is infeasible (eq violation {report.max_equality_violation:.3e}, "
            f"ineq violation {report.max_inequality_violation:.3e})")
    return report, values


def _gradient_blocks(prob: Problem, values, active):
    """Columns: objective gradients F (n,p), equality gradients G (n,l),
    active inequality gradients H (n,|A|)."""
    _, _, _, Jf, Jg, Jh = values
    F, G = Jf.T, Jg.T
    H = Jh[list(active), :].T if active else np.zeros((prob.n, 0))
    return F, G, H


def _gradient_scale(F, G, x) -> float:
    """Reference magnitude for rank decisions: the data the multipliers act on."""
    parts = [1.0, float(np.linalg.norm(x))]
    if F.size:
        parts.append(float(np.max(np.linalg.norm(F, axis=0))))
    if G.size:
        parts.append(float(np.max(np.linalg.norm(G, axis=0))))
    return max(parts)


def rabier_value(prob: Problem, x, cfg: RunConfig = DEFAULT_CONFIG) -> RabierResult:
    """Least residual norm of a simplex-weighted objective-gradient
    combination minus a conic combination of constraint gradients.

    Solves min ||F tau - G lam - H nu|| with tau on the unit simplex, lam
    free, nu >= 0 on the active face only, on the raw gradients. lam is
    eliminated exactly by projecting onto the orthogonal complement of
    span(G); the reduced problem is one exact simplex/cone kernel solve.
    """
    x = prob._point(x)
    report, values = _require_feasible(prob, x, cfg)
    active = report.active
    F, G, H = _gradient_blocks(prob, values, active)
    p, na = prob.p, len(active)

    floor = max(cfg.tol_rank, _NOISE_FLOOR) * _gradient_scale(F, G, x)
    lam_solve = None
    if G.shape[1]:
        # orthonormal basis of span(G) at numerical rank; the cutoff is
        # floored at the problem's own gradient scale, otherwise equality
        # gradients that are pure rounding noise (degenerate feasible sets)
        # admit huge multipliers and collapse the value spuriously
        U, sv, Vt = np.linalg.svd(G, full_matrices=False)
        rank = int(np.sum(sv > floor))
        Q = U[:, :rank]
        proj = lambda A: A - Q @ (Q.T @ A)
        lam_solve = lambda t: Vt[:rank].T @ ((Q.T @ t) / sv[:rank])
    else:
        proj = lambda A: A

    # same guard for the conic side: a noise-level inequality gradient
    # would let nu cancel real objective directions with huge multipliers
    if na:
        keep = [slot for slot in range(na)
                if np.linalg.norm(H[:, slot]) > floor]
        H = H[:, keep]
        active = tuple(active[slot] for slot in keep)
        na = len(active)

    M = np.hstack([proj(F), -proj(H)]) if na else proj(F)
    z, _ = min_norm_simplex_cone(M, p)

    tau = z[:p]
    nu_active = z[p:]
    target = F @ tau - (H @ nu_active if na else 0.0)
    lam = lam_solve(target) if lam_solve is not None else np.zeros(0)
    residual = target - (G @ lam if G.shape[1] else 0.0)
    nu = np.zeros(prob.m)
    for slot, j in enumerate(active):
        nu[j] = nu_active[slot]
    minimizer = MultiplierVector(tau=tuple(tau), lam=tuple(lam),
                                 nu=tuple(nu), mu=0.0)
    return RabierResult(value=float(np.linalg.norm(residual)), minimizer=minimizer)


def tangency_membership(prob: Problem, x,
                        cfg: RunConfig = DEFAULT_CONFIG) -> MembershipResult:
    """Decide whether some nonzero (tau, lam, nu, mu) with tau >= 0, nu >= 0
    complementary balances F tau - G lam - H nu - mu x = 0.

    Each column of [F, G, H, x] is first scaled to unit length (multipliers
    absorb the scales), so the residual is relative to the gradient
    magnitudes and membership is invariant under rescaling the data. The
    free multipliers (lam, mu) are eliminated by projecting onto the
    orthogonal complement of span([G x]). If [G x] is rank-deficient (its
    least singular value <= tol_membership) the point is a member through
    (lam, mu) alone; otherwise (tau, nu) range over the unit simplex and one
    exact kernel solve gives the residual. The witness is reported for the
    unscaled gradients with |tau| + |lam| + |nu| + |mu| = 1.
    """
    x = prob._point(x)
    report, values = _require_feasible(prob, x, cfg)
    active = report.active
    F, G, H = _gradient_blocks(prob, values, active)
    p, l, na = prob.p, prob.l, len(active)

    base_cols = np.hstack([F, G, H, x[:, None]])
    col_norms = np.linalg.norm(base_cols, axis=0)
    biggest = float(np.max(col_norms, initial=0.0))
    col_scale = np.maximum(col_norms, 1e-12 * max(1.0, biggest))
    threshold = cfg.tol_membership
    unit = base_cols / col_scale[None, :]
    free = np.hstack([unit[:, p:p + l], unit[:, -1:]])     # scaled [G x]

    U, sv, Vt = np.linalg.svd(free)
    if l + 1 > prob.n or sv[-1] <= threshold:
        # (lam, mu) alone balance: tau = nu = 0
        z = np.zeros(p + l + na + 1)
        z[p:p + l] = Vt[-1, :l]
        z[-1] = Vt[-1, -1]
        residual = float(np.linalg.norm(free @ Vt[-1]))
    else:
        Q = U[:, :l + 1]
        cone = np.hstack([unit[:, :p], -unit[:, p + l:p + l + na]])
        weights, residual = min_norm_simplex_cone(cone - Q @ (Q.T @ cone), p + na)
        free_mult = Vt.T @ ((Q.T @ (cone @ weights)) / sv)
        z = np.concatenate([weights[:p], free_mult[:l], weights[p:], free_mult[l:]])

    # map back to multipliers for the unnormalized gradients
    z_true = z / col_scale
    z_true = z_true / float(np.sum(np.abs(z_true)))
    tau = z_true[:p]
    lam = z_true[p:p + l]
    nu = np.zeros(prob.m)
    for slot, j in enumerate(active):
        nu[j] = z_true[p + l + slot]
    mu = z_true[-1]
    is_member = residual <= threshold
    witness = MultiplierVector(tau=tuple(tau), lam=tuple(lam),
                               nu=tuple(nu), mu=float(mu)) if is_member else None
    return MembershipResult(is_member=is_member, residual=float(residual),
                            threshold=float(threshold), witness=witness,
                            tau_weight=float(np.sum(tau)))


def mfcq_probe(prob: Problem, x, cfg: RunConfig = DEFAULT_CONFIG) -> MfcqReport:
    """Check the Mangasarian-Fromovitz conditions at a feasible point:
    equality gradients of full rank plus a direction v with <grad g_i, v> = 0
    and <grad h_j, v> > 0 for active j.

    With Jg of full rank, such a v exists if and only if the active
    gradients, projected off the row space of Jg, have a convex hull that
    misses the origin (Gordan's alternative). One kernel solve with every
    projected column on the simplex gives the hull's nearest point w; w/|w|
    is the unit direction of largest worst-case margin, and that margin is
    |w| (Wolfe, Math. Program. 11, 1976). MFCQ holds iff |w| > tol_margin;
    the witness is w/|w| and the margin min(Jh_A @ witness), |w| up to
    rounding. A failed direction test reports |w| as its margin.
    """
    x = prob._point(x)
    report, (_, _, _, _, Jg, Jh) = _require_feasible(prob, x, cfg)
    active = report.active
    l = prob.l

    if l:
        _, sv, Vt = np.linalg.svd(Jg, full_matrices=False)
        floor = cfg.tol_rank * max(1.0, float(np.linalg.norm(x)), float(sv[0]))
        rank = int(np.sum(sv > floor))
    else:
        rank = 0
    if rank < l:
        return MfcqReport(holds=False, gradient_rank=rank, witness=None,
                          margin=None, active=active)
    if not active:
        return MfcqReport(holds=True, gradient_rank=rank, witness=None,
                          margin=math.inf, active=active)

    Jh = Jh[list(active), :]
    H = Jh.T
    if l:
        # rank == l here, so the rows of Vt span the row space of Jg
        H = H - Vt.T @ (Vt @ H)
    z, size = min_norm_simplex_cone(H, len(active))
    if size <= cfg.tol_margin:
        return MfcqReport(holds=False, gradient_rank=rank, witness=None,
                          margin=size, active=active)
    unit = (H @ z) / size
    return MfcqReport(holds=True, gradient_rank=rank,
                      witness=tuple(float(t) for t in unit),
                      margin=float(np.min(Jh @ unit)), active=active)

"""Shared numerical machinery: the exact simplex/cone least-norm kernel,
damped Gauss-Newton, and an augmented-Lagrangian local solver.

Everything here is deterministic given its inputs; randomness always enters
through an explicit numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as scipy_minimize
from scipy.optimize import nnls

from .errors import DivergenceError, KernelError


def random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(n)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def min_norm_simplex_cone(M: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Exact minimizer of ||M z|| over z >= 0 with sum(z[:k]) = 1: the first
    k coordinates on the unit simplex, the rest in the nonnegative cone.

    One Lawson-Hanson NNLS solve of [M; w (1_k, 0)] u against (0, ..., 0, w).
    Writing u = s z with z feasible, the squared residual at the best s is
    w^2 q / (w^2 + q) with q = ||M z||^2, increasing in q, so
    z = u / sum(u[:k]) is the exact minimizer; with w the largest norm among
    the first k columns, s lies in [1/2, 1]. Returns (z, ||M z||).
    """
    M = np.asarray(M, dtype=float)
    n, d = M.shape
    w = float(np.max(np.linalg.norm(M[:, :k], axis=0)))
    if w == 0.0:
        z = np.zeros(d)
        z[:k] = 1.0 / k
        return z, 0.0
    A = np.vstack([M, np.r_[np.full(k, w), np.zeros(d - k)]])
    try:
        u, _ = nnls(A, np.r_[np.zeros(n), w], maxiter=10 * d)
    except RuntimeError as exc:
        raise KernelError(f"NNLS hit its iteration limit on a {n}x{d} system") from exc
    z = u / float(np.sum(u[:k]))
    return z, float(np.linalg.norm(M @ z))


def gauss_newton(res_jac, x0, *, accept, max_iter: int = 200,
                 lm0: float = 1e-3) -> tuple[np.ndarray, bool, float]:
    """Damped (Levenberg-Marquardt) Gauss-Newton until `accept(x)` holds.

    `res_jac(x)` returns the residual vector and its Jacobian. Returns
    (x, accepted, final residual norm).
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    lam = lm0
    r, J = res_jac(x)
    phi = 0.5 * float(r @ r)
    for _ in range(max_iter):
        if accept(x):
            return x, True, float(np.linalg.norm(r))
        A = J.T @ J
        b = -J.T @ r
        diag = np.maximum(np.diag(A), 1e-12)
        stepped = False
        for _ in range(30):
            try:
                d = np.linalg.solve(A + lam * np.diag(diag), b)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if not np.all(np.isfinite(d)):
                lam *= 10.0
                continue
            x_new = x + d
            r_new, J_new = res_jac(x_new)
            phi_new = 0.5 * float(r_new @ r_new)
            if phi_new < phi:
                x, r, J, phi = x_new, r_new, J_new, phi_new
                lam = max(lam * 0.3, 1e-14)
                stepped = True
                break
            lam *= 10.0
        if not stepped:
            break
    return x, accept(x), float(np.linalg.norm(r))


@dataclass
class AuglagResult:
    x: np.ndarray
    objective: float
    outcome: str                 # converged | infeasible | iteration_limit
    violation: float
    stationarity: float
    eq_multipliers: np.ndarray
    ineq_multipliers: np.ndarray
    outer_iterations: int

    @property
    def converged(self) -> bool:
        return self.outcome == "converged"


def minimize_auglag(evaluate, x0, *,
                    tol_feas: float = 1e-8, tol_feas_loose: float | None = None,
                    gtol: float = 1e-9, max_outer: int = 30, rho0: float = 10.0,
                    rho_growth: float = 10.0, rho_max: float = 1e12,
                    inner_maxiter: int = 300,
                    divergence_cap: float | None = None) -> AuglagResult:
    """Powell-Hestenes-Rockafellar augmented Lagrangian with an L-BFGS-B core.

    `evaluate(x)` returns (value, gradient, eq_values, eq_jacobian,
    ineq_values, ineq_jacobian): the objective, the equalities targeting 0
    and the inequalities targeting >= 0, with empty blocks of shapes (0,)
    and (0, n); one call gives everything the solver needs at a point.
    Raises DivergenceError once iterates reach `divergence_cap` in infinity
    norm. Stationarity is judged relative to the local gradient scale,
    feasibility absolutely.

    tol_feas is the target; tol_feas_loose (>= tol_feas) is a fallback
    acceptance when the budget runs out or the iterate stalls, for
    constraint sets whose violation cannot reach the target at any bounded
    penalty (rank-deficient gradients). Callers using the loose tier should
    re-polish and re-check the result.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    loose = tol_feas if tol_feas_loose is None else max(tol_feas, tol_feas_loose)

    _, _, e0, _, c0, _ = evaluate(x)
    y = np.zeros(e0.size)
    nu = np.zeros(c0.size)
    rho = rho0

    bound = divergence_cap if divergence_cap is not None else np.inf
    bounds = [(-bound, bound)] * n if np.isfinite(bound) else None

    def violation_of(ev, cv):
        parts = [0.0]
        if ev.size:
            parts.append(float(np.max(np.abs(ev))))
        if cv.size:
            parts.append(float(np.max(np.maximum(0.0, -cv))))
        return max(parts)

    def augmented(point):
        fval, fgrad, ev, Je, cv, Jc = point
        val = fval
        grad = fgrad.copy()
        if ev.size:
            val += float(-y @ ev + 0.5 * rho * ev @ ev)
            grad += Je.T @ (rho * ev - y)
        if cv.size:
            shifted = np.maximum(0.0, nu - rho * cv)
            val += float((shifted @ shifted - nu @ nu) / (2.0 * rho))
            grad -= Jc.T @ shifted
        return val, grad

    prev_violation = math.inf
    prev_x = None
    stalled = 0
    feasible_stall = 0
    outcome = "iteration_limit"
    for outer in range(1, max_outer + 1):
        res = scipy_minimize(lambda xv: augmented(evaluate(xv)), x,
                             jac=True, method="L-BFGS-B", bounds=bounds,
                             options={"maxiter": inner_maxiter,
                                      "ftol": 1e-16, "gtol": 1e-12})
        x = np.asarray(res.x, dtype=float)
        if np.isfinite(bound) and float(np.max(np.abs(x))) >= 0.999 * bound:
            raise DivergenceError(
                f"iterates reached the norm cap {bound:g}; "
                "the subproblem is likely unbounded", point=x)
        point = evaluate(x)
        _, fgrad, ev, Je, cv, Jc = point
        viol = violation_of(ev, cv)
        _, al_grad = augmented(point)
        gscale = max(1.0, float(np.max(np.abs(fgrad))) if fgrad.size else 1.0)
        if Je.size:
            gscale = max(gscale, float(np.max(np.abs(Je))))
        if Jc.size:
            gscale = max(gscale, float(np.max(np.abs(Jc))))
        stationarity = float(np.max(np.abs(al_grad))) if al_grad.size else 0.0

        if viol <= tol_feas and stationarity <= gtol * gscale:
            outcome = "converged"
            break
        # stuck at an acceptable point: take it once the iterate stops moving
        # (covers degenerate geometry where constraint gradients vanish and
        # no multiplier can cancel the objective gradient)
        if viol <= loose and prev_x is not None \
                and float(np.linalg.norm(x - prev_x)) <= 1e-9 * (1.0 + float(np.linalg.norm(x))):
            feasible_stall += 1
            if feasible_stall >= 2 and outer >= 3:
                outcome = "converged"
                break
        else:
            feasible_stall = 0
        prev_x = x.copy()
        # multiplier / penalty updates
        if viol <= max(tol_feas, 0.25 * prev_violation):
            y_new = y - rho * ev
            nu_new = np.maximum(0.0, nu - rho * cv)
            caps = [np.max(np.abs(y_new), initial=0.0),
                    np.max(np.abs(nu_new), initial=0.0)]
            if max(caps) <= 1e8:
                # degenerate constraints have no bounded multiplier; beyond
                # the cap the estimates only thrash, so switch to penalty
                y, nu = y_new, nu_new
            if viol <= loose and stationarity > gtol * gscale:
                # acceptable violation but not stationary: tighten the
                # penalty so the iterate stops orbiting the feasible set
                rho = min(rho * rho_growth, rho_max)
            stalled = 0
        else:
            rho = min(rho * rho_growth, rho_max)
            if rho >= rho_max and viol > 10.0 * loose:
                if abs(viol - prev_violation) <= 0.1 * max(viol, prev_violation):
                    stalled += 1
                    if stalled >= 2:
                        outcome = "infeasible"
                        break
                else:
                    stalled = 0
        prev_violation = viol

    fval, _, ev, _, cv, _ = point
    if outcome == "iteration_limit" and violation_of(ev, cv) <= loose:
        outcome = "converged"
    _, al_grad = augmented(point)
    return AuglagResult(
        x=x,
        objective=float(fval),
        outcome=outcome,
        violation=violation_of(ev, cv),
        stationarity=float(np.max(np.abs(al_grad))) if al_grad.size else 0.0,
        eq_multipliers=y,
        ineq_multipliers=nu,
        outer_iterations=outer,
    )


def simplex_lattice(p: int, points_per_axis: int) -> list[np.ndarray]:
    """Deterministic uniform lattice on the unit simplex."""
    if p == 1:
        return [np.ones(1)]
    if points_per_axis < 2:
        return [np.full(p, 1.0 / p)]
    g = points_per_axis - 1
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(np.array(prefix + [remaining], dtype=float) / g)
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], g, p)
    return out

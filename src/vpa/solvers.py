"""Shared numerical machinery: the exact simplex/cone least-norm kernel,
damped Gauss-Newton, and an augmented-Lagrangian local solver.

The augmented Lagrangian's inner minimizer is L-BFGS-B. The private loop
`_lbfgsb` calls scipy's compiled step `scipy.optimize._lbfgsb.setulb`
itself instead of going through `scipy.optimize.minimize`. It repeats what
scipy's wrapper does around that step, so its iterates and evaluation counts
are bitwise those of `minimize(method="L-BFGS-B", jac=True)` under the same
options (tests/test_solvers.py checks this against scipy); only the
wrapper's per-evaluation Python objects are gone. `setulb` is private to
scipy, so that test is also what flags a scipy release that changes it.

Everything here is deterministic given its inputs; randomness always enters
through an explicit numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls
from scipy.optimize._lbfgsb import setulb

from .errors import DivergenceError, KernelError

_EPS = np.finfo(float).eps


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


def step_below_resolution(d, x) -> bool:
    """The relative-step ("xtol") stop at its tightest setting, machine eps:
    max|d| <= eps * max|x|. Such a step is below x's float resolution, so a
    Newton-type loop that takes it only crawls; a step that rounds away
    entirely (x + d == x) satisfies it too."""
    return float(np.max(np.abs(d))) <= _EPS * float(np.max(np.abs(x)))


# gauss_newton stops once phi fell by less than _STALL_DROP, relative, over
# the last _STALL_STEPS accepted steps
_STALL_STEPS, _STALL_DROP = 10, 1e-3


def gauss_newton(res_jac, x0, *, accept, max_iter: int = 200,
                 lm0: float = 1e-3) -> tuple[np.ndarray, bool, float]:
    """Damped (Levenberg-Marquardt) Gauss-Newton until `accept(x)` holds.

    `res_jac(x)` returns the residual vector and its Jacobian. Each damped
    step d is tested before the residual is evaluated at x + d: the loop
    stops once `step_below_resolution(d, x)` holds, since more damping only
    shortens d, once phi = |r|^2 / 2 has fallen by less than 0.1% over the
    last 10 accepted steps (a residual stagnating at a nonzero local minimum
    or a kink, far from where `accept` could hold), or after `max_iter`
    accepted steps. Returns (x, accepted, final residual norm).
    """
    x = np.asarray(x0, dtype=float).copy()
    lam = lm0
    r, J = res_jac(x)
    phi = 0.5 * float(r @ r)
    phis = [phi]            # phi after each accepted step
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
            if step_below_resolution(d, x):
                break       # more damping only shortens d
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
        phis.append(phi)
        if len(phis) > _STALL_STEPS and phi > (1.0 - _STALL_DROP) * phis[-1 - _STALL_STEPS]:
            break           # stagnating: accept(x) failed at every one of them
    return x, accept(x), float(np.linalg.norm(r))


def _lbfgsb(fun, x0, cap, maxiter):
    """L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) on `fun(x) -> (value,
    gradient)` from x0, each coordinate boxed to [-cap, cap] when cap is
    finite; returns the final x.

    Reverse communication with scipy's compiled step, exactly as
    `scipy.optimize.minimize(method="L-BFGS-B", jac=True)` with maxcor=10,
    maxls=20, maxfun=15000, ftol=1e-16 and gtol=1e-12 drives it: the same
    workspace and task codes, x0 clipped to the box, a fresh copy of x for
    each evaluation, a re-evaluation only at a new x, and a float64 copy of
    the gradient before each step.
    """
    m, maxls, maxfun = 10, 20, 15000
    factr, pgtol = 1e-16 / _EPS, 1e-12
    n = x0.size
    if np.isfinite(cap):
        nbd, lo, hi = np.full(n, 2, np.int32), np.full(n, -cap), np.full(n, cap)
        x = np.clip(x0, lo, hi)
    else:
        nbd, lo, hi = np.zeros(n, np.int32), np.zeros(n), np.zeros(n)
        x = np.array(x0, dtype=np.float64)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = (np.zeros(k, np.int32) for k in (2, 2, 4))
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    f, g = 0.0, np.zeros(n)
    seen, memo, nfev, nit = x.tolist(), fun(x.copy()), 1, 0
    while True:
        g = g.astype(np.float64)    # setulb may write g; the memo's stays intact
        setulb(m, x, lo, hi, nbd, f, g, factr, pgtol, wa, iwa,
               task, lsave, isave, dsave, maxls, ln_task)
        if task[0] == 3:            # wants f and g at x
            now = x.tolist()        # np.array_equal's test, at less cost
            if now != seen:
                seen, memo, nfev = now, fun(x.copy()), nfev + 1
            f, g = memo
        elif task[0] == 1:          # finished an iteration
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504
            elif nfev > maxfun:
                task[:] = 5, 502
        else:
            return x


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
    """Powell-Hestenes-Rockafellar augmented Lagrangian. Each subproblem is
    minimized by `_lbfgsb` (at most `inner_maxiter` iterations, boxed to
    `divergence_cap`), whose iterates are bitwise those of scipy's L-BFGS-B.

    `evaluate` is a one-objective `Problem`'s `evaluate`, or a function of
    the same contract: `evaluate(x)` returns (f, g, h, Jf, Jg, Jh), the
    objective as a (1,) block, the equalities g = 0 and the inequalities
    h >= 0, with their Jacobians; empty blocks have shapes (0,) and (0, n).
    Raises DivergenceError once iterates reach `divergence_cap` in infinity
    norm. Stationarity is judged relative to the local gradient scale,
    feasibility absolutely.

    tol_feas is the target; tol_feas_loose (>= tol_feas) is a fallback
    acceptance when the budget runs out or the iterate stalls, for
    constraint sets whose violation cannot reach the target at any bounded
    penalty (rank-deficient gradients). Callers using the loose tier should
    re-polish and re-check the result.

    Raises ValueError unless max_outer >= 1 and inner_maxiter >= 1, and on
    a negative divergence_cap (an empty box).
    """
    if max_outer < 1 or inner_maxiter < 1:
        raise ValueError("minimize_auglag needs max_outer >= 1 and inner_maxiter"
                         f" >= 1, got {max_outer} and {inner_maxiter}")
    if divergence_cap is not None and divergence_cap < 0:
        raise ValueError(f"divergence_cap must be nonnegative, got {divergence_cap}")
    x = np.asarray(x0, dtype=float).copy()
    loose = tol_feas if tol_feas_loose is None else max(tol_feas, tol_feas_loose)

    _, e0, c0, _, _, _ = evaluate(x)
    y = np.zeros(e0.size)
    nu = np.zeros(c0.size)
    rho = rho0

    bound = divergence_cap if divergence_cap is not None else np.inf

    def violation_of(ev, cv):
        return max(0.0, float(np.max(np.abs(ev), initial=0.0)),
                   float(np.max(-cv, initial=0.0)))

    def augmented(point):
        fv, ev, cv, Jf, Je, Jc = point
        val, grad = float(fv[0]), Jf[0]     # read-only: _lbfgsb copies it
        if ev.size:
            val += float(-y @ ev + 0.5 * rho * ev @ ev)
            grad = grad + Je.T @ (rho * ev - y)
        if cv.size:
            shifted = np.maximum(0.0, nu - rho * cv)
            val += float((shifted @ shifted - nu @ nu) / (2.0 * rho))
            grad = grad - Jc.T @ shifted
        return val, grad

    prev_violation = math.inf
    prev_x = None
    stalled = 0
    feasible_stall = 0
    outcome = "iteration_limit"
    for outer in range(1, max_outer + 1):
        x = _lbfgsb(lambda xv: augmented(evaluate(xv)), x, bound, inner_maxiter)
        if np.isfinite(bound) and float(np.max(np.abs(x))) >= 0.999 * bound:
            raise DivergenceError(
                f"iterates reached the norm cap {bound:g}; "
                "the subproblem is likely unbounded", point=x)
        point = evaluate(x)
        _, ev, cv, Jf, Je, Jc = point
        viol = violation_of(ev, cv)
        _, al_grad = augmented(point)
        gscale = max(1.0, *(float(np.max(np.abs(J), initial=0.0)) for J in (Jf, Je, Jc)))
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

    fv, ev, cv, _, _, _ = point
    if outcome == "iteration_limit" and violation_of(ev, cv) <= loose:
        outcome = "converged"
    _, al_grad = augmented(point)
    return AuglagResult(
        x=x,
        objective=float(fv[0]),
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

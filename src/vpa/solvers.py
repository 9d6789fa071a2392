"""Shared numerical machinery: the exact simplex/cone least-norm kernel,
damped Gauss-Newton, and an augmented-Lagrangian local solver.

The augmented Lagrangian runs its starts as lanes (`_auglag_lanes`). Each
lane is a generator, a PHR state machine that yields every point it needs
evaluated. One loop serves all lanes round by round: one batched product
of a compiled `Problem` table evaluates every pending lane's point, and
array operations over the lane axis give every lane's augmented value and
gradient from the lanes' stacked multipliers and penalties. So numpy's
fixed cost per call is paid once per round instead of once per lane. A lane
sees only its own row of each round, so its result does not depend on its
batch mates. The front sweep runs all its scalarizations as lanes of one
call; `minimize_auglag` is the one-lane case, which every other local solve
uses.

The inner minimizer is L-BFGS-B. The private generator `_lbfgsb` calls
scipy's compiled step `setulb` itself instead of going through
`scipy.optimize.minimize`. It repeats what scipy's wrapper does around that
step, so its iterates and evaluation counts are bitwise those of
`minimize(method="L-BFGS-B", jac=True)` under the same options
(tests/test_solvers.py checks this against scipy); only the wrapper's
per-evaluation Python objects are gone.

`setulb` and the Lawson-Hanson NNLS behind `min_norm_simplex_cone` are
vpa's only two compiled kernels from scipy. `_load_kernel` loads their
modules, `scipy/optimize/_lbfgsb` and `scipy/optimize/_slsqplib`, from
their extension files, so `scipy.optimize/__init__` and the ~550 modules
it imports never run: a fresh `import vpa.cli` takes 0.33 s instead of
1.09 s and peaks at 38 MB resident instead of 79 MB (medians of 5 fresh
interpreters on a shared 2-vCPU host). Both the step and the file layout
are private to scipy, so the parity tests in tests/test_solvers.py are
also what flags a scipy release that changes either.

Everything here is deterministic given its inputs; randomness always enters
through an explicit numpy Generator.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import DivergenceError, KernelError, NonFiniteError, VpaError


def _load_kernel(name: str):
    """scipy's compiled module `scipy.optimize.<name>`, loaded from its
    extension file without importing the `scipy.optimize` package."""
    fullname = f"scipy.optimize.{name}"
    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize")
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    for suffix in suffixes:
        path = os.path.join(folder, name + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(
            f"no compiled kernel {os.path.join(folder, name + suffixes[0])} in "
            f"scipy {scipy.__version__}; vpa needs scipy >= 1.17", name=fullname)
    loader = importlib.machinery.ExtensionFileLoader(fullname, path)
    spec = importlib.util.spec_from_file_location(fullname, path, loader=loader)
    held = sys.modules.get(fullname)
    try:
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    finally:
        # a single-phase extension enters itself in sys.modules; leave that
        # entry as it was, so a later `import scipy.optimize` loads its own
        if held is None:
            sys.modules.pop(fullname, None)
        else:
            sys.modules[fullname] = held
    return module


_setulb = _load_kernel("_lbfgsb").setulb
_nnls = _load_kernel("_slsqplib").nnls     # (A, b, maxiter) -> (x, rnorm, info)

_EPS = np.finfo(float).eps

# the largest violation of a feasible point: the auglag stop and `check_feasible`
TOL_FEAS = 1e-8
# the augmented Lagrangian's budget (MAX_OUTER subproblems of at most
# INNER_MAXITER L-BFGS-B iterations) and penalty (RHO0, then times
# RHO_GROWTH up to RHO_MAX)
MAX_OUTER, INNER_MAXITER = 30, 300
RHO0, RHO_GROWTH, RHO_MAX = 10.0, 10.0, 1e12
# the norm cap of the local solves (`divergence_cap`): iterates that reach it
# are taken to diverge
DIVERGENCE_CAP = 1e6


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
    # refuse infs and NaNs as scipy.optimize.nnls does; b's one nonzero
    # entry, w, is in A's last row
    A = np.asarray_chkfinite(np.vstack([M, np.r_[np.full(k, w), np.zeros(d - k)]]))
    u, _, info = _nnls(A, np.r_[np.zeros(n), w], 10 * d)
    if info == 3:
        raise KernelError(f"NNLS hit its iteration limit on a {n}x{d} system")
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


def gauss_newton(res_jac, x0, *, accept,
                 max_iter: int = 200) -> tuple[np.ndarray, bool, float]:
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
    lam = 1e-3              # the initial damping
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


def _lbfgsb(x0, cap, maxiter):
    """L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) from x0, each coordinate
    boxed to [-cap, cap], as a generator: it yields each point it needs
    evaluated, is sent `(value, gradient)` there, and returns the final x.

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
    nbd, lo, hi = np.full(n, 2, np.int32), np.full(n, -cap), np.full(n, cap)
    x = np.clip(x0, lo, hi)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = (np.zeros(k, np.int32) for k in (2, 2, 4))
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    f, g = 0.0, np.zeros(n)
    seen, nfev, nit = x.tolist(), 1, 0
    memo = yield x.copy()
    while True:
        g = g.astype(np.float64)    # _setulb may write g; the memo's stays intact
        _setulb(m, x, lo, hi, nbd, f, g, factr, pgtol, wa, iwa,
               task, lsave, isave, dsave, maxls, ln_task)
        if task[0] == 3:            # wants f and g at x
            now = x.tolist()        # np.array_equal's test, at less cost
            if now != seen:
                seen, nfev = now, nfev + 1
                memo = yield x.copy()
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
    outcome: str                 # converged | infeasible | iteration_limit
    violation: float
    eq_multipliers: np.ndarray
    ineq_multipliers: np.ndarray
    outer_iterations: int

    @property
    def converged(self) -> bool:
        return self.outcome == "converged"


def minimize_auglag(local, x0, **options) -> AuglagResult:
    """Powell-Hestenes-Rockafellar augmented Lagrangian from x0 on a
    one-objective `Problem`: minimize its f subject to g = 0 and h >= 0.
    This is the one-lane case of `_auglag_lanes`, whose options it takes.

    Raises DivergenceError once iterates reach `divergence_cap` in infinity
    norm, NonFiniteError at a point where a value or Jacobian entry is not
    finite, and ValueError unless `local` has one objective.
    """
    if local.p != 1:
        raise ValueError(f"minimize_auglag needs one objective, got {local.p}")
    (result,) = _auglag_lanes(local._evaluate_batch, [x0], (1, local.l, local.m),
                              **options)
    if isinstance(result, VpaError):
        raise result
    return result


def _auglag_lanes(product, starts, sizes, weights=None, *,
                  tol_feas_loose: float | None = None, gtol: float = 1e-9,
                  divergence_cap: float = DIVERGENCE_CAP) -> list:
    """The augmented Lagrangian from each start, as lanes in lockstep.

    Each lane is a PHR iteration whose subproblems `_lbfgsb` minimizes (at
    most INNER_MAXITER iterations, boxed to `divergence_cap`). A round
    collects the point every pending lane asks for, evaluates them all with
    one `product`, and computes every lane's augmented value and gradient
    with array operations over the lane axis, from the lanes' stacked
    multipliers and penalties.

    `product(X)` maps the points X, one per row, to one row each of the
    table layout of `Problem`: the P objective values, the L equality
    (g = 0) and M inequality (h >= 0) values, then their Jacobian rows;
    `sizes` is (P, L, M). A row must depend on its own point alone, so a
    lane's result does not depend on its batch mates. Lane i minimizes
    `weights[i] @ f`; without weights P is 1. A lane whose row holds a NaN
    or an infinity ends with NonFiniteError.

    Stationarity is judged relative to the local gradient scale,
    feasibility absolutely. TOL_FEAS is the target; tol_feas_loose
    (>= TOL_FEAS) is a fallback acceptance when the budget runs out or the
    iterate stalls, for constraint sets whose violation cannot reach the
    target at any bounded penalty (rank-deficient gradients). Callers using
    the loose tier should re-polish and re-check the result.

    Returns per start an AuglagResult, or the DivergenceError or
    NonFiniteError it ended with. Raises ValueError on a negative
    divergence_cap (an empty box).
    """
    if divergence_cap < 0:
        raise ValueError(f"divergence_cap must be nonnegative, got {divergence_cap}")
    P, L, M = sizes
    count = len(starts)
    W = np.ones((count, 1)) if weights is None else np.asarray(weights, dtype=float)
    # per lane and per row of the table (objectives, g, h), the multiplier,
    # penalty and cap of its term in `_augmented`; an objective row has
    # multiplier -w, penalty 0 and no cap
    MU = np.hstack([-W, np.zeros((count, L + M))])
    RHO = np.hstack([np.zeros((count, P)), np.full((count, L + M), RHO0)])
    CAP = np.hstack([np.full((count, P + L), np.inf), np.zeros((count, M))])
    high = np.r_[np.full(P + L, np.inf), np.zeros(M)]
    loose = TOL_FEAS if tol_feas_loose is None else max(TOL_FEAS, tol_feas_loose)

    def phr(x, y, nu, penalty, cap):
        """One lane: the PHR iteration from x, as a generator. It yields
        each point the current subproblem's `_lbfgsb` needs and is sent the
        augmented value and gradient there; after each subproblem it yields
        the 1-tuple (x,) and is sent x's blocks (f, g, h, Jf, Jg, Jh) and
        augmented gradient. y and nu are its multipliers, penalty and cap
        its constraint entries of RHO and CAP, all views it updates in
        place. Returns the AuglagResult."""
        rho = RHO0
        prev_violation = math.inf
        prev_x = None
        stalled = 0
        feasible_stall = 0
        outcome = "iteration_limit"
        for outer in range(1, MAX_OUTER + 1):
            x = yield from _lbfgsb(x, divergence_cap, INNER_MAXITER)
            if float(np.max(np.abs(x))) >= 0.999 * divergence_cap:
                raise DivergenceError(
                    f"iterates reached the norm cap {divergence_cap:g}; "
                    "the subproblem is likely unbounded", point=x)
            _, ev, cv, Jf, Je, Jc, al_grad = yield (x,)
            viol = max(0.0, float(np.max(np.abs(ev), initial=0.0)),
                       float(np.max(-cv, initial=0.0)))
            gscale = max(1.0, *(float(np.max(np.abs(J), initial=0.0)) for J in (Jf, Je, Jc)))
            stationarity = float(np.max(np.abs(al_grad))) if al_grad.size else 0.0

            if viol <= TOL_FEAS and stationarity <= gtol * gscale:
                outcome = "converged"
                break
            # stuck at an acceptable point: take it once the iterate stops
            # moving (covers degenerate geometry where constraint gradients
            # vanish and no multiplier can cancel the objective gradient)
            if viol <= loose and prev_x is not None and float(np.linalg.norm(x - prev_x)) \
                    <= 1e-9 * (1.0 + float(np.linalg.norm(x))):
                feasible_stall += 1
                if feasible_stall >= 2 and outer >= 3:
                    outcome = "converged"
                    break
            else:
                feasible_stall = 0
            prev_x = x.copy()
            # multiplier / penalty updates
            if viol <= max(TOL_FEAS, 0.25 * prev_violation):
                y_new = y - rho * ev
                nu_new = np.maximum(0.0, nu - rho * cv)
                caps = [np.max(np.abs(y_new), initial=0.0),
                        np.max(np.abs(nu_new), initial=0.0)]
                if max(caps) <= 1e8:
                    # degenerate constraints have no bounded multiplier; beyond
                    # the cap the estimates only thrash, so switch to penalty
                    y[:], nu[:] = y_new, nu_new
                if viol <= loose and stationarity > gtol * gscale:
                    # acceptable violation but not stationary: tighten the
                    # penalty so the iterate stops orbiting the feasible set
                    rho = min(rho * RHO_GROWTH, RHO_MAX)
                stalled = 0
            else:
                rho = min(rho * RHO_GROWTH, RHO_MAX)
                if rho >= RHO_MAX and viol > 10.0 * loose:
                    if abs(viol - prev_violation) <= 0.1 * max(viol, prev_violation):
                        stalled += 1
                        if stalled >= 2:
                            outcome = "infeasible"
                            break
                    else:
                        stalled = 0
            penalty[:] = rho
            cap[:] = nu / rho
            prev_violation = viol

        if outcome == "iteration_limit" and viol <= loose:
            outcome = "converged"
        return AuglagResult(
            x=x,
            outcome=outcome,
            violation=viol,
            eq_multipliers=y.copy(),
            ineq_multipliers=nu.copy(),
            outer_iterations=outer,
        )

    lanes = [phr(np.asarray(x0, dtype=float), MU[i, P:P + L], MU[i, P + L:],
                 RHO[i, P:], CAP[i, P + L:])
             for i, x0 in enumerate(starts)]
    asks = [next(lane) for lane in lanes]
    results: list = [None] * count
    pending = list(range(count))
    while pending:
        X = np.array([asks[i][0] if type(asks[i]) is tuple else asks[i] for i in pending])
        V = product(X)
        finite = np.isfinite(V).all(axis=1)
        val, grad = _augmented(V, *((MU, RHO, CAP) if len(pending) == count
                                    else (MU[pending], RHO[pending], CAP[pending])), high)
        still = []
        for j, i in enumerate(pending):
            if not finite[j]:
                lanes[i].close()
                results[i] = NonFiniteError("a value or Jacobian entry at a solver "
                                            "iterate is not finite (overflow)")
                continue
            reply = ((*_lane_point(V[j], W[i], sizes), grad[j])
                     if type(asks[i]) is tuple else (val[j], grad[j]))
            try:
                asks[i] = lanes[i].send(reply)
            except StopIteration as stop:
                results[i] = stop.value
                continue
            except DivergenceError as exc:
                results[i] = exc
                continue
            still.append(i)
        pending = still
    return results


def _augmented(V, mu, rho, cap, high):
    """Every lane's augmented value (a list) and gradient from its row of
    the product V: one term per row c of the table, with the lane's
    multiplier mu, penalty rho and cap for that row.

    With t = min(rho c - mu, high), that is rho g - y for g and
    -max(0, nu - rho h) for h (high is +inf for g, 0 for h), the PHR terms
    -y.g + rho/2 |g|^2 and (|t|^2 - |nu|^2) / (2 rho) both equal
    (t - mu) . min(c, cap) / 2, where cap is +inf for g and nu / rho for h
    (exactly where t is clipped to 0). An objective row, with mu = -w,
    rho = 0 and no cap, gives w.f the same way. The gradient is t . J over
    all rows.
    """
    K = mu.shape[1]
    VK, jac = V[:, :K], V[:, K:].reshape(len(V), K, -1)
    t = np.minimum(rho * VK - mu, high)
    return (0.5 * np.vecdot(t - mu, np.minimum(VK, cap))).tolist(), np.vecmat(t, jac)


def _lane_point(v, w, sizes):
    """One lane's blocks (f, g, h, Jf, Jg, Jh) from its row v of the
    product and its weights w: f and Jf weight the objective rows, the
    constraint blocks are views of v."""
    P, L, M = sizes
    K = P + L + M
    jac = v[K:].reshape(K, -1)
    return w @ v[:P], v[P:P + L], v[P + L:K], w @ jac[:P], jac[P:P + L], jac[P + L:]


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

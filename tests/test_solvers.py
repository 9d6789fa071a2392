import importlib.machinery
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import minimize, nnls

import vpa
from vpa import Problem, parse, solvers
from vpa.errors import DivergenceError, KernelError, NonFiniteError
from vpa.solvers import min_norm_simplex_cone, minimize_auglag


def random_matrix(rng, n, d, shape):
    """Random n x d data; `shape` plants a zero, a duplicated or a
    rank-deficient column set."""
    M = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-2, 2)
    if shape == "zero":
        M[:, rng.integers(d)] = 0.0
    elif shape == "duplicate" and d > 1:
        i, j = rng.choice(d, size=2, replace=False)
        M[:, j] = M[:, i]
    elif shape == "rank":
        r = int(rng.integers(1, min(n, d) + 1))
        M = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
    return M


class TestMinNormSimplexCone:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 6),
           st.data(), st.sampled_from(["plain", "zero", "duplicate", "rank"]))
    def test_kkt_conditions(self, seed, n, d, data, shape):
        k = data.draw(st.integers(1, d))
        M = random_matrix(np.random.default_rng(seed), n, d, shape)
        z, value = min_norm_simplex_cone(M, k)
        g = M.T @ (M @ z)
        lam = float(z @ g)
        tol = 1e-9 * max(1.0, float(np.sum(M * M)))
        assert np.all(z >= 0.0)
        assert np.sum(z[:k]) == pytest.approx(1.0, abs=1e-12)
        assert np.all(g[:k] >= lam - tol)
        assert np.all(g[k:] >= -tol)
        support = z > 0.0
        assert np.all(np.abs(g[:k][support[:k]] - lam) <= tol)
        assert np.all(np.abs(g[k:][support[k:]]) <= tol)
        assert value == float(np.linalg.norm(M @ z))

    def test_zero_simplex_columns_give_uniform_weights(self):
        M = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
        z, value = min_norm_simplex_cone(M, 2)
        assert z.tolist() == [0.5, 0.5, 0.0] and value == 0.0

    def test_opposite_columns_balance(self):
        z, value = min_norm_simplex_cone(np.array([[1.0, -3.0]]), 2)
        assert z == pytest.approx([0.75, 0.25]) and value <= 1e-15

    def test_iteration_limit_is_typed(self, monkeypatch):
        def stalled(A, b, maxiter):
            return np.zeros(A.shape[1]), 0.0, 3     # info 3: iteration limit
        monkeypatch.setattr(solvers, "_nnls", stalled)
        with pytest.raises(KernelError):
            min_norm_simplex_cone(np.eye(2), 1)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 6),
           st.data(), st.sampled_from(["plain", "zero", "duplicate", "rank"]))
    def test_nnls_is_scipys_bitwise(self, seed, n, d, data, shape):
        # the NNLS loaded from its extension file is the routine behind
        # scipy.optimize.nnls, so a scipy release that moves or changes it
        # fails here
        k = data.draw(st.integers(1, d))
        M = random_matrix(np.random.default_rng(seed), n, d, shape)
        calls, kernel = [], solvers._nnls

        def spy(A, b, maxiter):
            calls.append((A.copy(), b.copy(), maxiter, *kernel(A, b, maxiter)))
            return calls[-1][3:]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "_nnls", spy)
            min_norm_simplex_cone(M, k)
        for A, b, maxiter, x, rnorm, info in calls:
            want_x, want_rnorm = nnls(A, b, maxiter=maxiter)
            assert info == 1
            assert np.array_equal(x, want_x) and rnorm == want_rnorm

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 2])      # on the simplex, in the cone
    def test_non_finite_input_is_refused(self, bad, column):
        M = np.array([[1.0, -2.0, 0.5], [0.0, 1.0, 3.0]])
        M[1, column] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            min_norm_simplex_cone(M, 2)


class TestGaussNewton:
    def test_exact_zero_residual_makes_one_evaluation(self):
        # d == 0 from the first trial step on, below x's float resolution,
        # so no trial point is evaluated
        calls = []
        A = np.array([[2.0, 1.0], [1.0, 3.0], [0.0, 1.0]])
        x0 = np.array([1.0, -2.0])
        b = A @ x0

        def res_jac(x):
            calls.append(x.copy())
            return A @ x - b, A

        x, accepted, resnorm = solvers.gauss_newton(res_jac, x0,
                                                    accept=lambda _: False)
        assert len(calls) == 1
        assert np.array_equal(x, x0) and not accepted and resnorm == 0.0

    def test_step_below_float_resolution_stops_before_evaluating(self):
        # at (1e-14, 10) the damped step on x1 is about 2e-27, far below
        # eps * 10, while each such step would still shrink x1^2 a little
        calls = []

        def res_jac(x):
            calls.append(x.copy())
            return (np.array([x[0] ** 2, x[1] - 10.0]),
                    np.array([[2.0 * x[0], 0.0], [0.0, 1.0]]))

        x0 = np.array([1e-14, 10.0])
        x, accepted, resnorm = solvers.gauss_newton(res_jac, x0,
                                                    accept=lambda _: False)
        assert len(calls) == 1
        assert np.array_equal(x, x0) and not accepted and resnorm == 1e-28

    def test_step_below_resolution_is_relative_to_the_largest_coordinate(self):
        eps = np.finfo(float).eps
        x = np.array([0.0, -4.0])
        assert solvers.step_below_resolution(np.array([4 * eps, 0.0]), x)
        assert not solvers.step_below_resolution(np.array([0.0, 8 * eps]), x)
        # a step that rounds away entirely is below the resolution too
        d = np.array([0.0, eps])
        assert np.array_equal(x + d, x) and solvers.step_below_resolution(d, x)


# min x.x subject to x1 + x2 = 1
sum_to_one = Problem(2, (parse("x1^2 + x2^2", 2),),
                     (parse("x1 + x2 - 1", 2),))


class TestMinimizeAuglag:
    def test_converged_with_closed_form_multiplier(self):
        res = minimize_auglag(sum_to_one, np.array([3.0, -1.0]))
        # stationarity of x.x - y (x1 + x2 - 1): 2 x = y (1, 1)
        assert res.outcome == "converged" and res.converged
        assert res.x == pytest.approx([0.5, 0.5], abs=1e-8)
        assert res.eq_multipliers == pytest.approx([1.0], abs=1e-6)
        assert res.violation <= 1e-8 and res.ineq_multipliers.size == 0

    def test_unsatisfiable_equality_is_infeasible(self):
        prob = Problem(1, (parse("x1^2", 1),), (parse("x1^2 + 1", 1),))
        res = minimize_auglag(prob, np.array([0.5]))
        assert res.outcome == "infeasible" and not res.converged
        assert res.violation == pytest.approx(1.0)

    def test_unbounded_objective_diverges_at_the_cap(self):
        prob = Problem(1, (parse("x1", 1),))
        with pytest.raises(DivergenceError) as info:
            minimize_auglag(prob, np.array([0.0]), divergence_cap=1e3)
        assert info.value.point.tolist() == [-1e3]

    def test_small_outer_budget_hits_the_iteration_limit(self, monkeypatch):
        monkeypatch.setattr(solvers, "MAX_OUTER", 1)
        res = minimize_auglag(sum_to_one, np.array([3.0, -1.0]))
        # one subproblem at rho = 10 stops at x1 = x2 = 10/22
        assert res.outcome == "iteration_limit" and res.outer_iterations == 1
        assert res.violation == pytest.approx(1.0 / 11.0)

    def test_overflow_is_a_typed_error(self):
        # 10^400 overflows; in the table the inf meets the zero coefficients
        # of the other monomial, so the value and the derivative are NaN
        prob = Problem(1, (parse("x1^400", 1),))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError, match="not finite"):
            minimize_auglag(prob, np.array([10.0]))

    def test_needs_one_objective(self):
        prob = Problem(1, (parse("x1", 1), parse("x1^2", 1)))
        with pytest.raises(ValueError, match="one objective"):
            minimize_auglag(prob, np.zeros(1))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 3),
           st.integers(0, 3), st.integers(0, 3))
    def test_augmented_terms_are_the_textbook_phr(self, seed, k, p, l, m):
        # k lanes of random values, Jacobians, weights, multipliers y and
        # nu >= 0 and penalties rho; the inequality values straddle nu / rho,
        # so both sides of the clipping at 0 occur
        rng = np.random.default_rng(seed)
        n = 3
        F, G, H = (rng.standard_normal((k, c)) for c in (p, l, m))
        J = rng.standard_normal((k, p + l + m, n))
        w = rng.dirichlet(np.ones(p), size=k)
        y, nu = rng.standard_normal((k, l)), rng.exponential(size=(k, m))
        rho = 10.0 ** rng.uniform(0, 3, (k, 1))
        V = np.hstack([F, G, H, J.reshape(k, -1)])
        mu = np.hstack([-w, y, nu])
        penalty = np.hstack([np.zeros((k, p)), np.repeat(rho, l + m, axis=1)])
        cap = np.hstack([np.full((k, p + l), np.inf), nu / rho])
        high = np.r_[np.full(p + l, np.inf), np.zeros(m)]
        val, grad = solvers._augmented(V, mu, penalty, cap, high)
        for i in range(k):
            r = rho[i, 0]
            shifted = np.maximum(0.0, nu[i] - r * H[i])
            want = (w[i] @ F[i] - y[i] @ G[i] + 0.5 * r * G[i] @ G[i]
                    + (shifted @ shifted - nu[i] @ nu[i]) / (2.0 * r))
            want_grad = (w[i] @ J[i, :p] + (r * G[i] - y[i]) @ J[i, p:p + l]
                         - shifted @ J[i, p + l:])
            scale = 1.0 + np.abs(V[i]).max() * (1.0 + np.abs(mu[i]).max() + r) ** 2
            assert val[i] == pytest.approx(want, abs=1e-12 * scale)
            np.testing.assert_allclose(grad[i], want_grad, rtol=0, atol=1e-12 * scale)

    def test_empty_box_is_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            minimize_auglag(sum_to_one, np.zeros(2), divergence_cap=-1.0)


def smooth_objective(rng, n):
    """A shifted convex quadratic plus quartic terms and a linear tilt, and a
    penalty-like quartic w (|x - c|^2 - 1)^2 whose weight, up to 1e12 as in
    the augmented Lagrangian's, makes line searches long."""
    A = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-1, 1)
    c = rng.standard_normal(n) * 3.0
    q = rng.uniform(0.01, 1.0, n)
    b = rng.standard_normal(n)
    w = 10.0 ** rng.uniform(0, 12)

    def fun(x):
        d = x - c
        Ad = A @ d
        s = float(d @ d) - 1.0
        return 0.5 * float(Ad @ Ad) + float(q @ d ** 4) + float(b @ x) + w * s * s, \
            A.T @ Ad + 4.0 * q * d ** 3 + b + 4.0 * w * s * d
    return fun


def drive(steps, fun):
    """Send the generator `_lbfgsb` fun's (value, gradient) at each point it
    yields; return the final x it returns."""
    x = next(steps)
    try:
        while True:
            x = steps.send(fun(x))
    except StopIteration as stop:
        return stop.value


def assert_lbfgsb_parity(seed, n, cap, maxiter):
    """`_lbfgsb` and scipy's L-BFGS-B take the same iterates, evaluate the
    same points and end at the same x, bitwise."""
    rng = np.random.default_rng(seed)
    fun = smooth_objective(rng, n)
    x0 = rng.standard_normal(n) * 4.0
    ours, theirs = [], []
    x = drive(solvers._lbfgsb(x0, cap, maxiter), lambda v: ours.append(v) or fun(v))
    res = minimize(lambda v: theirs.append(v) or fun(v), x0, jac=True,
                   method="L-BFGS-B",
                   bounds=[(-cap, cap)] * n if np.isfinite(cap) else None,
                   options={"maxiter": maxiter, "ftol": 1e-16, "gtol": 1e-12})
    assert np.array_equal(x, res.x)
    assert len(ours) == len(theirs)
    assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))


class TestLbfgsbParity:
    """`_lbfgsb` calls scipy's private compiled step; it must give scipy's
    L-BFGS-B bitwise, so a scipy release that changes `setulb` fails here."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5),
           st.sampled_from([np.inf, 0.5, 3.0]), st.sampled_from([1, 2, 5, 300]))
    @example(0, 2, np.inf, 300)     # needs more than 10 line-search steps
    @example(9, 2, 3.0, 300)        # ends in a failed line search
    def test_same_iterates_and_evaluations_as_scipy(self, seed, n, cap, maxiter):
        assert_lbfgsb_parity(seed, n, cap, maxiter)


# run in a fresh interpreter: vpa loads its two scipy kernels from their
# files, so importing it leaves scipy.optimize unimported; either import
# order then gives scipy's own L-BFGS-B and vpa's the same iterates
FRESH_IMPORT = """
import sys
order = sys.argv[1]
if order == "scipy-first":
    import scipy.optimize
import vpa.cli
if order == "vpa-first":
    assert "scipy.optimize" not in sys.modules, sorted(sys.modules)
    import scipy.optimize
assert scipy.optimize._lbfgsb is sys.modules["scipy.optimize._lbfgsb"]
import numpy as np
from test_solvers import assert_lbfgsb_parity
assert_lbfgsb_parity(0, 2, np.inf, 300)
"""


def test_missing_kernel_file_names_the_file_and_the_scipy_version():
    with pytest.raises(ImportError) as info:
        solvers._load_kernel("_no_such_kernel")
    message = str(info.value)
    assert "_no_such_kernel" + importlib.machinery.EXTENSION_SUFFIXES[0] in message
    assert f"scipy {scipy.__version__}" in message and "scipy >= 1.17" in message


@pytest.mark.parametrize("order", ["vpa-first", "scipy-first"])
def test_fresh_import_leaves_scipy_optimize_out(order):
    path = [pathlib.Path(vpa.__file__).parents[1], pathlib.Path(__file__).parent]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, path))}
    subprocess.run([sys.executable, "-c", FRESH_IMPORT, order], env=env, check=True,
                   timeout=120)

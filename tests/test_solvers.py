import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vpa import solvers
from vpa.errors import KernelError
from vpa.solvers import min_norm_simplex_cone


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
        def stalled(A, b, *, maxiter=None):
            raise RuntimeError("Maximum number of iterations reached.")
        monkeypatch.setattr(solvers, "nnls", stalled)
        with pytest.raises(KernelError):
            min_norm_simplex_cone(np.eye(2), 1)


class TestGaussNewton:
    def test_exact_zero_residual_makes_one_evaluation(self):
        # x + d == x from the first trial step on: raising the damping
        # cannot move x, so no trial point is evaluated
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

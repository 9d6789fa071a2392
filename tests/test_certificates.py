import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog
from test_polynomials import random_polynomial

from vpa import (DEFAULT_CONFIG, Polynomial, Problem, mfcq_probe, parse,
                 rabier_value, solvers, tangency_membership)
from vpa.errors import InfeasiblePointError, KernelError, NonFiniteError


def unconstrained(expr_list, n):
    return Problem(n=n, objectives=tuple(parse(e, n) for e in expr_list))


class TestRabierValue:
    @pytest.mark.parametrize("t", [1.0, 5.0, 100.0, -3.0])
    def test_degenerate_line_closed_form(self, degenerate_line, t):
        prob, _ = degenerate_line
        result = rabier_value(prob, [0.0, 0.0, t])
        assert result.value == pytest.approx(math.sqrt(2) / 2 * abs(t), rel=1e-6)

    def test_single_objective_gradient_norm(self):
        prob = unconstrained(["x1"], 3)
        result = rabier_value(prob, [4.0, -1.0, 2.0])
        assert result.value == 1.0
        assert result.minimizer.tau == (1.0,)

    def test_vanishing_gradients_give_zero(self, motzkin):
        prob, _ = motzkin
        assert rabier_value(prob, [1.0, 1.0]).value <= 1e-9

    def test_p_equals_one_unconstrained_is_exact(self):
        prob = unconstrained(["x1^2 + x2^2"], 2)
        x = [0.7, -1.2]
        expected = float(np.linalg.norm(prob.jac_f(x)[0]))
        assert rabier_value(prob, x).value == expected

    def test_infeasible_point_rejected(self, motzkin):
        prob, _ = motzkin
        with pytest.raises(InfeasiblePointError):
            rabier_value(prob, [-1.0, 1.0])

    def test_value_is_nonnegative_and_matches_minimizer(self, hyperbola):
        prob, _ = hyperbola
        for x in ([2.0, 0.5, -1.0], [10.0, 0.1, 0.3], [0.0, 0.0, 5.0]):
            result = rabier_value(prob, x)
            assert result.value >= 0.0
            tau, lam, nu, mu = result.minimizer.as_arrays()
            assert mu == 0.0
            assert np.sum(tau) == pytest.approx(1.0, abs=1e-9)
            assert np.all(tau >= -1e-12) and np.all(nu >= -1e-12)
            residual = tau @ prob.jac_f(x) - nu @ prob.jac_h(x)
            assert np.linalg.norm(residual) == pytest.approx(result.value,
                                                             rel=1e-6, abs=1e-9)

    def test_complementarity_of_minimizer(self, hyperbola):
        prob, _ = hyperbola
        result = rabier_value(prob, [3.0, 2.0, 0.0])   # both h strictly positive
        assert result.minimizer.nu == (0.0, 0.0)

    def test_invariant_under_objective_permutation(self, hyperbola):
        prob, _ = hyperbola
        flipped = Problem(n=3, objectives=prob.objectives[::-1],
                          inequalities=prob.inequalities)
        for x in ([5.0, 0.2, -1.0], [1.0, 1.0, 1.0]):
            assert rabier_value(prob, x).value == pytest.approx(
                rabier_value(flipped, x).value, rel=1e-6, abs=1e-10)

    def test_invariant_under_constraint_permutation(self, hyperbola):
        prob, _ = hyperbola
        flipped = Problem(n=3, objectives=prob.objectives,
                          inequalities=prob.inequalities[::-1])
        x = [0.0, 0.5, -2.0]
        assert rabier_value(prob, x).value == pytest.approx(
            rabier_value(flipped, x).value, rel=1e-6, abs=1e-10)


class TestTangencyMembership:
    def test_degenerate_line_is_all_tangent(self, degenerate_line):
        prob, _ = degenerate_line
        result = tangency_membership(prob, [0.0, 0.0, 7.0])
        assert result.is_member
        assert result.witness is not None

    def test_critical_point_is_member(self):
        prob = unconstrained(["x1^2"], 4)
        result = tangency_membership(prob, [0.0, 0.0, 0.0, 0.0])
        assert result.is_member and result.residual <= 1e-12

    def test_off_axis_linear_objective_is_not_member(self):
        # projecting out x = e2 leaves tau e1 with tau = 1: residual 1
        prob = unconstrained(["x1"], 3)
        result = tangency_membership(prob, [0.0, 1.0, 0.0])
        assert not result.is_member
        assert result.residual == pytest.approx(1.0, rel=1e-6)

    def test_gradient_parallel_to_point_is_member(self):
        prob = unconstrained(["x1^2 + x2^2"], 2)
        result = tangency_membership(prob, [3.0, 4.0])
        assert result.is_member   # gradient 2x is parallel to x

    def test_witness_satisfies_complementarity(self, hyperbola):
        prob, _ = hyperbola
        result = tangency_membership(prob, [2.0, 0.0, -1.0])
        if result.is_member:
            nu = result.witness.nu
            hv = prob.h([2.0, 0.0, -1.0])
            for j, val in enumerate(hv):
                if abs(val) > DEFAULT_CONFIG.tol_active:
                    assert nu[j] == 0.0

    def test_more_free_multipliers_than_dimensions_is_member(self):
        # [G x] has more columns than rows, so (lam, mu) alone balance
        prob = Problem(n=1, objectives=(parse("x1", 1),),
                       equalities=(parse("x1 - 2", 1),))
        result = tangency_membership(prob, [2.0])
        assert result.is_member and result.residual <= 1e-12
        assert result.tau_weight == 0.0

    def test_motzkin_interior_point_is_member(self, motzkin):
        # the objective gradients projected onto x-perp have opposite signs
        # here, so an exact balancing combination exists
        prob, _ = motzkin
        assert tangency_membership(prob, [6.63, 7.49]).is_member

    @given(st.integers(0, 2 ** 32 - 1))
    def test_planar_matches_projected_gradient_signs(self, seed):
        # unconstrained in the plane, x is a member iff some tau >= 0, tau != 0
        # puts F tau on the line through x: iff the objective gradients
        # projected onto x-perp have opposite signs
        rng = np.random.default_rng(seed)
        prob = Problem(n=2, objectives=(random_polynomial(rng, 2),
                                        random_polynomial(rng, 2)))
        x = rng.uniform(-2.0, 2.0, size=2)
        if np.linalg.norm(x) < 0.1:
            return
        perp = np.array([-x[1], x[0]]) / np.linalg.norm(x)
        cosines = [float(grad @ perp) / max(float(np.linalg.norm(grad)), 1e-300)
                   for grad in prob.jac_f(x)]
        if abs(cosines[0] * cosines[1]) <= 1e-4:
            return
        assert tangency_membership(prob, x).is_member == (cosines[0] * cosines[1] < 0)

    @pytest.mark.parametrize("fixture, x", [
        ("degenerate_line", [0.0, 0.0, 7.0]),
        ("motzkin", [0.5, 2.0]),
        ("motzkin", [6.63, 7.49]),
    ])
    def test_witness_balances(self, request, fixture, x):
        prob, _ = request.getfixturevalue(fixture)
        result = tangency_membership(prob, x)
        assert result.is_member
        tau, lam, nu, mu = result.witness.as_arrays()
        x = np.array(x)
        balance = (tau @ prob.jac_f(x) - lam @ prob.jac_g(x)
                   - nu @ prob.jac_h(x) - mu * x)
        columns = np.vstack([prob.jac_f(x), prob.jac_g(x), prob.jac_h(x), x])
        scale = float(np.max(np.linalg.norm(columns, axis=1)))
        assert np.linalg.norm(balance) <= DEFAULT_CONFIG.tol_membership * scale


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
class TestNonFiniteData:
    # x1^400 overflows at 10, and the overflow reaches every value
    prob = Problem(n=1, objectives=(parse("x1^400", 1), parse("x1", 1)))

    @pytest.mark.parametrize("certificate",
                             [rabier_value, tangency_membership, mfcq_probe])
    def test_certificates_reject_overflow(self, certificate):
        with pytest.raises(NonFiniteError):
            certificate(self.prob, [10.0])


class TestKernelFailure:
    @pytest.mark.parametrize("certificate",
                             [rabier_value, tangency_membership, mfcq_probe])
    def test_iteration_limit_is_typed(self, monkeypatch, motzkin, certificate):
        # at (0, 3) every certificate reaches the kernel (one active inequality)
        def stalled(A, b, maxiter):
            return np.zeros(A.shape[1]), 0.0, 3     # info 3: iteration limit
        monkeypatch.setattr(solvers, "_nnls", stalled)
        prob, _ = motzkin
        with pytest.raises(KernelError):
            certificate(prob, [0.0, 3.0])


class TestMfcqProbe:
    @pytest.mark.parametrize("t", [10.0, 100.0, -4.0])
    def test_degenerate_equalities_fail(self, degenerate_line, t):
        prob, _ = degenerate_line
        report = mfcq_probe(prob, [0.0, 0.0, t])
        assert not report.holds
        assert report.gradient_rank < prob.l

    def test_orthant_boundary_holds_with_unit_margin(self, motzkin):
        prob, _ = motzkin
        report = mfcq_probe(prob, [0.0, 3.0])
        assert report.holds
        assert report.active == (0,)
        assert report.margin == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(report.witness, [1.0, 0.0], atol=1e-9)

    def test_orthant_corner_holds(self, motzkin):
        # the nearest point of the segment e1--e2 is (1, 1)/2
        prob, _ = motzkin
        report = mfcq_probe(prob, [0.0, 0.0])
        assert report.holds and set(report.active) == {0, 1}
        assert report.margin == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert np.allclose(report.witness, np.array([1.0, 1.0]) / math.sqrt(2),
                           atol=1e-12)

    def test_equality_row_space_is_projected_out(self):
        # projected off span(e3), the gradients (1, 0, 1) and (0, 2, 0) are
        # e1 and 2 e2, whose segment's nearest point is (4, 2, 0)/5
        prob = Problem(n=3, objectives=(parse("x1", 3),),
                       equalities=(parse("x3", 3),),
                       inequalities=(parse("x1 + x3", 3), parse("2*x2", 3)))
        report = mfcq_probe(prob, [0.0, 0.0, 0.0])
        assert report.holds and report.gradient_rank == 1
        assert report.active == (0, 1)
        assert report.margin == pytest.approx(2 / math.sqrt(5), abs=1e-12)
        assert np.allclose(report.witness, np.array([2.0, 1.0, 0.0]) / math.sqrt(5),
                           atol=1e-12)

    def test_opposing_gradients_fail(self):
        # gradients e1 and -e1: their hull holds the origin, so no direction
        # raises both; the kernel's |w| is rounding-level, not exactly 0
        prob = Problem(n=2, objectives=(parse("x2", 2),),
                       inequalities=(parse("x1", 2), parse("x2^2 - x1", 2)))
        report = mfcq_probe(prob, [0.0, 0.0])
        assert not report.holds
        assert report.active == (0, 1) and report.gradient_rank == 0
        assert report.witness is None
        assert report.margin <= DEFAULT_CONFIG.tol_margin

    def test_unconstrained_holds_vacuously(self):
        prob = unconstrained(["x1"], 2)
        report = mfcq_probe(prob, [5.0, -1.0])
        assert report.holds
        assert report.gradient_rank == 0
        assert report.margin == math.inf

    def test_verdict_invariant_under_positive_rescaling(self, motzkin):
        prob, _ = motzkin
        scaled = Problem(n=2, objectives=prob.objectives,
                         inequalities=tuple(7.0 * h for h in prob.inequalities))
        for x in ([0.0, 3.0], [0.0, 0.0], [2.0, 0.0]):
            assert mfcq_probe(prob, x).holds == mfcq_probe(scaled, x).holds

    def test_interior_with_equality(self):
        prob = Problem(n=2, objectives=(parse("x1", 2),),
                       equalities=(parse("x1 + x2 - 1", 2),))
        report = mfcq_probe(prob, [0.5, 0.5])
        assert report.holds and report.gradient_rank == 1

    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_box_margin_linear_program(self, seed):
        # linear constraints through the origin, every inequality active
        # there. The box LP max s: Jg v = 0, Jh v >= s, |v|_inf <= 1 is an
        # independent reference: a unit vector lies in the box and a box
        # vector has norm <= sqrt(n), so |w| <= s* <= sqrt(n) |w|
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        l, k = int(rng.integers(0, n)), int(rng.integers(1, n + 3))
        Jg = rng.integers(-3, 4, size=(l, n)).astype(float)
        Jh = rng.integers(-3, 4, size=(k, n)).astype(float)
        if l and np.linalg.matrix_rank(Jg) < l:
            return

        def linear(row):
            return Polynomial(n, {tuple(int(i == j) for i in range(n)): c
                                  for j, c in enumerate(row)})

        prob = Problem(n=n, objectives=(parse("x1", n),),
                       equalities=tuple(linear(row) for row in Jg),
                       inequalities=tuple(linear(row) for row in Jh))
        report = mfcq_probe(prob, np.zeros(n))
        assert report.gradient_rank == l and report.active == tuple(range(k))

        lp = linprog(np.r_[np.zeros(n), -1.0],
                     A_ub=np.hstack([-Jh, np.ones((k, 1))]), b_ub=np.zeros(k),
                     A_eq=np.hstack([Jg, np.zeros((l, 1))]) if l else None,
                     b_eq=np.zeros(l) if l else None,
                     bounds=[(-1.0, 1.0)] * n + [(None, None)], method="highs")
        assert lp.success
        s_star, tol = float(-lp.fun), DEFAULT_CONFIG.tol_margin
        assert s_star / math.sqrt(n) - 1e-9 <= report.margin <= s_star + 1e-9
        if not tol < s_star <= math.sqrt(n) * tol:
            assert report.holds == (s_star > tol)
        if report.holds:
            v = np.array(report.witness)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(Jg @ v) <= 1e-9
            assert np.all(Jh @ v >= report.margin - 1e-9)

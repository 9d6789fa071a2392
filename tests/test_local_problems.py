"""Each local solve is a one-objective `Problem` built from term maps. Its
blocks are checked against the closed forms they stand for, computed from
the parent problem's `evaluate`, and the KKT polish's Lagrangian Hessian
against SymPy."""

import json
import math
import pathlib

import numpy as np
import pytest
import sympy

from vpa import Problem, asymptotics, load_problem, pareto, parse, solvers
from vpa.config import DEFAULT_CONFIG
from vpa.errors import ExpansionError
from vpa.polynomials import Polynomial, _combine

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"
FIXTURES = ("motzkin", "hyperbola", "degenerate_line")
RADII = (1.0, 10.0, 1e3, 1e5)


class Captured(Exception):
    pass


def fixture(name):
    """The problem and a reference value with every cut finite: the
    fixture's ybar with +inf entries set to 0."""
    prob, ybar = load_problem(PROBLEMS / f"{name}.json")
    return prob, tuple(y if math.isfinite(y) else 0.0 for y in ybar)


def points(n, seed):
    """Seeded points on the spheres of RADII."""
    rng = np.random.default_rng([seed, n])
    for r in RADII:
        v = rng.standard_normal(n)
        yield r, r * v / np.linalg.norm(v)


def solver_problem(monkeypatch, module, call) -> Problem:
    """The Problem that `call` hands to minimize_auglag."""
    def stop(local, x0, **options):
        raise Captured(local)
    monkeypatch.setattr(module, "minimize_auglag", stop)
    with pytest.raises(Captured) as info:
        call()
    local = info.value.args[0]
    assert type(local) is Problem
    assert local.p == 1
    return local


def assert_blocks(local, z, expected):
    """Each block of local.evaluate(z) against the expected one, to 1e-12
    relative to the block's largest entry (at least 1)."""
    assert_each_block(local.evaluate(z), expected)


def assert_each_block(blocks, expected):
    for got, want in zip(blocks, expected, strict=True):
        want = np.asarray(want, dtype=float).reshape(np.shape(got))
        scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def sphere_blocks(prob, r, weights, ybar, x, scale):
    """The sphere subproblem's closed form: the weighted objective over
    `scale`, g and the sphere row (|x|^2 - r^2)/(2r^2), h and the cuts."""
    fv, gv, hv, Jf, Jg, Jh = prob.evaluate(x)
    k = [k for k, y in enumerate(ybar) if math.isfinite(y)]
    cuts = np.array(ybar)[k] - fv[k]
    return ([weights @ fv / scale], np.r_[gv, (x @ x - r * r) / (2 * r * r)],
            np.r_[hv, cuts], [weights @ Jf / scale], np.vstack([Jg, x / (r * r)]),
            np.vstack([Jh, -Jf[k]]))


def kkt_problem(monkeypatch, prob, r, weights, ybar, x0):
    """The first local Problem of `_kkt_polish` with every row active, and
    the Newton residual and Jacobian built on it."""
    made = []
    build = Problem.local.__func__

    def local(cls, *rows):
        made.append(build(cls, *rows))
        return made[-1]

    def stop(residual, jacobian, z0):
        raise Captured(residual, jacobian)
    monkeypatch.setattr(Problem, "local", classmethod(local))
    monkeypatch.setattr(asymptotics, "_newton_stall", stop)
    with pytest.raises(Captured) as info:
        asymptotics._kkt_polish(prob, r, weights, ybar, x0, active_from=-np.ones(prob.n))
    assert len(made) == 1 and made[0].m == 0
    return made[0], *info.value.args


@pytest.mark.parametrize("name", FIXTURES)
class TestLocalBlocks:
    def test_scalarized(self, monkeypatch, name):
        # a scalarized lane runs on prob's own table and weights its
        # objective rows
        prob, _ = fixture(name)
        weights = np.random.default_rng(1).dirichlet(np.ones(prob.p))

        def stop(product, starts, sizes, weights, **options):
            raise Captured(product, sizes, weights)
        monkeypatch.setattr(pareto, "_auglag_lanes", stop)
        with pytest.raises(Captured) as info:
            pareto.solve_scalarized(prob, weights, np.ones(prob.n))
        product, sizes, lane_weights = info.value.args
        assert product.__func__ is Problem._evaluate_batch and product.__self__ is prob
        assert sizes == (prob.p, prob.l, prob.m)
        for _, x in points(prob.n, 1):
            fv, gv, hv, Jf, Jg, Jh = prob.evaluate(x)
            assert_each_block(solvers._lane_point(product(x[None])[0], lane_weights[0], sizes),
                              (weights @ fv, gv, hv, weights @ Jf, Jg, Jh))

    def test_section_epigraph(self, monkeypatch, name):
        prob, ybar = fixture(name)
        n, k = prob.n, list(range(prob.p))
        local = solver_problem(monkeypatch, pareto, lambda: pareto._section_descent(
            prob, ybar, np.ones(n)))
        assert local.n == n + 1
        lift = lambda J: np.hstack([J, np.zeros((len(J), 1))])
        for r, x in points(n, 2):
            t = -0.3 * r
            fv, gv, hv, Jf, Jg, Jh = prob.evaluate(x)
            cuts = t + np.array(ybar) - fv
            assert_blocks(local, np.r_[x, t], (
                [t], gv, np.r_[hv, cuts], [np.eye(n + 1)[n]], lift(Jg),
                np.vstack([lift(Jh), np.hstack([-Jf[k], np.ones((len(k), 1))])])))

    def test_ybar_membership(self, monkeypatch, name):
        prob, ybar = fixture(name)
        local = solver_problem(monkeypatch, pareto, lambda: pareto._verify_ybar_membership(
            prob, ybar, DEFAULT_CONFIG))
        for _, x in points(prob.n, 3):
            fv, gv, hv, Jf, Jg, Jh = prob.evaluate(x)
            d = fv - np.array(ybar)
            assert_blocks(local, x, ([d @ d], gv, hv, [2.0 * d @ Jf], Jg, Jh))

    def test_sphere_subproblem(self, monkeypatch, name):
        prob, ybar = fixture(name)
        weights = np.random.default_rng(4).dirichlet(np.ones(prob.p))
        for r, start in points(prob.n, 4):
            local = solver_problem(
                monkeypatch, asymptotics, lambda: asymptotics._sphere_subproblem(
                    prob, r, weights, ybar, start))
            scale = 1.0 + np.max(np.abs(weights @ prob.jac_f(start)))
            for _, x in points(prob.n, 5):
                x = r * x / np.linalg.norm(x)      # on this subproblem's sphere
                assert_blocks(local, x, sphere_blocks(prob, r, weights, ybar, x, scale))

    def test_kkt_polish(self, monkeypatch, name):
        # cuts far below f and h < 0 at the probe: every row is active
        prob, _ = fixture(name)
        ybar = (-1e9,) * prob.p
        weights = np.random.default_rng(6).dirichlet(np.ones(prob.p))
        for r, x0 in points(prob.n, 6):
            local = kkt_problem(monkeypatch, prob, r, weights, ybar, x0)[0]
            fv, gv, hv, Jf, Jg, Jh = sphere_blocks(
                prob, r, weights, ybar, x0, 1.0 + np.max(np.abs(weights @ prob.jac_f(x0))))
            assert_blocks(local, x0, (fv, np.r_[gv, hv], [], Jf, np.vstack([Jg, Jh]),
                                      np.zeros((0, prob.n))))


@pytest.mark.parametrize("name", FIXTURES)
def test_kkt_lagrangian_hessian_matches_sympy(monkeypatch, name):
    prob, _ = fixture(name)
    ybar = (-1e9,) * prob.p
    data = json.loads((PROBLEMS / f"{name}.json").read_text())
    symbols = sympy.symbols(f"x1:{prob.n + 1}")
    exprs = {key: [sympy.sympify(text.replace("^", "**")) for text in data.get(key, [])]
             for key in ("objectives", "equalities", "inequalities")}
    rng = np.random.default_rng(7)
    weights = rng.dirichlet(np.ones(prob.p))
    for r, x0 in list(points(prob.n, 7))[:2]:
        local, residual, jacobian = kkt_problem(monkeypatch, prob, r, weights, ybar, x0)
        n, k = prob.n, local.l
        lam = rng.standard_normal(k)
        x = x0 * (1.0 + 1e-3 * rng.standard_normal(prob.n))
        z = np.r_[x, lam]
        J = jacobian(z, residual(z)[1])
        scale = 1.0 + float(np.max(np.abs(weights @ prob.jac_f(x0))))
        # the rows in the polish's order: g, the sphere, h, the cuts
        q = lambda v: sympy.Rational(float(v))
        R = q(r)
        rows = [*exprs["equalities"],
                (sum(s ** 2 for s in symbols) - R ** 2) / (2 * R ** 2),
                *exprs["inequalities"], *(q(y) - f for y, f in zip(ybar, exprs["objectives"]))]
        assert len(rows) == k
        lagrangian = (sum(q(w) * f for w, f in zip(weights, exprs["objectives"])) / q(scale)
                      - sum(q(l) * c for l, c in zip(lam, rows)))
        at = dict(zip(symbols, map(q, x)))
        exact = np.array(sympy.hessian(lagrangian, symbols).subs(at), dtype=float)
        magnitude = 1.0 + float(np.max(np.abs(exact)))
        np.testing.assert_allclose(J[:n, :n], exact, rtol=0, atol=1e-12 * magnitude)
        Hf, Hg, _ = local.hessians(x)
        np.testing.assert_array_equal(J[:n, :n], Hf[0] - np.tensordot(lam, Hg, axes=1))


class TestRawRows:
    def test_membership_squares_an_objective_past_the_degree_limit(self):
        # the square has degree 1200, above MAX_DEGREE, which parse and
        # Polynomial's operators refuse
        prob = Problem(1, (parse("x1^600", 1),))
        assert pareto._verify_ybar_membership(prob, (1.0,), DEFAULT_CONFIG) == "verified"
        with pytest.raises(ExpansionError):
            prob.objectives[0] * prob.objectives[0]

    def test_tiny_weighted_objective_keeps_every_term(self, motzkin):
        prob, _ = motzkin
        weights = 1e-30 * np.array([0.25, 0.75])
        objective = _combine(zip(weights, prob.maps[0]))
        local = Problem.local(prob.n, objective)
        assert set(local.maps[0][0]) == set(prob.maps[0][0]) | set(prob.maps[0][1])
        # Polynomial's constructor drops every one of these coefficients
        assert len(Polynomial(prob.n, objective)) == 0
        for _, x in points(prob.n, 8):
            assert local.f(x)[0] == pytest.approx(weights @ prob.f(x), rel=1e-12)
            np.testing.assert_allclose(local.jac_f(x)[0], weights @ prob.jac_f(x),
                                       rtol=1e-12)

    def test_sphere_row_far_out_keeps_its_coefficients(self, hyperbola):
        # 1/(2 r^2) = 5e-17 at r = 1e8, below COEFF_EPS
        prob, ybar = hyperbola
        r = 1e8
        _, sphere, _ = asymptotics._sphere_rows(prob, r, np.array([0.5, 0.5]), ybar,
                                                np.ones(3))
        local = Problem.local(prob.n, {(0, 0, 0): 0.0}, [sphere])
        x = np.array([0.6, 0.0, 0.8]) * r * (1.0 + 1e-6)
        _, g, _, _, Jg, _ = local.evaluate(x)
        assert g[0] == pytest.approx((x @ x - r * r) / (2 * r * r), rel=1e-9)
        np.testing.assert_allclose(Jg[0], x / (r * r), rtol=1e-15)

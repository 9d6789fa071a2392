import json
import math
import pathlib

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from test_polynomials import random_polynomial

from vpa import (DEFAULT_CONFIG, Problem, check_feasible, load_problem,
                 parse, problem_from_dict, project_to_sphere_slice,
                 sample_feasible_ray)
from vpa.errors import (DimensionMismatchError, ParseError, ProblemValidationError,
                        ProjectionError, RayError)
from vpa.polynomials import MAX_VARS, Polynomial, _combine, _partial
from vpa.problem import _slice_ok, _table_product, parse_ybar, polish_to_slice

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"
FIXTURES = ("motzkin", "hyperbola", "degenerate_line")


# problem files that are input errors: the bytes and a part of the reason
MALFORMED = {
    "utf16-bom": (b'\xff\xfe{"n": 1, "objectives": ["x1"]}', "not UTF-8"),
    "objective-number": (b'{"n": 1, "objectives": [5]}', "expression strings"),
    "inequality-null": (b'{"n": 1, "objectives": ["x1"], "inequalities": [null]}',
                        "expression strings"),
    "ybar-number": (b'{"n": 1, "objectives": ["x1"], "ybar": 5}', "ybar must be a list"),
    "n-overflows": (b'{"n": 1e400, "objectives": ["x1"]}', "integer field 'n', got inf"),
    "n-boolean": (b'{"n": true, "objectives": ["x1"]}', "integer field 'n', got True"),
    "n-fraction": (b'{"n": 2.7, "objectives": ["x1"]}', "integer field 'n', got 2.7"),
    "n-string": (b'{"n": "2", "objectives": ["x1"]}', "integer field 'n', got '2'"),
    "n-above-limit": (json.dumps({"n": MAX_VARS + 1, "objectives": ["x1"]}).encode(),
                      f"more than {MAX_VARS} variables"),
    "n-too-long-for-int": (b'{"n": 1' + b"0" * 5000 + b', "objectives": ["x1"]}',
                           "invalid JSON"),
    "ybar-overflows": (b'{"n": 1, "objectives": ["x1"], "ybar": [1e999]}',
                       "overflows to infinity"),
    "ybar-integer-overflows": (b'{"n": 1, "objectives": ["x1"], "ybar": [1' + b"0" * 400
                               + b']}', "overflows to infinity"),
    "ybar-boolean": (b'{"n": 1, "objectives": ["x1"], "ybar": [true]}', "neither a number"),
    "nested-json": (b"[" * 100_000 + b"]" * 100_000, "invalid JSON"),
    "nested-parentheses": (json.dumps({"n": 1, "objectives": ["(" * 2000 + "x1" + ")" * 2000]})
                           .encode(), "nest too deeply"),
}


def empty_feasible_problem():
    # x1 = 0 together with x1 >= 1 is empty
    return Problem(n=2, objectives=(parse("x1", 2),),
                   equalities=(parse("x1", 2),),
                   inequalities=(parse("x1 - 1", 2),))


class TestProblemValidation:
    def test_objective_required(self):
        with pytest.raises(ProblemValidationError):
            Problem(n=1, objectives=())

    def test_num_vars_must_match(self):
        with pytest.raises(ProblemValidationError):
            Problem(n=2, objectives=(parse("x1", 1),))

    def test_counts(self, hyperbola):
        prob, _ = hyperbola
        assert (prob.n, prob.p, prob.l, prob.m) == (3, 2, 0, 2)


def magnitude(poly, x):
    """sum |c * x^e| over the terms: the scale of rounding in evaluate(x)."""
    absolute = Polynomial(poly.num_vars, {e: abs(c) for e, c in poly.terms.items()})
    return absolute.evaluate(np.abs(x))


class TestEvaluate:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 3),
           st.integers(0, 2), st.integers(0, 2))
    def test_matches_polynomial_evaluation(self, seed, n, p, l, m):
        rng = np.random.default_rng(seed)
        blocks = [tuple(random_polynomial(rng, n) for _ in range(k)) for k in (p, l, m)]
        prob = Problem(n, *blocks)
        x = rng.uniform(-2.0, 2.0, size=n)
        values = prob.evaluate(x)
        for block, polys in zip(values[:3], blocks):
            assert block.shape == (len(polys),)
            for value, poly in zip(block, polys):
                assert abs(value - poly.evaluate(x)) <= 1e-12 * magnitude(poly, x)
        for jac, polys in zip(values[3:], blocks):
            assert jac.shape == (len(polys), n)
            for row, poly in zip(jac, polys):
                for entry, partial in zip(row, poly.gradient()):
                    assert abs(entry - partial.evaluate(x)) <= 1e-12 * magnitude(partial, x)
        for got, method in zip(values, (prob.f, prob.g, prob.h,
                                        prob.jac_f, prob.jac_g, prob.jac_h)):
            assert np.array_equal(got, method(x))

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures_match_sympy(self, name):
        data = json.loads((PROBLEMS / f"{name}.json").read_text())
        prob, _ = problem_from_dict(data)
        symbols = sympy.symbols(f"x1:{prob.n + 1}")
        exprs = [sympy.expand(sympy.sympify(text.replace("^", "**")))
                 for key in ("objectives", "equalities", "inequalities")
                 for text in data.get(key, [])]
        rows = exprs + [sympy.diff(e, s) for e in exprs for s in symbols]
        # dyadic coordinates are exact in binary, so only the evaluation rounds
        for point in (("1/2", "3/4", "-5/4"), ("3", "-1/8", "7/16"), ("-9/4", "1", "0")):
            point = [sympy.Rational(c) for c in point[:prob.n]]
            expected = np.array([float(row.subs(dict(zip(symbols, point))))
                                 for row in rows])
            got = np.concatenate([block.ravel() for block in
                                  prob.evaluate([float(c) for c in point])])
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 3),
           st.integers(0, 2), st.integers(0, 2), st.integers(1, 20))
    def test_batched_product_rows_are_evaluate(self, seed, n, p, l, m, k):
        # the front's lanes rest on this: each row of the batched product is
        # evaluate's vector at that row's point, whatever the other rows
        rng = np.random.default_rng(seed)
        prob = Problem(n, *[tuple(random_polynomial(rng, n) for _ in range(c))
                            for c in (p, l, m)])
        X = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-1, 3, (k, 1))
        V = prob._evaluate_batch(X)
        assert V.shape == (k, (p + l + m) * (1 + n))
        for x, row in zip(X, V):
            single = np.concatenate([block.ravel() for block in prob.evaluate(x)])
            assert row.tobytes() == single.tobytes()
            assert prob._evaluate_batch(x[None])[0].tobytes() == single.tobytes()

    def test_empty_blocks(self):
        prob = Problem(2, (parse("x1*x2", 2),))
        f, g, h, Jf, Jg, Jh = prob.evaluate([2.0, 3.0])
        assert f.tolist() == [6.0] and Jf.tolist() == [[3.0, 2.0]]
        assert g.shape == h.shape == (0,)
        assert Jg.shape == Jh.shape == (0, 2)


def per_map_table(maps, n):
    """The table compiled map by map: row k holds maps[k], monomials in
    ascending lexicographic order, integer exponents."""
    monomials = sorted({exps for terms in maps for exps in terms})
    column = {exps: j for j, exps in enumerate(monomials)}
    coeffs = np.zeros((len(maps), len(monomials)))
    for row, terms in enumerate(maps):
        for exps, coeff in terms.items():
            coeffs[row, column[exps]] = coeff
    return np.array(monomials, dtype=np.int64).reshape(-1, n), coeffs


def assert_same_table(table, maps, n):
    exps, coeffs = table
    ref_exps, ref_coeffs = per_map_table(maps, n)
    assert exps.dtype == np.float64 and np.array_equal(exps, ref_exps)
    assert coeffs.shape == ref_coeffs.shape and coeffs.tobytes() == ref_coeffs.tobytes()


def assert_tables_are_per_map(prob):
    """Both tables, compiled from the rows' terms in one pass each, are the
    tables of the rows and of their `_partial` maps, bit for bit; and the
    float64 exponents give the bits the integer ones give."""
    rows = [a for block in prob.maps for a in block]
    n = prob.n
    assert_same_table((prob._exps, prob._coeffs),
                      rows + [_partial(a, i) for a in rows for i in range(n)], n)
    x = np.linspace(-1.7, 2.3, n)
    prob.hessians(x)
    assert_same_table(prob._second, [_partial(_partial(a, i), j) for a in rows
                                     for i in range(n) for j in range(n)], n)
    for exps, coeffs in ((prob._exps, prob._coeffs), prob._second):
        as_int = _table_product(exps.astype(np.int64), coeffs, x)
        assert _table_product(exps, coeffs, x).tobytes() == as_int.tobytes()


class TestTables:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, name):
        assert_tables_are_per_map(load_problem(PROBLEMS / f"{name}.json")[0])

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 3),
           st.integers(0, 2), st.integers(0, 2))
    def test_random_problems(self, seed, n, p, l, m):
        rng = np.random.default_rng(seed)
        assert_tables_are_per_map(Problem(n, *[tuple(random_polynomial(rng, n)
                                                     for _ in range(k)) for k in (p, l, m)]))

    def test_local_problem_keeps_raw_coefficients(self):
        # a raw combination keeps a coefficient that cancels to zero, and its
        # keys in the order they were first met
        a, b = parse("x1^2*x2 + x2^3", 2).terms, parse("x1^2*x2 - x1", 2).terms
        objective = _combine(((1.0, a), (-1.0, b)))
        assert 0.0 in objective.values()
        assert_tables_are_per_map(Problem.local(2, objective, [b], [a]))


def to_sympy(poly, symbols):
    """The polynomial with its float coefficients converted exactly."""
    return sum((sympy.Rational(c) * sympy.prod([s ** e for s, e in zip(symbols, exps)])
                for exps, c in poly.terms.items()), sympy.Integer(0))


class TestHessians:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 3),
           st.integers(0, 2), st.integers(0, 2))
    def test_match_sympy_and_reference(self, seed, n, p, l, m):
        rng = np.random.default_rng(seed)
        blocks = [tuple(random_polynomial(rng, n, max_terms=5) for _ in range(k))
                  for k in (p, l, m)]
        prob = Problem(n, *blocks)
        x = rng.uniform(-2.0, 2.0, size=n)
        symbols = sympy.symbols(f"x1:{n + 1}")
        point = dict(zip(symbols, map(sympy.Rational, x)))
        for hess, polys in zip(prob.hessians(x), blocks):
            assert hess.shape == (len(polys), n, n)
            for H, poly in zip(hess, polys):
                expr = to_sympy(poly, symbols)
                reference = poly.hessian_at(x)
                for i, row in enumerate(poly.gradient()):
                    for j, partial in enumerate(row.gradient()):
                        tol = 1e-12 * magnitude(partial, x)
                        exact = sympy.diff(expr, symbols[i], symbols[j]).subs(point)
                        assert abs(H[i, j] - float(exact)) <= tol
                        assert abs(H[i, j] - reference[i, j]) <= tol

    def test_fixture_shapes(self, degenerate_line, motzkin):
        prob, _ = degenerate_line
        assert [H.shape for H in prob.hessians([1.0, 2.0, 3.0])] == \
            [(2, 3, 3), (2, 3, 3), (1, 3, 3)]
        prob, _ = motzkin
        Hf, Hg, Hh = prob.hessians([1.0, 1.0])
        assert Hg.shape == (0, 2, 2) and Hh.shape == (2, 2, 2)
        # h = (x1, x2): linear, so its Hessians vanish
        assert not Hh.any()

    def test_dimension_mismatch(self, motzkin):
        prob, _ = motzkin
        with pytest.raises(DimensionMismatchError):
            prob.hessians([1.0])


class TestCheckFeasible:
    def test_degenerate_line_point(self, degenerate_line):
        prob, _ = degenerate_line
        report = check_feasible(prob, [0.0, 0.0, 9.0], 1e-8)
        assert report.feasible
        assert report.active == (0,)
        assert report.max_equality_violation == 0.0

    def test_interior_point_has_no_active_set(self, motzkin):
        prob, _ = motzkin
        report = check_feasible(prob, [1.0, 1.0])
        assert report.feasible and report.active == ()

    def test_violated_inequality(self, motzkin):
        prob, _ = motzkin
        report = check_feasible(prob, [-1.0, 0.0])
        assert not report.feasible
        assert report.max_inequality_violation == pytest.approx(1.0)
        # x2 = 0 is exactly active even though x1 is violated
        assert 1 in report.active

    def test_scale_consistency_at_exact_zero(self, motzkin):
        prob, _ = motzkin
        doubled = Problem(n=2, objectives=prob.objectives,
                          inequalities=tuple(2.0 * h for h in prob.inequalities))
        for x in ([0.0, 3.0], [1.0, 1.0], [-0.5, 2.0]):
            assert (check_feasible(prob, x).feasible
                    == check_feasible(doubled, x).feasible)

    def test_active_set_monotone_in_tolerance(self, motzkin):
        prob, _ = motzkin
        x = [1e-5, 2.0]
        small = set(check_feasible(prob, x, tol_active=1e-8).active)
        large = set(check_feasible(prob, x, tol_active=1e-3).active)
        assert small <= large
        assert 0 in large and 0 not in small

    def test_tolerance_must_be_positive(self, motzkin):
        prob, _ = motzkin
        with pytest.raises(ValueError):
            check_feasible(prob, [1.0, 1.0], tol_feas=0.0)


class TestProjection:
    def test_degenerate_slice_lands_on_axis(self, degenerate_line):
        prob, _ = degenerate_line
        x = project_to_sphere_slice(prob, 5.0, [0.1, 0.1, 4.0])
        assert abs(x[0]) < 1e-3 and abs(x[1]) < 1e-3
        assert abs(abs(x[2]) - 5.0) < 1e-6
        assert check_feasible(prob, x).feasible

    def test_pure_sphere_rescales_start(self):
        prob = Problem(n=3, objectives=(parse("x1", 3),))
        x = project_to_sphere_slice(prob, 2.0, [1.0, 0.0, 0.0])
        assert np.allclose(x, [2.0, 0.0, 0.0])

    def test_empty_slice_fails_with_residual(self):
        cfg = DEFAULT_CONFIG.replace(projection_restarts=2)
        with pytest.raises(ProjectionError) as err:
            project_to_sphere_slice(empty_feasible_problem(), 3.0,
                                    [1.0, 1.0], cfg)
        assert err.value.best_residual > 0

    def test_stagnating_projection_stops_early(self, monkeypatch, hyperbola):
        # the first projection of the hyperbola's MFCQ evidence: Gauss-Newton
        # stalls against the max(0, -h)^2 kink at residual 4.6, where all 200
        # iterations made 519 evaluations (accept's included); the stop on
        # phi falling by less than 0.1% over 10 accepted steps makes 149
        prob, _ = hyperbola
        calls = []

        def counted(self, x, _evaluate=Problem.evaluate):
            calls.append(1)
            return _evaluate(self, x)
        monkeypatch.setattr(Problem, "evaluate", counted)
        cfg = DEFAULT_CONFIG.replace(projection_restarts=0)
        x0 = [4.404883391016934, -8.97591288384077, 0.17317682652254446]
        with pytest.raises(ProjectionError) as err:
            project_to_sphere_slice(prob, 10.0, x0, cfg)
        assert err.value.best_residual > 1.0
        assert len(calls) <= 160

    def test_radius_must_be_positive(self, motzkin):
        prob, _ = motzkin
        with pytest.raises(ValueError):
            project_to_sphere_slice(prob, -1.0, [1.0, 1.0])

    def test_polish_stops_below_float_resolution(self, monkeypatch, hyperbola):
        # a projected point whose x1, x2 >= 0 rows are violated by 6e-15:
        # those rows' Jacobian vanishes there, so every damped step is about
        # 4e-17 against x3 = 10
        prob, _ = hyperbola
        calls = []

        def counted(self, x, _evaluate=Problem.evaluate):
            calls.append(1)
            return _evaluate(self, x)
        monkeypatch.setattr(Problem, "evaluate", counted)
        x = polish_to_slice(prob, [-5.8e-15, -5.8e-15, 10.0], 10.0)
        assert len(calls) <= 3
        assert x is not None and _slice_ok(prob, x, 10.0, DEFAULT_CONFIG)


class TestRays:
    def test_degenerate_line_ray(self, degenerate_line):
        prob, _ = degenerate_line
        ray = sample_feasible_ray(prob, [10.0, 100.0, 1000.0], seed=3)
        assert ray.radii == [10.0, 100.0, 1000.0]
        for r, x in ray.points:
            assert abs(x[0]) < 1e-3 and abs(x[1]) < 1e-3
            assert abs(abs(x[2]) - r) < 1e-5 * r

    def test_unconstrained_ray_hits_exact_norms(self):
        prob = Problem(n=4, objectives=(parse("x1", 4),))
        ray = sample_feasible_ray(prob, [2.0, 8.0, 32.0], seed=1)
        for r, x in ray.points:
            assert np.linalg.norm(x) == pytest.approx(r, rel=1e-8)

    def test_every_ray_point_is_feasible(self, hyperbola):
        prob, _ = hyperbola
        ray = sample_feasible_ray(prob, [10.0, 40.0, 160.0], seed=5)
        for _, x in ray.points:
            assert check_feasible(prob, x).feasible

    def test_empty_set_raises(self):
        cfg = DEFAULT_CONFIG.replace(projection_restarts=1)
        with pytest.raises(RayError, match="all radii failed"):
            sample_feasible_ray(empty_feasible_problem(), [1.0, 2.0], seed=1,
                                cfg=cfg)

    def test_radii_must_increase(self, motzkin):
        prob, _ = motzkin
        with pytest.raises(ValueError):
            sample_feasible_ray(prob, [10.0, 5.0], seed=1)


class TestProblemFiles:
    def test_fixture_round_trip(self, motzkin):
        prob, ybar = motzkin
        assert ybar == (0.0, 0.0)
        assert prob.f([1.0, 1.0]) == pytest.approx([0.0, 0.0])

    def test_infinite_ybar_tokens(self, degenerate_line):
        _, ybar = degenerate_line
        assert ybar == (math.inf, math.inf)

    def test_missing_n_rejected(self):
        with pytest.raises(ProblemValidationError, match="'n'"):
            problem_from_dict({"objectives": ["x1"]})

    def test_missing_objectives_rejected(self):
        with pytest.raises(ProblemValidationError, match="objectives"):
            problem_from_dict({"n": 2})

    def test_ybar_length_checked(self):
        with pytest.raises(ProblemValidationError, match="entries"):
            problem_from_dict({"n": 1, "objectives": ["x1"], "ybar": [1, 2]})

    def test_ybar_token_validation(self):
        with pytest.raises(ProblemValidationError, match="neither a number"):
            parse_ybar(["huge"], 1)
        assert parse_ybar(["+inf", "-3.5"], 2) == (math.inf, -3.5)
        assert parse_ybar("inf, +INF,1e300", 3) == (math.inf, math.inf, 1e300)
        assert parse_ybar(["Infinity", 5], 2) == (math.inf, 5.0)
        with pytest.raises(ProblemValidationError, match="overflows to infinity"):
            parse_ybar("1e999", 1)

    @pytest.mark.parametrize("entry", ["nan", "-inf", " -INF", math.nan,
                                       -math.inf, "NaN"])
    def test_ybar_refuses_nan_and_minus_inf(self, entry):
        with pytest.raises(ProblemValidationError, match="NaN or -inf"):
            parse_ybar([1.0, entry], 2)

    def test_problem_file_nan_ybar_refused(self, tmp_path):
        path = tmp_path / "nan.json"
        # the json module writes and reads NaN, which standard JSON lacks
        path.write_text('{"n": 1, "objectives": ["x1"], "ybar": [NaN]}')
        with pytest.raises(ProblemValidationError, match="NaN or -inf"):
            load_problem(path)

    def test_the_variable_limit_is_accepted(self):
        prob, _ = problem_from_dict({"n": MAX_VARS, "objectives": [f"x{MAX_VARS}"]})
        assert prob.n == MAX_VARS

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_file_refused(self, tmp_path, name):
        content, reason = MALFORMED[name]
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        # the two input errors the command line reports
        with pytest.raises((ProblemValidationError, ParseError), match=reason):
            load_problem(path)

    def test_bad_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ProblemValidationError, match="invalid JSON"):
            load_problem(path)

import pathlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpa import load_problem, polynomials
from vpa.errors import DimensionMismatchError, ExpansionError, ParseError
from vpa.polynomials import Polynomial, parse

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"

MOTZKIN = "x1^2*x2^4 + x1^4*x2^2 - 3*x1^2*x2^2 + 1"


class TestParse:
    def test_motzkin_has_four_terms(self):
        p = parse(MOTZKIN, 2)
        assert len(p) == 4
        assert p.terms == {(0, 0): 1.0, (2, 2): -3.0, (2, 4): 1.0, (4, 2): 1.0}

    def test_zero_coefficient_terms_are_dropped(self):
        p = parse("0*x1 + 5", 1)
        assert p.terms == {(0,): 5.0}

    def test_binomial_square_expands(self):
        p = parse("(x1 - 1)^2", 1)
        assert p.terms == {(0,): 1.0, (1,): -2.0, (2,): 1.0}

    def test_unary_minus_binds_below_power(self):
        assert parse("-x1^2", 1).terms == {(2,): -1.0}

    def test_nested_parentheses(self):
        p = parse("((x1 + 1) * (x1 - 1))^2", 1)
        # (x1^2 - 1)^2
        assert p.terms == {(0,): 1.0, (2,): -2.0, (4,): 1.0}

    def test_decimal_coefficients(self):
        assert parse("0.5*x1 + 1.25", 1).terms == {(0,): 1.25, (1,): 0.5}

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + * x2", 2)
        assert err.value.position == 5

    def test_variable_index_out_of_range(self):
        with pytest.raises(ParseError, match="exceeds num_vars"):
            parse("x3 + 1", 2)

    def test_variable_index_zero_rejected(self):
        with pytest.raises(ParseError, match="x1..xn"):
            parse("x0", 2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse("x1^-2", 1)

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError, match="fractional exponent"):
            parse("x1^2.5", 1)

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse("2x1", 1)
        with pytest.raises(ParseError):
            parse("(x1)(x2)", 2)

    def test_empty_expression_rejected(self):
        with pytest.raises(ParseError, match="empty"):
            parse("   ", 1)


class TestExpansionLimit:
    def test_huge_power_is_rejected_before_expanding(self, monkeypatch):
        products = []
        multiply = Polynomial.__mul__
        monkeypatch.setattr(Polynomial, "__mul__",
                            lambda a, b: products.append(1) or multiply(a, b))
        text = "(" + "+".join(f"x{i}" for i in range(1, 11)) + ")^30"
        start = time.perf_counter()
        with pytest.raises(ExpansionError) as info:
            parse(text, 10)
        assert time.perf_counter() - start < 1.0
        assert products == []
        assert isinstance(info.value, ParseError)
        assert info.value.position == text.index("^")
        assert "211915132 terms" in str(info.value)   # C(39, 9) monomials

    def test_large_product_is_rejected(self):
        factor = "(x1+x2+x3+x4+x5)^8"    # 495 terms
        with pytest.raises(ExpansionError) as info:
            parse(f"{factor}*{factor}", 5)
        assert info.value.position == len(factor)
        assert "245025 terms" in str(info.value)

    def test_fixtures_are_far_below_the_limit(self, monkeypatch):
        monkeypatch.setattr(polynomials, "MAX_TERMS", polynomials.MAX_TERMS // 1000)
        for name in ("motzkin", "hyperbola", "degenerate_line"):
            load_problem(PROBLEMS / f"{name}.json")


class TestEvaluate:
    def test_motzkin_vanishes_at_ones(self):
        assert parse(MOTZKIN, 2).evaluate([1.0, 1.0]) == 0.0

    @pytest.mark.parametrize("t", [0.0, 1.0, -7.5, 123.0])
    def test_degenerate_equality_vanishes_on_axis(self, t):
        g1 = parse("(1 - x1*x2*x3)^2 + x1^2 + x2^2 - 1", 3)
        assert g1.evaluate([0.0, 0.0, t]) == 0.0

    def test_constant_term_at_origin(self):
        p = parse("x1^3*x2 - 4*x1 + 9", 2)
        assert p.evaluate([0.0, 0.0]) == 9.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            parse("x1", 2).evaluate([1.0])


class TestGradient:
    def test_power_rule(self):
        p = parse("x1^2*x2", 2)
        assert np.allclose(p.gradient_at([2.0, 3.0]), [12.0, 4.0])

    def test_cubic_inequality_gradient(self):
        h = parse("x1^3", 3)
        gx = h.gradient()
        assert gx[0].terms == {(2, 0, 0): 3.0}
        assert gx[1].terms == {} and gx[2].terms == {}

    def test_constant_gradient_is_zero(self):
        grads = parse("42", 3).gradient()
        assert all(g.terms == {} for g in grads)


def random_polynomial(rng, n, max_terms=8, max_degree=6):
    terms = {}
    for _ in range(rng.integers(1, max_terms + 1)):
        exps = rng.integers(0, max_degree + 1, size=n)
        while exps.sum() > max_degree:
            exps[rng.integers(n)] = max(0, exps[rng.integers(n)] - 1)
        terms[tuple(int(e) for e in exps)] = float(rng.uniform(0.5, 3.0)
                                                   * rng.choice([-1, 1]))
    return Polynomial(n, terms)


def central_difference(p, x, step=1e-4):
    out = np.zeros(len(x))
    for i in range(len(x)):
        hi = np.array(x, dtype=float)
        lo = hi.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (p.evaluate(hi) - p.evaluate(lo)) / (2.0 * step)
    return out


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        p = random_polynomial(rng, n)
        x = rng.uniform(-1.5, 1.5, size=n)
        exact = p.gradient_at(x)
        approx = central_difference(p, x)
        assert np.all(np.abs(approx - exact) <= 1e-5 * np.maximum(1.0, np.abs(exact)))


def test_print_parse_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        p = random_polynomial(rng, n)
        assert parse(p.to_string(), n) == p


@given(st.floats(-5, 5), st.floats(-5, 5),
       st.floats(-2, 2), st.floats(-2, 2))
def test_linearity_of_evaluation(a, b, x1, x2):
    p = parse("x1^2 + x2", 2)
    q = parse("x1*x2 - 3", 2)
    combo = a * p + b * q
    x = [x1, x2]
    expected = a * p.evaluate(x) + b * q.evaluate(x)
    assert combo.evaluate(x) == pytest.approx(expected, rel=1e-12, abs=1e-9)


@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                min_size=1, max_size=6),
       st.lists(st.floats(-4, 4, allow_nan=False), min_size=6, max_size=6))
def test_canonical_form_properties(exps, coeffs):
    p = Polynomial(2, dict(zip(exps, coeffs)))
    assert all(abs(c) > 1e-15 for c in p.terms.values())
    keys = list(p.terms.keys())
    assert keys == sorted(keys)
    assert parse(p.to_string(), 2) == p


def test_zero_polynomial_prints_and_evaluates():
    z = Polynomial.zero(3)
    assert z.to_string() == "0"
    assert z.evaluate([1.0, 2.0, 3.0]) == 0.0
    assert parse("0", 3) == z

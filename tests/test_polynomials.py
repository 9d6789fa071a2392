import math
import pathlib
import time
from contextlib import contextmanager

import numpy as np
import pytest
import sympy
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
        multiply = polynomials._mul
        monkeypatch.setattr(polynomials, "_mul",
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

    def test_huge_exponent_is_rejected_by_degree(self, monkeypatch):
        products = []
        multiply = polynomials._mul
        monkeypatch.setattr(polynomials, "_mul",
                            lambda a, b: products.append(1) or multiply(a, b))
        with pytest.raises(ExpansionError) as info:
            parse("x1^99999999999999999999", 1)
        assert products == []
        assert info.value.position == 2
        assert "degree 99999999999999999999" in str(info.value)

    def test_product_above_the_degree_limit_is_rejected(self):
        assert parse("x1^600*x2^400", 2).degree() == polynomials.MAX_DEGREE
        with pytest.raises(ExpansionError) as info:
            parse("x1^600*x1^401", 1)
        assert info.value.position == 6
        assert "degree 1001" in str(info.value)

    BIG = "1" + "0" * 308      # 1e308, the largest power of ten below inf

    @pytest.mark.parametrize("text, error, position", [
        pytest.param("10^400*x1", ExpansionError, 2, id="power-overflows"),
        pytest.param("2^99999999999999999999*x1", ExpansionError, 1,
                     id="exponent-literal"),
        pytest.param("x1^" + "9" * 5000, ExpansionError, 2,
                     id="exponent-beyond-int-limit"),
        pytest.param("1" * 401 + "*x1", ParseError, 0, id="literal-overflows"),
        pytest.param("2*x" + "1" * 5000, ParseError, 2,
                     id="variable-index-beyond-int-limit"),
        pytest.param("10^200*10^200*x1", ExpansionError, 6,
                     id="product-overflows"),
        pytest.param(f"{BIG}*x1 + {BIG}*x1", ExpansionError, len(BIG) + 4,
                     id="sum-overflows"),
    ])
    def test_non_finite_and_huge_literals_are_rejected(self, text, error,
                                                       position):
        with pytest.raises(error) as info:
            parse(text, 1)
        assert type(info.value) is error
        assert info.value.position == position
        assert len(str(info.value)) < 200

    def test_exponent_limit_is_the_degree_limit(self):
        assert parse("1^1000", 1) == parse("1", 1)
        assert parse("x1^0001000", 1).degree() == polynomials.MAX_DEGREE
        with pytest.raises(ExpansionError, match="degree 1001"):
            parse("1^1001", 1)

    def test_fixtures_are_far_below_the_limit(self, monkeypatch):
        monkeypatch.setattr(polynomials, "MAX_TERMS", polynomials.MAX_TERMS // 1000)
        monkeypatch.setattr(polynomials, "MAX_DEGREE", polynomials.MAX_DEGREE // 100)
        for name in ("motzkin", "hyperbola", "degenerate_line"):
            load_problem(PROBLEMS / f"{name}.json")


def expression_trees(n):
    """(text, precedence, degree, build) for random expressions over
    x1..xn: small integer literals, + - * ^, unary minus, and only the
    parentheses that the grammar's precedence needs. `build(constant,
    variable)` rebuilds the same expression from leaf constructors with
    Python operators."""
    # precedence: sum 1, product 2, signed 3, power 4, atom 5
    leaves = st.one_of(
        st.integers(0, 9).map(lambda k: (str(k), 5, 0,
                                          lambda c, v, k=k: c(k))),
        st.integers(1, n).map(lambda i: (f"x{i}", 5, 1,
                                         lambda c, v, i=i: v(i))))

    def wrap(node, least):
        text, prec = node[0], node[1]
        return text if prec >= least else f"({text})"

    def nodes(children):
        def binary(op):
            def make(pair):
                a, b = pair
                if op == "*":
                    text = f"{wrap(a, 2)} * {wrap(b, 3)}"
                    return (text, 2, a[2] + b[2],
                            lambda c, v: a[3](c, v) * b[3](c, v))
                text = f"{wrap(a, 1)} {op} {wrap(b, 2)}"
                combine = ((lambda x, y: x + y) if op == "+"
                           else (lambda x, y: x - y))
                return (text, 1, max(a[2], b[2]),
                        lambda c, v: combine(a[3](c, v), b[3](c, v)))
            return st.tuples(children, children).map(make)

        power = st.tuples(children, st.integers(0, 3)).map(
            lambda t: (f"{wrap(t[0], 4)}^{t[1]}", 4, t[0][2] * t[1],
                       lambda c, v: t[0][3](c, v) ** t[1]))
        negate = children.map(lambda a: (f"-{wrap(a, 3)}", 3, a[2],
                                         lambda c, v: -a[3](c, v)))
        return st.one_of(binary("+"), binary("-"), binary("*"), power, negate)

    return st.recursive(leaves, nodes, max_leaves=8).filter(lambda t: t[2] <= 8)


@settings(max_examples=200)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), expression_trees(n))))
def test_parse_matches_sympy_and_polynomial_operators(case):
    n, (text, _, _, build) = case
    parsed = parse(text, n)
    symbols = sympy.symbols(f"x1:{n + 1}")
    expanded = sympy.Poly(build(sympy.Integer, lambda i: symbols[i - 1]),
                          *symbols)
    oracle = {exps: float(coeff) for exps, coeff in expanded.terms() if coeff}
    assert parsed.terms == oracle
    built = build(lambda k: Polynomial.constant(n, k),
                  lambda i: Polynomial.variable(n, i))
    assert built == parsed
    # reports print the terms in this order
    assert list(parsed.terms.items()) == list(built.terms.items())


class TestSums:
    def test_a_partial_sum_at_or_below_the_threshold_is_dropped(self):
        # 3e-15 - 2.5e-15 = 5e-16 is dropped before 1.1e-15 is added; a sum
        # merged without that drop would give 1.6e-15
        text = "0.000000000000003*x2 - 0.0000000000000025*x2 + 0.0000000000000011*x2"
        assert list(parse(text, 2).terms.items()) == [((0, 1), 1.1e-15)]

    def test_an_overflowing_sum_is_refused_at_its_operator(self):
        big = "1" + "0" * 308
        with pytest.raises(ExpansionError, match="overflows to infinity") as info:
            parse(f"{big}*x1 + {big}*x1", 1)
        assert info.value.position == 313


class TestVariableLimit:
    def test_the_limit_is_accepted(self):
        n = polynomials.MAX_VARS
        assert parse(f"x{n}", n).terms == {(0,) * (n - 1) + (1,): 1.0}

    def test_above_the_limit_is_refused(self):
        with pytest.raises(ValueError, match="limit"):
            parse("x1", polynomials.MAX_VARS + 1)


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match="nest too deeply"):
        parse("(" * 2000 + "x1" + ")" * 2000, 1)


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
        assert np.allclose([g.evaluate([2.0, 3.0]) for g in p.gradient()], [12.0, 4.0])

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
        exact = np.array([g.evaluate(x) for g in p.gradient()])
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
    assert z.degree() == 0
    assert z.evaluate([1.0, 2.0, 3.0]) == 0.0
    assert parse("0", 3) == z


# -- the one-term fast path of _mul against the general path ------------------

def general_mul(a, b):
    """`_mul` without its fast path: every product through merge-and-sort."""
    polynomials._check_degree(polynomials._degree(a) + polynomials._degree(b))
    polynomials._check_expansion(len(a) * len(b))
    return polynomials._canonical(polynomials._product(a, b))


def general_pow(a, k, num_vars):
    """`_pow` with every square and product through `general_mul`."""
    degree = polynomials._degree(a)
    polynomials._check_degree(k * degree)
    if len(a) > 1:
        bound = math.comb(len(a) + k - 1, k)
        if bound > polynomials.MAX_TERMS:
            polynomials._check_expansion(
                min(bound, math.comb(num_vars + k * degree, num_vars)))
    result = {(0,) * num_vars: 1.0}
    base = a
    while k:
        if k & 1:
            result = general_mul(result, base)
        base = general_mul(base, base) if k > 1 else base
        k >>= 1
    return result


@contextmanager
def general_path():
    """The parser with `_mul` and `_pow` replaced by the general path."""
    saved = polynomials._mul, polynomials._pow
    polynomials._mul, polynomials._pow = general_mul, general_pow
    try:
        yield
    finally:
        polynomials._mul, polynomials._pow = saved


def outcome(op, *args):
    """The term map in key order, or the ExpansionError's text and position."""
    try:
        result = op(*args)
    except ExpansionError as exc:
        return "error", str(exc), exc.position
    return "ok", list(getattr(result, "terms", result).items())


EPS = polynomials.COEFF_EPS
ROOT_EPS = math.sqrt(EPS)
# coefficients whose products land on either side of COEFF_EPS, or overflow
BOUNDARY = [math.nextafter(EPS, 1.0), 2 * EPS, ROOT_EPS, math.nextafter(ROOT_EPS, 0.0),
            math.nextafter(ROOT_EPS, 1.0), 1e-8, 0.5, 1.0, -1.0, 3.0, 1e154, 1e200,
            -1e300, 1.7976931348623157e308]
COEFFS = st.sampled_from(BOUNDARY + [-c for c in BOUNDARY]) | st.floats(
    -1e6, 1e6).filter(lambda c: abs(c) > EPS)


def term_maps(n, max_terms):
    """Canonical term maps over x1..xn with up to `max_terms` terms."""
    exps = st.tuples(*[st.integers(0, 4)] * n)
    return st.dictionaries(exps, COEFFS, max_size=max_terms).map(polynomials._canonical)


@settings(max_examples=300)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(term_maps(n, 1), term_maps(n, 5))), st.booleans())
def test_mul_fast_path_is_the_general_path(maps, swap):
    one, many = maps
    a, b = (many, one) if swap else (one, many)
    assert outcome(polynomials._mul, a, b) == outcome(general_mul, a, b)


@settings(max_examples=300)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), term_maps(n, 1))),
       st.integers(0, 40) | st.sampled_from([250, 999, 1000, 1001]))
def test_pow_of_one_term_is_the_general_path(case, k):
    n, a = case
    assert outcome(polynomials._pow, a, k, n) == outcome(general_pow, a, k, n)


LITERALS = ["0", "2", "0.5", "3.7", "0.000000000000001", "0.0000000000000011",
            "0.00000003162277660168379", "0.00000003162277660168380",
            "1" + "0" * 154, "1" + "0" * 200]


def expression_texts(n):
    leaves = st.sampled_from(LITERALS + [f"x{i}" for i in range(1, n + 1)])

    def nodes(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*"), children).map("".join),
            st.tuples(children, st.integers(0, 9)).map(lambda t: f"({t[0]})^{t[1]}"),
            children.map(lambda text: f"-({text})"))

    return st.recursive(leaves, nodes, max_leaves=8)


@settings(max_examples=300)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), expression_texts(n))))
def test_parse_with_fast_paths_is_parse_with_the_general_path(case):
    n, text = case
    fast = outcome(parse, text, n)
    with general_path():
        assert fast == outcome(parse, text, n)


@pytest.mark.parametrize("text", LITERALS)
def test_number_atom_is_its_canonical_map(text):
    expected = polynomials._canonical({(0, 0): float(text)})
    assert list(parse(text, 2).terms.items()) == list(expected.items())


class TestFastPathLimits:
    """The degree and term limits fire before a one-term product or power
    forms anything."""

    @pytest.fixture(autouse=True)
    def no_expansion(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("expanded before the limit check")
        monkeypatch.setattr(polynomials, "_shifted", refuse)

    def test_product_degree(self):
        with pytest.raises(ExpansionError, match="degree 1001"):
            polynomials._mul({(600,): 1.0}, {(401,): 2.0})

    def test_product_terms(self):
        side = math.isqrt(polynomials.MAX_TERMS) + 1     # degree < 2 * side
        many = dict.fromkeys([(i, j) for i in range(side) for j in range(side)]
                             [:polynomials.MAX_TERMS + 1], 1.0)
        with pytest.raises(ExpansionError, match="100001 terms"):
            polynomials._mul({(0, 1): 2.0}, many)

    def test_power_degree(self):
        with pytest.raises(ExpansionError, match="degree 1002"):
            polynomials._pow({(2,): 3.0}, 501, 1)


@pytest.mark.parametrize("text, message, position", [
    ("(10*x1)^400", "overflows to infinity", 7),
    ("2*x1^3*x2*10^300*10^300", "overflows to infinity", 16),
    ("(x1^501)^2", "degree 1002", 8),
    ("(x1^2)^500*x2", "degree 1001", 10),
])
def test_fast_path_errors_keep_their_text_and_position(text, message, position):
    fast = outcome(parse, text, 2)
    with general_path():
        assert fast == outcome(parse, text, 2)
    assert fast[0] == "error" and message in fast[1] and fast[2] == position


def test_dropped_power_is_the_zero_polynomial():
    # (1e-8)^2 falls below COEFF_EPS at the first squaring, and stays zero
    for text in ("(0.00000001*x1)^2", "(0.00000001*x1)^3", "x2*(0.00000001*x1)^5"):
        fast = outcome(parse, text, 2)
        with general_path():
            assert fast == outcome(parse, text, 2) == ("ok", [])

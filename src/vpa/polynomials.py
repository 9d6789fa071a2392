"""Sparse multivariate polynomials: parsing, printing, evaluation, gradients.

A polynomial over variables x1..xn is stored canonically as a map from
exponent tuples (length n, nonnegative ints) to nonzero float coefficients.
Like terms are merged at construction and coefficients whose magnitude falls
below ``COEFF_EPS`` after merging are dropped, so structural equality of two
polynomials is plain dict equality.  Term iteration, printing, and the
internal arrays all follow ascending lexicographic order of the exponent
tuples, which makes every downstream computation reproducible.

Instances are immutable after construction: the evaluation arrays and the
derivative polynomials are derived from the terms on first use and
memoised, so sharing an instance across threads can at worst build one of
them twice.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, ExpansionError, ParseError

COEFF_EPS = 1e-15
# the most terms one product or power may form; the bundled fixtures stay
# below 100 (Python spends about 1 us per term formed)
MAX_TERMS = 100_000
# the highest degree one product or power may reach; a monomial of degree
# 1024 or more already overflows float64 at |x| = 2 (the fixtures: <= 6)
MAX_DEGREE = 1000


class Polynomial:
    """Canonical sparse polynomial in ``num_vars`` variables."""

    __slots__ = ("num_vars", "_terms", "_table", "_grad", "_hess")

    def __init__(self, num_vars: int, terms: Mapping[tuple, float]):
        if num_vars < 1:
            raise ValueError("num_vars must be a positive integer")
        merged: dict[tuple, float] = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != num_vars:
                raise DimensionMismatchError(
                    f"exponent vector {exps} has length {len(exps)}, expected {num_vars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            merged[exps] = merged.get(exps, 0.0) + float(coeff)
        clean = {e: c for e, c in sorted(merged.items()) if abs(c) > COEFF_EPS}
        object.__setattr__(self, "num_vars", int(num_vars))
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_table", None)
        object.__setattr__(self, "_grad", None)
        object.__setattr__(self, "_hess", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial instances are immutable")

    def __reduce__(self):
        return Polynomial, (self.num_vars, self._terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, value: float) -> "Polynomial":
        return cls(num_vars, {(0,) * num_vars: value})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "Polynomial":
        """Polynomial x_index with 1-based index (matching the x1..xn grammar)."""
        if not 1 <= index <= num_vars:
            raise ValueError(f"variable index {index} out of range 1..{num_vars}")
        exps = [0] * num_vars
        exps[index - 1] = 1
        return cls(num_vars, {tuple(exps): 1.0})

    # -- views -------------------------------------------------------------

    @property
    def terms(self) -> dict[tuple, float]:
        return dict(self._terms)

    def degree(self) -> int:
        return max(map(sum, self._terms), default=0)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and self.num_vars == other.num_vars
                and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash((self.num_vars, tuple(self._terms.items())))

    # -- arithmetic (enough for parsing and differentiation) ----------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.num_vars != self.num_vars:
                raise DimensionMismatchError("mixed num_vars in polynomial arithmetic")
            return other
        return Polynomial.constant(self.num_vars, float(other))

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            terms[e] = terms.get(e, 0.0) + c
        return Polynomial(self.num_vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.num_vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = float(other)
            return Polynomial(self.num_vars, {e: c * v for e, v in self._terms.items()})
        other = self._coerce(other)
        _check_degree(self.degree() + other.degree())
        _check_expansion(len(self._terms) * len(other._terms))
        terms: dict[tuple, float] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, 0.0) + c1 * c2
        return Polynomial(self.num_vars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent != int(exponent) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        k = int(exponent)
        degree = self.degree()
        _check_degree(k * degree)
        if len(self._terms) > 1:
            # at most the multisets of k terms, and at most the monomials
            # of degree k * degree in num_vars variables (the second bound
            # is computed only when the first is too large)
            bound = math.comb(len(self._terms) + k - 1, k)
            if bound > MAX_TERMS:
                n = self.num_vars
                _check_expansion(min(bound, math.comb(n + k * degree, n)))
        result = Polynomial.constant(self.num_vars, 1.0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- evaluation and differentiation -------------------------------------

    def evaluate(self, x: Sequence[float]) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.num_vars,):
            raise DimensionMismatchError(
                f"point has shape {x.shape}, expected ({self.num_vars},)")
        if not self._terms:
            return 0.0
        if self._table is None:
            # built on first use: parsing forms many intermediate
            # polynomials that are never evaluated
            object.__setattr__(self, "_table", (
                np.array(list(self._terms), dtype=np.int64),
                np.array(list(self._terms.values()), dtype=float)))
        exps, coeffs = self._table
        return float(coeffs @ np.prod(x[None, :] ** exps, axis=1))

    def __call__(self, x: Sequence[float]) -> float:
        return self.evaluate(x)

    def differentiate(self, var: int) -> "Polynomial":
        """Partial derivative with respect to x_{var+1} (0-based var index)."""
        if not 0 <= var < self.num_vars:
            raise ValueError(f"variable index {var} out of range")
        terms: dict[tuple, float] = {}
        for exps, coeff in self._terms.items():
            k = exps[var]
            if k == 0:
                continue
            new = list(exps)
            new[var] = k - 1
            terms[tuple(new)] = coeff * k
        return Polynomial(self.num_vars, terms)

    def gradient(self) -> tuple["Polynomial", ...]:
        """All partial derivatives, cached (the instance is immutable)."""
        if self._grad is None:
            grad = tuple(self.differentiate(i) for i in range(self.num_vars))
            object.__setattr__(self, "_grad", grad)
        return self._grad

    def gradient_at(self, x: Sequence[float]) -> np.ndarray:
        return np.array([g.evaluate(x) for g in self.gradient()], dtype=float)

    def hessian_at(self, x: Sequence[float]) -> np.ndarray:
        if self._hess is None:
            grad = self.gradient()
            hess = tuple(tuple(grad[i].differentiate(j)
                               for j in range(self.num_vars))
                         for i in range(self.num_vars))
            object.__setattr__(self, "_hess", hess)
        n = self.num_vars
        return np.array([[self._hess[i][j].evaluate(x) for j in range(n)]
                         for i in range(n)], dtype=float)

    # -- printing ------------------------------------------------------------

    def to_string(self) -> str:
        """Canonical form: ascending lexicographic terms, explicit ``*`` and ``^``."""
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for i, (exps, coeff) in enumerate(self._terms.items()):
            coeff_out = coeff if i == 0 else abs(coeff)
            body = _format_term(exps, coeff_out)
            if i == 0:
                chunks.append(body)
            else:
                chunks.append(("- " if coeff < 0 else "+ ") + body)
        return " ".join(chunks)

    __str__ = to_string

    def __repr__(self) -> str:
        return f"Polynomial({self.num_vars}, {self.to_string()!r})"


def _check_expansion(terms: int):
    """Refuse, before expanding, a product or power that may form more than
    MAX_TERMS terms."""
    if terms > MAX_TERMS:
        raise ExpansionError(f"expansion may form {terms} terms, more than "
                             f"the limit of {MAX_TERMS}")


def _check_degree(degree: int):
    """Refuse, before expanding, a product or power of degree above
    MAX_DEGREE."""
    if degree > MAX_DEGREE:
        raise ExpansionError(f"expansion has degree {degree}, more than the "
                             f"limit of {MAX_DEGREE}")


def _format_coeff(c: float) -> str:
    if c == int(c) and abs(c) < 1e15:
        return str(int(c))
    # shortest positional decimal that round-trips; the grammar has no
    # scientific notation
    return np.format_float_positional(c, unique=True, trim="0")


def _format_term(exps: tuple, coeff: float) -> str:
    factors = []
    for i, e in enumerate(exps):
        if e == 1:
            factors.append(f"x{i + 1}")
        elif e > 1:
            factors.append(f"x{i + 1}^{e}")
    if not factors:
        return _format_coeff(coeff)
    if coeff == 1.0:
        return "*".join(factors)
    if coeff == -1.0:
        return "-" + "*".join(factors)
    return "*".join([_format_coeff(coeff)] + factors)


# -- parser -----------------------------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := signed ('*' signed)*
# signed := ('+'|'-')* power
# power  := atom ('^' INT)*
# atom   := NUMBER | VAR | '(' expr ')'
#
# Variables are x1..xn; exponents are bare nonnegative integer literals.
# Implicit multiplication is rejected (two atoms must be joined by '*').

_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)|(?P<var>x\d+)"
                       r"|(?P<op>[-+*^()])|(?P<bad>\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        start = m.start(m.lastgroup)
        if m.lastgroup == "bad":
            ch = m.group("bad")
            if ch == "x":
                raise ParseError("expected a variable index after 'x'", start)
            raise ParseError(f"unexpected character {ch!r}", start)
        tokens.append((m.lastgroup, m.group(m.lastgroup), start))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, num_vars: int):
        self.text = text
        self.num_vars = num_vars
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Polynomial:
        kind, _, pos = self.peek()
        if kind == "end":
            raise ParseError("empty expression", pos)
        result = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", pos)
        return result

    def expr(self) -> Polynomial:
        result = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def term(self) -> Polynomial:
        result = self.signed()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = _at(pos, result.__mul__, self.signed())
            else:
                return result

    def signed(self) -> Polynomial:
        sign = 1.0
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                if value == "-":
                    sign = -sign
            else:
                break
        p = self.power()
        return p if sign > 0 else -p

    def power(self) -> Polynomial:
        result = self.atom()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                result = _at(pos, result.__pow__, self.exponent())
            else:
                return result

    def exponent(self) -> int:
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            raise ParseError("negative exponent", pos)
        if kind != "num":
            raise ParseError("expected an integer exponent after '^'", pos)
        self.advance()
        if "." in value:
            raise ParseError("fractional exponent", pos)
        return int(value)

    def atom(self) -> Polynomial:
        kind, value, pos = self.advance()
        if kind == "num":
            return Polynomial.constant(self.num_vars, float(value))
        if kind == "var":
            index = int(value[1:])
            if index < 1:
                raise ParseError("variable index 0 is invalid (variables are x1..xn)", pos)
            if index > self.num_vars:
                raise ParseError(
                    f"variable index {index} exceeds num_vars={self.num_vars}", pos)
            return Polynomial.variable(self.num_vars, index)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"expected a number, variable, or '(' but found {value!r}"
                         if value else "unexpected end of expression", pos)


def _at(pos: int, op, operand) -> Polynomial:
    """Apply an operator, tagging an ExpansionError with its position."""
    try:
        return op(operand)
    except ExpansionError as exc:
        raise ExpansionError(str(exc), pos) from None


def parse(text: str, num_vars: int) -> Polynomial:
    """Parse an expression over x1..xn into canonical expanded form.

    Raises ParseError with the offending character position on malformed
    input, out-of-range variable indices, and negative/fractional exponents,
    and its subclass ExpansionError, before expanding, on a product or power
    that may form more than MAX_TERMS terms or has degree above MAX_DEGREE.
    """
    return _Parser(text, num_vars).parse()

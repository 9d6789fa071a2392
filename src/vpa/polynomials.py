"""Sparse multivariate polynomials: parsing, printing and exact algebra.

A polynomial over variables x1..xn is stored canonically as a map from
exponent tuples (length n, nonnegative ints) to nonzero float coefficients.
Like terms are merged at construction and coefficients whose magnitude falls
below ``COEFF_EPS`` after merging are dropped, so structural equality of two
polynomials is plain dict equality.  Term iteration and printing follow
ascending lexicographic order of the exponent tuples, which makes every
downstream computation reproducible.  Instances hold their terms only and
are immutable.

The parser is a recursive descent over a token list whose rules return
canonical term maps: a sum is merged term by term into one map, dropping a
coefficient at or below ``COEFF_EPS`` at each merge, and sorted once; a
product or power with a one-term operand adds exponents instead of
merging. Expressions with more than ``MAX_VARS`` variables, and products
or powers that may form more than ``MAX_TERMS`` terms or exceed degree
``MAX_DEGREE``, are refused before anything is built.

The numeric work happens elsewhere: `Problem` compiles the term maps of all
its polynomials and their partials into monomial tables, term by term by
the one derivative rule here (`_partials`). `Polynomial.evaluate`,
`gradient` and `hessian_at` are plain reference implementations that those
tables are tested against.
"""

from __future__ import annotations

import math
import operator
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
# the most variables a problem or expression may have. Every atom forms an
# n-tuple, and Problem.hessians compiles a dense table of (polynomials) * n^2
# rows: at n = 100 two n-term cubic objectives load in 9 ms and the first
# Hessian call takes 22 ms and 15 MB, at n = 150 it takes 52 MB, growing as
# n^3 (the fixtures: n <= 3)
MAX_VARS = 100


class Polynomial:
    """Canonical sparse polynomial in ``num_vars`` variables."""

    __slots__ = ("num_vars", "_terms")

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
        self._init(int(num_vars), clean)

    @classmethod
    def _from_terms(cls, num_vars: int, terms: dict) -> "Polynomial":
        """Wrap a term map without the public constructor's validation."""
        poly = object.__new__(cls)
        poly._init(num_vars, terms)
        return poly

    def _init(self, num_vars: int, terms: dict):
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "_terms", terms)

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
        return _degree(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and self.num_vars == other.num_vars
                and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash((self.num_vars, tuple(self._terms.items())))

    # -- arithmetic (enough for parsing and differentiation) ----------------

    def _coerce(self, other) -> dict:
        if isinstance(other, Polynomial):
            if other.num_vars != self.num_vars:
                raise DimensionMismatchError("mixed num_vars in polynomial arithmetic")
            return other._terms
        return Polynomial.constant(self.num_vars, float(other))._terms

    def _new(self, terms: dict) -> "Polynomial":
        return Polynomial._from_terms(self.num_vars, terms)

    def __add__(self, other) -> "Polynomial":
        return self._new(_add(self._terms, self._coerce(other)))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return self._new(_neg(self._terms))

    def __sub__(self, other) -> "Polynomial":
        return self._new(_add(self._terms, _neg(self._coerce(other))))

    def __rsub__(self, other) -> "Polynomial":
        return self._new(_add(self._coerce(other), _neg(self._terms)))

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = float(other)
            return self._new(_canonical({e: c * v for e, v in self._terms.items()}))
        return self._new(_mul(self._terms, self._coerce(other)))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent != int(exponent) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        return self._new(_pow(self._terms, int(exponent), self.num_vars))

    # -- reference evaluation ----------------------------------------------

    def evaluate(self, x: Sequence[float]) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.num_vars,):
            raise DimensionMismatchError(
                f"point has shape {x.shape}, expected ({self.num_vars},)")
        if not self._terms:
            return 0.0
        exps = np.array(list(self._terms), dtype=np.int64)
        coeffs = np.array(list(self._terms.values()), dtype=float)
        return float(coeffs @ np.prod(x[None, :] ** exps, axis=1))

    def gradient(self) -> tuple["Polynomial", ...]:
        """All first partials, x1 first."""
        return tuple(self._new(_partial(self._terms, i))
                     for i in range(self.num_vars))

    def hessian_at(self, x: Sequence[float]) -> np.ndarray:
        return np.array([[h.evaluate(x) for h in g.gradient()]
                         for g in self.gradient()], dtype=float)

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


# -- term maps ----------------------------------------------------------------
#
# Expansion runs on plain term maps, dicts from exponent tuples to float
# coefficients. Every operation takes and returns canonical maps: like terms
# merged, coefficients at or below COEFF_EPS dropped, keys in ascending
# lexicographic order, which is what Polynomial's constructor would make of
# it (`_product` and `_combine` return raw maps). The parser and
# Polynomial's operators share these functions.

def _canonical(terms: dict) -> dict:
    """Sort a merged term map and drop coefficients at or below COEFF_EPS;
    refuse a coefficient that overflowed to infinity."""
    return {e: c for e, c in sorted(terms.items()) if _kept(c)}


def _degree(terms: dict) -> int:
    return max(map(sum, terms), default=0)


def _add(a: dict, b: dict) -> dict:
    terms = dict(a)
    for e, c in b.items():
        terms[e] = terms.get(e, 0.0) + c
    return _canonical(terms)


def _neg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def _partial(a: dict, var: int) -> dict:
    """Partial derivative in x_{var+1} (0-based `var`). Decrementing one
    exponent keeps distinct keys distinct and in order, and multiplying by
    it cannot shrink a coefficient, so the result is canonical as it is."""
    return {key: coeff for i, key, coeff in _partials(a) if i == var}


def _partials(a: dict) -> list:
    """The derivative rule: (i, exponents, coefficient) of the partial in
    x_{i+1} of each term of `a`, for each i where it is not zero."""
    return [(i, e[:i] + (k - 1,) + e[i + 1:], c * k)
            for e, c in a.items() for i, k in enumerate(e) if k]


def _mul(a: dict, b: dict) -> dict:
    _check_degree(_degree(a) + _degree(b))
    _check_expansion(len(a) * len(b))
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        (shift, c), = a.items()
        return _shifted(b, shift, c)
    return _canonical(_product(a, b))


def _shifted(a: dict, shift: tuple, c: float) -> dict:
    """c * x^shift * a for a canonical `a`, as `_canonical(_product(...))`
    would make it. Adding one exponent vector to every key keeps the keys
    distinct and in order, so only the drops and the overflow check remain."""
    terms = {}
    for e, v in a.items():
        v = _kept(c * v)
        if v:
            terms[tuple(map(operator.add, shift, e))] = v
    return terms


def _product(a: dict, b: dict) -> dict:
    """a * b as a raw term map: like terms merged, no coefficient dropped,
    no limit checked."""
    terms: dict[tuple, float] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(operator.add, e1, e2))
            terms[key] = terms.get(key, 0.0) + c1 * c2
    return terms


def _combine(pairs) -> dict:
    """sum(c * a) over the (c, a) pairs as a raw term map (see `_product`)."""
    terms: dict[tuple, float] = {}
    for c, a in pairs:
        for e, v in a.items():
            terms[e] = terms.get(e, 0.0) + c * v
    return terms


def _pow(a: dict, k: int, num_vars: int) -> dict:
    degree = _degree(a)
    _check_degree(k * degree)
    if len(a) == 1:
        # the square-and-multiply below, with the one term's coefficient
        # alone: `_mul`'s one-term path keeps _kept(c1 * c2) and adds the
        # exponents, so the key is k * e
        (e, c), = a.items()
        coeff, base, j = 1.0, c, k
        while j:
            if j & 1:
                coeff = _kept(coeff * base)
            base = _kept(base * base) if j > 1 else base
            j >>= 1
        return {tuple([k * ei for ei in e]): coeff} if coeff else {}
    if len(a) > 1:
        # at most the multisets of k terms, and at most the monomials of
        # degree k * degree in num_vars variables (the second bound is
        # computed only when the first is too large)
        bound = math.comb(len(a) + k - 1, k)
        if bound > MAX_TERMS:
            _check_expansion(min(bound, math.comb(num_vars + k * degree, num_vars)))
    result = {(0,) * num_vars: 1.0}
    base = a
    while k:
        if k & 1:
            result = _mul(result, base)
        base = _mul(base, base) if k > 1 else base
        k >>= 1
    return result


def _kept(c: float) -> float:
    """The one rule for a merged coefficient: 0.0 where it is at or below
    COEFF_EPS (or NaN), an ExpansionError where it overflowed, else `c`."""
    if not abs(c) > COEFF_EPS:
        return 0.0
    if math.isinf(c):
        raise ExpansionError("a coefficient overflows to infinity")
    return c


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
# signed := ('+'|'-')* atom ('^' INT)*
# atom   := NUMBER | VAR | '(' expr ')'
#
# Variables are x1..xn; exponents are bare nonnegative integer literals.
# Implicit multiplication is rejected (two atoms must be joined by '*').

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)|(x\d+)|([-+*^()])|(\S))")
# token kinds: the index of the group that matched, and 0 for the end
_END, _NUM, _VAR, _OP, _BAD = range(5)


def _tokenize(text: str) -> list[tuple[int, str, int]]:
    # every match ends where the next begins, and the last group takes any
    # non-space character, so only trailing whitespace is left unmatched
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastindex
        if kind == _BAD:
            if m[kind] == "x":
                raise ParseError("expected a variable index after 'x'", m.start(kind))
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append((_END, "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list; every rule returns a canonical
    term map. An operator is told by its token's value alone: no number,
    variable or end token has the value of one."""

    def __init__(self, text: str, num_vars: int):
        self.num_vars = num_vars
        self.tokens = _tokenize(text)
        self.i = 0

    def parse(self) -> dict:
        kind, _, pos = self.tokens[0]
        if kind == _END:
            raise ParseError("empty expression", pos)
        result = self.expr()
        kind, value, pos = self.tokens[self.i]
        if kind != _END:
            raise ParseError(f"unexpected token {value!r}", pos)
        return result

    def expr(self) -> dict:
        """A sum, merged term by term into one map under the `_kept` rule,
        then sorted once: the map `_add` would give after each term."""
        result = self.term()
        tokens = self.tokens
        _, op, pos = tokens[self.i]
        if op != "+" and op != "-":
            return result
        terms = dict(result)
        while op == "+" or op == "-":
            self.i += 1
            rhs = self.term()
            plus = op == "+"
            try:
                for e, c in rhs.items():
                    held = terms.get(e, 0.0)
                    c = _kept(held + c if plus else held - c)
                    if c:
                        terms[e] = c
                    else:
                        terms.pop(e, None)
            except ExpansionError as exc:
                raise ExpansionError(str(exc), pos) from None
            _, op, pos = tokens[self.i]
        return dict(sorted(terms.items()))

    def term(self) -> dict:
        result = self.signed()
        tokens = self.tokens
        _, op, pos = tokens[self.i]
        while op == "*":
            self.i += 1
            result = _at(pos, _mul, result, self.signed())
            _, op, pos = tokens[self.i]
        return result

    def signed(self) -> dict:
        """Signs, an atom (a number, a variable or a parenthesized sum), then
        its powers; the signs apply to the power."""
        tokens = self.tokens
        negative = False
        kind, value, pos = tokens[self.i]
        while value == "+" or value == "-":
            negative ^= value == "-"
            self.i += 1
            kind, value, pos = tokens[self.i]
        self.i += 1
        n = self.num_vars
        if kind == _NUM:
            coeff = float(value)
            if math.isinf(coeff):
                raise ParseError("number overflows to infinity", pos)
            result = {(0,) * n: coeff} if _kept(coeff) else {}
        elif kind == _VAR:
            digits = value[1:].lstrip("0") or "0"
            if digits == "0":
                raise ParseError("variable index 0 is invalid (variables are x1..xn)", pos)
            if _above(digits, n):
                raise ParseError(
                    f"variable index {_shown(digits)} exceeds num_vars={n}", pos)
            index = int(digits)
            result = {(0,) * (index - 1) + (1,) + (0,) * (n - index): 1.0}
        elif value == "(":
            result = self.expr()
            _, value, pos = tokens[self.i]
            if value != ")":
                raise ParseError("expected ')'", pos)
            self.i += 1
        else:
            raise ParseError(f"expected a number, variable, or '(' but found {value!r}"
                             if value else "unexpected end of expression", pos)
        _, op, pos = tokens[self.i]
        while op == "^":
            self.i += 1
            result = _at(pos, _pow, result, self.exponent(pos), n)
            _, op, pos = tokens[self.i]
        return _neg(result) if negative else result

    def exponent(self, caret: int) -> int:
        kind, value, pos = self.tokens[self.i]
        if value == "-":
            raise ParseError("negative exponent", pos)
        if kind != _NUM:
            raise ParseError("expected an integer exponent after '^'", pos)
        self.i += 1
        if "." in value:
            raise ParseError("fractional exponent", pos)
        digits = value.lstrip("0") or "0"
        if _above(digits, MAX_DEGREE):
            raise ExpansionError(f"exponent above the degree limit: degree "
                                 f"{_shown(digits)} is more than the limit of "
                                 f"{MAX_DEGREE}", caret)
        return int(digits)


def _above(digits: str, limit: int) -> bool:
    """Whether a decimal literal without leading zeros is above `limit`,
    judged by its digit count first: int() refuses more than 4300 digits."""
    return len(digits) > len(str(limit)) or int(digits) > limit


def _shown(digits: str) -> str:
    return digits if len(digits) <= 40 else f"of {len(digits)} digits"


def _at(pos: int, op, *operands) -> dict:
    """Apply a term-map operation, tagging an ExpansionError with the
    position of its operator."""
    try:
        return op(*operands)
    except ExpansionError as exc:
        raise ExpansionError(str(exc), pos) from None


def parse(text: str, num_vars: int) -> Polynomial:
    """Parse an expression over x1..xn into canonical expanded form.

    Raises ParseError with the offending character position on malformed
    input, out-of-range variable indices, negative/fractional exponents and
    number literals that overflow to infinity, and its subclass
    ExpansionError, before expanding, on a product or power that may form
    more than MAX_TERMS terms or has degree or exponent above MAX_DEGREE,
    and on an operation whose coefficient overflows to infinity.
    """
    if num_vars < 1:
        raise ValueError("num_vars must be a positive integer")
    if num_vars > MAX_VARS:
        raise ValueError(f"num_vars={num_vars} is more than the limit of {MAX_VARS}")
    try:
        terms = _Parser(text, num_vars).parse()
    except RecursionError:
        # each nested parenthesis takes three frames of the descent
        raise ParseError("parentheses nest too deeply") from None
    return Polynomial._from_terms(num_vars, terms)

"""Problem data and the feasible set S = {g_i = 0, h_j >= 0}.

Feasibility checks and projection onto sphere slices S intersect
{||x|| = r}.  Inequality indices are 0-based positions into
``Problem.inequalities`` throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (DimensionMismatchError, NonFiniteError,
                     ProblemValidationError, ProjectionError)
from .polynomials import MAX_VARS, Polynomial, _partials, parse
from .solvers import TOL_FEAS, gauss_newton

# an inequality with |h_j| <= TOL_ACTIVE is active; `below_ybar` allows it too
TOL_ACTIVE = 1e-6
# the Gauss-Newton steps of one sphere-slice projection
PROJECTION_MAX_ITER = 200


@dataclass(eq=False)
class Problem:
    """A vector polynomial program: minimize (f_1..f_p) over S."""

    n: int
    objectives: tuple[Polynomial, ...]
    equalities: tuple[Polynomial, ...] = ()
    inequalities: tuple[Polynomial, ...] = ()

    def __post_init__(self):
        self.objectives = tuple(self.objectives)
        self.equalities = tuple(self.equalities)
        self.inequalities = tuple(self.inequalities)
        if len(self.objectives) < 1:
            raise ProblemValidationError("at least one objective is required")
        polys = (*self.objectives, *self.equalities, *self.inequalities)
        for poly in polys:
            if poly.num_vars != self.n:
                raise ProblemValidationError(
                    f"polynomial has num_vars={poly.num_vars}, problem has n={self.n}")
        # the term maps of f, g and h; row k of the table is polys[k], row
        # len(polys) + k*n + i its partial in x_{i+1}
        self.maps = tuple(tuple(poly._terms for poly in block) for block in
                          (self.objectives, self.equalities, self.inequalities))
        self._exps, self._coeffs = _first_table([poly._terms for poly in polys], self.n)
        self._cuts = (self.p, self.p + self.l, len(polys))
        self._second = None

    @classmethod
    def local(cls, n: int, objective: dict, equalities=(), inequalities=()) -> "Problem":
        """The one-objective Problem of a local solve, from raw term maps
        (`polynomials._combine`): the table keeps every coefficient."""
        wrap = lambda maps: [Polynomial._from_terms(n, a) for a in maps]
        return cls(n, wrap([objective]), wrap(equalities), wrap(inequalities))

    @property
    def p(self) -> int:
        return len(self.objectives)

    @property
    def l(self) -> int:
        return len(self.equalities)

    @property
    def m(self) -> int:
        return len(self.inequalities)

    def _point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatchError(f"point has shape {x.shape}, expected ({self.n},)")
        return x

    def evaluate(self, x) -> tuple[np.ndarray, ...]:
        """(f, g, h, Jf, Jg, Jh) at x: the one-point case of `_evaluate_batch`.

        The blocks are views of one fresh vector; empty ones have shapes
        (0,) and (0, n).
        """
        v = _table_product(self._exps, self._coeffs, self._point(x))
        p, pl, rows = self._cuts
        jac = v[rows:].reshape(rows, self.n)
        return v[:p], v[p:pl], v[pl:rows], jac[:p], jac[p:pl], jac[pl:]

    def _evaluate_batch(self, X) -> np.ndarray:
        """The table at each point of X (k x n): row i is the vector that
        `evaluate(X[i])` splits into its blocks, bit for bit."""
        return _table_product(self._exps, self._coeffs, X[:, None, :])

    def hessians(self, x) -> tuple[np.ndarray, ...]:
        """(Hf, Hg, Hh) at x, shapes (p, n, n), (l, n, n) and (m, n, n),
        from the one-point product of the second-partials table.

        Row (k*n + i)*n + j of that table holds the partial of polys[k] in
        x_{i+1}, then in x_{j+1}. It is compiled on first use: most problems
        are loaded, queried at a point and dropped without needing it.
        """
        x = self._point(x)
        n = self.n
        if self._second is None:
            self._second = _second_table([a for block in self.maps for a in block], n)
        hess = _table_product(*self._second, x).reshape(-1, n, n)
        p, pl, _ = self._cuts
        return hess[:p], hess[p:pl], hess[pl:]

    def f(self, x) -> np.ndarray:
        return self.evaluate(x)[0]

    def g(self, x) -> np.ndarray:
        return self.evaluate(x)[1]

    def h(self, x) -> np.ndarray:
        return self.evaluate(x)[2]

    def jac_f(self, x) -> np.ndarray:
        return self.evaluate(x)[3]

    def jac_g(self, x) -> np.ndarray:
        return self.evaluate(x)[4]

    def jac_h(self, x) -> np.ndarray:
        return self.evaluate(x)[5]


def _first_table(rows, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The table of the term maps `rows` and of their first partials, row
    len(rows) + k*n + i the partial of rows[k] in x_{i+1}: one pass over the
    rows' terms and their partials (`_partials`)."""
    entries = []
    first = len(rows)
    for k, terms in enumerate(rows):
        for e, c in terms.items():
            entries.append((k, e, c))
        for i, key, coeff in _partials(terms):
            entries.append((first + i, key, coeff))
        first += n
    return _compile(entries, first, n)


def _second_table(rows, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The table of the second partials of the term maps `rows`, row
    (k*n + i)*n + j the partial of rows[k] in x_{i+1}, then in x_{j+1}."""
    entries = []
    for k, terms in enumerate(rows):
        firsts = [{} for _ in range(n)]
        for i, key, coeff in _partials(terms):
            firsts[i][key] = coeff
        for i, partial in enumerate(firsts):
            row = (k * n + i) * n
            for j, key, coeff in _partials(partial):
                entries.append((row + j, key, coeff))
    return _compile(entries, len(rows) * n * n, n)


def _table_product(exps: np.ndarray, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Every evaluation: a table's rows at one point, shape (n,), or at each
    point of a batch, shape (k, 1, n), by one matrix-vector product per
    point, so a point gets the same bits alone and in any batch."""
    return np.matvec(coeffs, np.multiply.reduce(points ** exps, axis=-1))


def _compile(entries, rows: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponent matrix E (monomials x n, float64) and coefficient matrix C
    (rows x monomials) from (row, exponents, coefficient) entries, at most
    one per row and monomial, so that `_table_product` stacks the rows'
    values. Monomials are in ascending lexicographic order. E is stored as
    float64, the type `power` casts an integer exponent to."""
    monomials = sorted({exps for _, exps, _ in entries})
    column = {exps: j for j, exps in enumerate(monomials)}
    coeffs = np.zeros((rows, len(monomials)))
    for row, exps, coeff in entries:
        coeffs[row, column[exps]] = coeff
    return np.array(monomials, dtype=float).reshape(-1, n), coeffs


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    max_equality_violation: float
    max_inequality_violation: float
    active: tuple[int, ...]   # 0-based indices into Problem.inequalities


def evaluate_finite(prob: Problem, x) -> tuple[np.ndarray, ...]:
    """`prob.evaluate(x)`, refusing a value or Jacobian entry that is not
    finite with NonFiniteError."""
    values = prob.evaluate(x)
    if not all(np.all(np.isfinite(block)) for block in values):
        raise NonFiniteError("a value or Jacobian entry at the point is not "
                             "finite (overflow)")
    return values


def check_feasible(prob: Problem, x) -> FeasibilityReport:
    """Violations are max_i |g_i(x)| and max_j max(0, -h_j(x)), both at most
    TOL_FEAS at a feasible x; inequality j is active when |h_j(x)| <= TOL_ACTIVE."""
    _, gv, hv, _, _, _ = prob.evaluate(x)
    return _feasibility(gv, hv)


def _feasibility(gv, hv) -> FeasibilityReport:
    """`check_feasible`'s report from the values g(x), h(x) already in hand."""
    eq_viol = float(np.max(np.abs(gv))) if gv.size else 0.0
    ineq_viol = max(0.0, float(np.max(-hv))) if hv.size else 0.0
    active = tuple(int(j) for j in np.nonzero(np.abs(hv) <= TOL_ACTIVE)[0])
    return FeasibilityReport(
        feasible=eq_viol <= TOL_FEAS and ineq_viol <= TOL_FEAS,
        max_equality_violation=eq_viol,
        max_inequality_violation=ineq_viol,
        active=active,
    )


def _slice_residual(prob: Problem, r: float):
    """Residual stack [g; (||x||^2 - r^2)/(2r^2); max(0,-h)^2] and Jacobian.

    The sphere row is scaled by 1/(2r^2) so its value tracks the relative
    radius error (||x|| - r)/r and one absolute tolerance governs the whole
    stack at any radius; the zero set is unchanged. It stays on
    `prob.evaluate`, not a `Problem.local` table: max(0,-h)^2 is no
    polynomial, and a table-built sphere row alone moves the Gauss-Newton
    path at rounding level, which on a stagnating hyperbola projection took
    222 evaluations instead of 149.
    """
    def res_jac(x):
        _, gv, hv, _, Jg, Jh = prob.evaluate(x)
        sphere = (float(x @ x) - r * r) / (2.0 * r * r)
        viol = np.maximum(0.0, -hv)
        res = np.concatenate([gv, [sphere], viol ** 2])
        rows = [Jg, (x / (r * r))[None, :]]
        if prob.m:
            rows.append(-2.0 * viol[:, None] * Jh)
        return res, np.vstack(rows)
    return res_jac


def _slice_ok(prob: Problem, x, r: float) -> bool:
    return (check_feasible(prob, x).feasible
            and abs(float(np.linalg.norm(x)) - r) <= TOL_FEAS * r)


def project_to_sphere_slice(prob: Problem, r: float, x0) -> np.ndarray:
    """Locally project x0 onto S intersect {||x|| = r}: one damped
    Gauss-Newton run from x0 of at most PROJECTION_MAX_ITER steps.

    Failure means this local search did not converge, not that the slice
    is empty; the ProjectionError carries the run's final residual norm and
    point as `best_residual` and `best_point`.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    x, ok, resnorm = gauss_newton(_slice_residual(prob, r), prob._point(x0),
                                  accept=lambda x: _slice_ok(prob, x, r),
                                  max_iter=PROJECTION_MAX_ITER)
    if ok:
        return x
    raise ProjectionError(
        f"projection onto the radius-{r:g} slice did not converge "
        f"(residual {resnorm:.3e})",
        best_residual=resnorm, best_point=x)


def polish_to_slice(prob: Problem, x, r: float) -> np.ndarray | None:
    """Drive a near-feasible point onto S intersect S_r as far as floats allow.

    Runs damped Gauss-Newton to a step stall instead of stopping at the value
    tolerance: near rank-deficient constraint gradients, value-level residuals
    can leave coordinates (and hence f-values at large radii) far off the
    feasible set. A step stall is a damped step below the iterate's float
    resolution, max|d| <= eps * max|x| (`solvers.step_below_resolution`), or
    100 steps. Returns None when the polish jumps away or lands infeasible.
    """
    x = prob._point(x)
    res_jac = _slice_residual(prob, r)
    polished, _, _ = gauss_newton(res_jac, x, accept=lambda _: False,
                                  max_iter=100)
    if np.linalg.norm(polished - x) > 1e-2 * (1.0 + r):
        return None
    if not _slice_ok(prob, polished, r):
        return None
    return polished


# -- problem files -----------------------------------------------------------

def problem_from_dict(data: dict) -> tuple[Problem, tuple[float, ...] | None]:
    """Build (Problem, ybar) from the JSON problem-file schema.

    Schema: {"n": int, "objectives": [expr...], "equalities": [expr...],
    "inequalities": [expr...], "ybar": [number or "+inf", ...]}. `n` is a
    JSON integer from 1 to MAX_VARS, checked before anything of length n is
    built; a boolean, a fraction or a string is refused, not read as an
    integer. The ybar entry is optional; its numbers must be finite.
    """
    if not isinstance(data, dict):
        raise ProblemValidationError("problem file must be a JSON object")
    if "n" not in data:
        raise ProblemValidationError("problem file needs an integer field 'n'")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ProblemValidationError(
            f"problem file needs an integer field 'n', got {n!r}")
    if n < 1:
        raise ProblemValidationError(f"problem file has n={n}, needs n >= 1")
    if n > MAX_VARS:
        raise ProblemValidationError(
            f"problem file has more than {MAX_VARS} variables, the limit")
    objectives = data.get("objectives")
    if not objectives:
        raise ProblemValidationError("problem file needs a nonempty 'objectives' list")

    def parse_all(key):
        exprs = data.get(key, [])
        if not isinstance(exprs, list) or not all(isinstance(e, str) for e in exprs):
            raise ProblemValidationError(f"'{key}' must be a list of expression strings")
        return tuple(parse(expr, n) for expr in exprs)

    prob = Problem(n=n,
                   objectives=parse_all("objectives"),
                   equalities=parse_all("equalities"),
                   inequalities=parse_all("inequalities"))
    ybar = None
    if data.get("ybar") is not None:
        ybar = parse_ybar(data["ybar"], prob.p)
    return prob, ybar


def parse_ybar(entries, p: int) -> tuple[float, ...]:
    """Entries are finite numbers or the token "+inf" (componentwise upper
    bounds), as a list or as one comma-separated string; NaN, -inf, a
    boolean and a number that overflows to infinity are refused with
    ProblemValidationError."""
    if isinstance(entries, str):
        entries = [tok.strip() for tok in entries.split(",")]
    elif not isinstance(entries, (list, tuple)):
        raise ProblemValidationError(
            f"ybar must be a list of numbers or '+inf', got {entries!r}")
    out = []
    for entry in entries:
        try:
            if isinstance(entry, bool):
                raise TypeError("a boolean is no number")
            value = float(entry)   # also reads "+inf" and "inf", any case
        except (TypeError, ValueError):
            raise ProblemValidationError(
                f"ybar entry {entry!r} is neither a number nor '+inf'") from None
        except OverflowError:      # an integer beyond the range of a double
            value = math.inf
        if value == math.inf and not _infinity_token(entry):
            raise ProblemValidationError(
                f"ybar entry {entry!r} overflows to infinity; ybar takes finite "
                f"numbers or '+inf'")
        out.append(value)
    return check_ybar(out, p, entries)


def check_ybar(ybar, p: int, entries=None) -> tuple[float, ...]:
    """ybar as a tuple, refusing a length other than p and a NaN or -inf entry
    (named as `entries` spells it) with ProblemValidationError; +inf is allowed."""
    for value, entry in zip(ybar, entries or ybar):
        if math.isnan(value) or value == -math.inf:
            raise ProblemValidationError(f"ybar entry {entry!r} is NaN or -inf; ybar "
                                         f"takes finite numbers or '+inf'")
    if len(ybar) != p:
        raise ProblemValidationError(f"ybar has {len(ybar)} entries, problem has {p} objectives")
    return tuple(ybar)


def _infinity_token(entry) -> bool:
    """Whether a ybar entry spells infinity, as "+inf" or "inf" (any case),
    rather than being a number too large for a double."""
    return isinstance(entry, str) and entry.strip().lower().lstrip("+") in ("inf", "infinity")


def load_problem(path) -> tuple[Problem, tuple[float, ...] | None]:
    """Read a problem file: UTF-8 JSON (JSON's encoding) in the schema of
    `problem_from_dict`. Bytes that are not UTF-8 and text that is not JSON
    are refused with ProblemValidationError."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProblemValidationError(
            f"not UTF-8 text: byte {exc.object[exc.start]:#04x} at offset {exc.start}") from None
    try:
        data = json.loads(text)
    except ValueError as exc:   # JSONDecodeError, or an integer of more than 4300 digits
        raise ProblemValidationError(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise ProblemValidationError(f"invalid JSON in {path}: nested too deeply") from None
    return problem_from_dict(data)

"""Independent oracles for the benchmark's outputs.

Nothing here calls `vpa`: the pointwise inputs come from closed-form
feasible families, and every expected answer is derived by hand from the
bundled fixtures (problems/*.json). The checks read the JSON reports the
CLI writes, so they judge the program's actual output.
"""

from __future__ import annotations

import math

import numpy as np

# -- verdict expectations ------------------------------------------------------

CONDITIONS = ("proper", "palais_smale", "cerami", "m_tame")


def _statuses(result):
    return {c: result["verdicts"][c]["status"] for c in CONDITIONS}


def check_motzkin_verdict(result) -> list[str]:
    """Benign, attained case: existence guaranteed, every condition holds, and
    the front contains the known Pareto solution (1, 1)."""
    errors = []
    if result["status"] != "existence guaranteed (evidence)":
        errors.append(f"status {result['status']!r}")
    if any(s != "holds_evidence" for s in _statuses(result).values()):
        errors.append(f"conditions {_statuses(result)}")
    if not any(max(abs(e["x"][0] - 1.0), abs(e["x"][1] - 1.0)) <= 1e-4
               for e in result["archive"]):
        errors.append("no archive entry within 1e-4 of (1, 1)")
    return errors


def check_hyperbola_verdict(result) -> list[str]:
    """Unattained infima: every condition fails along the escape ray
    (k, 1/k, -1), whose values tend to (-1, 1)."""
    errors = []
    if result["status"] != "theorem inapplicable":
        errors.append(f"status {result['status']!r}")
    if result["failing_hypotheses"] != ["asymptotic_conditions"]:
        errors.append(f"failing {result['failing_hypotheses']}")
    if any(s != "fails_witness" for s in _statuses(result).values()):
        errors.append(f"conditions {_statuses(result)}")
    else:
        limit = result["verdicts"]["palais_smale"]["witness"]["limit"]
        if max(abs(limit[0] + 1.0), abs(limit[1] - 1.0)) > 1e-2:
            errors.append(f"palais_smale limit {limit} is not (-1, 1)")
    return errors


def check_degenerate_verdict(result) -> list[str]:
    """Degenerate constraints: the qualification fails at infinity, and the
    tangency witness (limit 0) separates M-tameness from Palais-Smale."""
    errors = []
    if result["failing_hypotheses"] != ["mfcq_at_infinity_evidence"]:
        errors.append(f"failing {result['failing_hypotheses']}")
    statuses = _statuses(result)
    if statuses["m_tame"] != "fails_witness":
        errors.append(f"m_tame {statuses['m_tame']}")
    elif max(abs(v) for v in result["verdicts"]["m_tame"]["witness"]["limit"]) > 1e-3:
        errors.append("m_tame limit is not 0")
    if statuses["palais_smale"] != "holds_evidence":
        errors.append(f"palais_smale {statuses['palais_smale']}")
    return errors


VERDICT_CHECKS = {
    "motzkin": check_motzkin_verdict,
    "hyperbola": check_hyperbola_verdict,
    "degenerate_line": check_degenerate_verdict,
}


# -- closed-form fixture values ------------------------------------------------
#
# Each returns (f, g, h) and a magnitude per entry: the same expression with
# every expanded term taken in absolute value, which bounds the rounding
# error of the program's expanded-monomial evaluation.

def motzkin_values(x):
    a, b = x
    f = [a**2 * b**4 + a**4 * b**2 - 3 * a**2 * b**2 + 1,
         (a - 1) ** 2 + (b - 1) ** 2]
    fmag = [a**2 * b**4 + a**4 * b**2 + 3 * a**2 * b**2 + 1,
            (abs(a) + 1) ** 2 + (abs(b) + 1) ** 2]
    return (f, fmag), ([], []), ([a, b], [abs(a), abs(b)])


def hyperbola_values(x):
    a, b, c = x
    f = [c, (1 - a * b) ** 2 + b**2 + c**2]
    fmag = [abs(c), (1 + abs(a * b)) ** 2 + b**2 + c**2]
    return (f, fmag), ([], []), ([a, b], [abs(a), abs(b)])


def degenerate_values(x):
    a, b, c = x
    f = [b * c, a * c]
    g = [(1 - a * b * c) ** 2 + a**2 + b**2 - 1, a * b]
    gmag = [(1 + abs(a * b * c)) ** 2 + a**2 + b**2 + 1, abs(a * b)]
    return (f, [abs(v) for v in f]), (g, gmag), ([a**3], [abs(a) ** 3])


VALUES = {
    "motzkin": motzkin_values,
    "hyperbola": hyperbola_values,
    "degenerate_line": degenerate_values,
}


def _close(got, want, mag, rel=1e-12) -> bool:
    return len(got) == len(want) and all(
        abs(g - w) <= rel * 16.0 * max(1.0, m) for g, w, m in zip(got, want, mag))


def check_eval(fixture, x, active, result) -> list[str]:
    (f, fmag), (g, gmag), (h, hmag) = VALUES[fixture](x)
    errors = []
    for key, want, mag in (("f", f, fmag), ("g", g, gmag), ("h", h, hmag)):
        if not _close(result[key], want, mag):
            errors.append(f"{key} {result[key]} != {want}")
    feas = result["feasibility"]
    if not feas["feasible"]:
        errors.append("feasible point reported infeasible")
    if list(feas["active"]) != list(active):
        errors.append(f"active {feas['active']} != {list(active)}")
    return errors


# -- pointwise certificates ----------------------------------------------------

def rabier_degenerate_axis(t: float) -> float:
    """On (0, 0, t) every equality and active inequality gradient vanishes, so
    the value is the least norm on the segment [(0, t, 0), (t, 0, 0)]."""
    return math.sqrt(2.0) / 2.0 * t


def rabier_hyperbola(x) -> float:
    """Where no constraint is active the value is the distance from the origin
    to the segment [grad f1, grad f2]. On the escape ray (k, 1/k, -1) that is
    [(0, 0, 1), (0, 2/k, -2)], and the value tends to 2/(3k)."""
    x1, x2, x3 = x
    a = np.array([0.0, 0.0, 1.0])
    b = np.array([-2 * (1 - x1 * x2) * x2, -2 * (1 - x1 * x2) * x1 + 2 * x2, 2 * x3])
    d = b - a
    s = min(1.0, max(0.0, -float(a @ d) / float(d @ d)))
    return float(np.linalg.norm(a + s * d))


def motzkin_interior_member(x) -> bool:
    """With no active constraint in the plane, x is in the tangency variety
    iff some tau >= 0, tau != 0 puts F tau on the line through x, i.e. iff
    the objective gradients projected onto x-perp have opposite signs (or
    one vanishes)."""
    a, b = x
    grad1 = np.array([2 * a * b**4 + 4 * a**3 * b**2 - 6 * a * b**2,
                      4 * a**2 * b**3 + 2 * a**4 * b - 6 * a**2 * b])
    grad2 = np.array([2 * (a - 1), 2 * (b - 1)])
    perp = np.array([-b, a])
    return float(grad1 @ perp) * float(grad2 @ perp) <= 0.0


# The known defect: on interior Motzkin points the FISTA solve inside
# `tangency_membership` can stall just above tol_membership = 1e-7 and answer
# "not a member" where the closed form says "member". Measured at the
# baseline commit over 6000 seeded interior tangency queries (seeds 1-60):
# 5.05% of them, residuals 1.5e-7 to 3.4e-4. Such a miss is tolerated only
# inside that envelope: residual at most KNOWN_DEFECT_RESIDUAL, and at most
# KNOWN_DEFECT_SHARE (twice the baseline rate) of the exposed queries, with
# a floor of KNOWN_DEFECT_FLOOR misses for runs of only a few queries.
KNOWN_DEFECT_RESIDUAL = 5e-4
KNOWN_DEFECT_SHARE = 0.10
KNOWN_DEFECT_FLOOR = 3


def exposed_to_known_defect(query) -> bool:
    return query.family == "motzkin-interior" and query.command == "tangency"


def known_defects_allowed(exposed: int) -> float:
    return max(KNOWN_DEFECT_FLOOR, KNOWN_DEFECT_SHARE * exposed)


def check_query(query, report) -> tuple[list[str], bool]:
    """Check one pointwise report. Returns (errors, known_defect): a known
    defect is a FISTA false negative of `tangency` on an interior Motzkin
    point within the residual envelope above."""
    if report.get("status") != "ok":
        return [f"status {report.get('status')}: {report.get('error')}"], False
    result = report["result"]
    fixture, family, cmd, x = query.fixture, query.family, query.command, query.point
    if cmd == "eval":
        return check_eval(fixture, x, query.active, result), False
    if cmd == "rabier":
        value = result["rabier"]["value"]
        if family == "degenerate-axis":
            want, rel = rabier_degenerate_axis(x[2]), 1e-6
        else:
            want, rel = rabier_hyperbola(x), 1e-4
        if abs(value - want) > rel * want:
            return [f"rabier {value!r} != {want!r}"], False
        return [], False
    if cmd == "mfcq":
        mfcq = result["mfcq"]
        if family == "degenerate-axis":
            if mfcq["holds"] or mfcq["gradient_rank"] >= 2:
                return [f"mfcq holds on the degenerate axis: {mfcq}"], False
        elif not mfcq["holds"]:
            return ["mfcq fails on the Motzkin boundary"], False
        return [], False
    if cmd == "tangency":
        tangency = result["tangency"]
        want = True if family == "degenerate-axis" else motzkin_interior_member(x)
        if tangency["is_member"] == want:
            return [], False
        known = (exposed_to_known_defect(query) and want
                 and tangency["residual"] <= KNOWN_DEFECT_RESIDUAL)
        return [f"tangency is_member={tangency['is_member']} "
                f"(residual {tangency['residual']:.3e}), expected {want}"], known
    return [f"unknown command {cmd}"], False

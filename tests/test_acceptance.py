"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from vpa import (DEFAULT_CONFIG, Problem, mfcq_probe, rabier_value,
                 solve_front)
from vpa.asymptotics import (CONDITIONS, classify, trace_from_points,
                             trace_tangency)
from vpa.cli import main as cli_main
from vpa.errors import VpaError
from vpa.pareto import (STATUS_GUARANTEED, STATUS_INAPPLICABLE,
                        classify_evidence, existence_verdict,
                        nondominated_filter)
from vpa.polynomials import Polynomial

from conftest import BENCHMARK_CONFIGS, PROBLEMS, assert_reports_reencode
from test_pareto import brute_force_filter
from test_polynomials import central_difference, random_polynomial


@contextmanager
def criterion(name):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"\n[acceptance] {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"\n[acceptance] {name}: PASS ({time.time() - start:.1f}s)")


# four-decade schedule shared by the classification criteria
SCHEDULE_CONFIG = DEFAULT_CONFIG.replace(radius_factor=10.0, radius_count=5,
                                         weights_per_radius=4)


def test_criterion_motzkin_front(motzkin):
    """Weighted-sum sweep recovers the known solution of the Motzkin fixture."""
    with criterion("motzkin-front"):
        prob, _ = motzkin
        cfg = DEFAULT_CONFIG
        assert cfg.weight_grid >= 5 and cfg.starts_per_weight >= 4
        start = time.time()
        archive = solve_front(prob, (math.inf, math.inf), cfg)
        elapsed = time.time() - start
        assert elapsed < 30.0
        best = min(archive,
                   key=lambda e: max(abs(e.x[0] - 1.0), abs(e.x[1] - 1.0)))
        assert max(abs(best.x[0] - 1.0), abs(best.x[1] - 1.0)) <= 1e-4
        assert max(abs(best.f[0]), abs(best.f[1])) <= 1e-6


def test_criterion_rabier_closed_form(degenerate_line):
    """Rabier values on the degenerate axis match (sqrt(2)/2)|t|."""
    with criterion("rabier-closed-form"):
        prob, _ = degenerate_line
        for t in (1.0, 5.0, 100.0):
            value = rabier_value(prob, [0.0, 0.0, t]).value
            expected = math.sqrt(2.0) / 2.0 * t
            assert abs(value - expected) <= 1e-6 * expected


def test_criterion_mfcq_fixtures(degenerate_line, motzkin):
    """Constraint qualification fails on the degenerate axis, holds on the
    orthant boundary."""
    with criterion("mfcq-probes"):
        prob41, _ = degenerate_line
        for t in (10.0, 100.0):
            report = mfcq_probe(prob41, [0.0, 0.0, t])
            assert not report.holds
            assert report.gradient_rank < prob41.l
        prob52, _ = motzkin
        for x in ([0.0, 3.0], [5.0, 0.0], [0.0, 0.0]):
            assert mfcq_probe(prob52, x).holds


def test_criterion_asymptotic_set_separation(degenerate_line):
    """The degenerate fixture separates tangency evidence from vanishing
    Rabier values: M-tameness fails while Palais-Smale holds."""
    with criterion("asymptotic-set-separation"):
        prob, ybar = degenerate_line
        cfg = SCHEDULE_CONFIG
        traces = trace_tangency(prob, ybar, cfg)
        verdicts = classify(prob, ybar, traces, cfg, mfcq_holds=False)
        mt = verdicts["m_tame"]
        assert mt.status == "fails_witness"
        assert max(abs(v) for v in mt.witness.limit) <= 1e-3
        assert verdicts["palais_smale"].status == "holds_evidence"
        # v grows proportionally to the radius along every trace
        for tr in traces:
            for rec in tr.records:
                assert rec.rabier >= 0.5 * rec.radius


def test_criterion_palais_smale_witness(hyperbola):
    """The hand-derived escape ray is a Palais-Smale failure witness."""
    with criterion("palais-smale-witness"):
        prob, ybar = hyperbola
        cfg = SCHEDULE_CONFIG.replace(radius_factor=2.0, radius_count=11)
        ks = cfg.radii()
        assert ks[-1] >= 1e4
        points = [np.array([k, 1.0 / k, -1.0]) for k in ks]
        trace = trace_from_points(prob, ybar, points)
        values = [rec.rabier for rec in trace.records]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3
        verdicts = classify(prob, ybar, [trace], cfg)
        ps = verdicts["palais_smale"]
        assert ps.status == "fails_witness"
        assert max(abs(ps.witness.limit[0] + 1.0),
                   abs(ps.witness.limit[1] - 1.0)) <= 1e-2


@pytest.mark.parametrize("budgets", sorted(BENCHMARK_CONFIGS))
def test_criterion_benchmark_hyperbola_verdict(hyperbola, budgets):
    """Under every benchmark verdict config, every condition fails along the
    escape ray (k, 1/k, -1), whose values tend to (-1, 1)."""
    with criterion(f"benchmark-verdict-hyperbola-{budgets}"):
        prob, ybar = hyperbola
        report = existence_verdict(prob, ybar, BENCHMARK_CONFIGS[budgets])
        assert report.status == STATUS_INAPPLICABLE
        assert report.failing_hypotheses == ["asymptotic_conditions"]
        assert [report.verdicts[c].status for c in CONDITIONS] == ["fails_witness"] * 4
        limit = report.verdicts["palais_smale"].witness.limit
        assert max(abs(limit[0] + 1.0), abs(limit[1] - 1.0)) <= 1e-2


def test_criterion_benchmark_motzkin_verdict(motzkin):
    """Under its benchmark config, existence is guaranteed, every condition
    holds and the front holds the known solution (1, 1)."""
    with criterion("benchmark-verdict-motzkin"):
        prob, ybar = motzkin
        report = existence_verdict(prob, ybar, BENCHMARK_CONFIGS["motzkin"])
        assert report.status == STATUS_GUARANTEED
        assert [report.verdicts[c].status for c in CONDITIONS] == ["holds_evidence"] * 4
        assert any(max(abs(e.x[0] - 1.0), abs(e.x[1] - 1.0)) <= 1e-4
                   for e in report.archive)


def test_criterion_benchmark_degenerate_verdict(degenerate_line):
    """Under its benchmark config, the qualification fails at infinity and
    the tangency witness (limit 0) separates M-tameness from Palais-Smale."""
    with criterion("benchmark-verdict-degenerate"):
        prob, ybar = degenerate_line
        report = existence_verdict(prob, ybar, BENCHMARK_CONFIGS["degenerate_line"])
        assert report.failing_hypotheses == ["mfcq_at_infinity_evidence"]
        mt = report.verdicts["m_tame"]
        assert mt.status == "fails_witness"
        assert max(abs(v) for v in mt.witness.limit) <= 1e-3
        assert report.verdicts["palais_smale"].status == "holds_evidence"


def test_criterion_filter_oracle_equivalence():
    """Vectorized nondominated filter equals the pairwise brute force."""
    with criterion("filter-oracle"):
        rng = np.random.default_rng(2024)
        for instance in range(200):
            if instance % 20 == 0:
                N = int(rng.integers(300, 501))
            else:
                N = int(rng.integers(1, 120))
            p = int(rng.integers(1, 6))
            values = rng.integers(-4, 5, size=(N, p)).astype(float)
            assert nondominated_filter(values.tolist()) \
                == brute_force_filter(values.tolist())


def test_criterion_gradient_property_suite():
    """500 random polynomials: analytic gradients match central differences."""
    with criterion("gradient-suite"):
        rng = np.random.default_rng(99)
        for _ in range(500):
            n = int(rng.integers(1, 6))
            poly = random_polynomial(rng, n, max_terms=8, max_degree=6)
            x = rng.uniform(-1.5, 1.5, size=n)
            exact = np.array([g.evaluate(x) for g in poly.gradient()])
            approx = central_difference(poly, x, step=1e-4)
            assert np.all(np.abs(approx - exact)
                          <= 1e-5 * np.maximum(1.0, np.abs(exact)))


def _random_problem(rng):
    n = int(rng.integers(2, 4))
    p = int(rng.integers(1, 3))
    objectives = tuple(random_polynomial(rng, n, max_terms=4, max_degree=3)
                       for _ in range(p))

    def linear():
        coeffs = rng.uniform(-2.0, 2.0, size=n)
        terms = {tuple(int(i == j) for j in range(n)): c
                 for i, c in enumerate(coeffs) if abs(c) > 1e-12}
        terms[(0,) * n] = float(rng.uniform(-2.0, 2.0))
        return Polynomial(n, terms)

    kind = rng.integers(0, 4)
    equalities, inequalities = (), ()
    if kind == 1:
        equalities = (linear(),)
    elif kind == 2:
        inequalities = (linear(),)
    elif kind == 3 and n >= 2:
        # unbounded hyperbola-style equality
        terms = {tuple(1 if i < 2 else 0 for i in range(n)): 1.0,
                 (0,) * n: -1.0}
        equalities = (Polynomial(n, terms),)
    return Problem(n=n, objectives=objectives, equalities=equalities,
                   inequalities=inequalities)


def _assert_consistent(verdicts, mfcq_holds):
    fails = {c for c, v in verdicts.items() if v.status == "fails_witness"}
    holds = {c for c, v in verdicts.items() if v.status == "holds_evidence"}
    # the scaled set sits inside the plain one
    assert not ("cerami" in fails and "palais_smale" in holds)
    if mfcq_holds:
        # under the qualification the tangency set sits inside the scaled one
        assert not ("m_tame" in fails and "cerami" in holds)
    # every failure witness has convergent (bounded) f, so properness fails too
    if fails:
        assert "proper" not in holds


def test_criterion_inclusion_chain_consistency(degenerate_line, hyperbola,
                                               motzkin):
    """Verdict patterns never violate the inclusion chain, on the fixtures
    and on 50 random problems."""
    with criterion("inclusion-chain"):
        cfg = DEFAULT_CONFIG.replace(radius_factor=10.0, radius_count=4,
                                     weights_per_radius=2)
        fixtures = [degenerate_line, hyperbola, motzkin]
        checked = 0
        for prob, ybar in fixtures:
            evidence, verdicts = classify_evidence(prob, ybar, cfg)
            _assert_consistent(verdicts, evidence.holds)
            checked += 1

        rng = np.random.default_rng(31337)
        generated = 0
        while generated < 50:
            prob = _random_problem(rng)
            ybar = tuple(math.inf for _ in range(prob.p))
            try:
                evidence, verdicts = classify_evidence(prob, ybar, cfg)
            except VpaError:
                generated += 1   # no verdict emitted, nothing to violate
                continue
            _assert_consistent(verdicts, evidence.holds)
            generated += 1
            checked += 1
        assert checked >= 20   # most random problems must actually classify


def test_criterion_verdict_determinism(tmp_path):
    """Two verdict runs with identical inputs produce byte-identical reports."""
    with criterion("verdict-determinism"):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "radius_factor": 10.0, "radius_count": 4,
            "weights_per_radius": 2, "weight_grid": 3,
            "starts_per_weight": 2, "section_budget": 8,
        }))
        blobs = []
        for tag in ("first", "second"):
            out = tmp_path / tag
            rc = cli_main(["verdict", "--problem",
                           str(PROBLEMS / "motzkin.json"),
                           "--config", str(config), "--out", str(out)])
            assert rc == 0
            blobs.append(((out / "verdict_report.json").read_bytes(),
                          (out / "archive.json").read_bytes(),
                          (out / "front.csv").read_bytes()))
        assert blobs[0] == blobs[1]
        assert_reports_reencode(tmp_path)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpa import (DEFAULT_CONFIG, Problem, check_feasible, parse, rabier_value,
                 section_probe, solve_front, solve_scalarized)
from vpa import pareto
from vpa.errors import ClassifyError, DivergenceError, SectionError, SolveError
from vpa.pareto import (ArchiveEntry, ParetoArchive, existence_verdict,
                        nondominated_filter)
from vpa.pipeline import Stage

INF2 = (math.inf, math.inf)


def brute_force_filter(values, mode="pareto"):
    """Independent O(N^2) oracle straight from the dominance definition."""
    keep = []
    for i, y in enumerate(values):
        dominated = False
        for j, other in enumerate(values):
            if j == i:
                continue
            if mode == "pareto":
                if all(a <= b for a, b in zip(other, y)) and tuple(other) != tuple(y):
                    dominated = True
                    break
            else:
                if all(a < b for a, b in zip(other, y)):
                    dominated = True
                    break
            if j < i and tuple(other) == tuple(y):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


class TestNondominatedFilter:
    def test_basic_example(self):
        assert nondominated_filter([(0, 0), (1, -1), (2, 2)]) == [0, 1]

    def test_singleton(self):
        assert nondominated_filter([(3.5, -1.0)]) == [0]

    def test_exact_duplicates_keep_first(self):
        assert nondominated_filter([(0.0, 0.0), (0.0, 0.0)]) == [0]
        assert nondominated_filter([(0.0, 0.0), (0.0, 0.0)], mode="weak") == [0]

    def test_weak_mode_keeps_partially_tied_points(self):
        values = [(0.0, 1.0), (0.0, 0.0)]
        assert nondominated_filter(values, mode="weak") == [0, 1]
        assert nondominated_filter(values, mode="pareto") == [1]

    def test_empty_input(self):
        assert nondominated_filter([]) == []

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            nondominated_filter([(1.0,)], mode="lexicographic")

    @pytest.mark.parametrize("mode", ["pareto", "weak"])
    def test_matches_brute_force(self, mode):
        rng = np.random.default_rng(123)
        for _ in range(40):
            N = int(rng.integers(1, 120))
            p = int(rng.integers(1, 6))
            values = rng.integers(-3, 4, size=(N, p)).astype(float)
            assert nondominated_filter(values, mode) \
                == brute_force_filter(values.tolist(), mode)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        values = rng.integers(-2, 3, size=(60, 3)).astype(float)
        once = nondominated_filter(values)
        twice = nondominated_filter([values[i] for i in once])
        assert twice == list(range(len(once)))

    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.floats(0.1, 3.0), st.floats(-2.0, 2.0)),
                    min_size=2, max_size=2))
    def test_invariant_under_positive_affine_rescaling(self, transform):
        rng = np.random.default_rng(17)
        values = rng.normal(size=(50, 2))
        scaled = values * [t[0] for t in transform] + [t[1] for t in transform]
        assert nondominated_filter(values) == nondominated_filter(scaled)

    def test_p_equals_one_reduces_to_minimum(self):
        values = [(3.0,), (1.0,), (2.0,), (1.0,)]
        assert nondominated_filter(values) == [1]


class TestArchive:
    def test_insertion_keeps_invariant(self):
        archive = ParetoArchive()
        for i, f in enumerate([(2.0, 2.0), (1.0, 3.0), (0.5, 0.5), (0.5, 0.5)]):
            archive.add(ArchiveEntry(x=(float(i),), f=f, weights=(1.0,),
                                     rabier_residual=0.0))
            vals = archive.values()
            assert nondominated_filter(vals) == list(range(len(vals)))
        assert archive.values() == [(0.5, 0.5)]


class TestSolveScalarized:
    def test_motzkin_equal_weights(self, motzkin):
        prob, _ = motzkin
        x, residual = solve_scalarized(prob, [0.5, 0.5], [2.0, 2.0])
        assert np.allclose(x, [1.0, 1.0], atol=1e-6)
        assert residual <= DEFAULT_CONFIG.tol_stationary

    def test_scalar_quadratic(self):
        prob = Problem(n=1, objectives=(parse("(x1 - 3)^2", 1),))
        x, _ = solve_scalarized(prob, [1.0], [0.0])
        assert x[0] == pytest.approx(3.0, abs=1e-6)

    def test_unbounded_scalarization_diverges(self):
        prob = Problem(n=1, objectives=(parse("x1", 1),))
        with pytest.raises(DivergenceError):
            solve_scalarized(prob, [1.0], [0.0])

    def test_weights_validated(self, motzkin):
        prob, _ = motzkin
        with pytest.raises(ValueError):
            solve_scalarized(prob, [0.9, 0.3], [1.0, 1.0])

    def test_solutions_have_small_rabier_value(self, motzkin):
        prob, _ = motzkin
        x, _ = solve_scalarized(prob, [0.25, 0.75], [3.0, 0.5])
        assert rabier_value(prob, x).value <= DEFAULT_CONFIG.tol_stationary


class TestSolveFront:
    def test_motzkin_front_is_the_known_singleton(self, motzkin):
        prob, _ = motzkin
        archive = solve_front(prob, INF2, DEFAULT_CONFIG)
        assert len(archive) >= 1
        best = min(archive.entries,
                   key=lambda e: max(abs(e.x[0] - 1), abs(e.x[1] - 1)))
        assert np.allclose(best.x, [1.0, 1.0], atol=1e-4)
        assert np.allclose(best.f, [0.0, 0.0], atol=1e-6)

    def test_linear_segment_front(self):
        prob = Problem(n=2, objectives=(parse("x1", 2), parse("x2", 2)),
                       equalities=(parse("x1 + x2 - 1", 2),))
        archive = solve_front(prob, INF2, DEFAULT_CONFIG)
        vals = archive.values()
        assert vals
        assert all(abs(v[0] + v[1] - 1.0) < 1e-6 for v in vals)
        assert nondominated_filter(vals) == list(range(len(vals)))

    def test_archive_points_are_feasible_and_stationary(self, motzkin):
        prob, _ = motzkin
        archive = solve_front(prob, INF2, DEFAULT_CONFIG)
        for entry in archive.entries:
            assert check_feasible(prob, np.array(entry.x)).feasible
            assert entry.rabier_residual <= DEFAULT_CONFIG.tol_stationary

    def test_empty_feasible_set_errors(self):
        prob = Problem(n=1, objectives=(parse("x1", 1),),
                       equalities=(parse("x1", 1),),
                       inequalities=(parse("x1 - 1", 1),))
        cfg = DEFAULT_CONFIG.replace(weight_grid=2, starts_per_weight=2,
                                     projection_restarts=1)
        with pytest.raises(SolveError, match="failed"):
            solve_front(prob, (math.inf,), cfg)

    def test_section_restriction(self, motzkin):
        prob, ybar = motzkin
        archive = solve_front(prob, ybar, DEFAULT_CONFIG)
        # the (0,0) section admits only f = (0,0)
        for entry in archive.entries:
            assert np.allclose(entry.f, [0.0, 0.0], atol=1e-5)


class TestSectionProbe:
    def test_hyperbola_section_is_bounded(self, hyperbola, light_config):
        prob, ybar = hyperbola
        report = section_probe(prob, ybar, 16, seed=1, cfg=light_config)
        assert report.bounded_evidence
        omega = report.lower_witness
        assert omega is not None
        for value in report.section_values:
            assert all(v >= w for v, w in zip(value, omega))

    def test_motzkin_section_clusters_at_origin(self, motzkin, light_config):
        prob, ybar = motzkin
        report = section_probe(prob, ybar, 16, seed=1, cfg=light_config)
        assert report.bounded_evidence
        for value in report.section_values:
            assert np.allclose(value, [0.0, 0.0], atol=1e-4)

    def test_unbounded_linear_objective_escapes(self, light_config):
        prob = Problem(n=1, objectives=(parse("x1", 1),))
        report = section_probe(prob, (0.0,), 16, seed=1, cfg=light_config)
        assert not report.bounded_evidence
        assert report.escape_trace
        radii = [ep.radius for ep in report.escape_trace]
        assert radii == sorted(radii)
        assert report.escape_trace[-1].f[0] < report.escape_trace[0].f[0]

    def test_unreachable_section_errors(self, motzkin, light_config):
        prob, _ = motzkin
        with pytest.raises(SectionError):
            section_probe(prob, (-5.0, -5.0), 8, seed=1, cfg=light_config)

    def test_needs_finite_component(self, motzkin, light_config):
        prob, _ = motzkin
        with pytest.raises(ValueError):
            section_probe(prob, INF2, 8, seed=1, cfg=light_config)


class TestExistenceVerdict:
    @pytest.fixture()
    def cheap_stages(self, monkeypatch):
        """Stub the sampling stages so only the classify handling runs."""
        monkeypatch.setattr(pareto, "chain_stage",
                            lambda *a, **k: Stage((), lambda handles: []))
        monkeypatch.setattr(pareto, "front_stage",
                            lambda *a, **k: Stage((), lambda handles: ParetoArchive()))

    def test_classify_error_becomes_a_note(self, monkeypatch, cheap_stages,
                                           light_config):
        def refuse(*args, **kwargs):
            raise ClassifyError("no evidence")
        monkeypatch.setattr(pareto, "classify", refuse)
        prob = Problem(n=1, objectives=(parse("x1^2", 1),))
        report = existence_verdict(prob, (math.inf,), light_config)
        assert report.verdicts == {}
        assert "classification failed: no evidence" in report.notes

    def test_bug_in_classify_propagates(self, monkeypatch, cheap_stages,
                                        light_config):
        def broken(*args, **kwargs):
            raise RuntimeError("bug")
        monkeypatch.setattr(pareto, "classify", broken)
        prob = Problem(n=1, objectives=(parse("x1^2", 1),))
        with pytest.raises(RuntimeError, match="bug"):
            existence_verdict(prob, (math.inf,), light_config)

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpa import (DEFAULT_CONFIG, Problem, check_feasible, parse, rabier_value,
                 section_probe, solve_front, solve_scalarized)
from vpa import pareto, pipeline
from vpa.errors import (ClassifyError, DivergenceError, NonFiniteError,
                        SectionError, SolveError)
from vpa.pareto import (ArchiveEntry, ParetoArchive, existence_verdict,
                        nondominated_filter)
from vpa.cli import main
from vpa.pipeline import Stage

from conftest import BENCHMARK_CONFIGS, LIGHT_CONFIG, PROBLEMS

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


# the front of the benchmark's hyperbola verdict: 6 weights, 3 starts each
LANE_CONFIG = DEFAULT_CONFIG.replace(weight_grid=3, starts_per_weight=3)
FIXTURES = ("motzkin", "hyperbola", "degenerate_line")


def front_draws(prob, cfg=LANE_CONFIG):
    return [(w, s) for widx, w in enumerate(pareto._weight_draws(prob.p, cfg))
            for s in pareto._starts(prob, cfg, widx)]


def same_outcome(a, b) -> bool:
    """Two lanes' outcomes agree bit for bit: the same point and residual,
    or the same failure with the same message."""
    (label_a, value_a), (label_b, value_b) = a, b
    if label_a != label_b:
        return False
    if label_a != "ok":
        return type(value_a) is type(value_b) and str(value_a) == str(value_b)
    return value_a[0].tobytes() == value_b[0].tobytes() and value_a[1] == value_b[1]


class TestFrontLanes:
    """The front's scalarizations run as lanes of one lockstep augmented
    Lagrangian; a lane's result must be what its draw gives alone. This
    rests on each row of the batched table product depending on its own
    point only (one matrix-vector product per row), which a BLAS could
    break."""

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_each_lane_equals_its_solve_alone(self, fixture, request):
        prob, _ = request.getfixturevalue(fixture)
        draws = front_draws(prob)
        lanes = pareto._scalarized_lanes(prob, draws, LANE_CONFIG)
        for (weights, start), lane in zip(draws, lanes, strict=True):
            try:
                alone = "ok", solve_scalarized(prob, weights, start, LANE_CONFIG)
            except (SolveError, DivergenceError) as exc:
                alone = lane[0], exc
            assert same_outcome(lane, alone), (weights, start)
        assert {label for label, _ in lanes} <= {"ok", *pareto._FAILURES}

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_a_lane_does_not_depend_on_its_batch_mates(self, fixture, request):
        prob, _ = request.getfixturevalue(fixture)
        draws = front_draws(prob)
        lanes = pareto._scalarized_lanes(prob, draws, LANE_CONFIG)
        order = np.random.default_rng(3).permutation(len(draws))
        for subset in (order, order[: len(draws) // 2], order[::-3]):
            mixed = pareto._scalarized_lanes(prob, [draws[k] for k in subset], LANE_CONFIG)
            assert all(same_outcome(lanes[k], lane) for k, lane in zip(subset, mixed))

    def test_an_overflowing_lane_fails_alone(self):
        # from 10 the first product overflows (10^400); from 0.5, where the
        # gradient 400 * 0.5^399 is far below any tolerance, the lane stops
        # at once, as it does alone
        prob = Problem(n=1, objectives=(parse("x1^400", 1),))
        draws = [(np.ones(1), np.array([10.0])), (np.ones(1), np.array([0.5]))]
        with np.errstate(over="ignore", invalid="ignore"):
            lanes = pareto._scalarized_lanes(prob, draws, DEFAULT_CONFIG)
        assert lanes[0][0] == "non-finite" and isinstance(lanes[0][1], NonFiniteError)
        alone = pareto._scalarized_lanes(prob, draws[1:], DEFAULT_CONFIG)
        assert same_outcome(lanes[1], alone[0])
        assert lanes[1][0] == "ok" and lanes[1][1][0].tolist() == [0.5]

    def test_the_failure_note_counts_each_kind(self):
        prob = Problem(n=1, objectives=(parse("x1", 1),),
                       equalities=(parse("x1", 1),),
                       inequalities=(parse("x1 - 1", 1),))
        cfg = DEFAULT_CONFIG.replace(weight_grid=2, starts_per_weight=2,
                                     projection_restarts=1)
        with pytest.raises(SolveError,
                           match=r"^all 2 scalarized runs failed \(2 infeasible\)$"):
            solve_front(prob, (math.inf,), cfg)


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
        report = section_probe(prob, ybar, light_config)
        assert report.bounded_evidence
        omega = report.lower_witness
        assert omega is not None
        for value in report.section_values:
            assert all(v >= w for v, w in zip(value, omega))

    def test_motzkin_section_clusters_at_origin(self, motzkin, light_config):
        prob, ybar = motzkin
        report = section_probe(prob, ybar, light_config)
        assert report.bounded_evidence
        for value in report.section_values:
            assert np.allclose(value, [0.0, 0.0], atol=1e-4)

    def test_unbounded_linear_objective_escapes(self, light_config):
        prob = Problem(n=1, objectives=(parse("x1", 1),))
        report = section_probe(prob, (0.0,), light_config)
        assert not report.bounded_evidence
        assert report.escape_trace
        radii = [ep.radius for ep in report.escape_trace]
        assert radii == sorted(radii)
        assert report.escape_trace[-1].f[0] < report.escape_trace[0].f[0]

    def test_infeasible_diverged_descent_is_no_sample(self, monkeypatch,
                                                      light_config):
        # f = x1 (1 - x2) + x2 is 1 on S = {x2 = 1} and unbounded off it:
        # both descents reach the norm cap off S, and their last points must
        # not enter the section
        prob = Problem(n=2, objectives=(parse("x1 - x1*x2 + x2", 2),),
                       equalities=(parse("x2 - 1", 2),))
        descent = pareto._section_descent
        diverged = []

        def recording(*args):
            try:
                return descent(*args)
            except DivergenceError as exc:
                diverged.append(check_feasible(prob, exc.point[:2]).feasible)
                raise
        monkeypatch.setattr(pipeline, "_pool_workers", lambda units: 0)
        monkeypatch.setattr(pareto, "_section_descent", recording)
        report = section_probe(prob, (2.0,), light_config)
        assert diverged == [False, False]
        assert report.section_values
        assert all(v == pytest.approx(1.0) for (v,) in report.section_values)
        assert report.lower_witness[0] == pytest.approx(1.0, abs=1e-5)

    def test_unreachable_section_errors(self, motzkin, light_config):
        prob, _ = motzkin
        with pytest.raises(SectionError):
            section_probe(prob, (-5.0, -5.0), light_config.replace(section_budget=8))

    def test_needs_finite_component(self, motzkin, light_config):
        prob, _ = motzkin
        with pytest.raises(ValueError):
            section_probe(prob, INF2, light_config.replace(section_budget=8))


class TestRayPool:
    """One command samples each feasible ray once, whatever reads it."""

    @pytest.fixture()
    def count_rays(self, monkeypatch):
        """Run in-process, without the front and the chains, and count the
        rays sampled."""
        monkeypatch.setattr(pipeline, "_pool_workers", lambda units: 0)
        monkeypatch.setattr(pareto, "chain_stage",
                            lambda *a, **k: Stage((), lambda handles: []))
        monkeypatch.setattr(pareto, "front_stage",
                            lambda *a, **k: Stage((), lambda handles: ParetoArchive()))
        seeds = []
        sample = pareto.sample_feasible_ray

        def counting(prob, radii, seed, cfg):
            seeds.append(seed)
            return sample(prob, radii, seed, cfg)
        monkeypatch.setattr(pareto, "sample_feasible_ray", counting)
        return seeds

    @pytest.mark.parametrize("fixture", ["hyperbola", "motzkin"])
    @pytest.mark.parametrize("cfg, rays", [
        *((cfg, 2) for cfg in BENCHMARK_CONFIGS.values()),
        (LIGHT_CONFIG, 2), (DEFAULT_CONFIG, 4)])
    def test_verdict_with_a_section(self, count_rays, request, fixture, cfg, rays):
        prob, ybar = request.getfixturevalue(fixture)
        report = existence_verdict(prob, ybar, cfg)
        assert count_rays == [2000 + k for k in range(rays)]
        assert report.section is not None
        assert [trace.label for trace in report.traces] == ["ray-00", "ray-01"]

    def test_verdict_without_a_section(self, count_rays, degenerate_line):
        prob, ybar = degenerate_line
        existence_verdict(prob, ybar, DEFAULT_CONFIG)
        assert count_rays == [2000, 2001]

    def test_classify(self, count_rays, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(LIGHT_CONFIG.to_dict()))
        main(["classify", "--problem", str(PROBLEMS / "hyperbola.json"),
              "--config", str(config), "--out", str(tmp_path / "out")])
        assert count_rays == [2000, 2001]

    @pytest.mark.parametrize("budget, rays", [(8, 1), (15, 1), (16, 2), (40, 5)])
    def test_section(self, count_rays, hyperbola, budget, rays):
        prob, ybar = hyperbola
        section_probe(prob, ybar, LIGHT_CONFIG.replace(section_budget=budget))
        assert count_rays == [2000 + k for k in range(rays)]


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

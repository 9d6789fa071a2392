import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpa import (DEFAULT_CONFIG, Problem, check_feasible, parse, rabier_value,
                 section_probe, solve_front, solve_scalarized)
from vpa import asymptotics, pareto, pipeline
from vpa.errors import (ClassifyError, DivergenceError, NonFiniteError,
                        ProblemValidationError, SectionError, SolveError)
from vpa.certificates import TOL_MARGIN
from vpa.pareto import (TOL_STATIONARY, ArchiveEntry, classify_evidence,
                        existence_verdict, nondominated_filter)
from vpa.cli import main
from vpa.pipeline import Stage

from conftest import LIGHT_CONFIG, PROBLEMS

INF2 = (math.inf, math.inf)


def brute_force_filter(values):
    """Independent O(N^2) oracle straight from the dominance definition."""
    keep = []
    for i, y in enumerate(values):
        dominated = False
        for j, other in enumerate(values):
            if j == i:
                continue
            if all(a <= b for a, b in zip(other, y)) and tuple(other) != tuple(y):
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

    def test_empty_input(self):
        assert nondominated_filter([]) == []

    def test_matches_brute_force(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            N = int(rng.integers(1, 120))
            p = int(rng.integers(1, 6))
            values = rng.integers(-3, 4, size=(N, p)).astype(float)
            assert nondominated_filter(values) == brute_force_filter(values.tolist())

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


class TestSolveScalarized:
    def test_motzkin_equal_weights(self, motzkin):
        prob, _ = motzkin
        x, residual = solve_scalarized(prob, [0.5, 0.5], [2.0, 2.0])
        assert np.allclose(x, [1.0, 1.0], atol=1e-6)
        assert residual <= TOL_STATIONARY

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
        assert rabier_value(prob, x).value <= TOL_STATIONARY


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
        lanes = pareto._scalarized_lanes(prob, draws)
        for (weights, start), lane in zip(draws, lanes, strict=True):
            try:
                alone = "ok", solve_scalarized(prob, weights, start)
            except (SolveError, DivergenceError) as exc:
                alone = lane[0], exc
            assert same_outcome(lane, alone), (weights, start)
        assert {label for label, _ in lanes} <= {"ok", *pareto._FAILURES}

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_a_lane_does_not_depend_on_its_batch_mates(self, fixture, request):
        prob, _ = request.getfixturevalue(fixture)
        draws = front_draws(prob)
        lanes = pareto._scalarized_lanes(prob, draws)
        order = np.random.default_rng(3).permutation(len(draws))
        for subset in (order, order[: len(draws) // 2], order[::-3]):
            mixed = pareto._scalarized_lanes(prob, [draws[k] for k in subset])
            assert all(same_outcome(lanes[k], lane) for k, lane in zip(subset, mixed))

    def test_an_overflowing_lane_fails_alone(self):
        # from 10 the first product overflows (10^400); from 0.5, where the
        # gradient 400 * 0.5^399 is far below any tolerance, the lane stops
        # at once, as it does alone
        prob = Problem(n=1, objectives=(parse("x1^400", 1),))
        draws = [(np.ones(1), np.array([10.0])), (np.ones(1), np.array([0.5]))]
        with np.errstate(over="ignore", invalid="ignore"):
            lanes = pareto._scalarized_lanes(prob, draws)
        assert lanes[0][0] == "non-finite" and isinstance(lanes[0][1], NonFiniteError)
        alone = pareto._scalarized_lanes(prob, draws[1:])
        assert same_outcome(lanes[1], alone[0])
        assert lanes[1][0] == "ok" and lanes[1][1][0].tolist() == [0.5]

    def test_the_failure_note_counts_each_kind(self):
        prob = Problem(n=1, objectives=(parse("x1", 1),),
                       equalities=(parse("x1", 1),),
                       inequalities=(parse("x1 - 1", 1),))
        cfg = DEFAULT_CONFIG.replace(weight_grid=2, starts_per_weight=2)
        with pytest.raises(SolveError,
                           match=r"^all 2 scalarized runs failed \(2 infeasible\)$"):
            solve_front(prob, (math.inf,), cfg)


class TestSolveFront:
    def test_motzkin_front_is_the_known_singleton(self, motzkin):
        prob, _ = motzkin
        archive = solve_front(prob, INF2, DEFAULT_CONFIG)
        assert len(archive) >= 1
        best = min(archive,
                   key=lambda e: max(abs(e.x[0] - 1), abs(e.x[1] - 1)))
        assert np.allclose(best.x, [1.0, 1.0], atol=1e-4)
        assert np.allclose(best.f, [0.0, 0.0], atol=1e-6)

    def test_linear_segment_front(self):
        prob = Problem(n=2, objectives=(parse("x1", 2), parse("x2", 2)),
                       equalities=(parse("x1 + x2 - 1", 2),))
        archive = solve_front(prob, INF2, DEFAULT_CONFIG)
        vals = [entry.f for entry in archive]
        assert vals
        assert all(abs(v[0] + v[1] - 1.0) < 1e-6 for v in vals)
        assert nondominated_filter(vals) == list(range(len(vals)))

    def test_archive_points_are_feasible_and_stationary(self, motzkin):
        prob, _ = motzkin
        archive = solve_front(prob, INF2, DEFAULT_CONFIG)
        for entry in archive:
            assert check_feasible(prob, np.array(entry.x)).feasible
            assert entry.rabier_residual <= TOL_STATIONARY

    def test_the_archive_is_one_filter_pass_in_draw_order(self, monkeypatch):
        # accepted lanes on a small grid of values, so with dominated
        # entries and exact duplicates, and failed lanes between them
        prob = Problem(n=2, objectives=(parse("x1", 2), parse("x2", 2)))
        rng = np.random.default_rng(7)
        accepted = []

        def lanes(prob, draws):
            out = []
            for k, (weights, _) in enumerate(draws):
                if k % 5 == 4:
                    out.append(("infeasible", SolveError("stub")))
                    continue
                x = rng.integers(0, 4, size=2).astype(float)
                accepted.append(ArchiveEntry(x=tuple(x), f=tuple(x),
                                             weights=tuple(weights), rabier_residual=0.0))
                out.append(("ok", (x, 0.0)))
            return out
        monkeypatch.setattr(pareto, "_scalarized_lanes", lanes)
        archive = solve_front(prob, INF2, DEFAULT_CONFIG)
        keep = brute_force_filter([entry.f for entry in accepted])
        assert len(keep) < len(accepted) - 1
        assert archive == [accepted[i] for i in keep]

    def test_empty_feasible_set_errors(self):
        prob = Problem(n=1, objectives=(parse("x1", 1),),
                       equalities=(parse("x1", 1),),
                       inequalities=(parse("x1 - 1", 1),))
        cfg = DEFAULT_CONFIG.replace(weight_grid=2, starts_per_weight=2)
        with pytest.raises(SolveError, match="failed"):
            solve_front(prob, (math.inf,), cfg)

    def test_section_restriction(self, motzkin):
        prob, ybar = motzkin
        archive = solve_front(prob, ybar, DEFAULT_CONFIG)
        # the (0,0) section admits only f = (0,0)
        for entry in archive:
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

    def test_hyperbola_lower_witness_bounds_the_escape_rays(self, monkeypatch,
                                                           hyperbola, light_config):
        # (k, 1/k, c) lies in the section for c in [-1.41, -1] and k >= 10,
        # with f = (c, c^2 + 1/k^2); the chains' records reach it far out
        prob, ybar = hyperbola
        escape = pareto._detect_value_escape
        seen = []

        def recording(samples, top):
            seen.extend(norm for norm, _, _ in samples)
            return escape(samples, top)
        monkeypatch.setattr(pareto, "_detect_value_escape", recording)
        omega = existence_verdict(prob, ybar, light_config).section.lower_witness
        for k in (10.0, 1e3, 1e5):
            for c in (-1.41, -1.0):
                f = prob.f([k, 1.0 / k, c])
                assert all(w <= v for w, v in zip(omega, f)), (k, c, omega)
        assert len({math.floor(math.log10(norm)) for norm in seen}) >= 3

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

    def test_record_samples_match_a_second_evaluation(self, hyperbola, light_config):
        # the section reads the chains' records as they are; testing their
        # points again gives the same samples, bit for bit
        prob, ybar = hyperbola
        (read_chains,) = pipeline.run(asymptotics.chain_stage(prob, ybar, light_config))
        chains = read_chains()
        points = [rec.point for rec in asymptotics.flatten_records(chains)]
        count, samples = pareto._record_samples(chains)
        again_count, again = pareto._section_samples(prob, ybar, points)
        assert count == again_count == len(points) and samples
        assert [(norm, tuple(x), tuple(fv)) for norm, x, fv in samples] \
            == [(norm, tuple(x), tuple(float(v) for v in fv)) for norm, x, fv in again]


class TestChainStage:
    """The tangency chains are the one source of far-out points: a command
    runs them once, whatever reads them."""

    @pytest.mark.parametrize("command", ["verdict", "classify", "section"])
    def test_a_command_runs_the_chain_stage_once(self, monkeypatch, tmp_path, command):
        monkeypatch.setattr(pipeline, "_pool_workers", lambda units: 0)
        stages, units = [], []
        build, unit = pareto.chain_stage, asymptotics._trace_chain

        def counting_stage(*args):
            stages.append(args)
            return build(*args)

        def counting_unit(prob, ybar, weights, c, cfg):
            units.append(c)
            return unit(prob, ybar, weights, c, cfg)
        monkeypatch.setattr(pareto, "chain_stage", counting_stage)
        monkeypatch.setattr(asymptotics, "_trace_chain", counting_unit)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(LIGHT_CONFIG.to_dict()))
        assert main([command, "--problem", str(PROBLEMS / "hyperbola.json"),
                     "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert len(stages) == 1
        assert units == list(range(LIGHT_CONFIG.weights_per_radius))


class TestMfcqEvidence:
    """MFCQ is probed at the chains' points and projected starts."""

    def test_motzkin_holds_at_projected_starts(self, motzkin, light_config):
        # every below-ybar slice is empty, so no chain has a record: the
        # probes are the projected starts, 3 per chain and radius
        prob, ybar = motzkin
        evidence, _ = classify_evidence(prob, ybar, light_config)
        assert evidence.holds and not evidence.failures
        assert evidence.points_checked == 3 * 4 * 5

    def test_motzkin_probes_sit_on_empty_radii(self, motzkin, light_config):
        # each chain's trace keeps its probes radius by radius: every radius
        # is an empty slice with its 3 projected starts, and the evidence
        # counts exactly these
        prob, ybar = motzkin
        (read_chains,) = pipeline.run(pareto.chain_stage(prob, ybar, light_config))
        chains = read_chains()
        assert len(chains) == 4
        for chain in chains:
            assert [(o.status, o.probes) for o in chain.outcomes] == [("empty", 3)] * 5
            assert chain.records == [] and chain.coverage_radii == light_config.radii()
        evidence = pareto._mfcq_evidence(chains)
        assert evidence.points_checked == sum(
            o.probes for chain in chains for o in chain.outcomes) == 60

    def test_hyperbola_holds(self, hyperbola, light_config):
        prob, ybar = hyperbola
        evidence, _ = classify_evidence(prob, ybar, light_config)
        assert evidence.holds and evidence.points_checked > 0

    def test_degenerate_line_fails_at_every_probe(self, degenerate_line, light_config):
        # on the line x1 = x2 = 0 the gradients of the two equalities are
        # dependent and the active x1^3 has gradient 0; a projected start a
        # little off the line has equality gradients of full rank, and the
        # direction test fails there instead
        prob, ybar = degenerate_line
        evidence, _ = classify_evidence(prob, ybar, light_config)
        assert not evidence.holds
        assert len(evidence.failures) == evidence.points_checked > 0
        for failure in evidence.failures:
            assert failure["gradient_rank"] < 2 \
                or failure["margin"] <= TOL_MARGIN, failure

    def test_probes_outlive_failed_chains(self, monkeypatch, light_config):
        # when no chain resolves a radius the verdict notes it, but the
        # probes made on the way still reach the MFCQ evidence
        failures = ({"radius": 10.0, "x": [0.0], "gradient_rank": 0, "margin": None},)
        failed = asymptotics.RadiusOutcome(10.0, "failed", None, 3, failures)
        monkeypatch.setattr(pareto, "chain_stage", lambda *a, **k: Stage(
            (), lambda values: [asymptotics.TraceResult("stub", None, (failed,))]))
        monkeypatch.setattr(pareto, "front_stage",
                            lambda *a, **k: Stage((), lambda values: []))
        prob = Problem(n=1, objectives=(parse("x1^2", 1),))
        report = existence_verdict(prob, (math.inf,), light_config)
        # one cause, one note: no classification runs on no traces
        assert [note for note in report.notes if "failed" in note] == [
            "sphere tracking failed: no radius converged in any chain"]
        assert report.verdicts == {}
        assert (report.mfcq.holds, report.mfcq.points_checked) == (False, 3)
        assert report.mfcq.failures == list(failures)


class TestLibraryYbar:
    """The library entry points check ybar as `parse_ybar` does: +inf is a
    bound, a wrong length, NaN and -inf are input errors, not truncated by
    zip, read as +inf or left to fail with an IndexError."""

    @pytest.mark.parametrize("ybar, message", [
        ((-math.inf, 2.0), "-inf is NaN or -inf"),
        ((math.nan, 2.0), "nan is NaN or -inf"),
        ((2.0,), "ybar has 1 entries, problem has 2 objectives"),
        ((-1.0, 2.0, 3.0), "ybar has 3 entries, problem has 2 objectives"),
    ])
    @pytest.mark.parametrize("entry", ["solve_front", "section_probe", "trace_tangency",
                                       "existence_verdict", "classify"])
    def test_bad_ybar_is_refused(self, hyperbola, light_config, entry, ybar, message):
        prob, good = hyperbola
        run_entry = {
            "solve_front": lambda: solve_front(prob, ybar, light_config),
            "section_probe": lambda: section_probe(prob, ybar, light_config),
            "trace_tangency": lambda: asymptotics.trace_tangency(prob, ybar, light_config),
            "existence_verdict": lambda: existence_verdict(prob, ybar, light_config),
            "classify": lambda: asymptotics.classify(prob, ybar, [
                asymptotics.trace_from_points(prob, good, [[10.0, 0.1, -1.0]])],
                light_config),
        }[entry]
        with pytest.raises(ProblemValidationError, match=re.escape(message)):
            run_entry()


class TestExistenceVerdict:
    @pytest.fixture()
    def cheap_stages(self, monkeypatch):
        """Stub the sampling stages so only the classify handling runs: one
        chain resolved at one radius, with no MFCQ probe."""
        chain = asymptotics.TraceResult(
            "stub", None, (asymptotics.RadiusOutcome(10.0, "empty"),))
        monkeypatch.setattr(pareto, "chain_stage",
                            lambda *a, **k: Stage((), lambda handles: [chain]))
        monkeypatch.setattr(pareto, "front_stage",
                            lambda *a, **k: Stage((), lambda handles: []))

    def test_classify_error_becomes_a_note(self, monkeypatch, cheap_stages,
                                           light_config):
        def refuse(*args, **kwargs):
            raise ClassifyError("no evidence")
        monkeypatch.setattr(pareto, "classify", refuse)
        prob = Problem(n=1, objectives=(parse("x1^2", 1),))
        report = existence_verdict(prob, (math.inf,), light_config)
        assert report.verdicts == {}
        assert "classification failed: no evidence" in report.notes

    def test_section_error_becomes_a_note(self, cheap_stages, light_config):
        # x1^2 never falls below -1, so the descents find no section point
        prob = Problem(n=1, objectives=(parse("x1^2", 1),))
        report = existence_verdict(prob, (-1.0,), light_config)
        assert report.section is None
        assert "bounded_section_evidence" in report.failing_hypotheses
        assert [note for note in report.notes if note.startswith("section")] == [
            "section probe failed: no section point found; ybar may be outside "
            "the reachable image"]

    def test_bug_in_classify_propagates(self, monkeypatch, cheap_stages,
                                        light_config):
        def broken(*args, **kwargs):
            raise RuntimeError("bug")
        monkeypatch.setattr(pareto, "classify", broken)
        prob = Problem(n=1, objectives=(parse("x1^2", 1),))
        with pytest.raises(RuntimeError, match="bug"):
            existence_verdict(prob, (math.inf,), light_config)

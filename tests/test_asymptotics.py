import csv
import io
import math
from types import SimpleNamespace

import numpy as np
import pytest
import sympy

from conftest import LIGHT_CONFIG, PROBLEMS
from test_acceptance import SCHEDULE_CONFIG
from vpa import Problem, asymptotics, load_problem, make_record, pipeline
from vpa.asymptotics import (RadiusOutcome, TraceRecord, TraceResult, classify,
                             flatten_records, trace_csv, trace_from_points,
                             trace_tangency)
from vpa.errors import ClassifyError, ProjectionError, TraceError
from vpa.pareto import STATUS_INAPPLICABLE, existence_verdict
from vpa.polynomials import Polynomial
from vpa.problem import _slice_residual, project_to_sphere_slice
from vpa.solvers import random_unit_vector

INF = (math.inf, math.inf)


def hyperbola_ray(ks):
    return [np.array([k, 1.0 / k, -1.0]) for k in ks]


@pytest.fixture(scope="module")
def line_traces(degenerate_line, light_config):
    prob, ybar = degenerate_line
    return trace_tangency(prob, ybar, light_config)


class TestRecords:
    def test_scaled_value_is_radius_times_value(self, hyperbola):
        prob, ybar = hyperbola
        rec = make_record(prob, ybar, [30.0, 1.0 / 30.0, -1.0])
        assert rec.scaled_rabier == rec.radius * rec.rabier
        assert rec.radius == pytest.approx(np.linalg.norm(rec.point))

    def test_below_flag_matches_values(self, hyperbola):
        prob, ybar = hyperbola
        below = make_record(prob, ybar, [30.0, 1.0 / 30.0, -1.0])
        above = make_record(prob, ybar, [1.0, 1.0, 0.0])   # f1 = 0 > -1
        assert below.below_ybar and not above.below_ybar

    def test_far_out_flag_has_no_radius_slack(self, hyperbola):
        # f1 = -0.99999 exceeds ybar1 = -1 by 1e-5 at radius 1e5: above ybar,
        # as the section and the front judge it, whatever the radius
        prob, _ = hyperbola
        rec = make_record(prob, (-1.0, 2.0), (1e5, 1e-5, -1.0 + 1e-5))
        assert rec.radius == pytest.approx(1e5)
        assert not rec.below_ybar


class TestCustomRay:
    def test_rabier_decays_like_derived_rate(self, hyperbola):
        prob, ybar = hyperbola
        ks = [10.0 * 2 ** j for j in range(8)]
        trace = trace_from_points(prob, ybar, hyperbola_ray(ks))
        values = [rec.rabier for rec in trace.records]
        # hand-derived multiplier tau = (2/3, 1/3) leaves residual 2/(3k)
        for k, v in zip(ks, values):
            assert v == pytest.approx(2.0 / (3.0 * k), rel=1e-2)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_f_values_approach_limit(self, hyperbola):
        prob, ybar = hyperbola
        trace = trace_from_points(prob, ybar, hyperbola_ray([10.0, 1e2, 1e3, 1e4]))
        assert np.allclose(trace.records[-1].f_value, [-1.0, 1.0], atol=1e-6)
        assert all(rec.below_ybar for rec in trace.records)

    def test_infeasible_points_are_skipped(self, hyperbola):
        prob, ybar = hyperbola
        pts = [np.array([-5.0, 1.0, 0.0])] + hyperbola_ray([10.0, 20.0])
        trace = trace_from_points(prob, ybar, pts)
        assert len(trace.records) == 2

    def test_all_infeasible_raises(self, hyperbola):
        prob, ybar = hyperbola
        with pytest.raises(TraceError):
            trace_from_points(prob, ybar, [np.array([-1.0, -1.0, 0.0])])

    def test_a_hand_built_trace_has_one_point_per_record(self, hyperbola):
        # no weight, no probes, and the records sorted by radius
        prob, ybar = hyperbola
        trace = trace_from_points(prob, ybar, hyperbola_ray([100.0, 10.0, 1e3]))
        assert trace.weight is None
        radii = [o.radius for o in trace.outcomes]
        assert radii == sorted(radii) and len(radii) == 3
        assert [o.status for o in trace.outcomes] == ["point"] * 3
        assert all((o.probes, o.failures) == (0, ()) and o.record.radius == o.radius
                   for o in trace.outcomes)
        assert trace.records == [o.record for o in trace.outcomes]
        assert trace.coverage_radii == radii


class TestTraceTangency:
    def test_points_sit_on_the_degenerate_axis(self, degenerate_line,
                                               line_traces):
        prob, _ = degenerate_line
        records = flatten_records(line_traces)
        assert records
        for rec in records:
            x = np.array(rec.point)
            assert abs(x[0]) < 1e-6 and abs(x[1]) < 1e-6
            assert np.allclose(rec.f_value, [0.0, 0.0], atol=1e-3)

    def test_every_trace_point_is_in_the_tangency_variety(self, line_traces):
        for rec in flatten_records(line_traces):
            assert rec.in_tangency

    def test_rabier_grows_with_radius(self, line_traces):
        for rec in flatten_records(line_traces):
            assert rec.rabier == pytest.approx(
                math.sqrt(2) / 2 * rec.radius, rel=1e-4)

    def test_determinism(self, degenerate_line, light_config):
        prob, ybar = degenerate_line
        cfg = light_config.replace(radius_count=4, seed=9)
        a = trace_tangency(prob, ybar, cfg)
        b = trace_tangency(prob, ybar, cfg)
        assert flatten_records(a) == flatten_records(b)

    def test_hessians_come_from_the_compiled_table(self, monkeypatch,
                                                   degenerate_line, light_config):
        def refuse(self, x):
            raise AssertionError("Polynomial.hessian_at called")
        calls = []

        def counted(self, x, _hessians=Problem.hessians):
            calls.append(1)
            return _hessians(self, x)
        monkeypatch.setattr(Polynomial, "hessian_at", refuse)
        monkeypatch.setattr(Problem, "hessians", counted)
        # in-process, so the patches reach every unit
        monkeypatch.setattr(pipeline, "_pool_workers", lambda units: 0)
        prob, ybar = degenerate_line
        traces = trace_tangency(prob, ybar, light_config)
        assert flatten_records(traces) and calls

    def test_hyperbola_chains(self, hyperbola, light_config):
        # each chain holds its seeded weight draw and resolves every radius
        # with a point; its records' f-values (to 6 decimals) and tangency
        # flags are pinned
        prob, ybar = hyperbola
        traces = trace_tangency(prob, ybar, light_config)
        rng = np.random.default_rng([light_config.seed, asymptotics._CHAIN_SEED])
        draws = asymptotics._chain_weight_draws(prob.p, light_config.weights_per_radius, rng)
        assert [tr.weight for tr in traces] == [tuple(map(float, w)) for w in draws]
        limit = [-1.0, 1.0]
        expected = [
            ([[-1.0, 1.010001], [-1.0, 1.0001], [-1.0, 1.000001], limit, limit],
             [True] * 5),
            ([[-1.410638, 2.0], [-1.414178, 2.0], [-1.414213, 2.0], [-1.0, 2.0],
              [-1.0, 2.0]], [True, True, True, False, False]),
            ([[-1.399822, 1.9696], [-1.399965, 1.960002], [-1.399965, 1.959903],
              [-1.399965, 1.959902], [-1.399965, 1.959902]], [True] * 5),
            ([[-1.0, 1.010001], [-1.0, 1.0001], [-1.0, 1.000001], limit, limit],
             [True] * 5),
        ]
        for tr, (fvals, tangency) in zip(traces, expected, strict=True):
            assert tr.coverage_radii == light_config.radii()
            assert [o.status for o in tr.outcomes] == ["point"] * 5
            assert [rec.radius for rec in tr.records] == pytest.approx(light_config.radii())
            assert np.allclose([rec.f_value for rec in tr.records], fvals,
                               rtol=0, atol=1e-6)
            assert [rec.in_tangency for rec in tr.records] == tangency

    def test_radii_must_increase(self, light_config):
        # the chains run on the config's schedule, and a config refuses one
        # whose radii do not increase
        with pytest.raises(ValueError, match="radius schedule"):
            light_config.replace(radius_factor=1.0)


class TestKktPolish:
    def test_stops_below_float_resolution(self, monkeypatch, hyperbola):
        # the augmented Lagrangian's point on a hyperbola chain at r = 10
        # (weights (0, 1)): one Newton step solves the KKT system to
        # rounding level and the next is below z's resolution; a stop only
        # at z + step*d == z makes 31 evaluations here
        calls = []

        def counted(residual, jacobian, z0, _newton=asymptotics._newton_stall):
            def count(z):
                calls.append(1)  # one per Newton residual evaluation
                return residual(z)
            return _newton(count, jacobian, z0)
        monkeypatch.setattr(asymptotics, "_newton_stall", counted)
        prob, ybar = hyperbola
        x0 = np.array([9.949376819309283, 0.09950352040113479,
                       -0.9999999996245782])
        x = asymptotics._kkt_polish(prob, 10.0, np.array([0.0, 1.0]), ybar, x0)
        assert len(calls) <= 6
        # on the cut f1 = x3 = -1 and on the sphere
        assert x[2] == pytest.approx(-1.0, abs=1e-12)
        assert np.linalg.norm(x) == pytest.approx(10.0, rel=1e-12)

    def test_a_kkt_point_on_the_slice_skips_the_slice_polish(self, monkeypatch,
                                                             hyperbola):
        prob, ybar = hyperbola
        weights = np.array([0.0, 1.0])
        x0 = np.array([9.949376819309283, 0.09950352040113479,
                       -0.9999999996245782])
        kkt = asymptotics._kkt_polish(prob, 10.0, weights, ybar, x0)
        assert asymptotics._slice_ok(prob, kkt, 10.0)
        residual, _ = _slice_residual(prob, 10.0)(kkt)
        assert np.linalg.norm(residual) <= np.finfo(float).eps

        def refuse(*args):
            raise AssertionError("the slice polish ran")
        monkeypatch.setattr(asymptotics, "polish_to_slice", refuse)
        x = asymptotics._finish_point(prob, 10.0, weights, ybar, x0)
        assert x.tobytes() == kkt.tobytes()

    def test_a_point_on_the_slice_above_rounding_level_is_polished(
            self, monkeypatch, degenerate_line):
        # near the degenerate line's axis at r = 1e5 every row is far inside
        # the value tolerance (g1 ~ 2.6e-14), but the coordinates x1, x2 and
        # so f = (x2 x3, x1 x3) are still pinned by the slice polish
        prob, ybar = degenerate_line
        r = 1e5
        x1, x2 = 1.6e-9, -8e-11
        kkt = np.array([x1, x2, np.sqrt(r * r - x1 * x1 - x2 * x2)])
        assert asymptotics._slice_ok(prob, kkt, r)
        assert np.linalg.norm(_slice_residual(prob, r)(kkt)[0]) > np.finfo(float).eps
        polished = []
        original = asymptotics.polish_to_slice
        monkeypatch.setattr(asymptotics, "_kkt_polish", lambda *args, **kwargs: kkt)
        monkeypatch.setattr(asymptotics, "polish_to_slice",
                            lambda *args: polished.append(original(*args)) or polished[-1])
        x = asymptotics._finish_point(prob, r, np.array([0.5, 0.5]), ybar, kkt)
        assert len(polished) == 1 and x.tobytes() == polished[0].tobytes()
        assert np.max(np.abs(x[:2])) < 0.5 * np.max(np.abs(kkt[:2]))

    def test_the_slice_polish_runs_when_the_kkt_polish_fails(self, monkeypatch,
                                                             hyperbola):
        prob, ybar = hyperbola
        x0 = np.array([9.949376819309283, 0.09950352040113479,
                       -0.9999999996245782])
        polished = []
        original = asymptotics.polish_to_slice
        monkeypatch.setattr(asymptotics, "_kkt_polish", lambda *args, **kwargs: None)
        monkeypatch.setattr(asymptotics, "polish_to_slice",
                            lambda *args: polished.append(original(*args)) or polished[-1])
        x = asymptotics._finish_point(prob, 10.0, np.array([0.0, 1.0]), ybar, x0)
        assert len(polished) == 1 and x.tobytes() == polished[0].tobytes()


    @pytest.mark.parametrize("config", ["light", "acceptance"])
    @pytest.mark.parametrize("name", ["degenerate_line", "hyperbola"])
    def test_jacobians_only_where_a_step_starts(self, monkeypatch, request, name,
                                                config):
        # the chains' records are those of a polish that builds the Jacobian
        # at every trial point too, from fewer Hessians
        prob, ybar = request.getfixturevalue(name)
        cfg = {"light": LIGHT_CONFIG, "acceptance": SCHEDULE_CONFIG}[config]
        monkeypatch.setattr(pipeline, "_pool_workers", lambda units: 0)
        hessians = []

        def counted(self, x, _hessians=Problem.hessians):
            hessians.append(1)
            return _hessians(self, x)
        monkeypatch.setattr(Problem, "hessians", counted)
        runs = []
        for newton in (asymptotics._newton_stall, newton_with_every_jacobian):
            monkeypatch.setattr(asymptotics, "_newton_stall", newton)
            hessians.clear()
            traces = trace_tangency(prob, ybar, cfg)
            records = [(np.array(rec.point).tobytes(), np.float64(rec.rabier).tobytes(),
                        rec.in_tangency) for trace in traces for rec in trace.records]
            runs.append((records, len(hessians)))
        (records, lazy), (reference, eager) = runs
        assert records and records == reference
        assert lazy < eager


def newton_with_every_jacobian(residual, jacobian, z0):
    """`_newton_stall` with each trial point's Jacobian built alongside its
    residual, kept if the trial is accepted."""
    def res_jac(z):
        res, partial = residual(z)
        return res, jacobian(z, partial)
    z = np.asarray(z0, dtype=float).copy()
    res, J = res_jac(z)
    phi = float(np.linalg.norm(res))
    for _ in range(60):
        scale = np.maximum(1e-12, np.max(np.abs(J), axis=1))
        try:
            d = np.linalg.lstsq(J / scale[:, None], -res / scale, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(d)):
            break
        step = 1.0
        improved = False
        for _ in range(25):
            dz = step * d
            if np.all(np.abs(dz) <= np.finfo(float).eps * np.abs(z)):
                break
            z_new = z + dz
            res_new, J_new = res_jac(z_new)
            phi_new = float(np.linalg.norm(res_new))
            if phi_new < phi:
                z, res, J, phi = z_new, res_new, J_new, phi_new
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return z


class TestFreeMotzkin:
    """The Motzkin polynomial on R^2, ybar 1.5: f = 1 and grad f = 0 on both
    axes, so (0, k) is a Palais-Smale, Cerami and tangency sequence with
    f -> 1 <= ybar, and all four conditions fail."""

    @pytest.fixture(scope="class")
    def free(self):
        return load_problem(PROBLEMS / "motzkin_free.json")

    def test_closed_forms_on_the_axes(self, free):
        prob, _ = free
        x1, x2, t = sympy.symbols("x1 x2 t")
        f = sympy.sympify(str(prob.objectives[0]).replace("^", "**"))
        grad = [sympy.diff(f, v) for v in (x1, x2)]
        for axis in ({x1: 0, x2: t}, {x1: t, x2: 0}):
            assert sympy.expand(f.subs(axis)) == 1
            assert [sympy.expand(g.subs(axis)) for g in grad] == [0, 0]
        for k in (10.0, 1e5, -1e3):
            for x in ([0.0, k], [k, 0.0]):
                fv, _, _, Jf, _, _ = prob.evaluate(x)
                assert fv.tolist() == [1.0] and Jf.tolist() == [[0.0, 0.0]]

    def test_the_kkt_polish_zeroes_a_small_coordinate_far_out(self, free):
        # a step of 1e-21 on x1 is below eps * |x| = 2e-11 normwise, so a
        # normwise stop keeps x1 = 1e-21 and its gradient 2 x1 x2^4 = 0.2
        prob, ybar = free
        x = asymptotics._kkt_polish(prob, 1e5, np.array([1.0]), ybar,
                                    np.array([1e-21, 1e5]))
        assert x.tolist() == [0.0, 1e5]

    def test_every_condition_fails_at_the_limit_one(self, free, light_config):
        prob, ybar = free
        report = existence_verdict(prob, ybar, light_config)
        assert report.status == STATUS_INAPPLICABLE
        assert report.failing_hypotheses == ["asymptotic_conditions"]
        for verdict in report.verdicts.values():
            assert verdict.status == "fails_witness", verdict.condition
            assert verdict.witness.limit == (1.0,)
            assert verdict.witness.propagated_from is None
            for rec in verdict.witness.records:
                assert 0.0 in rec.point and rec.rabier == 0.0 and rec.in_tangency


class TestClassify:
    def test_palais_smale_failure_on_hyperbola_ray(self, hyperbola,
                                                   light_config):
        prob, ybar = hyperbola
        cfg = light_config.replace(radius_factor=2.0, radius_count=11)
        trace = trace_from_points(prob, ybar, hyperbola_ray(cfg.radii()))
        verdicts = classify(prob, ybar, [trace], cfg)
        ps = verdicts["palais_smale"]
        assert ps.status == "fails_witness"
        assert np.allclose(ps.witness.limit, [-1.0, 1.0], atol=1e-2)
        assert verdicts["proper"].status == "fails_witness"
        assert verdicts["m_tame"].status == "holds_evidence"

    def test_degenerate_line_separates_tameness_from_palais_smale(
            self, degenerate_line, light_config, line_traces):
        prob, ybar = degenerate_line
        verdicts = classify(prob, ybar, line_traces, light_config, mfcq_holds=False)
        assert verdicts["m_tame"].status == "fails_witness"
        assert np.allclose(verdicts["m_tame"].witness.limit, [0.0, 0.0],
                           atol=1e-3)
        assert verdicts["palais_smale"].status == "holds_evidence"
        assert verdicts["cerami"].status == "holds_evidence"
        assert verdicts["proper"].status == "fails_witness"

    def test_section_point_problem_gives_tame_evidence(self, motzkin,
                                                       light_config):
        prob, ybar = motzkin
        traces = trace_tangency(prob, ybar, light_config)
        verdicts = classify(prob, ybar, traces, light_config, mfcq_holds=True)
        assert verdicts["m_tame"].status == "holds_evidence"
        assert all(v.status == "holds_evidence" for v in verdicts.values())

    def test_reorder_invariance(self, hyperbola, light_config):
        prob, ybar = hyperbola
        cfg = light_config.replace(radius_factor=2.0, radius_count=11)
        ks = cfg.radii()
        t1 = trace_from_points(prob, ybar, hyperbola_ray(ks), label="a")
        t2 = trace_from_points(prob, ybar,
                               [np.array([k, 2.0 / k, -1.1]) for k in ks],
                               label="b")
        fwd = classify(prob, ybar, [t1, t2], cfg)
        rev = classify(prob, ybar, [t2, t1], cfg)
        assert {c: v.status for c, v in fwd.items()} \
            == {c: v.status for c, v in rev.items()}
        assert fwd["palais_smale"].witness.limit \
            == rev["palais_smale"].witness.limit

    def test_cerami_failure_propagates_to_palais_smale(self, hyperbola,
                                                       light_config):
        import dataclasses
        prob, ybar = hyperbola
        # rig a trace whose scaled values vanish too: both sets are hit and
        # the inclusion closure must mark Palais-Smale failed as well
        cfg = light_config.replace(radius_factor=4.0, radius_count=6)
        base = trace_from_points(prob, ybar, hyperbola_ray(cfg.radii())).records
        rigged = [dataclasses.replace(r, scaled_rabier=r.rabier / 10.0)
                  for r in base]
        verdicts = classify(prob, ybar, [TraceResult.from_records(rigged)], cfg)
        assert verdicts["cerami"].status == "fails_witness"
        assert verdicts["palais_smale"].status == "fails_witness"

    def test_mfcq_propagates_tameness_to_cerami(self, degenerate_line,
                                                light_config, line_traces):
        prob, ybar = degenerate_line
        # with (counterfactual) qualification evidence the tangency witness
        # must cascade down the inclusion chain
        verdicts = classify(prob, ybar, line_traces, light_config, mfcq_holds=True)
        assert verdicts["m_tame"].status == "fails_witness"
        assert verdicts["cerami"].status == "fails_witness"
        assert verdicts["cerami"].witness.propagated_from == "m_tame"
        assert verdicts["palais_smale"].status == "fails_witness"

    def test_empty_traces_rejected(self, motzkin, light_config):
        prob, ybar = motzkin
        with pytest.raises(ClassifyError):
            classify(prob, ybar, [], light_config)

    def test_sparse_coverage_is_inconclusive(self, hyperbola, light_config):
        prob, ybar = hyperbola
        trace = trace_from_points(prob, ybar, hyperbola_ray([10.0, 20.0, 30.0]))
        verdicts = classify(prob, ybar, [trace], light_config)
        assert all(v.status == "inconclusive" for v in verdicts.values())


class TestCsvExport:
    def test_column_layout(self, hyperbola):
        prob, ybar = hyperbola
        trace = trace_from_points(prob, ybar, hyperbola_ray([10.0, 100.0]))
        text = trace_csv(trace.records, prob.n, prob.p)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["radius", "x_1", "x_2", "x_3", "f_1", "f_2",
                           "rabier", "scaled_rabier", "in_tangency",
                           "below_ybar"]
        assert len(rows) == 3
        assert rows[1][8] in ("0", "1")

    def test_rows_follow_the_traces(self):
        # sorting by (radius, point) would put b's records first, and the
        # order of the two radius-10 records would rest on x1's last bits
        def trace(label, *points):
            records = [TraceRecord(r, x, (0.0,), 0.0, 0.0, True, True) for r, x in points]
            return TraceResult(label, None, tuple(RadiusOutcome(rec.radius, "point", rec)
                                                  for rec in records))
        a = trace("a", (10.0, (1e-15, 10.0)))
        b = trace("b", (10.0, (-1e-15, 10.0)), (5.0, (5.0, 0.0)))
        records = flatten_records([a, b])
        assert records == [*a.records, *b.records]
        rows = list(csv.reader(io.StringIO(trace_csv(records, 2, 1))))
        assert [row[1] for row in rows[1:]] == ["1e-15", "-1e-15", "5.0"]


def on_sphere(prob, r, x0):
    """A stub projection: the seeded starts already lie on the sphere."""
    return np.array(x0)


class TestResolveRadius:
    """One radius of a chain without a warm point: solves from projected
    starts, direction k seeded by [cfg.seed, *seed, k]."""
    SEED = [1, 0, 0]

    def direction_start(self, prob, r, k):
        rng = np.random.default_rng([LIGHT_CONFIG.seed, *self.SEED, k])
        return r * random_unit_vector(rng, prob.n)

    def resolve(self, prob, ybar, r=10.0):
        return asymptotics._resolve_radius(prob, r, np.full(prob.p, 1.0 / prob.p),
                                           ybar, None, LIGHT_CONFIG, self.SEED)

    def counted_projection(self, monkeypatch, fails, land=None):
        """A projection that fails where `fails(call)` holds and otherwise
        lands where `land` does (the real projection by default); returns
        the projections' starting points, one per call."""
        land = land or asymptotics.project_to_sphere_slice
        calls = []

        def projection(prob, r, x0):
            calls.append(np.array(x0))
            if fails(len(calls) - 1):
                raise ProjectionError("no convergence")
            return land(prob, r, x0)
        monkeypatch.setattr(asymptotics, "project_to_sphere_slice", projection)
        return calls

    def stub_solves(self, monkeypatch, outcome):
        solved = []

        def solve(prob, r, weights, ybar, start):
            solved.append(start)
            return SimpleNamespace(outcome=outcome)
        monkeypatch.setattr(asymptotics, "_sphere_subproblem", solve)
        return solved

    def test_a_failed_projection_is_skipped_for_the_next_direction(
            self, monkeypatch, hyperbola):
        prob, ybar = hyperbola
        calls = self.counted_projection(monkeypatch, lambda call: call == 0)
        solve, solved = asymptotics._sphere_subproblem, []
        monkeypatch.setattr(asymptotics, "_sphere_subproblem",
                            lambda *args: solved.append(args[-1]) or solve(*args))
        status, x, starts = self.resolve(prob, ybar)
        assert status == "point"
        assert [c.tolist() for c in calls] == [
            self.direction_start(prob, 10.0, k).tolist() for k in (0, 1)]
        expected = project_to_sphere_slice(prob, 10.0, self.direction_start(prob, 10.0, 1))
        assert len(starts) == 1 and np.array_equal(starts[0], expected)
        assert len(solved) == 1 and solved[0] is starts[0]

    def test_bug_in_projection_propagates(self, monkeypatch, motzkin):
        def broken(*args, **kwargs):
            raise RuntimeError("bug")
        monkeypatch.setattr(asymptotics, "project_to_sphere_slice", broken)
        prob, ybar = motzkin
        with pytest.raises(RuntimeError, match="bug"):
            self.resolve(prob, ybar)

    def test_one_infeasible_start_is_no_emptiness(self, monkeypatch, motzkin):
        # every direction but the first fails to project: one vote is too
        # few to judge the slice empty
        prob, ybar = motzkin
        calls = self.counted_projection(monkeypatch, lambda call: call > 0, on_sphere)
        solved = self.stub_solves(monkeypatch, "infeasible")
        status, x, starts = self.resolve(prob, ybar)
        assert (status, x) == ("failed", None)
        assert len(starts) == 1 and solved == starts
        assert len(calls) == asymptotics._DIRECTIONS

    def test_infeasible_projected_starts_make_the_slice_empty(self, monkeypatch, motzkin):
        prob, ybar = motzkin
        calls = self.counted_projection(monkeypatch, lambda call: call % 2 == 0,
                                        on_sphere)
        solved = self.stub_solves(monkeypatch, "infeasible")
        status, x, starts = self.resolve(prob, ybar)
        assert (status, x) == ("empty", None)
        assert len(starts) == asymptotics._ATTEMPTS and solved == starts
        assert len(calls) == 2 * asymptotics._ATTEMPTS

    def test_the_warm_guess_counts_as_an_attempt_but_never_votes(
            self, monkeypatch, motzkin):
        # continuation fails, so the warm guess is solved first; its
        # infeasible solve leaves two projected starts, which decide alone
        prob, ybar = motzkin
        monkeypatch.setattr(asymptotics, "_finish_point", lambda *a, **k: None)
        calls = self.counted_projection(monkeypatch, lambda call: False, on_sphere)
        solved = self.stub_solves(monkeypatch, "infeasible")
        warm = np.array([3.0, 4.0])
        status, x, starts = asymptotics._resolve_radius(
            prob, 10.0, np.full(2, 0.5), ybar, warm, LIGHT_CONFIG, self.SEED)
        assert (status, x) == ("empty", None)
        assert solved[0].tolist() == [6.0, 8.0] and solved[1:] == starts
        assert len(calls) == len(starts) == asymptotics._ATTEMPTS - 1

    def test_projections_are_bounded_when_every_one_fails(self, monkeypatch, motzkin):
        prob, ybar = motzkin
        calls = self.counted_projection(monkeypatch, lambda call: True)
        solved = self.stub_solves(monkeypatch, "converged")
        assert self.resolve(prob, ybar) == ("failed", None, [])
        assert len(calls) == asymptotics._DIRECTIONS and not solved

    def test_a_chain_starts_from_direction_zero(self, monkeypatch, hyperbola):
        # the first radius of a chain has no warm point; its first projection
        # lands, so its start is the projection of direction 0
        prob, ybar = hyperbola
        cfg = LIGHT_CONFIG
        landed = []
        real = asymptotics.project_to_sphere_slice
        monkeypatch.setattr(asymptotics, "project_to_sphere_slice",
                            lambda *args: landed.append(real(*args)) or landed[-1])
        r = cfg.radii()[0]
        chain = asymptotics._trace_chain(prob, ybar, np.array([0.5, 0.5]), 0, cfg)
        assert chain.coverage_radii == cfg.radii()
        rng = np.random.default_rng([cfg.seed, asymptotics._CHAIN_SEED, 0, 0, 0])
        direct = project_to_sphere_slice(prob, r, r * random_unit_vector(rng, prob.n))
        assert np.array_equal(landed[0], direct)

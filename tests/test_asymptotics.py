import csv
import io
import math

import numpy as np
import pytest

from conftest import LIGHT_CONFIG
from test_acceptance import SCHEDULE_CONFIG
from vpa import Problem, asymptotics, make_record, pipeline
from vpa.asymptotics import (TraceRecord, TraceResult, classify, flatten_records,
                             trace_csv, trace_from_points, trace_tangency)
from vpa.errors import ClassifyError, ProjectionError, TraceError
from vpa.polynomials import Polynomial
from vpa.problem import _slice_residual

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

    def test_radii_must_increase(self, light_config):
        # the chains run on the config's schedule, and a config refuses one
        # whose radii do not increase
        with pytest.raises(ValueError, match="radius schedule"):
            light_config.replace(radius_factor=1.0)


class TestKktPolish:
    def test_stops_below_float_resolution(self, monkeypatch, hyperbola,
                                          light_config):
        # the augmented Lagrangian's point on a hyperbola chain at r = 10
        # (weights (0, 1)): one Newton step solves the KKT system to
        # rounding level and the next is below z's resolution; a stop only
        # at z + step*d == z makes 31 evaluations here
        calls = []

        def counted(residual, jacobian, z0, max_iter, _newton=asymptotics._newton_stall):
            def count(z):
                calls.append(1)  # one per Newton residual evaluation
                return residual(z)
            return _newton(count, jacobian, z0, max_iter)
        monkeypatch.setattr(asymptotics, "_newton_stall", counted)
        prob, ybar = hyperbola
        x0 = np.array([9.949376819309283, 0.09950352040113479,
                       -0.9999999996245782])
        x = asymptotics._kkt_polish(prob, 10.0, np.array([0.0, 1.0]), ybar,
                                    x0, light_config)
        assert len(calls) <= 6
        # on the cut f1 = x3 = -1 and on the sphere
        assert x[2] == pytest.approx(-1.0, abs=1e-12)
        assert np.linalg.norm(x) == pytest.approx(10.0, rel=1e-12)

    def test_a_kkt_point_on_the_slice_skips_the_slice_polish(self, monkeypatch,
                                                             hyperbola, light_config):
        prob, ybar = hyperbola
        weights = np.array([0.0, 1.0])
        x0 = np.array([9.949376819309283, 0.09950352040113479,
                       -0.9999999996245782])
        kkt = asymptotics._kkt_polish(prob, 10.0, weights, ybar, x0, light_config)
        assert asymptotics._slice_ok(prob, kkt, 10.0, light_config)
        residual, _ = _slice_residual(prob, 10.0)(kkt)
        assert np.linalg.norm(residual) <= np.finfo(float).eps

        def refuse(*args):
            raise AssertionError("the slice polish ran")
        monkeypatch.setattr(asymptotics, "polish_to_slice", refuse)
        x = asymptotics._finish_point(prob, 10.0, weights, ybar, x0, light_config)
        assert x.tobytes() == kkt.tobytes()

    def test_a_point_on_the_slice_above_rounding_level_is_polished(
            self, monkeypatch, degenerate_line, light_config):
        # near the degenerate line's axis at r = 1e5 every row is far inside
        # the value tolerance (g1 ~ 2.6e-14), but the coordinates x1, x2 and
        # so f = (x2 x3, x1 x3) are still pinned by the slice polish
        prob, ybar = degenerate_line
        r = 1e5
        x1, x2 = 1.6e-9, -8e-11
        kkt = np.array([x1, x2, np.sqrt(r * r - x1 * x1 - x2 * x2)])
        assert asymptotics._slice_ok(prob, kkt, r, light_config)
        assert np.linalg.norm(_slice_residual(prob, r)(kkt)[0]) > np.finfo(float).eps
        polished = []
        original = asymptotics.polish_to_slice
        monkeypatch.setattr(asymptotics, "_kkt_polish", lambda *args, **kwargs: kkt)
        monkeypatch.setattr(asymptotics, "polish_to_slice",
                            lambda *args: polished.append(original(*args)) or polished[-1])
        x = asymptotics._finish_point(prob, r, np.array([0.5, 0.5]), ybar, kkt, light_config)
        assert len(polished) == 1 and x.tobytes() == polished[0].tobytes()
        assert np.max(np.abs(x[:2])) < 0.5 * np.max(np.abs(kkt[:2]))

    def test_the_slice_polish_runs_when_the_kkt_polish_fails(self, monkeypatch,
                                                             hyperbola, light_config):
        prob, ybar = hyperbola
        x0 = np.array([9.949376819309283, 0.09950352040113479,
                       -0.9999999996245782])
        polished = []
        original = asymptotics.polish_to_slice
        monkeypatch.setattr(asymptotics, "_kkt_polish", lambda *args, **kwargs: None)
        monkeypatch.setattr(asymptotics, "polish_to_slice",
                            lambda *args: polished.append(original(*args)) or polished[-1])
        x = asymptotics._finish_point(prob, 10.0, np.array([0.0, 1.0]), ybar, x0,
                                      light_config)
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


def newton_with_every_jacobian(residual, jacobian, z0, max_iter=60):
    """`_newton_stall` with each trial point's Jacobian built alongside its
    residual, kept if the trial is accepted."""
    def res_jac(z):
        res, partial = residual(z)
        return res, jacobian(z, partial)
    z = np.asarray(z0, dtype=float).copy()
    res, J = res_jac(z)
    phi = float(np.linalg.norm(res))
    for _ in range(max_iter):
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
            if asymptotics.step_below_resolution(dz, z):
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
        def record(radius, point):
            return TraceRecord(radius, point, (0.0,), 0.0, 0.0, True, True)
        a = TraceResult("a", [record(10.0, (1e-15, 10.0))])
        b = TraceResult("b", [record(10.0, (-1e-15, 10.0)), record(5.0, (5.0, 0.0))])
        records = flatten_records([a, b])
        assert records == [*a.records, *b.records]
        rows = list(csv.reader(io.StringIO(trace_csv(records, 2, 1))))
        assert [row[1] for row in rows[1:]] == ["1e-15", "-1e-15", "5.0"]


class TestChainStart:
    def test_projection_failure_falls_back_to_a_random_start(
            self, monkeypatch, motzkin, light_config):
        def fail(*args, **kwargs):
            raise ProjectionError("no convergence")
        monkeypatch.setattr(asymptotics, "project_to_sphere_slice", fail)
        prob, _ = motzkin
        x, projected = asymptotics._chain_start(prob, 10.0, light_config, seed=[1, 2])
        assert not projected
        assert np.linalg.norm(x) == pytest.approx(10.0)

    def test_bug_in_projection_propagates(self, monkeypatch, motzkin,
                                          light_config):
        def broken(*args, **kwargs):
            raise RuntimeError("bug")
        monkeypatch.setattr(asymptotics, "project_to_sphere_slice", broken)
        prob, _ = motzkin
        with pytest.raises(RuntimeError, match="bug"):
            asymptotics._chain_start(prob, 10.0, light_config, seed=[1, 2])

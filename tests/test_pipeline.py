"""The evidence runner: both paths give equal results and byte-identical
reports, unit errors reach the caller unchanged, and what crosses to a
worker process survives pickling."""

import json
import math
import os
import pathlib
import pickle
import signal
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from vpa import DEFAULT_CONFIG, Problem, load_problem, parse, pareto, pipeline
from vpa.asymptotics import trace_tangency
from vpa.cli import main
from vpa.errors import DivergenceError, ParseError, ProjectionError
from vpa.pareto import existence_verdict, solve_front
from vpa.pipeline import Stage

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"
FIXTURES = ("motzkin", "hyperbola", "degenerate_line")
TINY = dict(radius_factor=10.0, radius_count=4, weights_per_radius=2,
            weight_grid=2, starts_per_weight=1, section_budget=8)
TINY_CONFIG = DEFAULT_CONFIG.replace(**TINY)

# forking a process that already has threads (a BLAS pool) is what the
# runner avoids; these tests force it on purpose
pytestmark = pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded:DeprecationWarning")


def use_pool(monkeypatch, pool: bool):
    """Force the runner onto a pool of two forked workers, or in-process."""
    monkeypatch.setattr(pipeline, "_pool_workers",
                        lambda units: min(2, units) if pool else 0)


@contextmanager
def deadline(seconds):
    """Fail instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def both_paths(monkeypatch, compute):
    results = []
    for pool in (False, True):
        use_pool(monkeypatch, pool)
        with deadline(300):
            results.append(compute())
    return results


class TestRunner:
    def test_forced_pool_runs_units_in_other_processes(self, monkeypatch):
        use_pool(monkeypatch, True)
        stage = Stage(((os.getpid, ()),) * 3,
                      lambda handles: [h.result() for h in handles])
        with deadline(60), pipeline.run(stage) as (pids,):
            assert os.getpid() not in pids()

    def test_in_process_path_reads_results_in_order(self, monkeypatch):
        use_pool(monkeypatch, False)
        seen = []
        stage = Stage(tuple((seen.append, (k,)) for k in range(3)),
                      lambda handles: [h.result() for h in handles])
        with pipeline.run(stage) as (read,):
            assert seen == []
            read()
        assert seen == [0, 1, 2]

    def test_no_pool_for_one_unit(self):
        assert pipeline._pool_workers(1) == 0

    def test_no_pool_in_a_threaded_process(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            assert pipeline._pool_workers(8) == 0
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()

    def test_unit_error_reaches_the_caller(self, monkeypatch, hyperbola):
        def broken(*args, **kwargs):
            raise RuntimeError("bug in a unit")
        monkeypatch.setattr(pareto, "solve_scalarized", broken)
        prob, ybar = hyperbola
        for pool in (False, True):
            use_pool(monkeypatch, pool)
            with deadline(60), pytest.raises(RuntimeError, match="^bug in a unit$"):
                solve_front(prob, ybar, TINY_CONFIG)

    def test_typed_unit_error_keeps_its_note(self, monkeypatch):
        prob = Problem(n=1, objectives=(parse("x1", 1),),
                       equalities=(parse("x1", 1),),
                       inequalities=(parse("x1 - 1", 1),))
        reports = both_paths(
            monkeypatch, lambda: existence_verdict(prob, (math.inf,), TINY_CONFIG))
        assert reports[0] == reports[1]
        assert any(note.startswith("front sweep failed") for note in reports[0].notes)


class TestPathEquivalence:
    def test_trace_tangency(self, monkeypatch, degenerate_line):
        prob, ybar = degenerate_line
        serial, pooled = both_paths(monkeypatch, lambda: trace_tangency(
            prob, ybar, TINY_CONFIG.radii(), weights_seed=1, cfg=TINY_CONFIG))
        assert serial == pooled

    def test_solve_front(self, monkeypatch, motzkin):
        prob, _ = motzkin
        serial, pooled = both_paths(
            monkeypatch, lambda: solve_front(prob, (math.inf, math.inf), TINY_CONFIG))
        assert serial.entries and serial == pooled

    def test_existence_verdict(self, monkeypatch, hyperbola):
        prob, ybar = hyperbola
        serial, pooled = both_paths(
            monkeypatch, lambda: existence_verdict(prob, ybar, TINY_CONFIG))
        assert serial == pooled

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_cli_reports_are_byte_identical(self, monkeypatch, tmp_path, fixture):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY))

        def outputs(tag):
            files = {}
            for command in ("verdict", "classify", "trace", "solve"):
                out = tmp_path / tag / command
                main([command, "--problem", str(PROBLEMS / f"{fixture}.json"),
                      "--config", str(config), "--out", str(out)])
                files.update({(command, f.name): f.read_bytes()
                              for f in out.iterdir()})
            return files

        runs = iter(("serial", "pool"))
        serial, pooled = both_paths(monkeypatch, lambda: outputs(next(runs)))
        assert ("verdict", "verdict_report.json") in serial
        assert serial == pooled


class TestPickling:
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_problem_evaluates_bit_identically(self, fixture):
        prob, _ = load_problem(PROBLEMS / f"{fixture}.json")
        copy = pickle.loads(pickle.dumps(prob))
        rng = np.random.default_rng(7)
        for x in 10.0 * rng.standard_normal((5, prob.n)):
            for a, b in zip(prob.evaluate(x), copy.evaluate(x)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert copy.objectives == prob.objectives

    def test_polynomial_round_trip(self):
        poly = parse("x1", 1)
        copy = pickle.loads(pickle.dumps(poly))
        assert copy == poly and str(copy) == "x1"

    def test_error_payloads(self):
        point = np.array([1.0, 2.0])
        div = pickle.loads(pickle.dumps(DivergenceError("escaped", point=point)))
        assert str(div) == "escaped" and np.array_equal(div.point, point)
        proj = pickle.loads(pickle.dumps(
            ProjectionError("stuck", best_residual=0.5, best_point=point)))
        assert str(proj) == "stuck" and proj.best_residual == 0.5
        assert np.array_equal(proj.best_point, point)
        with pytest.raises(ParseError) as info:
            parse("x1 + * x2", 2)
        copy = pickle.loads(pickle.dumps(info.value))
        assert copy.position == 5 and str(copy) == str(info.value)

"""The evidence runner: both paths give equal results and byte-identical
reports, unit errors reach the caller unchanged, the forked children never
outlive a run nor give the process a thread, and what a child sends back
survives pickling."""

import json
import math
import os
import pathlib
import pickle
import signal
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import assert_reports_reencode
from vpa import DEFAULT_CONFIG, Problem, load_problem, parse, pareto, pipeline
from vpa.asymptotics import trace_tangency
from vpa.cli import main
from vpa.errors import DivergenceError, ParseError, ProjectionError, VpaError
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


def has_children() -> bool:
    """Whether this process has a child, running or not yet reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def task_count() -> int:
    """OS threads of this process."""
    return len(os.listdir("/proc/self/task"))


def kill_own_process():
    os.kill(os.getpid(), signal.SIGKILL)


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
        stage = Stage(((os.getpid, ()),) * 3, list)
        with deadline(60):
            (pids,) = pipeline.run(stage)
        assert os.getpid() not in pids()

    def test_in_process_path_runs_every_unit_before_returning(self, monkeypatch):
        use_pool(monkeypatch, False)
        seen = []

        def unit(k):
            seen.append(k)
            if k == 1:
                raise ValueError("bug in unit 1")
            return k
        first = Stage(tuple((unit, (k,)) for k in range(3)), list)
        second = Stage(tuple((unit, (k,)) for k in range(3, 5)), list)
        read_first, read_second = pipeline.run(first, second)
        # every unit ran once, in submission order, past the one that raised
        assert seen == [0, 1, 2, 3, 4]
        assert read_second() == [3, 4]
        with pytest.raises(ValueError, match="^bug in unit 1$"):
            read_first()
        assert seen == [0, 1, 2, 3, 4]

    def test_back_to_back_runs_use_the_pool(self):
        if not (sys.platform.startswith("linux")
                and len(os.sched_getaffinity(0)) > 1
                and len(os.listdir("/proc/self/task")) == 1):
            pytest.skip("needs Linux, two CPUs and a single-threaded process")
        stage = Stage(((os.getpid, ()),) * 2, list)
        for _ in range(20):
            with deadline(60):
                (pids,) = pipeline.run(stage)
            assert os.getpid() not in pids()

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
        monkeypatch.setattr(pareto, "_scalarized_lanes", broken)
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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux")
class TestForkedChildren:
    """The forked path, forced; the units are inherited, so they need not
    pickle."""

    @pytest.fixture(autouse=True)
    def pool(self, monkeypatch):
        assert not has_children()
        use_pool(monkeypatch, True)

    def test_a_killed_child_is_an_error_within_the_deadline(self):
        stage = Stage(((kill_own_process, ()), (time.sleep, (60,))), list)
        with deadline(30), pytest.raises(RuntimeError, match="killed by SIGKILL") as info:
            (read,) = pipeline.run(stage)
            read()
        assert not isinstance(info.value, VpaError)
        assert not has_children()

    def test_run_returns_with_every_child_reaped_unread(self):
        stage = Stage(((time.sleep, (0.2,)),) * 2, list)
        with deadline(30):
            pipeline.run(stage)
        assert not has_children()

    def test_twenty_thousand_units_each_run_once(self, monkeypatch, tmp_path):
        # more children than CPUs claim from the shared counter; a lost
        # update would run some unit twice
        children = len(os.sched_getaffinity(0)) + 2
        monkeypatch.setattr(pipeline, "_pool_workers", lambda units: children)
        log = tmp_path / "ran"
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def unit(k):
            os.write(fd, b"%d %d\n" % (k, os.getpid()))
            return k
        try:
            stage = Stage(tuple((unit, (k,)) for k in range(20_000)), list)
            with deadline(120):
                (read,) = pipeline.run(stage)
            assert read() == list(range(20_000))
        finally:
            os.close(fd)
        ran = [line.split() for line in log.read_text().splitlines()]
        assert sorted(int(k) for k, _ in ran) == list(range(20_000))
        assert len({pid for _, pid in ran}) > 1
        assert not has_children()

    def test_a_one_mebibyte_result_arrives_intact(self):
        blob = bytes(range(256)) * 4096
        stage = Stage(((bytes, (blob,)), (len, (blob,))), list)
        with deadline(60):
            (read,) = pipeline.run(stage)
        assert read() == [blob, 1 << 20]

    def test_the_process_gains_no_thread(self):
        # one entry under single-threaded BLAS; a BLAS pool's threads stay
        # as they are
        before = task_count()
        stage = Stage(((os.getpid, ()),) * 4, list)
        with deadline(60):
            (pids,) = pipeline.run(stage)
        assert task_count() == before
        assert os.getpid() not in pids()
        assert task_count() == before

    def test_unit_error_chains_the_child_traceback(self):
        def broken():
            raise ValueError("bug in a unit")
        stage = Stage(((broken, ()), (os.getpid, ())), list)
        with deadline(60):
            (read,) = pipeline.run(stage)
        with pytest.raises(ValueError, match="^bug in a unit$") as info:
            read()
        assert "in broken" in str(info.value.__cause__)


class TestPathEquivalence:
    def test_trace_tangency(self, monkeypatch, degenerate_line):
        prob, ybar = degenerate_line
        serial, pooled = both_paths(monkeypatch, lambda: trace_tangency(
            prob, ybar, TINY_CONFIG))
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
        assert_reports_reencode(tmp_path)


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

"""The evidence runner behind the `trace`, `classify`, `section`, `solve`
and `verdict` commands.

A command splits its evidence into stages, and each stage into independent
units: one per tangency chain, per pooled feasible ray and per section
descent, and one each for the front sweep (its scalarizations are lanes)
and the ybar-membership search. Every unit's inputs, seeds included, are
fixed before any unit runs, and units share no state. `run` starts every unit of a
command at once and hands back, per stage, a callable that reads its units'
results in submission order. A unit's exception is therefore raised where
the serial code would meet it, and every report is byte-identical whether
the units ran in child processes or in-process.

Units run in forked children, one per usable CPU, when forking is safe: on
Linux, in a process with exactly one OS thread. Forking a process that has
threads, such as a multi-threaded BLAS pool, can leave the child with locks
that no thread will release, and it made a verdict several times slower.
Otherwise, or with one usable CPU, the units run in-process in the same
order. Children are forked rather than spawned because a spawned child
imports numpy and scipy afresh: 0.8-0.9 s on a 2-CPU machine, longer than a
whole hyperbola verdict of the benchmark.

The children are forked after every unit is fixed, so they inherit the
units and nothing is pickled on the way in. Each child claims the next
unit index from a counter in shared memory under a `multiprocessing.Lock`
(a semaphore), runs the unit, sends the pickled `(index, value or
exception)` back on its own pipe and leaves with `os._exit` once no unit is
left. The parent reads every pipe that is readable while it waits for the
unit it needs. Nothing here starts a thread, so the process stays
single-threaded and the next command can fork again; a unit's value or
exception must pickle.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import pickle
import signal
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from multiprocessing.connection import Pipe, wait
from typing import Callable, Sequence


@dataclass(frozen=True)
class Stage:
    """Independent unit calls `(function, args)`, and the parent-side step
    that turns their handles, in order, into the stage's result. A handle's
    `result()` returns its unit's value or raises its unit's exception."""
    calls: Sequence[tuple[Callable, tuple]]
    finish: Callable[[list], object]


class _Deferred:
    """A unit's result, computed or fetched when it is read."""

    def __init__(self, fn, args):
        self._fn = fn
        self._args = args

    def result(self):
        return self._fn(*self._args)


def _pool_workers(units: int) -> int:
    """Child processes for `units` units, 0 to run them in-process."""
    if not sys.platform.startswith("linux") or units < 2:
        return 0
    if len(os.listdir("/proc/self/task")) != 1:
        return 0
    cpus = len(os.sched_getaffinity(0))
    return min(cpus, units) if cpus > 1 else 0


class _Children:
    """`workers` forked children that run `calls` and send back the results."""

    def __init__(self, calls, workers: int):
        self._results: dict[int, list] = {}   # index -> [ok, value, traceback]
        self._readers: dict = {}        # result pipe -> its child's pid
        self._pids: list[int] = []      # children not yet reaped
        self._lost = None
        counter = mmap.mmap(-1, 8)      # anonymous and shared: the next index
        lock = multiprocessing.get_context("fork").Lock()
        try:
            for _ in range(workers):
                reader, writer = Pipe(duplex=False)
                pid = os.fork()
                if pid == 0:
                    _child(calls, counter, lock, writer)
                writer.close()      # the child holds the only write end
                self._pids.append(pid)
                self._readers[reader] = pid
        except BaseException:
            self.close()
            raise
        finally:
            counter.close()

    def result(self, index: int):
        while index not in self._results:
            if self._lost or not self._readers:
                raise RuntimeError(f"a worker process {self._lost or 'has left'}; "
                                   f"unit {index}'s result is lost")
            for reader in wait(list(self._readers)):
                self._receive(reader)
        ok, value, trace = self._results[index]
        if ok:
            return value
        # a traceback does not pickle, so the child sent its text
        raise value from RuntimeError(f"in a worker process:\n{trace}")

    def _receive(self, reader):
        try:
            index, *result = pickle.loads(reader.recv_bytes())
        except (EOFError, OSError):     # the child has left
            pid = self._readers.pop(reader)
            reader.close()
            _, status = os.waitpid(pid, 0)
            self._pids.remove(pid)
            code = os.waitstatus_to_exitcode(status)
            if code < 0:
                self._lost = f"was killed by {signal.Signals(-code).name}"
            elif code:
                self._lost = f"exited with status {code}"
            return
        self._results[index] = result

    def close(self):
        """Kill and reap every child still running, and close the pipes."""
        for pid in self._pids:
            os.kill(pid, signal.SIGKILL)    # unreaped, so the pid is still ours
        for pid in self._pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass                        # reaped elsewhere
        self._pids.clear()
        for reader in self._readers:
            reader.close()
        self._readers.clear()


def _child(calls, counter, lock, writer):
    """In a forked child: run units until none is left, then leave without
    running the parent's cleanup."""
    code = 1
    try:
        claimed = memoryview(counter).cast("q")
        while True:
            with lock:
                index = claimed[0]
                claimed[0] = index + 1
            if index >= len(calls):
                break
            fn, args = calls[index]
            try:
                message = (index, True, fn(*args), None)
            except BaseException as exc:    # raised in the parent when read
                message = (index, False, exc, traceback.format_exc())
            try:
                blob = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                blob = pickle.dumps((index, False, RuntimeError(
                    f"unit {index}'s result does not pickle: {exc!r}"),
                    traceback.format_exc()))
            writer.send_bytes(blob)
        code = 0
    finally:
        os._exit(code)


@contextmanager
def run(*stages: Stage):
    """Start every unit of `stages` and yield one zero-argument callable per
    stage that returns the stage's result.

    Call them in the order the serial code needs the results: in-process,
    each unit runs when its stage is called. Leaving the block kills and
    reaps every child that is still running.
    """
    calls = [call for stage in stages for call in stage.calls]
    workers = _pool_workers(len(calls))
    children = _Children(calls, workers) if workers else None
    try:
        handles = [_Deferred(children.result, (k,)) if children else _Deferred(fn, args)
                   for k, (fn, args) in enumerate(calls)]
        results, start = [], 0
        for stage in stages:
            end = start + len(stage.calls)
            results.append(partial(stage.finish, handles[start:end]))
            start = end
        yield results
    finally:
        if children is not None:
            children.close()

"""The evidence runner behind the `trace`, `classify`, `solve` and `verdict`
commands.

A command splits its evidence into stages, and each stage into independent
units: one per scalarization of the front sweep, per tangency chain and per
feasible ray, and one each for the MFCQ evidence, the section probe and the
ybar-membership search. A unit's inputs, seeds included, are fixed before
any unit runs, and units share no state. `run` submits every unit of a
command at once and hands back, per stage, a callable that reads its units'
results in submission order. A unit's exception is therefore raised where
the serial code would meet it, and every report is byte-identical whether
the units ran in workers or in-process.

Units run in one pool of forked workers per command, one worker per usable
CPU, when forking is safe: on Linux, in a process with exactly one OS
thread. Forking a process that has threads, such as a multi-threaded BLAS
pool, can leave the child with locks that no thread will release, and it
made a verdict several times slower. Otherwise, or with one usable CPU, the
units run in-process in the same order. Workers are forked rather than
spawned because a spawned worker imports numpy and scipy afresh: 0.8-0.9 s
on a 2-CPU machine, longer than a whole hyperbola verdict of the benchmark.

Units are sent to workers by reference, so they must be module-level
functions; they are private ones, which tracing tools that patch public
functions leave unwrapped and therefore picklable.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence


@dataclass(frozen=True)
class Stage:
    """Independent unit calls `(function, args)`, and the parent-side step
    that turns their handles, in order, into the stage's result. A handle's
    `result()` returns its unit's value or raises its unit's exception."""
    calls: Sequence[tuple[Callable, tuple]]
    finish: Callable[[list], object]


def single(fn: Callable, *args) -> Stage:
    """A stage of one unit whose value is the stage's result."""
    return Stage(((fn, args),), _only)


def _only(handles):
    (handle,) = handles
    return handle.result()


class _Deferred:
    """A unit run in-process when its result is read."""

    def __init__(self, fn, args):
        self._fn = fn
        self._args = args

    def result(self):
        return self._fn(*self._args)


def _pool_workers(units: int) -> int:
    """Worker processes for `units` units, 0 to run them in-process."""
    if not sys.platform.startswith("linux") or units < 2:
        return 0
    if len(os.listdir("/proc/self/task")) != 1:
        return 0
    cpus = len(os.sched_getaffinity(0))
    return min(cpus, units) if cpus > 1 else 0


@contextmanager
def run(*stages: Stage):
    """Start every unit of `stages` and yield one zero-argument callable per
    stage that returns the stage's result.

    Call them in the order the serial code needs the results: in-process,
    each unit runs when its stage is called. Leaving the block cancels the
    units that have not started.
    """
    calls = [call for stage in stages for call in stage.calls]
    workers = _pool_workers(len(calls))
    pool = None
    if workers:
        pool = ProcessPoolExecutor(workers,
                                   mp_context=multiprocessing.get_context("fork"))
    try:
        handles = [pool.submit(fn, *args) if pool else _Deferred(fn, args)
                   for fn, args in calls]
        results, start = [], 0
        for stage in stages:
            end = start + len(stage.calls)
            results.append(partial(stage.finish, handles[start:end]))
            start = end
        yield results
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
            _await_thread_exit()


def _await_thread_exit():
    """Wait, at most 1 s, until this process is back to one OS thread.

    `shutdown` returns when the pool's threads have finished in Python, but
    the OS may still list one as exiting; the next command would then see
    two threads and run its units in-process.
    """
    deadline = time.monotonic() + 1.0
    while (len(os.listdir("/proc/self/task")) > 1
           and time.monotonic() < deadline):
        time.sleep(0.0005)

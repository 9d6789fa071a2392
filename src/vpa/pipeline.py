"""The evidence runner behind the `trace`, `classify`, `section`, `solve`
and `verdict` commands.

A command splits its evidence into stages, and each stage into independent
units: one per tangency chain, per pooled feasible ray and per section
descent, and one each for the front sweep (its scalarizations are lanes)
and the ybar-membership search. Every unit's inputs, seeds included, are
fixed before any unit runs, and units share no state. `run` runs every
unit of a command and only then returns, per stage, a callable that hands
its units' values in submission order to the stage's `finish`, or raises
the exception of the stage's first failed unit. A unit's exception is
therefore raised when its stage is read, where the serial code would meet
it, and every report is byte-identical whether the units ran in child
processes or in-process.

Units run in forked children, one per usable CPU, when forking is safe: on
Linux, in a process with exactly one OS thread. Forking a process that has
threads, such as a multi-threaded BLAS pool, can leave the child with locks
that no thread will release, and it made a verdict several times slower.
Otherwise, or with one usable CPU, the units run in-process, once each and
in submission order. Children are forked rather than spawned because a
spawned child imports numpy, scipy and vpa afresh: 0.35-0.42 s from start
to join on a 2-vCPU machine, more than twice a whole hyperbola verdict of
the benchmark (about 0.15 s).

The children are forked after every unit is fixed, so they inherit the
units and nothing is pickled on the way in. Each child claims the next
unit index from a counter in shared memory under a `multiprocessing.Lock`
(a semaphore), runs the unit, sends the pickled `(index, value or
exception)` back on its own pipe and leaves with `os._exit` once no unit is
left. The parent reads every pipe that is readable until every result is
in or a child has died, then kills and reaps every child that is left.
Nothing here starts a thread, so the process stays single-threaded and the
next command can fork again; a unit's value or exception must pickle.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import pickle
import signal
import sys
import traceback
from dataclasses import dataclass
from functools import partial
from multiprocessing.connection import Pipe, wait
from typing import Callable, Sequence


@dataclass(frozen=True)
class Stage:
    """Independent unit calls `(function, args)`, and the parent-side step
    that turns their values, in submission order, into the stage's result."""
    calls: Sequence[tuple[Callable, tuple]]
    finish: Callable[[list], object]


def _pool_workers(units: int) -> int:
    """Child processes for `units` units, 0 to run them in-process."""
    if not sys.platform.startswith("linux") or units < 2:
        return 0
    if len(os.listdir("/proc/self/task")) != 1:
        return 0
    cpus = len(os.sched_getaffinity(0))
    return min(cpus, units) if cpus > 1 else 0


def _in_process(calls) -> list:
    """Run `calls` here, once each and in submission order, and return their
    `(ok, value or exception, None)` outcomes."""
    outcomes = []
    for fn, args in calls:
        try:
            outcomes.append((True, fn(*args), None))
        except Exception as exc:    # raised when its stage is read
            outcomes.append((False, exc, None))
    return outcomes


def _in_children(calls, workers: int) -> list:
    """Run `calls` in `workers` forked children and return their `(ok, value
    or exception, traceback text)` outcomes in submission order, once every
    result is in or a child has died. Every child is killed and reaped
    first."""
    received = {}       # index -> outcome
    readers = {}        # result pipe -> its child's pid, until reaped
    lost = None
    counter = mmap.mmap(-1, 8)      # anonymous and shared: the next index
    lock = multiprocessing.get_context("fork").Lock()
    try:
        for _ in range(workers):
            reader, writer = Pipe(duplex=False)
            pid = os.fork()
            if pid == 0:
                _child(calls, counter, lock, writer)
            writer.close()      # the child holds the only write end
            readers[reader] = pid
        while len(received) < len(calls) and readers and not lost:
            for reader in wait(list(readers)):
                try:
                    index, *outcome = pickle.loads(reader.recv_bytes())
                    received[index] = outcome
                except (EOFError, OSError):     # the child has left
                    _, status = os.waitpid(readers.pop(reader), 0)
                    reader.close()
                    code = os.waitstatus_to_exitcode(status)
                    if code < 0:
                        lost = f"was killed by {signal.Signals(-code).name}"
                    elif code:
                        lost = f"exited with status {code}"
    finally:
        counter.close()
        for pid in readers.values():
            os.kill(pid, signal.SIGKILL)    # unreaped, so the pid is still ours
        for reader, pid in readers.items():
            os.waitpid(pid, 0)
            reader.close()
    return [received[k] if k in received else
            (False, RuntimeError(f"a worker process {lost or 'has left'}; "
                                 f"unit {k}'s result is lost"), None)
            for k in range(len(calls))]


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


def run(*stages: Stage) -> list[Callable[[], object]]:
    """Run every unit of `stages`, then return one zero-argument callable
    per stage that returns the stage's result.

    Every child is killed and reaped before `run` returns. A stage's
    callable raises the exception of its first failed unit, so a unit's
    error is raised only when its own stage is read.
    """
    calls = [call for stage in stages for call in stage.calls]
    workers = _pool_workers(len(calls))
    outcomes = _in_children(calls, workers) if workers else _in_process(calls)
    readers, start = [], 0
    for stage in stages:
        end = start + len(stage.calls)
        readers.append(partial(_read, stage.finish, outcomes[start:end]))
        start = end
    return readers


def _read(finish, outcomes):
    """A stage's result from its units' outcomes."""
    values = []
    for ok, value, trace in outcomes:
        if ok:
            values.append(value)
        elif trace is None:
            raise value
        else:
            # a traceback does not pickle, so the child sent its text
            raise value from RuntimeError(f"in a worker process:\n{trace}")
    return finish(values)

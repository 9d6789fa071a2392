"""Command-line front end: problem-file ingestion, dispatch, and reports.

Usage: vpa <command> --problem FILE [--config FILE] [--at COORDS]
            [--ybar LIST] --out DIR

Commands: eval, rabier, mfcq, tangency, trace, classify, section, solve,
verdict. Every command takes the same five options, so one flat parser
(a positional command plus the options) serves them all; it is built
once, at import, and reused by every `main` call, since parsing does not
change it. Each writes <command>_report.json into the output directory
(plus CSV exports for trace/solve/verdict). Exit status: 0 on success,
1 on operation errors, 2 on input errors. Reports embed the full config
and a hash of it, and are byte-identical across runs with the same
inputs and seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import asymptotics, pareto
from .asymptotics import classify, flatten_records, trace_tangency
from .certificates import mfcq_probe, rabier_value, tangency_membership
from .config import DEFAULT_CONFIG, RunConfig
from .errors import ParseError, ProblemValidationError, VpaError
from .pipeline import run
from .problem import _feasibility, evaluate_finite, load_problem, parse_ybar

COMMANDS = ("eval", "rabier", "mfcq", "tangency", "trace", "classify",
            "section", "solve", "verdict")

EXIT_OK = 0
EXIT_OPERATION = 1
EXIT_INPUT = 2


class InputError(Exception):
    """Bad command line, problem file, or config file."""


# The report format is the text json.dumps(indent=2, sort_keys=True) gives,
# with infinities and NaN written as the "+inf"/"-inf"/"nan" tokens of problem
# files (so the text stays standard JSON), numpy scalars and arrays as
# numbers, booleans and lists, dataclasses as objects of their fields, dict
# keys as str(key), and any other object as str(obj). With `indent` set,
# CPython 3.11's json runs its pure-Python encoder, a chain of generators;
# `_encode` writes the same bytes in one recursive pass.

_escape = json.encoder.encode_basestring_ascii
_INDENT = "  "


def _json_text(obj) -> str:
    """The report format's text of `obj`, without a trailing newline."""
    return _encode(obj, "\n")


def _encode(obj, pad: str) -> str:
    """JSON text of `obj` nested at `pad`, the newline and indentation that
    open each line of the enclosing container's entries."""
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, np.floating):
        return _float_text(float(obj))
    if isinstance(obj, np.integer):
        return int.__repr__(int(obj))
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist(), pad)
    names = _field_names(type(obj))
    if names is not None:
        return _encode_items([(name, getattr(obj, name)) for name in names], pad)
    if isinstance(obj, dict):
        return _encode_items(sorted({str(k): v for k, v in obj.items()}.items()), pad)
    if isinstance(obj, (list, tuple)):
        return _encode_list(obj, pad)
    return _escape(str(obj))


@functools.cache
def _field_names(kind: type) -> tuple[str, ...] | None:
    """A dataclass's field names, sorted; None for any other type."""
    if not dataclasses.is_dataclass(kind):
        return None
    return tuple(sorted(f.name for f in dataclasses.fields(kind)))


def _float_text(x: float) -> str:
    if x != x:
        return '"nan"'
    if x in (math.inf, -math.inf):
        return '"+inf"' if x > 0 else '"-inf"'
    return float.__repr__(x)


def _encode_items(items, pad: str) -> str:
    """A JSON object of (key, value) pairs, keys sorted and distinct."""
    if not items:
        return "{}"
    inner = pad + _INDENT
    return ("{" + inner
            + ("," + inner).join([_escape(k) + ": " + _encode(v, inner) for k, v in items])
            + pad + "}")


def _encode_list(values, pad: str) -> str:
    if not values:
        return "[]"
    inner = pad + _INDENT
    return ("[" + inner + ("," + inner).join([_encode(v, inner) for v in values])
            + pad + "]")


def _parse_point(text: str, n: int) -> np.ndarray:
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise InputError(f"--at expects comma-separated numbers, got {text!r}")
    if len(values) != n:
        raise InputError(f"--at has {len(values)} coordinates, problem has n={n}")
    if not all(math.isfinite(v) for v in values):
        raise InputError(f"--at coordinates must be finite, got {text!r}")
    return np.array(values)


def _load_config(path) -> RunConfig:
    if path is None:
        return DEFAULT_CONFIG
    try:
        data = json.loads(Path(path).read_text())
        return RunConfig.from_dict(data)
    except (OSError, ValueError, RecursionError) as exc:   # RecursionError: nested JSON
        raise InputError(f"bad config file {path}: {exc}")


def _require_at(args, n):
    if args.at is None:
        raise InputError("this command needs --at x1,...,xn")
    return _parse_point(args.at, n)


def _resolve_ybar(args, file_ybar, p):
    if args.ybar is not None:
        try:
            return parse_ybar(args.ybar, p)
        except ProblemValidationError as exc:
            raise InputError(str(exc))
    if file_ybar is not None:
        return file_ybar
    return tuple(math.inf for _ in range(p))


def _cmd_eval(prob, ybar, point, cfg, outdir):
    f, g, h, _, _, _ = evaluate_finite(prob, point)
    return {"f": list(f), "g": list(g), "h": list(h),
            "feasibility": _feasibility(g, h, cfg.tol_feas, cfg.tol_active)}


def _cmd_rabier(prob, ybar, point, cfg, outdir):
    return {"rabier": rabier_value(prob, point, cfg)}


def _cmd_mfcq(prob, ybar, point, cfg, outdir):
    return {"mfcq": mfcq_probe(prob, point, cfg)}


def _cmd_tangency(prob, ybar, point, cfg, outdir):
    return {"tangency": tangency_membership(prob, point, cfg)}


def _write_output(path: Path, text: str) -> None:
    """Write `text` over the file at `path`, in place.

    The file is opened without O_TRUNC and cut to the written length
    afterwards. On ext4, closing a file that was truncated to zero starts
    its writeback at once (the `auto_da_alloc` heuristic): rewriting an
    8-KB file took 155-168 us that way against 9-10 us in place (medians of
    400, 2-CPU virtual machine). The file keeps its inode, links and mode.
    Neither way is atomic: a reader during the write can see old and new
    bytes mixed.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_trace(outdir, prob, traces) -> int:
    """trace.csv of the traces' records; returns the record count."""
    records = flatten_records(traces)
    _write_output(outdir / "trace.csv", asymptotics.trace_csv(records, prob.n, prob.p))
    return len(records)


def _write_archive(outdir, prob, archive) -> list[dict]:
    """front.csv and archive.json; returns the archive's JSON form for the
    report."""
    _write_output(outdir / "front.csv", pareto.front_csv(archive, prob.p))
    data = pareto.archive_to_jsonable(archive)
    _write_output(outdir / "archive.json", _json_text(data))
    return data


def _cmd_trace(prob, ybar, point, cfg, outdir):
    traces = trace_tangency(prob, ybar, cfg)
    return {
        "traces": traces,
        "record_count": _write_trace(outdir, prob, traces),
        "csv": "trace.csv",
    }


def _cmd_classify(prob, ybar, point, cfg, outdir):
    read_rays, read_chains = run(pareto.ray_stage(prob, ybar, cfg),
                                 asymptotics.chain_stage(prob, ybar, cfg))
    rays = read_rays()
    evidence = pareto.sample_mfcq_evidence(rays)
    traces = read_chains() + [ray.trace for ray in rays if ray.trace is not None]
    verdicts = classify(prob, ybar, traces, cfg, mfcq_holds=evidence.holds)
    return {"mfcq_evidence": evidence, "verdicts": verdicts}


def _cmd_section(prob, ybar, point, cfg, outdir):
    report = pareto.section_probe(prob, ybar, cfg)
    return {"section": report}


def _cmd_solve(prob, ybar, point, cfg, outdir):
    archive = pareto.solve_front(prob, ybar, cfg)
    return {
        "archive": _write_archive(outdir, prob, archive),
        "csv": "front.csv",
    }


def _cmd_verdict(prob, ybar, point, cfg, outdir):
    report = pareto.existence_verdict(prob, ybar, cfg)
    archive = _write_archive(outdir, prob, report.archive)
    _write_trace(outdir, prob, report.traces)
    return {
        "status": report.status,
        "failing_hypotheses": report.failing_hypotheses,
        "ybar_membership": report.ybar_membership,
        "mfcq_evidence": report.mfcq,
        "section": report.section,
        "verdicts": report.verdicts,
        "archive": archive,
        "notes": report.notes,
    }


_HANDLERS = {
    "eval": (_cmd_eval, True),
    "rabier": (_cmd_rabier, True),
    "mfcq": (_cmd_mfcq, True),
    "tangency": (_cmd_tangency, True),
    "trace": (_cmd_trace, False),
    "classify": (_cmd_classify, False),
    "section": (_cmd_section, False),
    "solve": (_cmd_solve, False),
    "verdict": (_cmd_verdict, False),
}


PARSER = argparse.ArgumentParser(
    prog="vpa",
    description="Analyze constrained vector polynomial optimization problems.")
PARSER.add_argument("command", choices=COMMANDS)
PARSER.add_argument("--problem", required=True, help="problem JSON file")
PARSER.add_argument("--config", default=None, help="config JSON file")
PARSER.add_argument("--at", default=None,
                    help="point as comma-separated coordinates")
PARSER.add_argument("--ybar", default=None,
                    help="reference value, numbers or +inf, comma-separated")
PARSER.add_argument("--out", required=True, help="output directory")


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK

    try:
        cfg = _load_config(args.config)
        try:
            prob, file_ybar = load_problem(args.problem)
        except OSError as exc:
            raise InputError(f"cannot read problem file: {exc}")
        except (ParseError, ProblemValidationError) as exc:
            raise InputError(f"bad problem file {args.problem}: {exc}")
        ybar = _resolve_ybar(args, file_ybar, prob.p)
        handler, needs_point = _HANDLERS[args.command]
        point = _require_at(args, prob.n) if needs_point else None
        if args.command == "section" and not any(map(math.isfinite, ybar)):
            raise InputError("section needs a finite ybar component "
                             "(--ybar or the problem file's ybar)")
    except InputError as exc:
        print(f"vpa: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"vpa: input error: cannot create output directory {outdir}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT

    envelope = {
        "command": args.command,
        "problem_file": str(args.problem),
        "problem": {
            "n": prob.n,
            "objectives": [str(p) for p in prob.objectives],
            "equalities": [str(p) for p in prob.equalities],
            "inequalities": [str(p) for p in prob.inequalities],
        },
        "inputs": {
            "at": list(point) if point is not None else None,
            "ybar": list(ybar),
        },
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
    }
    try:
        result = handler(prob, ybar, point, cfg, outdir)
        envelope["status"] = "ok"
        envelope["result"] = result
        code = EXIT_OK
    except VpaError as exc:
        envelope["status"] = "error"
        envelope["error"] = {"type": type(exc).__name__, "message": str(exc)}
        print(f"vpa: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_OPERATION

    _write_output(outdir / f"{args.command}_report.json", _json_text(envelope) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

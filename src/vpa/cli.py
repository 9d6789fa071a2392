"""Command-line front end: problem-file ingestion, dispatch, and reports.

Usage: vpa <command> --problem FILE [--config FILE] [--at COORDS]
            [--ybar LIST] --out DIR

Commands: eval, rabier, mfcq, tangency, trace, classify, section, solve,
verdict. Each writes <command>_report.json into the output directory
(plus CSV exports for trace/solve/verdict). Exit status: 0 on success,
1 on operation errors, 2 on input errors. Reports embed the full config
and a hash of it, and are byte-identical across runs with the same
inputs and seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import asymptotics, pareto
from .asymptotics import classify, flatten_records, trace_tangency
from .certificates import mfcq_probe, rabier_value, tangency_membership
from .config import DEFAULT_CONFIG, RunConfig
from .errors import ParseError, ProblemValidationError, VpaError
from .pipeline import run
from .problem import Problem, check_feasible, load_problem, parse_ybar

COMMANDS = ("eval", "rabier", "mfcq", "tangency", "trace", "classify",
            "section", "solve", "verdict")

EXIT_OK = 0
EXIT_OPERATION = 1
EXIT_INPUT = 2


class InputError(Exception):
    """Bad command line, problem file, or config file."""


def to_jsonable(obj):
    """Recursively convert report objects into JSON-safe structures.

    Infinities become the "+inf"/"-inf" tokens used by problem files so the
    emitted JSON stays standard-compliant.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "+inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        return to_jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: to_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


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
    except (OSError, json.JSONDecodeError, ValueError) as exc:
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
    report = check_feasible(prob, point, cfg.tol_feas, cfg.tol_active)
    f, g, h, _, _, _ = prob.evaluate(point)
    return {"f": list(f), "g": list(g), "h": list(h), "feasibility": report}


def _cmd_rabier(prob, ybar, point, cfg, outdir):
    return {"rabier": rabier_value(prob, point, cfg)}


def _cmd_mfcq(prob, ybar, point, cfg, outdir):
    return {"mfcq": mfcq_probe(prob, point, cfg)}


def _cmd_tangency(prob, ybar, point, cfg, outdir):
    return {"tangency": tangency_membership(prob, point, cfg)}


def _cmd_trace(prob, ybar, point, cfg, outdir):
    traces = trace_tangency(prob, ybar, cfg.radii(), weights_seed=1, cfg=cfg)
    records = flatten_records(traces)
    asymptotics.write_trace_csv(outdir / "trace.csv", records, prob.n, prob.p)
    return {
        "traces": traces,
        "record_count": len(records),
        "csv": "trace.csv",
    }


def _cmd_classify(prob, ybar, point, cfg, outdir):
    radii = cfg.radii()
    stages = run(pareto.mfcq_stage(prob, cfg),
                 asymptotics.chain_stage(prob, ybar, radii, weights_seed=1, cfg=cfg),
                 pareto.ray_stage(prob, ybar, radii, cfg))
    with stages as (read_mfcq, read_chains, read_rays):
        evidence = read_mfcq()
        traces = read_chains() + read_rays()
    verdicts = classify(prob, ybar, traces, cfg, mfcq_holds=evidence.holds,
                        schedule=radii)
    return {"mfcq_evidence": evidence, "verdicts": verdicts}


def _cmd_section(prob, ybar, point, cfg, outdir):
    report = pareto.section_probe(prob, ybar, cfg.section_budget, seed=1, cfg=cfg)
    return {"section": report}


def _cmd_solve(prob, ybar, point, cfg, outdir):
    archive = pareto.solve_front(prob, ybar, cfg)
    pareto.write_front_csv(outdir / "front.csv", archive, prob.p)
    (outdir / "archive.json").write_text(
        json.dumps(pareto.archive_to_jsonable(archive), indent=2, sort_keys=True))
    return {
        "archive": pareto.archive_to_jsonable(archive),
        "csv": "front.csv",
    }


def _cmd_verdict(prob, ybar, point, cfg, outdir):
    report = pareto.existence_verdict(prob, ybar, cfg)
    pareto.write_front_csv(outdir / "front.csv", report.archive, prob.p)
    (outdir / "archive.json").write_text(
        json.dumps(pareto.archive_to_jsonable(report.archive),
                   indent=2, sort_keys=True))
    records = flatten_records(report.traces)
    asymptotics.write_trace_csv(outdir / "trace.csv", records, prob.n, prob.p)
    return {
        "status": report.status,
        "failing_hypotheses": report.failing_hypotheses,
        "ybar_membership": report.ybar_membership,
        "mfcq_evidence": report.mfcq,
        "section": report.section,
        "verdicts": report.verdicts,
        "archive": pareto.archive_to_jsonable(report.archive),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpa",
        description="Analyze constrained vector polynomial optimization problems.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--problem", required=True, help="problem JSON file")
        cmd.add_argument("--config", default=None, help="config JSON file")
        cmd.add_argument("--at", default=None,
                         help="point as comma-separated coordinates")
        cmd.add_argument("--ybar", default=None,
                         help="reference value, numbers or +inf, comma-separated")
        cmd.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_INPUT

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
    except InputError as exc:
        print(f"vpa: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

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

    report_path = outdir / f"{args.command}_report.json"
    report_path.write_text(json.dumps(to_jsonable(envelope),
                                      indent=2, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

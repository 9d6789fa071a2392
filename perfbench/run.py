#!/usr/bin/env python3
"""vpa benchmark: one workload, one closed loop, one process, no extra threads.

    python3 perfbench/run.py --workload verdict-hyperbola --seed 1 --seconds 60 --trace 0

Run from the repository root. The program is imported from ./src, never
from an installed copy. With --trace 0 the run measures the end-to-end
metrics; with --trace 1 it alternates untraced and traced calls and derives
the per-layer metrics from the spans. The last stdout line is the JSON
result for the metrics named in ./BENCHMARK.json; the lines before it list
every metric, and the full result with provenance is written to
.bench_work/results/. See perfbench/README.md.
"""

import os
import time

T0 = time.perf_counter()
# single-threaded BLAS before numpy loads: two busy-waiting BLAS pools on two
# cores slowed a verdict several-fold
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from workloads import FIXTURES, WORKLOADS, Outcomes  # noqa: E402

ROOT = Path.cwd()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import vpa from ./src of the checkout; exit nonzero without it."""
    src = ROOT / "src"
    missing = [str(p) for p in [src / "vpa" / "__init__.py",
                                *(ROOT / workloads.problem_path(f) for f in FIXTURES)]
               if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: run from the repository root; missing {', '.join(missing)}")
    sys.path.insert(0, str(src))
    import vpa
    if Path(vpa.__file__).resolve().parent != (src / "vpa").resolve():
        sys.exit(f"perfbench: imported vpa from {vpa.__file__}, not from {src}")


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def git_sha() -> str:
    """HEAD of the checkout, read without starting git; "unknown" outside a
    git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "platform": platform.platform(),
    }


def summary(values, scale=1.0) -> dict:
    """Median and interquartile range of a sample set."""
    values = [v * scale for v in values]
    if len(values) < 2:
        return {"median": values[0] if values else None, "iqr": None, "samples": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": q3 - q1, "samples": len(values)}


def end_to_end(pointwise, plain, setup) -> dict:
    """name -> (value, unit, sample summary or None)."""
    metrics = {
        "setup_s": (statistics.median(setup), "s", summary(setup)),
        "call_ms_p50": (statistics.median(plain) * 1e3, "ms", summary(plain, 1e3)),
        "calls_per_s": (len(plain) / sum(plain), "1/s", None),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", None),
    }
    if pointwise:
        metrics["query_ms_p90"] = (workloads.percentile(plain, 0.9) * 1e3, "ms", None)
    else:
        metrics["verdict_s"] = (statistics.median(plain), "s", summary(plain))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = T0 + args.seconds
    import_program()
    from vpa import cli
    from vpa.problem import load_problem
    import tracer as tracing

    pointwise = args.workload == "pointwise-cli"
    declared_e2e, declared_layer = declared_metrics()
    result_dir = ROOT / ".bench_work" / "results"
    result_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    outcomes = Outcomes()
    tracer = tracing.Tracer() if args.trace else None
    sampler = None if args.trace else workloads.SetupSampler(
        load_problem, FIXTURES if pointwise else (workloads.VERDICT_WORKLOADS[args.workload][0],))
    try:
        if pointwise:
            plain, traced = workloads.run_queries(cli, args.seed, workdir, deadline,
                                                  outcomes, sampler, tracer)
        else:
            plain, traced = workloads.run_verdicts(cli, args.workload, workdir, deadline,
                                                   outcomes, sampler, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {k: (v, u, None) for k, (v, u) in tracing.layer_metrics(tracer).items()}
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(plain), "ratio", None)
        declared = declared_layer
    else:
        metrics = end_to_end(pointwise, plain, sampler.samples)
        declared = declared_e2e
    metrics["failed_share"] = (outcomes.failed / outcomes.attempted, "ratio", None)
    metrics["wrong_share"] = (outcomes.wrong / max(1, outcomes.checked), "ratio", None)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "calls_measured": len(plain),
        "calls_traced": len(traced),
        "outcomes": {"attempted": outcomes.attempted, "failed": outcomes.failed,
                     "checked": outcomes.checked, "wrong": outcomes.wrong,
                     "known_defects": outcomes.known_defects,
                     "exposed_to_known_defect": outcomes.exposed,
                     "unexpected": outcomes.unexpected[:20]},
        "report_digests": outcomes.digests,
        "metrics": {k: {"value": v, "unit": u, **(s or {})}
                    for k, (v, u, s) in metrics.items()},
    }
    if not pointwise:
        config = workloads.run_config(args.workload)
        record["config"] = config.to_dict()
        record["config_hash"] = config.config_hash()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (result_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer is not None:
        with open(result_dir / f"{stem}.spans.jsonl", "w") as fh:
            for span in tracer.span_dicts():
                fh.write(json.dumps(span) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"calls={len(plain)} traced={len(traced)} attempted={outcomes.attempted} "
          f"failed={outcomes.failed} wrong={outcomes.wrong} "
          f"known_defects={outcomes.known_defects}/{outcomes.exposed}")
    for name, (value, unit, _) in metrics.items():
        print(f"{name:38s} {value:14.6g} {unit}")
    for line in outcomes.unexpected[:5]:
        print(f"# unexpected: {line}")
    print(json.dumps({
        "correct": outcomes.correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

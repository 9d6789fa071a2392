#!/usr/bin/env python3
"""Run every workload on several seeds and write one BENCH_<date>_<label>.json.

    python3 perfbench/baseline.py --label seed

Run from the repository root. Every workload BENCHMARK.json declares runs
on seeds 1-10 for its run_seconds, each run a separate `perfbench/run.py`
process, started and awaited one at a time. For every end-to-end metric the
file holds the per-seed values, their median and interquartile range (also
as a share of the median); one traced run per workload (the first seed)
adds the per-layer metrics. Provenance (git SHA, nproc, versions, BLAS
threads), each verdict workload's config and config hash, and the report
digests come from the per-run result files in .bench_work/results/.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{seed}-trace{trace}"
    record = json.loads((ROOT / ".bench_work" / "results" / f"{stem}.json").read_text())
    return {"result": last, "record": record}


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(SEEDS)

    out = {"label": args.label, "date": datetime.date.today().isoformat(),
           "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    # seeds outermost, so each workload's runs spread over the whole baseline
    # instead of sharing one phase of a shared machine
    runs: dict[str, list] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            run = run_once(workload, seed, seconds, 0)
            runs[workload].append(run)
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in run["result"]["metrics"].items()), flush=True)
    for workload in workloads:
        done = runs[workload]
        out.setdefault("provenance", done[0]["record"]["provenance"])
        entry = {
            "correct": all(r["result"]["correct"] for r in done),
            "attempted": sum(r["result"]["attempted"] for r in done),
            "failed": sum(r["result"]["failed"] for r in done),
            "metrics": {name: {"unit": m["unit"],
                               "declared": name in done[0]["result"]["metrics"],
                               **spread([r["record"]["metrics"][name]["value"] for r in done])}
                        for name, m in done[0]["record"]["metrics"].items()},
            "runs": {str(seed): {"config_hash": r["record"].get("config_hash"),
                                 "report_digests": r["record"]["report_digests"],
                                 "calls_measured": r["record"]["calls_measured"],
                                 "known_defects": r["record"]["outcomes"]["known_defects"],
                                 "exposed_to_known_defect":
                                     r["record"]["outcomes"]["exposed_to_known_defect"]}
                     for seed, r in zip(seeds, done)},
        }
        if "config" in done[0]["record"]:
            entry["config"] = done[0]["record"]["config"]
        traced = run_once(workload, seeds[0], seconds, 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer_correct"] = traced["result"]["correct"]
        entry["per_layer"] = {k: {"value": v["value"], "unit": v["unit"]}
                              for k, v in traced["record"]["metrics"].items()}
        out["workloads"][workload] = entry
        print(workload)
        for name, m in entry["metrics"].items():
            if m["declared"]:
                print(f"  {name:14s} median {m['median']:.6g} {m['unit']}  "
                      f"IQR/median {m['iqr_share']:.4f}", flush=True)

    path = HERE / "results" / f"BENCH_{out['date']}_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

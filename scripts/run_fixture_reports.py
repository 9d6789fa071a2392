#!/usr/bin/env python3
"""Run the full verdict pipeline on the three bundled problems.

Writes one report directory per problem under results/ (default). The
bundled fixtures exercise the three interesting regimes: a guaranteed
existence verdict with a recovered solution, an asymptotic-condition
failure under a valid constraint qualification, and a constraint
qualification failure with diverging Rabier values.

Exits 1 when any verdict exits nonzero.

Usage: python scripts/run_fixture_reports.py [--out DIR] [--fast]
"""

import argparse
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from vpa.cli import main as vpa_main  # noqa: E402

FAST_CONFIG = {
    "radius_factor": 10.0, "radius_count": 4, "weights_per_radius": 2,
    "weight_grid": 3, "starts_per_weight": 2, "section_budget": 8,
}
FULL_CONFIG = {
    "radius_factor": 10.0, "radius_count": 5, "weights_per_radius": 4,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=ROOT / "results", type=pathlib.Path)
    parser.add_argument("--fast", action="store_true",
                        help="reduced schedule and budgets")
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    config_path = args.out / "config.json"
    config_path.write_text(json.dumps(FAST_CONFIG if args.fast else FULL_CONFIG,
                                      indent=2))

    failed = False
    for name in ("motzkin", "hyperbola", "degenerate_line"):
        problem = ROOT / "problems" / f"{name}.json"
        outdir = args.out / name
        start = time.time()
        rc = vpa_main(["verdict", "--problem", str(problem),
                       "--config", str(config_path), "--out", str(outdir)])
        failed |= rc != 0
        report = json.loads((outdir / "verdict_report.json").read_text())
        result = report.get("result", {})
        print(f"{name:16s} rc={rc} ({time.time() - start:5.1f}s) "
              f"status={result.get('status')!r} "
              f"failing={result.get('failing_hypotheses')}")
        verdicts = result.get("verdicts", {})
        for cond in ("proper", "palais_smale", "cerami", "m_tame"):
            if cond in verdicts:
                print(f"    {cond:13s} {verdicts[cond]['status']}")
        archive = result.get("archive", [])
        if archive:
            print(f"    archive head  x={archive[0]['x']} f={archive[0]['f']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

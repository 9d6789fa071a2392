#!/usr/bin/env python3
"""Profile the Rabier value along sphere-tracked Pareto points.

For a problem file, tracks weighted Pareto points over the radius schedule
and prints each chain's weight and the status of each radius (point, empty
or failed), then (and optionally saves) one row per record: radius,
f-values, v(x), ||x||*v(x), tangency membership. Growth of v against the
radius is the telltale of a constraint qualification failure at infinity; a
vanishing column is a Palais-Smale failure witness candidate.

Usage: python scripts/rabier_radius_profile.py problems/hyperbola.json \
           [--ybar=-1,2] [--decades 4] [--csv out.csv]
"""

import argparse
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from vpa import DEFAULT_CONFIG, load_problem  # noqa: E402
from vpa.asymptotics import (flatten_records, trace_csv,
                             trace_tangency)  # noqa: E402
from vpa.errors import ProblemValidationError  # noqa: E402
from vpa.problem import parse_ybar  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("problem", type=pathlib.Path)
    parser.add_argument("--ybar", default=None)
    parser.add_argument("--decades", type=int, default=4)
    parser.add_argument("--chains", type=int, default=4)
    parser.add_argument("--csv", type=pathlib.Path, default=None)
    args = parser.parse_args()
    # the radius schedule needs at least 4 radii, so at least 3 decades
    if args.decades < 3:
        parser.error(f"--decades must be at least 3, got {args.decades}")
    if args.chains < 1:
        parser.error(f"--chains must be at least 1, got {args.chains}")
    # RunConfig refuses a schedule that overflows or has too many radii
    try:
        cfg = DEFAULT_CONFIG.replace(radius_factor=10.0,
                                     radius_count=args.decades + 1,
                                     weights_per_radius=args.chains)
    except ValueError as exc:
        parser.error(f"--decades {args.decades}: {exc}")

    prob, file_ybar = load_problem(args.problem)
    if args.ybar is not None:
        try:
            ybar = parse_ybar(args.ybar, prob.p)
        except ProblemValidationError as exc:
            parser.error(f"--ybar: {exc}")
    elif file_ybar is not None:
        ybar = file_ybar
    else:
        ybar = tuple(math.inf for _ in range(prob.p))

    traces = trace_tangency(prob, ybar, cfg)

    header = (f"{'radius':>12s} " + " ".join(f"{f'f_{k+1}':>12s}"
                                             for k in range(prob.p))
              + f" {'rabier':>12s} {'scaled':>12s} tang below")
    print(f"problem: {args.problem}  ybar: {ybar}")
    for trace in traces:
        weight = ", ".join(f"{w:.4f}" for w in trace.weight)
        print(f"-- {trace.label} (weight {weight}; resolved "
              f"{len(trace.coverage_radii)}/{len(trace.outcomes)} radii)")
        print("   " + " ".join(f"{o.radius:.4g}:{o.status}" for o in trace.outcomes))
        print(header)
        for rec in trace.records:
            fvals = " ".join(f"{v:12.4e}" for v in rec.f_value)
            print(f"{rec.radius:12.4e} {fvals} {rec.rabier:12.4e} "
                  f"{rec.scaled_rabier:12.4e} {int(rec.in_tangency):>4d} "
                  f"{int(rec.below_ybar):>5d}")

    if args.csv is not None:
        args.csv.write_text(trace_csv(flatten_records(traces), prob.n, prob.p),
                            newline="")
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()

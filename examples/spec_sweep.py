#!/usr/bin/env python3
"""SPEC-workload sweep: a miniature Figure 10 + Figure 11.

Runs the 15 SPEC2000-shaped workloads through MSan and all four Usher
configurations as one bench matrix and prints the figures rendered
from its rows.  ``--scale`` trades fidelity for speed (1.0 = the
reference inputs of the benchmarks).

Run:  python examples/spec_sweep.py [--scale 0.25] [--level O0+IM]
"""

import argparse

from repro.bench import MatrixSpec, format_bench_report, run_matrix
from repro.bench.report import average_slowdowns, msan_reduction
from repro.workloads import WORKLOADS

CONFIGS = ("msan", "tl", "tl_at", "opt_i", "full")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.25,
                        help="workload input scale (1.0 = reference)")
    parser.add_argument("--level", default="O0+IM",
                        choices=["O0", "O0+IM", "O1", "O2"],
                        help="compiler optimization pipeline")
    args = parser.parse_args()

    print(f"Running all 15 workloads at scale {args.scale} under {args.level}...")
    spec = MatrixSpec(
        workloads=[w.name for w in WORKLOADS],
        configs=CONFIGS,
        scale=args.scale,
        level=args.level,
    )
    rows = run_matrix(spec.expand())
    print()
    print(format_bench_report(rows))

    reduction = msan_reduction(average_slowdowns(rows))
    print(f"Usher reduces MSan's average overhead by {reduction:.1f}%")
    tools = [
        row["config"]
        for row in rows
        if row["workload"] == "197.parser" and row["warnings"] > 0
    ]
    print(f"197.parser's genuine bug detected by: {', '.join(tools)}")


if __name__ == "__main__":
    main()

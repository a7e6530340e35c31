#!/usr/bin/env python
"""Cross-run regression gate for the analysis work logs.

``benchmarks/test_scalability.py`` appends one JSON line per solver run
to ``benchmarks/results/solver_stats.jsonl``, and
``benchmarks/test_demand_queries.py`` does the same per demand-query
batch to ``benchmarks/results/query_stats.jsonl``.  This tool groups a
log by workload key — ``(benchmark, seed, factor, solver)`` for solver
records, ``(benchmark, seed, factor, resolver)`` for query records
(auto-detected per line: query records carry a ``resolver`` field) —
and compares the most recent entry of each group against the one
before it: if the same workload suddenly does more than
``--max-ratio`` times the work, a performance regression slipped in and
the gate fails.

The analysis has one configuration.  Older rows carry the axes of
since-removed alternatives (``tier``, ``storage``, ``schedule``,
``jobs``); a row measured on a non-default value of one of them
(``tier`` other than ``full``, ``compressed`` storage, the ``fifo``
schedule of the delta solver, ``jobs`` above 1) describes a path that
no longer exists and is skipped, while a row on the defaults joins the
history of its workload.  Legacy bench cells named
``workload/config/tier/storage/schedule/jN`` are keyed as
``workload/config`` the same way.

Rows stamped ``"schema": "repro.stats/1"`` (everything the unified
writer :func:`repro.obs.registry.write_stats_row` emits) additionally
get a per-phase wall-clock gate: when the same workload's
``phase_seconds`` entry more than doubles between consecutive runs
(``--max-wall-ratio``) *and* both sides exceed an absolute floor
(``--wall-floor``, default 0.2s — sub-floor phases are all noise), the
gate fails.  ``--no-wall-gate`` opts out on known-noisy machines.
Legacy rows without the marker are never wall-gated.

Gated counters (deterministic by construction; wall-clock fields on
*unstamped* rows are deliberately ignored because CI machines are
noisy):

- solver records: worklist ``pops`` and ``facts_propagated``, plus the
  memory profile when recorded — points-to representation bytes
  (``bytes_pts``) and ``peak_rss`` (rows written before the memory
  counters existed simply lack the fields and are skipped);
- query records: ``peak_visited_fraction`` (largest single-query share
  of the VFG visited) and ``states_per_query`` (derived:
  ``states_visited / queries``);
- service records (``benchmarks/test_service.py`` →
  ``benchmarks/results/service_stats.jsonl``, detected by their
  ``warm_seconds`` field) are gated *within* the newest entry: a
  batch answered by a warm demand engine, whose memo survives from
  earlier batches, must beat a batch answered by a cold one
  (``warm_seconds < cold_seconds``), or memo residency lost its
  point;
- bench records (``repro bench`` →
  ``benchmarks/results/bench_stats.jsonl``, stamped ``"kind":
  "bench"``, grouped by their ``cell`` name) gate ``status``,
  ``warned_uids``, ``checks`` and ``propagations`` for **exact
  equality** — detection results are bit-identical run to run, so any
  drift is a finding — plus the usual ratio gate on ``pops`` /
  ``facts_propagated``.  Bench rows are never wall-gated: their
  baselines are committed and diffed across machines.

``--baseline OTHER.jsonl`` prepends another log's histories group by
group, so a fresh single-run log can be gated against a committed
baseline: the newest-vs-previous comparison then runs current-vs-
baseline.  A group present in the baseline but absent from the
current log fails the gate (coverage must not silently shrink).

Usage (the CI invocations)::

    python tools/diff_solver_stats.py benchmarks/results/solver_stats.jsonl
    python tools/diff_solver_stats.py benchmarks/results/query_stats.jsonl
    python tools/diff_solver_stats.py benchmarks/results/bench_stats.jsonl \
        --baseline benchmarks/baselines/bench_smoke_baseline.jsonl

Exit status: 0 when every group is within bounds (or has fewer than two
entries — nothing to compare), 1 on any regression, 2 on a missing or
malformed log.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Deterministic work counters gated for regressions, per record kind.
SOLVER_METRICS = ("pops", "facts_propagated")
QUERY_METRICS = ("peak_visited_fraction", "states_per_query")

#: Solver memory counters, gated with the same ratio (``bytes_pts`` is
#: deterministic; ``peak_rss`` is close enough — a >2x RSS jump on the
#: same workload is a leak or a representation regression, not noise).
MEM_METRICS = ("bytes_pts", "peak_rss")

#: Bench-cell fields gated for exact equality (deterministic detection
#: results and static instrumentation), and for the work ratio.
BENCH_EXACT_FIELDS = ("status", "warned_uids", "checks", "propagations")
BENCH_METRICS = ("pops", "facts_propagated")

#: Backwards-compatible alias (the original solver-only gate).
GATED_METRICS = SOLVER_METRICS

#: Schema marker rows must carry to opt into the wall-clock gate
#: (matches :data:`repro.obs.registry.SCHEMA`).
WALL_GATE_SCHEMA = "repro.stats/1"

#: Phases faster than this (seconds) are never wall-gated — at that
#: scale a 2x swing is scheduler noise, not a regression.
WALL_FLOOR_SECONDS = 0.2

GroupKey = Tuple[object, ...]


def check_wall(
    previous: dict,
    latest: dict,
    label: str,
    max_ratio: float,
    floor: float,
) -> List[str]:
    """Per-phase wall-clock gate for schema-stamped rows.

    Applies only when *both* rows carry the unified-writer schema
    marker; compares each phase present in both ``phase_seconds``
    maps (falling back to the flat ``elapsed`` field as phase
    ``"total"``) and flags any phase that got ``max_ratio`` times
    slower while both sides sit above the absolute ``floor``.
    """
    if (
        previous.get("schema") != WALL_GATE_SCHEMA
        or latest.get("schema") != WALL_GATE_SCHEMA
    ):
        return []

    def walls(record: dict) -> Dict[str, float]:
        out: Dict[str, float] = {}
        phases = record.get("phase_seconds")
        if isinstance(phases, dict):
            for phase, seconds in phases.items():
                if isinstance(seconds, (int, float)):
                    out[str(phase)] = float(seconds)
        elapsed = record.get("elapsed")
        if isinstance(elapsed, (int, float)):
            out.setdefault("total", float(elapsed))
        return out

    before_walls, after_walls = walls(previous), walls(latest)
    problems = []
    for phase in sorted(set(before_walls) & set(after_walls)):
        before, after = before_walls[phase], after_walls[phase]
        if before < floor or after < floor:
            continue
        ratio = after / before
        if ratio > max_ratio:
            problems.append(
                f"{label}: phase '{phase}' wall time regressed "
                f"{before:.3f}s -> {after:.3f}s "
                f"({ratio:.2f}x > {max_ratio:.2f}x allowed)"
            )
    return problems


def record_kind(record: dict) -> str:
    """``"bench"`` for ``repro bench`` cell rows (explicitly stamped),
    ``"service"`` for service benchmark records (including the legacy
    resident-pool ones), ``"query"`` for demand-query records,
    ``"solver"`` otherwise."""
    if record.get("kind") == "bench":
        return "bench"
    if "warm_seconds" in record or "resident_seconds" in record:
        return "service"
    return "query" if "resolver" in record else "solver"


def removed_alternative(record: dict) -> bool:
    """Whether ``record`` measured a since-removed alternative: a
    non-default ``tier`` / ``storage`` / ``jobs``, the delta solver's
    ``fifo`` schedule, or the resident worker pool."""
    jobs = record.get("jobs", 1)
    return (
        record.get("tier", "full") != "full"
        or record.get("storage", "int") != "int"
        or (isinstance(jobs, int) and jobs > 1)
        or (
            record.get("schedule") == "fifo"
            and record.get("solver", "delta") == "delta"
        )
        or "resident_seconds" in record
    )


def load_groups(path: Path, kind: str = "auto") -> Dict[GroupKey, List[dict]]:
    """Parse the JSONL log into per-workload histories, oldest first.

    ``kind`` restricts to ``"solver"`` or ``"query"`` records;
    ``"auto"`` keeps both (each grouped by its own key shape).
    Query records get the derived ``states_per_query`` counter added.
    Rows of removed alternatives (:func:`removed_alternative`) are
    skipped.
    """
    groups: Dict[GroupKey, List[dict]] = {}
    with path.open() as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{lineno}: bad JSON ({error})")
            this_kind = record_kind(record)
            if kind != "auto" and this_kind != kind:
                continue
            if removed_alternative(record):
                continue
            if this_kind == "bench":
                cell = record.get("cell")
                if "tier" in record:  # legacy workload/config/axes... name
                    cell = f"{record.get('workload')}/{record.get('config')}"
                key: GroupKey = (this_kind, cell)
                groups.setdefault(key, []).append(record)
                continue
            if this_kind == "service":
                key: GroupKey = (
                    this_kind,
                    record.get("benchmark"),
                    record.get("seed"),
                    record.get("factor"),
                )
                groups.setdefault(key, []).append(record)
                continue
            if this_kind == "query":
                queries = record.get("queries")
                states = record.get("states_visited")
                if (
                    isinstance(queries, (int, float))
                    and queries > 0
                    and isinstance(states, (int, float))
                ):
                    record["states_per_query"] = states / queries
                key: GroupKey = (
                    this_kind,
                    record.get("benchmark"),
                    record.get("seed"),
                    record.get("factor"),
                    record.get("resolver"),
                )
            else:
                key = (
                    this_kind,
                    record.get("benchmark"),
                    record.get("seed"),
                    record.get("factor"),
                    record.get("solver"),
                )
            groups.setdefault(key, []).append(record)
    return groups


def check_group(
    key: GroupKey,
    history: List[dict],
    max_ratio: float,
    wall_ratio: "Optional[float]" = None,
    wall_floor: float = WALL_FLOOR_SECONDS,
) -> List[str]:
    """Compare the newest entry against its predecessor (service
    records instead gate *within* their newest entry: the warm engine
    must beat the cold one, or memo residency lost its point).
    ``wall_ratio``, when given, additionally wall-gates schema-stamped
    rows via :func:`check_wall`."""
    if key[0] == "bench":
        # Bench cells: exact equality on detection/instrumentation
        # fields, ratio on solver work, never wall-gated (committed
        # baselines are diffed across machines).
        if len(history) < 2:
            return []
        previous, latest = history[-2], history[-1]
        label = str(key[1])
        problems = []
        for field in BENCH_EXACT_FIELDS:
            if previous.get(field) != latest.get(field):
                problems.append(
                    f"{label}: {field} changed "
                    f"{previous.get(field)!r} -> {latest.get(field)!r}"
                )
        for metric in BENCH_METRICS:
            before = previous.get(metric)
            after = latest.get(metric)
            if not isinstance(before, (int, float)) or not isinstance(
                after, (int, float)
            ):
                continue
            if after > max(before, 1) * max_ratio:
                problems.append(
                    f"{label}: {metric} regressed {before} -> {after} "
                    f"(> {max_ratio:.2f}x allowed)"
                )
        return problems
    if key[0] == "service":
        latest = history[-1]
        label = "/".join(str(part) for part in key[1:])
        warm = latest.get("warm_seconds")
        cold = latest.get("cold_seconds")
        if not isinstance(warm, (int, float)) or not isinstance(
            cold, (int, float)
        ):
            return [f"{label}: service record lacks warm/cold timings"]
        if warm >= cold:
            return [
                f"{label}: warm engine ({warm:.4f}s) did not beat a cold "
                f"one ({cold:.4f}s) — memo residency lost its point"
            ]
        return []
    if len(history) < 2:
        return []
    previous, latest = history[-2], history[-1]
    metrics = (
        QUERY_METRICS
        if key[0] == "query"
        else SOLVER_METRICS + MEM_METRICS
    )
    label = "/".join(str(part) for part in key[1:])
    problems = []
    if wall_ratio is not None:
        problems.extend(
            check_wall(previous, latest, label, wall_ratio, wall_floor)
        )
    for metric in metrics:
        before = previous.get(metric)
        after = latest.get(metric)
        if not isinstance(before, (int, float)) or not isinstance(
            after, (int, float)
        ):
            continue
        if before <= 0:
            continue
        ratio = after / before
        if ratio > max_ratio:
            problems.append(
                f"{label}: {metric} regressed {before} -> {after} "
                f"({ratio:.2f}x > {max_ratio:.2f}x allowed)"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "log",
        type=Path,
        nargs="?",
        default=Path("benchmarks/results/solver_stats.jsonl"),
        help="path to a solver-stats or query-stats JSONL log",
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=2.0,
        help="fail when latest/previous work exceeds this factor "
        "(default: 2.0)",
    )
    parser.add_argument(
        "--kind",
        choices=("auto", "solver", "query", "service", "bench"),
        default="auto",
        help="restrict to one record kind (default: auto-detect per "
        "line and gate all)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="prepend another log's histories group by group before "
        "gating — lets a single fresh run be diffed against a "
        "committed baseline; baseline groups missing from the "
        "current log fail the gate",
    )
    parser.add_argument(
        "--max-wall-ratio",
        type=float,
        default=2.0,
        help="fail when a schema-stamped row's per-phase wall time "
        "exceeds this factor of the previous run (default: 2.0)",
    )
    parser.add_argument(
        "--wall-floor",
        type=float,
        default=WALL_FLOOR_SECONDS,
        help="absolute seconds below which phase wall times are never "
        f"gated (default: {WALL_FLOOR_SECONDS})",
    )
    parser.add_argument(
        "--no-wall-gate",
        action="store_true",
        help="disable the per-phase wall-clock gate entirely "
        "(counters are still gated)",
    )
    args = parser.parse_args(argv)

    if not args.log.exists():
        print(f"error: {args.log} not found", file=sys.stderr)
        return 2
    try:
        groups = load_groups(args.log, kind=args.kind)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    wall_ratio = None if args.no_wall_gate else args.max_wall_ratio
    problems: List[str] = []

    if args.baseline is not None:
        if not args.baseline.exists():
            print(f"error: {args.baseline} not found", file=sys.stderr)
            return 2
        try:
            base_groups = load_groups(args.baseline, kind=args.kind)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        for key, history in base_groups.items():
            if key in groups:
                groups[key] = history + groups[key]
            else:
                label = (
                    str(key[1])
                    if key[0] == "bench"
                    else "/".join(str(part) for part in key[1:])
                )
                problems.append(
                    f"{label}: in baseline {args.baseline} but missing "
                    "from this run (coverage shrank)"
                )

    kinds = {key[0] for key in groups}
    if kinds == {"query"}:
        label = "query-stats"
    elif kinds == {"service"}:
        label = "service-stats"
    elif kinds == {"bench"}:
        label = "bench-stats"
    else:
        label = "solver-stats"

    comparable = 0
    for key in sorted(groups, key=str):
        history = groups[key]
        if len(history) >= 2:
            comparable += 1
        problems.extend(
            check_group(
                key,
                history,
                args.max_ratio,
                wall_ratio=wall_ratio,
                wall_floor=args.wall_floor,
            )
        )

    if problems:
        print(f"{label} regression gate FAILED:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(
        f"{label} gate passed: {comparable} workload(s) compared "
        f"across runs, {len(groups) - comparable} with a single entry, "
        f"all within {args.max_ratio:.2f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

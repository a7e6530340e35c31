"""The paper's figures, rendered from bench rows, against a golden.

``tests/data/figures_golden.json`` holds Figure 10 (slowdowns, warning
counts, true bugs), Figure 11 (ratios to MSan), Table 1's count and
percentage columns and the §4.6 MSan/Usher averages for the 15
SPEC2000-shaped workloads at scale 0.05, as computed by the evaluation
harness that the bench renderings replaced.  Counts must match
exactly; slowdowns and percentages within the rows' 1e-3 rounding.
"""

import json
from pathlib import Path

import pytest

from repro.bench import MatrixSpec, run_matrix
from repro.bench.report import (
    average_slowdowns,
    figure10,
    figure11,
    format_bench_report,
    msan_reduction,
    table1,
)

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "data" / "figures_golden.json").read_text()
)
WORKLOADS = tuple(GOLDEN["workloads"])
CONFIGS = ("msan", "tl", "tl_at", "opt_i", "full")
ROUNDING = 1e-3


def _rows(configs, level):
    spec = MatrixSpec(
        workloads=WORKLOADS,
        configs=configs,
        scale=GOLDEN["scale"],
        level=level,
    )
    rows = run_matrix(spec.expand(), pool=1)
    assert all(row["status"] == "ok" for row in rows)
    return rows


@pytest.fixture(scope="module")
def rows():
    return _rows(CONFIGS, "O0+IM")


def _mismatches(expected, actual, where, tolerance):
    if isinstance(expected, dict):
        assert isinstance(actual, dict), where
        assert set(actual) >= set(expected), where
        return [
            m
            for key in expected
            for m in _mismatches(
                expected[key], actual[key], f"{where}/{key}", tolerance
            )
        ]
    if isinstance(expected, int):
        return [] if actual == expected else [f"{where}: {actual} != {expected}"]
    if abs(actual - expected) <= tolerance:
        return []
    return [f"{where}: {actual} != {expected}"]


def test_figure10(rows):
    actual = {
        workload: {"slowdown_percent": slowdowns}
        for workload, slowdowns in figure10(rows).items()
    }
    for row in rows:
        entry = actual[row["workload"]]
        entry.setdefault("warnings", {})[row["config"]] = row["warnings"]
        assert entry.setdefault("true_bugs", len(row["true_bug_uids"])) == len(
            row["true_bug_uids"]
        ), row["cell"]
    assert _mismatches(GOLDEN["figure10"], actual, "figure10", ROUNDING) == []


def test_figure11(rows):
    actual = {
        workload: {
            config: {"propagations": props, "checks": checks}
            for config, (props, checks) in ratios.items()
        }
        for workload, ratios in figure11(rows).items()
    }
    assert _mismatches(GOLDEN["figure11"], actual, "figure11", 1e-12) == []


def test_table1(rows):
    assert _mismatches(GOLDEN["table1"], table1(rows), "table1", ROUNDING) == []


def test_report_renders_every_figure(rows):
    text = format_bench_report(rows)
    for heading in ("## Figure 10", "## Figure 11", "## Table 1"):
        assert heading in text
    assert "- `197.parser`: 1 true bug(s)" in text


@pytest.mark.parametrize("level", ["O0+IM", "O1", "O2"])
def test_opt_levels(rows, level):
    level_rows = rows if level == "O0+IM" else _rows(("msan", "full"), level)
    averages = average_slowdowns(level_rows)
    actual = {
        "msan": averages["msan"],
        "full": averages["full"],
        "reduction": msan_reduction(averages),
    }
    golden = GOLDEN["opt_levels"][level]
    assert _mismatches(golden, actual, level, ROUNDING) == []

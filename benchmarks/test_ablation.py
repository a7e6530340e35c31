"""Benchmark: ablations of the design choices DESIGN.md calls out.

Not a paper table, but each knob isolates one design decision the paper
motivates: semi-strong updates (§3.2), context-sensitive resolution
(§3.3) and heap cloning (§4.1).  The metric is the full Usher
configuration's static instrumentation (propagations, checks): smaller
is better, so disabling a feature must never *reduce* it.
"""

from dataclasses import dataclass, field
from typing import Dict, Tuple

import pytest

from repro.api import analyze
from repro.options import AnalysisOptions
from repro.workloads import workload

ABLATION_WORKLOADS = ("181.mcf", "188.ammp", "300.twolf", "254.gap")

#: Each variant's ``analyze()`` arguments: semi-strong updates off,
#: context depth 0 and 2 (the paper uses 1), the fully
#: context-sensitive summary resolver, and heap cloning off.
VARIANTS = {
    "baseline": {},
    "no_semi_strong": {"semi_strong": False},
    "ctx0": {"options": AnalysisOptions(context_depth=0)},
    "ctx2": {"options": AnalysisOptions(context_depth=2)},
    "summary": {"options": AnalysisOptions(resolver="summary")},
    "no_heap_cloning": {"heap_cloning": False},
}


@dataclass
class AblationRow:
    benchmark: str
    #: variant -> (static propagations, static checks) of full Usher
    metrics: Dict[str, Tuple[int, int]] = field(default_factory=dict)


def analyze_variant(source: str, name: str, variant: str):
    return analyze(
        source=source, name=name, configs=["usher"], **VARIANTS[variant]
    )


def format_ablation(rows) -> str:
    header = f"{'benchmark':14s}" + "".join(f"{v:>22s}" for v in VARIANTS)
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = "".join(
            f"{p:>14d}p/{c:>4d}c" for p, c in (row.metrics[v] for v in VARIANTS)
        )
        lines.append(f"{row.benchmark:14s}{cells}")
    return "\n".join(lines)


@pytest.fixture(scope="module")
def rows(scale):
    rows = []
    for name in ABLATION_WORKLOADS:
        source = workload(name).source(min(scale, 0.3))
        row = AblationRow(benchmark=name)
        for variant in VARIANTS:
            analysis = analyze_variant(source, name, variant)
            row.metrics[variant] = (
                analysis.static_propagations("usher"),
                analysis.static_checks("usher"),
            )
        rows.append(row)
    return rows


class TestAblations:
    def test_semi_strong_updates_help(self, rows):
        """Disabling semi-strong updates must not reduce instrumentation
        and must strictly increase it somewhere (Figure 6's point)."""
        helped = 0
        for row in rows:
            base_p, base_c = row.metrics["baseline"]
            off_p, off_c = row.metrics["no_semi_strong"]
            assert off_p >= base_p and off_c >= base_c, row.benchmark
            if (off_p, off_c) != (base_p, base_c):
                helped += 1
        assert helped >= 1

    def test_context_sensitivity_helps(self, rows):
        helped = 0
        for row in rows:
            base_p, base_c = row.metrics["baseline"]
            ctx0_p, ctx0_c = row.metrics["ctx0"]
            assert ctx0_p >= base_p and ctx0_c >= base_c, row.benchmark
            if (ctx0_p, ctx0_c) != (base_p, base_c):
                helped += 1
        # 181.mcf's two make_arc call sites need matched call/returns.
        assert helped >= 1

    def test_deeper_context_no_worse(self, rows):
        for row in rows:
            base_p, base_c = row.metrics["baseline"]
            ctx2_p, ctx2_c = row.metrics["ctx2"]
            assert ctx2_p <= base_p and ctx2_c <= base_c, row.benchmark

    def test_summary_resolver_no_worse_than_k1(self, rows):
        """The tabulation (unbounded context) is at least as precise as
        the paper's 1-callsite configuration."""
        for row in rows:
            base_p, base_c = row.metrics["baseline"]
            sum_p, sum_c = row.metrics["summary"]
            assert sum_p <= base_p and sum_c <= base_c, row.benchmark

    def test_heap_cloning_helps_clone_heavy_workloads(self, rows):
        """Merging wrapper objects (no cloning) must not reduce
        instrumentation, and must hurt 181.mcf, whose hot arcs share an
        allocation wrapper with the fogged tombstone arcs."""
        helped = 0
        for row in rows:
            base_p, base_c = row.metrics["baseline"]
            off_p, off_c = row.metrics["no_heap_cloning"]
            assert off_p >= base_p and off_c >= base_c, row.benchmark
            if (off_p, off_c) != (base_p, base_c):
                helped += 1
        assert helped >= 1
        mcf = next(r for r in rows if r.benchmark == "181.mcf")
        assert mcf.metrics["no_heap_cloning"] > mcf.metrics["baseline"]


class TestAblationBenchmarks:
    def test_ablation_regeneration(self, benchmark, rows, record_table):
        def regenerate():
            return {row.benchmark: row.metrics for row in rows}

        data = benchmark(regenerate)
        assert len(data) == len(ABLATION_WORKLOADS)
        text = format_ablation(rows)
        record_table("ablation", text)
        print()
        print("=== Ablations (static propagations p / checks c of full Usher) ===")
        print(text)

    def test_one_variant_analysis(self, benchmark):
        source = workload("300.twolf").source(0.2)
        result = benchmark(
            analyze_variant, source, "300.twolf", "no_semi_strong"
        )
        assert result.static_checks("usher") >= 0

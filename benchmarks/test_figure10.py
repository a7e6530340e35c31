"""Benchmark: regenerate Figure 10 (execution slowdowns vs native).

Prints the reproduced figure and asserts its shape: the strict tool
ordering MSan ≥ Usher_TL ≥ Usher_TL+AT ≥ Usher_OptI ≥ Usher per
benchmark and on average, MSan in the ~3x regime, 181.mcf near zero,
and the 197.parser bug detected by every tool.
"""

import pytest

from repro.api import CONFIG_ORDER, analyze
from repro.bench.report import (
    average_slowdowns,
    figure10,
    format_figure10,
    msan_reduction,
)
from repro.runtime import run_instrumented
from repro.workloads import workload

#: Figure 10's columns, MSan first, in the paper's order.
TOOLS = ("msan", "tl", "tl_at", "opt_i", "full")


@pytest.fixture(scope="module")
def printed(paper_rows):
    print()
    print("=== Figure 10 (reproduced): slowdown vs native, % ===")
    print("\n".join(format_figure10(paper_rows, "O0+IM")))
    return figure10(paper_rows)


@pytest.fixture(scope="module")
def averages(paper_rows):
    return average_slowdowns(paper_rows)


class TestFigure10Shape:
    def test_strict_ordering_per_benchmark(self, printed):
        for slowdowns in printed.values():
            values = [slowdowns[tool] for tool in TOOLS]
            assert values == sorted(values, reverse=True)

    def test_average_ordering(self, averages):
        assert (
            averages["msan"]
            > averages["tl"]
            > averages["tl_at"]
            > averages["opt_i"]
            >= averages["full"]
        )

    def test_msan_is_in_3x_regime(self, averages):
        """Paper: 302% average slowdown for MSan under O0+IM."""
        assert 200 < averages["msan"] < 400

    def test_usher_cuts_overhead_by_more_than_half(self, averages):
        """Paper: 302% → 123%, a 59.3% reduction."""
        assert msan_reduction(averages) > 50

    def test_mcf_nearly_free(self, printed):
        """Paper: 181.mcf suffers only a 2% slowdown."""
        assert printed["181.mcf"]["full"] < 10

    def test_parser_bug_detected_by_all_tools(self, paper_rows):
        parser = [r for r in paper_rows if r["workload"] == "197.parser"]
        assert len(parser) == len(TOOLS)
        for row in parser:
            assert len(row["true_bug_uids"]) >= 1
            assert row["warnings"] >= 1, row["config"]

    def test_other_benchmarks_warning_free(self, paper_rows):
        for row in paper_rows:
            if row["workload"] != "197.parser":
                assert row["warnings"] == 0, row["cell"]


class TestFigure10Benchmarks:
    def test_figure_regeneration(self, benchmark, paper_rows, record_table):
        """Times one full re-derivation of the figure from the rows and
        prints the reproduced figure."""
        data = benchmark(figure10, paper_rows)
        assert len(data) == 15
        text = "\n".join(format_figure10(paper_rows, "O0+IM"))
        record_table("figure10", text)
        print()
        print("=== Figure 10 (reproduced): slowdown vs native, % ===")
        print(text)

    @pytest.fixture(scope="class")
    def gzip_analysis(self, scale):
        w = workload("164.gzip")
        return analyze(source=w.source(scale), name=w.name)

    def test_native_execution(self, benchmark, gzip_analysis):
        from repro.runtime import run_native

        benchmark(run_native, gzip_analysis.module)

    @pytest.mark.parametrize("config", list(CONFIG_ORDER))
    def test_instrumented_execution(self, benchmark, gzip_analysis, config):
        plan = gzip_analysis.plans[config]
        benchmark(run_instrumented, gzip_analysis.module, plan)

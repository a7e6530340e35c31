"""Benchmark: regenerate Table 1 (benchmark statistics under O0+IM).

Prints the reproduced table and checks the statistics' sanity envelope:
%F / %SU / %WU are percentages, semi-strong updates fire on heap-using
workloads, and the high-%F / high-%B outliers the paper calls out
(254.gap, 253.perlbmk) show the same character.
"""

import pytest

from repro.api import analyze
from repro.bench.report import format_table1, table1 as table1_of
from repro.bench.scheduler import table1_stats
from repro.workloads import workload


@pytest.fixture(scope="module")
def table1(paper_rows):
    return table1_of(paper_rows)


def average(table, column):
    return sum(row[column] for row in table.values()) / len(table)


class TestTable1:
    def test_all_benchmarks_present(self, table1):
        assert len(table1) == 15

    def test_percentages_in_range(self, table1):
        for row in table1.values():
            assert 0 <= row["pct_uninit_allocs"] <= 100
            assert 0 <= row["pct_strong_stores"] <= 100
            assert 0 <= row["pct_singleton_weak_stores"] <= 100
            assert 0 <= row["pct_reaching_checks"] <= 100

    def test_analysis_is_lightweight(self, table1):
        """Paper: under 10 seconds per benchmark on average."""
        assert average(table1, "analysis_seconds") < 10.0

    def test_gap_has_high_uninit_fraction(self, table1):
        """254.gap: arena allocator → high %F (paper: 49%)."""
        assert table1["254.gap"]["pct_uninit_allocs"] > average(
            table1, "pct_uninit_allocs"
        )

    def test_perlbmk_has_high_reach(self, table1):
        """253.perlbmk: most VFG nodes reach a check (paper: 84%)."""
        assert table1["253.perlbmk"]["pct_reaching_checks"] > average(
            table1, "pct_reaching_checks"
        )

    def test_mcf_reaches_no_checks(self, table1):
        assert table1["181.mcf"]["pct_reaching_checks"] == 0.0

    def test_semi_strong_updates_fire(self, table1):
        assert any(
            r["semi_strong_per_heap_site"] > 0 for r in table1.values()
        )

    def test_strong_updates_common(self, table1):
        """Paper: strong updates at 36% of stores on average."""
        assert average(table1, "pct_strong_stores") > 10.0

    def test_vfg_nonempty(self, table1):
        assert all(r["vfg_nodes"] > 50 for r in table1.values())


class TestTable1Benchmarks:
    def test_single_row_generation(self, benchmark, scale):
        w = workload("164.gzip")
        source = w.source(scale)
        analysis = analyze(source=source, name=w.name, configs=["usher_tl_at"])
        benchmark(table1_stats, analysis, "usher_tl_at", source)

    def test_table_regeneration(self, benchmark, paper_rows, record_table):
        data = benchmark(table1_of, paper_rows)
        assert len(data) == 15
        text = "\n".join(format_table1(paper_rows, "O0+IM"))
        record_table("table1", text)
        print()
        print("=== Table 1 (reproduced) ===")
        print(text)

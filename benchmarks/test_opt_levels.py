"""Benchmark: regenerate §4.6 (effect of compiler optimization levels).

Prints the O0+IM / O1 / O2 comparison and asserts its shape: Usher
beats MSan at every level; the native baseline shrinks with the level;
and Usher's *relative* overhead reduction is largest at O0+IM (the
paper: 59.3% vs 39.4% / 37.7%).
"""

import pytest

from repro.bench.report import (
    average_slowdowns,
    format_figure10,
    msan_reduction,
)

LEVELS = ("O0+IM", "O1", "O2")


@pytest.fixture(scope="module")
def rows(bench_rows):
    """level -> the msan and full rows of the 15 workloads: §4.6 is
    one ``repro bench --configs msan,full --level L`` run per level."""
    return {level: bench_rows(level, ("msan", "full")) for level in LEVELS}


def reduction(rows, level):
    return msan_reduction(average_slowdowns(rows[level]))


class TestOptLevels:
    def test_all_levels_measured(self, rows):
        for level in LEVELS:
            assert len(rows[level]) == 15 * 2
            assert {row["level"] for row in rows[level]} == {level}

    def test_usher_wins_at_every_level(self, rows):
        for level in LEVELS:
            averages = average_slowdowns(rows[level])
            assert averages["full"] < averages["msan"]

    def test_native_baseline_shrinks_with_level(self, rows):
        native = {
            level: {r["workload"]: r["native_ops"] for r in rows[level]}
            for level in LEVELS
        }
        for name in native["O0+IM"]:
            assert (
                native["O2"][name]
                <= native["O1"][name]
                <= native["O0+IM"][name]
            ), name

    def test_reduction_positive_everywhere(self, rows):
        for level in LEVELS:
            assert reduction(rows, level) > 20.0

    def test_reduction_largest_at_o0im(self, rows):
        """The paper's headline §4.6 effect: higher optimization levels
        narrow the gap because the native baseline benefits more."""
        assert reduction(rows, "O0+IM") >= reduction(rows, "O2") - 5.0


class TestOptLevelBenchmarks:
    def test_report_regeneration(self, benchmark, rows, record_table):
        def regenerate():
            return {level: reduction(rows, level) for level in LEVELS}

        reductions = benchmark(regenerate)
        assert set(reductions) == set(LEVELS)
        text = "\n".join(
            line
            for level in LEVELS
            for line in format_figure10(rows[level], level)
        )
        record_table("opt_levels", text)
        print()
        print("=== §4.6 (reproduced): slowdowns under O0+IM / O1 / O2 ===")
        print(text)

    def test_full_pipeline_o2(self, benchmark, scale):
        from repro.opt import run_pipeline
        from repro.tinyc import compile_source
        from repro.workloads import workload

        source = workload("256.bzip2").source(scale)

        def compile_and_optimize():
            module = compile_source(source)
            run_pipeline(module, "O2")
            return module

        module = benchmark(compile_and_optimize)
        assert module.functions

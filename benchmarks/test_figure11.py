"""Benchmark: regenerate Figure 11 (static shadow propagations and
checks, normalized to MSan).

Prints the reproduced figure and asserts the monotone shape the paper
reports (TL keeps the most instrumentation, full Usher the least; every
fraction is in (0, 1]).
"""

import pytest

from repro.bench.report import figure11, format_figure11
from repro.core import UsherConfig, prepare_module, run_usher
from repro.opt import run_pipeline
from repro.tinyc import compile_source
from repro.workloads import workload

USHER_CONFIGS = ("tl", "tl_at", "opt_i", "full")


@pytest.fixture(scope="module")
def printed(paper_rows):
    print()
    print("=== Figure 11 (reproduced): static propagations/checks vs MSan ===")
    print("\n".join(format_figure11(paper_rows, "O0+IM")))
    return figure11(paper_rows)


def average(table, config, index):
    return sum(r[config][index] for r in table.values()) / len(table)


class TestFigure11Shape:
    def test_fractions_bounded(self, printed):
        for name, ratios in printed.items():
            for config in USHER_CONFIGS:
                props, checks = ratios[config]
                assert 0.0 <= props <= 1.0, (name, config)
                assert 0.0 <= checks <= 1.0, (name, config)

    def test_propagations_monotone_across_configs(self, printed):
        for name, ratios in printed.items():
            values = [ratios[c][0] for c in USHER_CONFIGS]
            assert values == sorted(values, reverse=True), name

    def test_checks_monotone_on_average(self, printed):
        averages = [average(printed, c, 1) for c in USHER_CONFIGS]
        assert averages[0] >= averages[1] >= averages[3]

    def test_tl_at_eliminates_majority_of_propagations(self, printed):
        """Paper: Usher_TL+AT eliminates two-thirds of MSan's shadow
        propagations on average."""
        assert average(printed, "tl_at", 0) < 0.5

    def test_opt1_reduces_propagations_not_checks(self, printed):
        """Opt I targets shadow propagations; checks stay put."""
        assert average(printed, "opt_i", 0) < average(printed, "tl_at", 0)
        for name, ratios in printed.items():
            assert ratios["opt_i"][1] == pytest.approx(
                ratios["tl_at"][1], abs=1e-9
            ), name

    def test_opt2_reduces_checks_further(self, printed):
        assert average(printed, "full", 1) <= average(printed, "opt_i", 1)


class TestFigure11Benchmarks:
    def test_figure_regeneration(self, benchmark, paper_rows, record_table):
        data = benchmark(figure11, paper_rows)
        assert len(data) == 15
        text = "\n".join(format_figure11(paper_rows, "O0+IM"))
        record_table("figure11", text)
        print()
        print("=== Figure 11 (reproduced): static propagations/checks vs MSan ===")
        print(text)

    def test_static_analysis_of_one_workload(self, benchmark, scale):
        w = workload("175.vpr")
        module = compile_source(w.source(scale), w.name)
        run_pipeline(module, "O0+IM")
        prepared = prepare_module(module)

        def analyze():
            return run_usher(prepared, UsherConfig.full()).plan

        plan = benchmark(analyze)
        assert plan.count_checks() >= 0

"""Unit tests for the evaluation harness: the paper's figures rendered
from bench rows (:mod:`repro.bench.report`)."""

import pytest

from repro.api import analyze
from repro.bench import MatrixSpec, format_bench_report, run_matrix
from repro.bench.report import FIGURE11_CONFIGS, figure10, figure11, table1
from repro.bench.scheduler import nodes_reaching_checks
from repro.workloads import workload

SCALE = 0.05
WORKLOADS = ("164.gzip", "181.mcf", "197.parser")
CONFIGS = ("msan", "tl", "tl_at", "opt_i", "full")


@pytest.fixture(scope="module")
def rows():
    spec = MatrixSpec(workloads=WORKLOADS, configs=CONFIGS, scale=SCALE)
    return run_matrix(spec.expand())


def section(text, heading):
    """The lines of one ``## heading`` section of a report."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(heading))
    end = next(
        (i for i in range(start + 1, len(lines)) if lines[i].startswith("## ")),
        len(lines),
    )
    return lines[start:end]


def table_rows(lines):
    return [line for line in lines if line.startswith("| ")][1:]


class TestRunner:
    def test_nodes_reaching_checks_subset_of_nodes(self):
        w = workload("197.parser")
        analysis = analyze(source=w.source(SCALE), name=w.name)
        result = analysis.results["usher_tl_at"]
        reaching = nodes_reaching_checks(result)
        assert reaching
        assert len(reaching) <= result.vfg.num_nodes


class TestFormatters:
    def test_figure10_formatting(self, rows):
        lines = section(format_bench_report(rows), "## Figure 10")
        body = table_rows(lines)
        assert len(body) == len(WORKLOADS) + 1  # workloads + average
        assert body[-1].startswith("| **average** |")
        assert all(line.count("|") == len(CONFIGS) + 2 for line in body)
        assert any("reduces MSan's average overhead" in l for l in lines)
        assert any(l.startswith("- `197.parser`: 1 true bug(s)") for l in lines)

    def test_figure10_row_lookup(self, rows):
        table = figure10(rows)
        assert set(table["181.mcf"]) == set(CONFIGS)
        with pytest.raises(KeyError):
            table["999.unknown"]

    def test_figure11_formatting(self, rows):
        text = format_bench_report(rows)
        body = table_rows(section(text, "## Figure 11"))
        assert len(body) == len(WORKLOADS) + 1
        for config in FIGURE11_CONFIGS[:4]:
            assert f"{config} prop / chk" in text
        # Without msan rows there is nothing to normalize to.
        usher_only = [row for row in rows if row["config"] != "msan"]
        assert figure11(usher_only) == {}
        assert "## Figure 11" not in format_bench_report(usher_only)

    def test_table1_formatting(self, rows):
        lines = section(format_bench_report(rows), "## Table 1")
        header = next(line for line in lines if line.startswith("| "))
        assert "%SU" in header and "Mem(MB)" not in header
        assert len(table_rows(lines)) == len(WORKLOADS)

    def test_table1_row_dict(self, rows):
        gzip = table1(rows)["164.gzip"]
        assert gzip["vfg_nodes"] > 0
        assert gzip["source_lines"] > 0
        # Table 1 reads the tl_at/opt_i/full rows; msan alone has none.
        msan_only = [row for row in rows if row["config"] == "msan"]
        assert table1(msan_only) == {}

    def test_levels_render_separately(self, rows):
        o1 = [dict(row, level="O1") for row in rows]
        text = format_bench_report(rows + o1)
        assert "## Figure 10 — slowdown vs native, % (O0+IM)" in text
        assert "## Figure 10 — slowdown vs native, % (O1)" in text

"""Integration tests for the command-line interface."""

import pytest

from repro.cli import main

BUGGY = """
def main() {
  var x;
  if (0) { x = 1; }
  output(x);
  return 0;
}
"""

CLEAN = """
def main() {
  var x = 1;
  output(x + 2);
  return 0;
}
"""


@pytest.fixture
def buggy_file(tmp_path):
    path = tmp_path / "buggy.tc"
    path.write_text(BUGGY)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.tc"
    path.write_text(CLEAN)
    return str(path)


class TestCheck:
    def test_buggy_program_exits_1(self, buggy_file, capsys):
        assert main(["check", buggy_file]) == 1
        out = capsys.readouterr().out
        assert "use of undefined value" in out
        assert "line 5" in out  # the output statement

    def test_clean_program_exits_0(self, clean_file, capsys):
        assert main(["check", clean_file]) == 0
        assert "no uses of undefined values" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "config", ["msan", "usher_tl", "usher_tl_at", "usher_opt1", "usher"]
    )
    def test_every_config_detects(self, buggy_file, config):
        assert main(["check", buggy_file, "--config", config]) == 1

    @pytest.mark.parametrize("tier", ["full", "lazy", "unified"])
    def test_every_tier_detects(self, buggy_file, tier, capsys, monkeypatch):
        # There is one solving path: a leftover REPRO_TIER is not read.
        monkeypatch.setenv("REPRO_TIER", tier)
        assert main(["check", buggy_file]) == 1
        assert "use of undefined value" in capsys.readouterr().out

    def test_unified_tier_reports_unified_nodes(self, buggy_file, capsys):
        # The solver profile is the one delta solver's; no tier and no
        # unification counters remain in it.
        main(["check", buggy_file, "--solver-stats", "--mem-stats"])
        out = capsys.readouterr().out
        assert "solver profile (delta" in out
        assert "memory profile:" in out
        profile = out[: out.index(buggy_file)]
        assert "tier" not in profile
        assert "unified" not in profile

    def test_show_plan(self, buggy_file, capsys):
        main(["check", buggy_file, "--show-plan"])
        out = capsys.readouterr().out
        assert "instrumentation plan" in out
        assert "σ(" in out

    def test_trace_writes_valid_chrome_trace(
        self, buggy_file, tmp_path, capsys
    ):
        from repro.obs.trace import TRACE, validate_chrome_trace

        out = tmp_path / "trace.json"
        assert main(["check", buggy_file, "--trace", str(out)]) == 1
        printed = capsys.readouterr().out
        assert "trace: wrote" in printed and str(out) in printed
        assert not TRACE.enabled  # tracing switched back off afterwards
        spans = validate_chrome_trace(out.read_text())
        assert spans > 0
        import json as _json

        names = {
            e["name"]
            for e in _json.loads(out.read_text())["traceEvents"]
            if e["ph"] == "X"
        }
        assert {"parse", "analyze", "pointer_analysis"} <= names

    def test_trace_still_written_on_compile_error(self, tmp_path, capsys):
        from repro.obs.trace import TRACE

        bad = tmp_path / "bad.tc"
        bad.write_text("def main( {")
        out = tmp_path / "trace.json"
        assert main(["check", str(bad), "--trace", str(out)]) == 2
        assert not TRACE.enabled

    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "/nonexistent.tc"]) == 2

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tc"
        bad.write_text("def main( {")
        assert main(["check", str(bad)]) == 2
        assert "compile error" in capsys.readouterr().err


class TestRunAndIR:
    def test_run_prints_outputs(self, clean_file, capsys):
        assert main(["run", clean_file]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_ir_dump(self, clean_file, capsys):
        assert main(["ir", clean_file]) == 0
        out = capsys.readouterr().out
        assert "def main()" in out
        assert "output" in out

    def test_ir_ssa_dump(self, clean_file, capsys):
        assert main(["ir", clean_file, "--ssa", "--uids"]) == 0
        out = capsys.readouterr().out
        assert ".1" in out  # SSA versions

    def test_ir_levels(self, clean_file, capsys):
        main(["ir", clean_file, "--level", "O1"])
        o1 = capsys.readouterr().out
        main(["ir", clean_file, "--level", "O0"])
        o0 = capsys.readouterr().out
        assert len(o1) <= len(o0)


class TestReportAndSweep:
    """The paper's figures come from ``repro bench --report``; the
    ``report`` and ``sweep`` commands are gone."""

    def bench(self, tmp_path, configs):
        report = tmp_path / "report.md"
        assert main([
            "bench", "--workloads", "181.mcf,197.parser",
            "--configs", configs, "--scale", "0.05", "--pool", "1",
            "--quiet", "--out", str(tmp_path / "rows.jsonl"),
            "--report", str(report),
        ]) == 0
        return report.read_text()

    def test_report_sections(self, tmp_path, capsys):
        # The rows decide the sections: no msan rows, no Figure 11.
        text = self.bench(tmp_path, "tl_at,full")
        assert "## Figure 10" in text and "## Table 1" in text
        assert "Figure 11" not in text

    def test_report_to_file(self, tmp_path, capsys):
        text = self.bench(tmp_path, "msan,tl,tl_at,opt_i,full")
        for heading in ("## Figure 10", "## Figure 11", "## Table 1"):
            assert heading in text
        assert "report: wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["report", "sweep"])
    def test_removed_commands_are_unknown(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--scale", "0.05"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

"""CLI error paths: invalid input exits non-zero with one clean line.

Every malformed flag — config specs, seed ranges, budgets — must
produce exit code 2 and a single-line message on stderr, never a
traceback.  The removed analysis knobs (``--jobs``, ``--tier``,
``--storage``) are unknown arguments, and their environment variables
(``REPRO_JOBS``, ``REPRO_TIER``, ``REPRO_STORAGE``) are not read.
"""

import pytest

from repro.api import analyze
from repro.cli import main

CLEAN = """
def main() {
  var x = 1;
  output(x + 2);
  return 0;
}
"""


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.tc"
    path.write_text(CLEAN)
    return str(path)


def one_clean_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1, err
    return lines[0]


def rejected_flag_line(capsys, flag):
    """The analysis knobs are gone: their flags are unknown arguments,
    reported by argparse as one ``error:`` line after the usage."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    line = err.strip().splitlines()[-1]
    assert "error: unrecognized arguments:" in line
    assert flag in line
    return line


def exits_on_unknown_flag(argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    return exit_info.value.code


class TestJobsValidation:
    """``--jobs`` is no longer an option and ``REPRO_JOBS`` is no longer
    read: any ``--jobs`` value is a usage error, and the environment
    variable cannot change or break a run."""

    @pytest.mark.parametrize("bad", ["banana", "0", "-3", "2.5", ""])
    def test_invalid_jobs_flag(self, clean_file, bad, capsys):
        assert exits_on_unknown_flag(["check", clean_file, "--jobs", bad]) == 2
        rejected_flag_line(capsys, "--jobs")

    def test_invalid_jobs_env(self, clean_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "banana")
        assert main(["check", clean_file]) == 0
        assert "REPRO_JOBS" not in capsys.readouterr().err

    def test_valid_jobs_env_still_works(self, clean_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert main(["check", clean_file]) == 0

    def test_report_validates_jobs_too(self, capsys):
        argv = ["report", "--scale", "0.05", "--jobs", "nope"]
        assert exits_on_unknown_flag(argv) == 2
        rejected_flag_line(capsys, "--jobs")


class TestTierValidation:
    """``--tier`` is no longer an option and ``REPRO_TIER`` is no longer
    read."""

    @pytest.mark.parametrize("bad", ["turbo", "0", "", "fulll"])
    def test_invalid_tier_flag(self, clean_file, bad, capsys):
        assert exits_on_unknown_flag(["check", clean_file, "--tier", bad]) == 2
        rejected_flag_line(capsys, "--tier")

    def test_invalid_tier_env(self, clean_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TIER", "turbo")
        assert main(["check", clean_file]) == 0
        assert "REPRO_TIER" not in capsys.readouterr().err

    def test_valid_tier_env_still_works(self, clean_file, monkeypatch):
        monkeypatch.setenv("REPRO_TIER", "unified")
        monkeypatch.setenv("REPRO_STORAGE", "compressed")
        assert main(["check", clean_file]) == 0

    def test_report_validates_tier_too(self, capsys):
        argv = ["report", "--scale", "0.05", "--tier", "nope"]
        assert exits_on_unknown_flag(argv) == 2
        rejected_flag_line(capsys, "--tier")

    def test_fuzz_validates_tier_too(self, capsys):
        argv = ["fuzz", "--seeds", "0:1", "--tier", "nope"]
        assert exits_on_unknown_flag(argv) == 2
        rejected_flag_line(capsys, "--tier")

    @pytest.mark.parametrize("flag", ["--storage", "--tiers", "--storages"])
    def test_other_knob_flags_are_unknown(self, clean_file, flag, capsys):
        argv = (
            ["bench", "--workloads", "164.gzip", flag, "full"]
            if flag.endswith("s")
            else ["check", clean_file, flag, "int"]
        )
        assert exits_on_unknown_flag(argv) == 2
        rejected_flag_line(capsys, flag)


class TestFuzzArgValidation:
    def test_unknown_config(self, capsys):
        assert main(["fuzz", "--configs", "tl,bogus"]) == 2
        line = one_clean_error_line(capsys)
        assert line.startswith("error:")
        assert "bogus" in line and "known:" in line

    def test_duplicate_config(self, capsys):
        assert main(["fuzz", "--configs", "tl,tl"]) == 2
        assert "duplicate" in one_clean_error_line(capsys)

    def test_msan_rejects_suffixes(self, capsys):
        assert main(["fuzz", "--configs", "msan+demand"]) == 2
        assert "msan" in one_clean_error_line(capsys)

    @pytest.mark.parametrize("bad", ["5:x", "x", "9:3", "-4"])
    def test_invalid_seed_spec(self, bad, capsys):
        assert main(["fuzz", "--seeds", bad]) == 2
        assert one_clean_error_line(capsys).startswith("error:")

    def test_empty_seed_spec(self, capsys):
        assert main(["fuzz", "--seeds", ""]) == 2
        assert "nothing to fuzz" in one_clean_error_line(capsys)

    @pytest.mark.parametrize("bad", ["nope", "1h", "0", "12q"])
    def test_invalid_budget(self, bad, capsys):
        assert main(["fuzz", "--seeds", "0:1", "--budget", bad]) == 2
        assert "budget" in one_clean_error_line(capsys)

    def test_invalid_jobs(self, capsys):
        assert exits_on_unknown_flag(
            ["fuzz", "--seeds", "0:1", "--jobs", "many"]
        ) == 2
        rejected_flag_line(capsys, "--jobs")

    def test_missing_module_file(self, capsys):
        assert main(["fuzz", "--seeds", "", "--module",
                     "/nonexistent/mod.ir"]) == 2
        assert one_clean_error_line(capsys).startswith("error:")

    def test_unparseable_module_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.ir"
        bad.write_text("def main() {\nentry:\n    this is not ir\n}\n")
        assert main(["fuzz", "--seeds", "", "--module", str(bad)]) == 2
        assert one_clean_error_line(capsys).startswith("invalid module:")


class TestServeArgValidation:
    """``repro serve`` shares the analysis-options flag group, so the
    removed knobs are unknown there too, before any socket is bound."""

    def test_invalid_jobs_flag(self, capsys):
        assert exits_on_unknown_flag(["serve", "--jobs", "banana"]) == 2
        rejected_flag_line(capsys, "--jobs")

    def test_invalid_tier_flag(self, capsys):
        assert exits_on_unknown_flag(["serve", "--tier", "warp"]) == 2
        rejected_flag_line(capsys, "--tier")

    def test_invalid_environment(self, capsys, monkeypatch):
        import repro.service.server as server_mod

        started = []

        class _Server:
            server_address = ("127.0.0.1", 0)

            def serve_forever(self):
                pass

            def server_close(self):
                pass

        def fake_serve(host, port, options):
            started.append(options)
            return _Server()

        monkeypatch.setattr(server_mod, "serve", fake_serve)
        monkeypatch.setenv("REPRO_TIER", "turbo")
        monkeypatch.setenv("REPRO_JOBS", "banana")
        assert main(["serve"]) == 0
        assert len(started) == 1
        assert "listening" in capsys.readouterr().out


SPIN = """
def main() {
  var i = 0;
  while (1) { i = i + 1; }
  return 0;
}
"""


class TestStepLimit:
    """A program that never stops ends in one line and exit 2."""

    @pytest.fixture
    def spin_file(self, tmp_path):
        path = tmp_path / "spin.tc"
        path.write_text(SPIN)
        return str(path)

    def test_run_reports_step_limit(self, spin_file, capsys):
        assert main(["run", spin_file]) == 2
        assert one_clean_error_line(capsys).startswith("step limit exceeded: ")

    def test_check_reports_step_limit(self, spin_file, capsys, monkeypatch):
        import repro.cli

        def analyze_with_small_budget(*args, **kwargs):
            # Keeps the test fast: the default budget is 50M steps.
            analysis = analyze(*args, **kwargs)
            analysis.max_steps = 20_000
            return analysis

        monkeypatch.setattr(repro.cli, "analyze", analyze_with_small_budget)
        assert main(["check", spin_file]) == 2
        assert one_clean_error_line(capsys).startswith("step limit exceeded: ")

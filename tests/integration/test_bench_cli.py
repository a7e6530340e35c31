"""Integration tests for ``repro bench``: a tiny matrix end to end —
JSONL rows against the ``repro.stats/1`` schema, baseline gating,
corpus promotion — all through the CLI entry point.
"""

import json

import pytest

from repro.cli import main
from repro.obs.registry import SCHEMA

#: A fast 2x2 matrix: two workloads (one generated, one corpus seed)
#: under two configurations.
SMOKE = [
    "bench",
    "--workloads", "164.gzip,seed63",
    "--configs", "tl,full",
    "--scale", "0.05",
    "--pool", "1",
    "--quiet",
]

#: Row fields every ok bench row must carry (the bench contract the
#: diff tool and the baselines key on).
REQUIRED_FIELDS = (
    "schema", "kind", "benchmark", "seed", "factor", "cell", "workload",
    "config", "scale", "status",
    "warned_uids", "warnings", "checks", "propagations", "native_ops",
    "slowdown_percent", "pops", "facts_propagated", "elapsed", "tags",
)


def _rows(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture
def smoke_log(tmp_path):
    out = tmp_path / "bench_stats.jsonl"
    assert main(SMOKE + ["--out", str(out)]) == 0
    return out


class TestMatrixRun:
    def test_writes_one_schema_stamped_row_per_cell(self, smoke_log):
        rows = _rows(smoke_log)
        assert len(rows) == 4  # 2 workloads x 2 configs
        for row in rows:
            for field in REQUIRED_FIELDS:
                assert field in row, (row["cell"], field)
            assert row["schema"] == SCHEMA
            assert row["kind"] == "bench"
            assert row["status"] == "ok"
            assert row["cell"] == f"{row['workload']}/{row['config']}"

    def test_corpus_seed_rows_match_pinned_warnings(self, smoke_log):
        from repro.workloads.corpus import load_corpus

        seed = next(s for s in load_corpus() if s.name == "seed63")
        by_cell = {row["cell"]: row for row in _rows(smoke_log)}
        for spec in ("tl", "full"):
            row = by_cell[f"seed63/{spec}"]
            assert tuple(row["warned_uids"]) == seed.pinned_warnings(spec)

    def test_report_aggregates_the_rows(self, tmp_path, capsys):
        out = tmp_path / "log.jsonl"
        report = tmp_path / "report.md"
        assert main(SMOKE + ["--out", str(out),
                             "--report", str(report)]) == 0
        text = report.read_text()
        assert "# Bench matrix report" in text
        assert "164.gzip" in text and "seed63" in text
        assert "Static instrumentation" in text
        assert "Modelled slowdown" in text

    def test_dry_run_lists_cells_without_running(self, tmp_path, capsys):
        out = tmp_path / "log.jsonl"
        assert main(SMOKE + ["--out", str(out), "--dry-run"]) == 0
        lines = capsys.readouterr().out
        assert "164.gzip/tl" in lines
        assert not out.exists()

    def test_unknown_workload_exits_2(self, tmp_path, capsys):
        code = main([
            "bench", "--workloads", "nope.bogus", "--configs", "tl",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_unknown_axis_value_exits_2(self, tmp_path, capsys):
        code = main([
            "bench", "--workloads", "164.gzip", "--configs", "warp",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2
        assert "unknown config" in capsys.readouterr().err


class TestBaselineGate:
    def test_matching_baseline_passes(self, smoke_log, tmp_path, capsys):
        out = tmp_path / "second.jsonl"
        code = main(SMOKE + ["--out", str(out),
                             "--baseline", str(smoke_log)])
        assert code == 0
        assert "cell(s) match" in capsys.readouterr().out

    def test_drifted_baseline_fails(self, smoke_log, tmp_path, capsys):
        rows = _rows(smoke_log)
        rows[0]["warned_uids"] = [1234]
        drifted = tmp_path / "drifted.jsonl"
        drifted.write_text(
            "".join(json.dumps(row) + "\n" for row in rows)
        )
        out = tmp_path / "second.jsonl"
        code = main(SMOKE + ["--out", str(out),
                             "--baseline", str(drifted)])
        assert code == 1
        assert "warned_uids" in capsys.readouterr().out

    def test_shrunk_coverage_fails(self, smoke_log, tmp_path, capsys):
        out = tmp_path / "second.jsonl"
        code = main([
            "bench",
            "--workloads", "164.gzip",  # seed63 cells disappear
            "--configs", "tl,full",
            "--scale", "0.05",
            "--pool", "1",
            "--quiet",
            "--out", str(out),
            "--baseline", str(smoke_log),
        ])
        assert code == 1
        assert "missing from this run" in capsys.readouterr().out


class TestCommittedSmokeBaseline:
    def test_committed_baseline_is_wellformed_bench_rows(self):
        from pathlib import Path

        path = (
            Path(__file__).resolve().parents[2]
            / "benchmarks" / "baselines" / "bench_smoke_baseline.jsonl"
        )
        rows = _rows(path)
        assert rows, "committed baseline is empty"
        cells = [row["cell"] for row in rows]
        assert len(set(cells)) == len(cells)
        for row in rows:
            assert row["schema"] == SCHEMA
            assert row["kind"] == "bench"
            assert row["status"] == "ok"
        # The acceptance matrix: 8 workloads x 4 configs, corpus included.
        configs = {row["config"] for row in rows}
        workloads = {row["workload"] for row in rows}
        assert configs == {"tl", "tl_at", "opt_i", "full"}
        assert len(rows) == len(configs) * len(workloads) == 32
        assert {"seed185", "seed44", "seed63"} <= workloads
        for row in rows:
            assert row["cell"] == f"{row['workload']}/{row['config']}"


class TestPromotion:
    @pytest.fixture
    def sandbox_corpus(self, tmp_path):
        """A private corpus dir seeded with the committed manifest."""
        import shutil
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "data" / "corpus"
        dst = tmp_path / "corpus"
        shutil.copytree(src, dst)
        return dst

    @pytest.fixture
    def reproducer(self, tmp_path):
        """A sound single-bug module in printed-IR form."""
        from repro.ir.printer import module_to_str
        from repro.opt import run_pipeline
        from repro.tinyc import compile_source

        module = compile_source(
            """
            def main() {
              var x;
              if (0) { x = 1; }
              output(x);
              return 0;
            }
            """,
            "candidate",
        )
        run_pipeline(module, "O0")
        path = tmp_path / "seed_candidate.ir"
        path.write_text(module_to_str(module))
        return path

    def test_dry_run_validates_without_writing(
        self, sandbox_corpus, reproducer, capsys
    ):
        from repro.workloads.corpus import load_corpus

        before = [seed.name for seed in load_corpus(sandbox_corpus)]
        code = main([
            "bench", "--promote", str(reproducer),
            "--corpus-dir", str(sandbox_corpus), "--dry-run",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "validated 1 reproducer(s)" in out
        assert [s.name for s in load_corpus(sandbox_corpus)] == before
        assert not (sandbox_corpus / "seed_candidate.ir").exists()

    def test_promotion_adds_a_loadable_pinned_seed(
        self, sandbox_corpus, reproducer
    ):
        from repro.bench.scheduler import run_cell
        from repro.bench.matrix import Cell
        from repro.workloads.corpus import BASE_CONFIG_SPECS, load_corpus

        code = main([
            "bench", "--promote", str(reproducer),
            "--corpus-dir", str(sandbox_corpus), "--quiet",
        ])
        assert code == 0
        seeds = {seed.name: seed for seed in load_corpus(sandbox_corpus)}
        assert "seed_candidate" in seeds
        promoted = seeds["seed_candidate"]
        assert set(dict(promoted.pinned)) == set(BASE_CONFIG_SPECS)
        # ...and it runs as a first-class bench workload.
        row = run_cell(
            Cell("seed_candidate", "full", 1.0),
            corpus_dir=sandbox_corpus,
        )
        assert row["status"] == "ok"
        assert tuple(row["warned_uids"]) == promoted.pinned_warnings("full")

    def test_name_collision_is_refused(self, sandbox_corpus, tmp_path):
        # Promotion names seeds by file stem; "seed185" is taken.
        collider = tmp_path / "seed185.ir"
        collider.write_text(
            (sandbox_corpus / "seed185_opt1_grouping.ir").read_text()
        )
        code = main([
            "bench", "--promote", str(collider),
            "--corpus-dir", str(sandbox_corpus), "--quiet",
        ])
        assert code == 2

    def test_divergent_reproducer_is_refused(
        self, sandbox_corpus, tmp_path, capsys
    ):
        """A reproducer whose divergence is NOT yet fixed must not be
        enshrined: promotion re-runs the oracle and refuses."""
        from repro.ir.printer import module_to_str
        from repro.opt import run_pipeline
        from repro.oracle import legacy_opt1
        from repro.tinyc import compile_source

        # seed185's minimized shape still diverges under the legacy
        # (ungrouped) Opt I, which legacy_opt1 re-enables.
        text = (sandbox_corpus / "seed185_opt1_grouping.ir").read_text()
        candidate = tmp_path / "seed_still_bites.ir"
        candidate.write_text(text)
        with legacy_opt1():
            code = main([
                "bench", "--promote", str(candidate),
                "--corpus-dir", str(sandbox_corpus), "--quiet",
            ])
        assert code == 2
        assert "diverges" in capsys.readouterr().err

"""Unit tests for the bench scheduler: crash isolation, timeouts,
workload resolution.

The crash-isolation tests monkeypatch :func:`repro.bench.scheduler.
run_cell` in the parent — fork-start workers inherit the patch through
copy-on-write, which is exactly the property the scheduler's
process-per-cell design promises the test suite.
"""

import time

import pytest

from repro.bench import matrix as matrix_mod
from repro.bench import scheduler
from repro.bench.matrix import BenchSpecError, Cell, MatrixSpec
from repro.bench.scheduler import (
    error_row,
    resolve_workload,
    run_cell,
    run_matrix,
)


def _cell(workload="164.gzip", config="tl", **overrides):
    fields = dict(
        workload=workload,
        config=config,
        scale=0.05,
    )
    fields.update(overrides)
    return Cell(**fields)


class TestResolveWorkload:
    def test_registry_workload(self):
        kind, obj = resolve_workload("164.gzip")
        assert kind == "workload"
        assert obj.name == "164.gzip"

    def test_corpus_seed(self):
        kind, obj = resolve_workload("seed185")
        assert kind == "corpus"
        assert obj.name == "seed185"

    def test_unknown_name_is_a_spec_error(self):
        with pytest.raises(BenchSpecError, match="unknown workload"):
            resolve_workload("999.vapor")


class TestRunCell:
    def test_measures_one_cell(self):
        row = run_cell(_cell())
        assert row["status"] == "ok"
        assert row["cell"] == "164.gzip/tl"
        assert row["warned_uids"] == []
        assert row["checks"] > 0
        assert row["propagations"] > 0
        assert row["native_ops"] > 0
        assert row["elapsed"] > 0

    def test_corpus_cell_reproduces_pinned_warnings(self):
        from repro.workloads.corpus import load_corpus

        seed = next(s for s in load_corpus() if s.name == "seed44")
        for spec in ("tl", "full"):
            row = run_cell(_cell(workload="seed44", config=spec))
            assert row["status"] == "ok"
            assert tuple(row["warned_uids"]) == seed.pinned_warnings(spec)

    def test_error_row_shape(self):
        row = error_row(_cell(), "boom", elapsed=1.5)
        assert row["status"] == "error"
        assert row["error"] == "boom"
        assert row["elapsed"] == 1.5
        assert row["cell"] == "164.gzip/tl"


class TestCrashIsolation:
    """A failing cell becomes an error row; the run continues."""

    @pytest.fixture
    def explosive(self, monkeypatch):
        real = run_cell

        def patched(cell, corpus_dir=None):
            if cell.config == "full":
                raise RuntimeError("injected cell crash")
            return real(cell, corpus_dir)

        monkeypatch.setattr(scheduler, "run_cell", patched)

    def test_serial_run_survives_a_raising_cell(self, explosive):
        cells = MatrixSpec(
            workloads=("164.gzip",), configs=("tl", "full", "opt_i"),
            scale=0.05,
        ).expand()
        rows = run_matrix(cells, pool=1)
        assert [row["status"] for row in rows] == ["ok", "error", "ok"]
        failed = rows[1]
        assert "injected cell crash" in failed["error"]
        assert failed["cell"] == "164.gzip/full"

    @pytest.mark.skipif(not scheduler.fork_available(), reason="needs fork")
    def test_pooled_run_survives_a_raising_cell(self, explosive):
        cells = MatrixSpec(
            workloads=("164.gzip",), configs=("tl", "full", "opt_i"),
            scale=0.05,
        ).expand()
        rows = run_matrix(cells, pool=2, timeout=60)
        assert [row["status"] for row in rows] == ["ok", "error", "ok"]
        assert "injected cell crash" in rows[1]["error"]

    @pytest.mark.skipif(not scheduler.fork_available(), reason="needs fork")
    def test_pooled_run_survives_a_dying_worker(self, monkeypatch):
        # A worker that exits without sending anything (segfault stand-in).
        real = run_cell

        def patched(cell, corpus_dir=None):
            if cell.config == "full":
                import os

                os._exit(17)
            return real(cell, corpus_dir)

        monkeypatch.setattr(scheduler, "run_cell", patched)
        cells = MatrixSpec(
            workloads=("164.gzip",), configs=("tl", "full"),
            scale=0.05,
        ).expand()
        rows = run_matrix(cells, pool=2, timeout=60)
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == "error"
        # Depending on timing the death surfaces as pipe EOF or as the
        # reaped exit code; both are crash reports, not hangs.
        assert "worker" in rows[1]["error"]

    @pytest.mark.skipif(not scheduler.fork_available(), reason="needs fork")
    def test_pooled_run_times_out_a_wedged_cell(self, monkeypatch):
        real = run_cell

        def patched(cell, corpus_dir=None):
            if cell.config == "full":
                time.sleep(60)
            return real(cell, corpus_dir)

        monkeypatch.setattr(scheduler, "run_cell", patched)
        cells = MatrixSpec(
            workloads=("164.gzip",), configs=("tl", "full"),
            scale=0.05,
        ).expand()
        started = time.monotonic()
        rows = run_matrix(cells, pool=2, timeout=1.0)
        assert time.monotonic() - started < 30
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == "error"
        assert "timeout" in rows[1]["error"]

    def test_unknown_workload_fails_the_whole_run_up_front(self):
        cells = [_cell(workload="not.a.workload")]
        with pytest.raises(BenchSpecError, match="unknown workload"):
            run_matrix(cells, pool=1)


class TestRowsMatchAcrossExecutionModes:
    @pytest.mark.skipif(not scheduler.fork_available(), reason="needs fork")
    def test_serial_and_pooled_rows_agree_on_counters(self):
        cells = MatrixSpec(
            workloads=("164.gzip", "seed63"), configs=("tl",),
            scale=0.05,
        ).expand()
        serial = run_matrix(cells, pool=1)
        pooled = run_matrix(cells, pool=2, timeout=60)
        drop = ("elapsed",)
        for left, right in zip(serial, pooled):
            assert {k: v for k, v in left.items() if k not in drop} == {
                k: v for k, v in right.items() if k not in drop
            }

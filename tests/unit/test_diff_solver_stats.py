"""Unit tests for the cross-run solver-stats regression gate."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "diff_solver_stats.py"


def _record(pops, facts, **overrides):
    payload = {
        "benchmark": "solver_scalability",
        "seed": 11,
        "factor": 4,
        "solver": "delta",
        "pops": pops,
        "facts_propagated": facts,
    }
    payload.update(overrides)
    return payload


def _run_gate(tmp_path, records, *extra_args):
    log = tmp_path / "solver_stats.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    return subprocess.run(
        [sys.executable, str(TOOL), str(log), *extra_args],
        capture_output=True,
        text=True,
    )


def test_passes_within_bounds(tmp_path):
    result = _run_gate(tmp_path, [_record(100, 200), _record(150, 300)])
    assert result.returncode == 0
    assert "passed" in result.stdout


def test_fails_on_pops_regression(tmp_path):
    result = _run_gate(tmp_path, [_record(100, 200), _record(250, 200)])
    assert result.returncode == 1
    assert "pops" in result.stdout


def test_fails_on_facts_regression(tmp_path):
    result = _run_gate(tmp_path, [_record(100, 200), _record(100, 500)])
    assert result.returncode == 1
    assert "facts_propagated" in result.stdout


def test_compares_only_matching_workloads(tmp_path):
    # A 10x-bigger workload is a different group, not a regression.
    result = _run_gate(
        tmp_path,
        [_record(100, 200), _record(1000, 2000, factor=8)],
    )
    assert result.returncode == 0


def test_only_latest_pair_is_gated(tmp_path):
    # An old regression that was since fixed must not keep failing.
    result = _run_gate(
        tmp_path,
        [_record(100, 200), _record(900, 200), _record(950, 210)],
    )
    assert result.returncode == 0


def test_max_ratio_flag(tmp_path):
    records = [_record(100, 200), _record(180, 200)]
    assert _run_gate(tmp_path, records).returncode == 0
    assert (
        _run_gate(tmp_path, records, "--max-ratio", "1.5").returncode == 1
    )


def test_missing_log_is_an_error(tmp_path):
    result = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "absent.jsonl")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2


def test_malformed_log_is_an_error(tmp_path):
    log = tmp_path / "solver_stats.jsonl"
    log.write_text("{not json\n")
    result = subprocess.run(
        [sys.executable, str(TOOL), str(log)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "bad JSON" in result.stderr


# -- rows of removed alternatives and the committed history ----------------


REPO = Path(__file__).resolve().parents[2]


def test_removed_alternative_rows_are_skipped(tmp_path):
    # Rows measured on a since-removed knob value describe a path that
    # no longer exists: they join no history, however far off they are.
    result = _run_gate(
        tmp_path,
        [
            _record(100, 200),
            _record(5000, 200, tier="unified"),
            _record(5000, 200, storage="compressed"),
            _record(5000, 200, schedule="fifo"),
            _record(5000, 200, jobs=4),
            _record(110, 210),
        ],
    )
    assert result.returncode == 0
    assert "1 workload(s) compared" in result.stdout


def test_reference_solver_fifo_rows_are_kept(tmp_path):
    # The reference solver always ran its own pop loop ("fifo"): that is
    # the oracle's one path, not a removed alternative.
    result = _run_gate(
        tmp_path,
        [
            _record(100, 200, solver="reference", schedule="fifo"),
            _record(250, 200, solver="reference", schedule="fifo"),
        ],
    )
    assert result.returncode == 1
    assert "pops" in result.stdout


def _tier_record(pops, unified, tier="unified", **overrides):
    # The shape of the legacy ``solver_tier_*`` benchmark rows.
    payload = {
        "benchmark": "solver_tier",
        "seed": 5,
        "factor": 6,
        "solver": "delta",
        "tier": tier,
        "pops": pops,
        "facts_propagated": pops * 3,
        "unified_nodes": unified,
    }
    payload.update(overrides)
    return payload


def test_tier_rows_group_by_tier(tmp_path):
    # A unified-tier row is not history for the full tier: a full run
    # doing 4x its pops is not a regression.
    result = _run_gate(
        tmp_path,
        [
            _tier_record(1000, 3800),
            _tier_record(4400, 0, tier="full"),
            _tier_record(1100, 3900),
            _tier_record(4500, 0, tier="full"),
        ],
    )
    assert result.returncode == 0
    assert "1 workload(s) compared" in result.stdout


def test_tier_row_missing_tier_field_defaults_to_full(tmp_path):
    # Untagged rows and rows tagged with the default axis values are
    # one history, in either order: a regression between them is caught.
    for old, new in (
        (_record(100, 200), _record(250, 200, tier="full")),
        (
            _record(100, 200, tier="full", storage="int", schedule="wave", jobs=1),
            _record(250, 200),
        ),
    ):
        result = _run_gate(tmp_path, [old, new])
        assert result.returncode == 1
        assert "pops" in result.stdout


def test_tier_row_fails_on_pops_regression(tmp_path):
    result = _run_gate(
        tmp_path,
        [_tier_record(1000, 0, tier="full"), _tier_record(2500, 0, tier="full")],
    )
    assert result.returncode == 1
    assert "pops" in result.stdout


def test_tier_row_unified_nodes_growth_passes(tmp_path):
    # unified_nodes counted the removed pre-collapse; the gate reads it
    # in neither direction.
    for before, after in ((1800, 3900), (3900, 0)):
        result = _run_gate(
            tmp_path,
            [
                _tier_record(1000, before, tier="full"),
                _tier_record(900, after, tier="full"),
            ],
        )
        assert result.returncode == 0
        assert "unified_nodes" not in result.stdout


def test_unified_nodes_not_gated_outside_tier_benchmarks(tmp_path):
    # solver_scalability rows of the old solver carry the counter too.
    result = _run_gate(
        tmp_path,
        [_record(100, 200, unified_nodes=500), _record(110, 210, unified_nodes=0)],
    )
    assert result.returncode == 0


def test_committed_history_parses_and_passes():
    # The committed logs carry the removed axes (tier, storage,
    # schedule, jobs) on older rows; the gate must still read them.
    logs = sorted((REPO / "benchmarks" / "results").glob("*.jsonl"))
    assert logs
    tagged = 0
    for log in logs:
        for line in log.read_text().splitlines():
            if line.strip():
                record = json.loads(line)
                tagged += any(
                    axis in record
                    for axis in ("tier", "storage", "schedule", "jobs")
                )
        result = subprocess.run(
            [sys.executable, str(TOOL), str(log)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, (log.name, result.stdout, result.stderr)
    assert tagged, "the committed history no longer carries axis tags"


# -- demand-query records -------------------------------------------------


def _query_record(peak_fraction, states, queries, **overrides):
    payload = {
        "benchmark": "demand_locality",
        "seed": 11,
        "factor": 8,
        "resolver": "callstring",
        "queries": queries,
        "states_visited": states,
        "peak_visited_fraction": peak_fraction,
    }
    payload.update(overrides)
    return payload


def test_query_log_passes_within_bounds(tmp_path):
    result = _run_gate(
        tmp_path,
        [_query_record(0.01, 500, 50), _query_record(0.015, 700, 50)],
    )
    assert result.returncode == 0
    assert "query-stats gate passed" in result.stdout


def test_query_log_fails_on_peak_fraction_regression(tmp_path):
    result = _run_gate(
        tmp_path,
        [_query_record(0.01, 500, 50), _query_record(0.05, 500, 50)],
    )
    assert result.returncode == 1
    assert "peak_visited_fraction" in result.stdout


def test_query_log_fails_on_states_per_query_regression(tmp_path):
    # Same states total, 5x fewer queries -> 5x states/query.
    result = _run_gate(
        tmp_path,
        [_query_record(0.01, 500, 50), _query_record(0.01, 500, 10)],
    )
    assert result.returncode == 1
    assert "states_per_query" in result.stdout


def test_query_groups_key_on_resolver(tmp_path):
    # A summary-resolver run is a different group than a callstring one.
    result = _run_gate(
        tmp_path,
        [
            _query_record(0.01, 500, 50),
            _query_record(0.09, 5000, 50, resolver="summary"),
        ],
    )
    assert result.returncode == 0


def test_mixed_log_gates_each_kind(tmp_path):
    # Solver and query records in one log are grouped independently,
    # each with its own metrics.
    result = _run_gate(
        tmp_path,
        [
            _record(100, 200),
            _record(110, 210),
            _query_record(0.01, 500, 50),
            _query_record(0.05, 500, 50),
        ],
    )
    assert result.returncode == 1
    assert "peak_visited_fraction" in result.stdout
    assert "pops" not in result.stdout


def test_kind_flag_filters_records(tmp_path):
    records = [
        _record(100, 200),
        _record(110, 210),
        _query_record(0.01, 500, 50),
        _query_record(0.05, 500, 50),
    ]
    assert _run_gate(tmp_path, records, "--kind", "solver").returncode == 0
    assert _run_gate(tmp_path, records, "--kind", "query").returncode == 1

# -- per-phase wall-clock gate (schema-stamped rows only) ---------------


def _stamped(solve_s, pops=100, **overrides):
    return _record(
        pops,
        200,
        schema="repro.stats/1",
        phase_seconds={"solve": solve_s, "constraints": 0.01},
        **overrides,
    )


def test_wall_gate_fails_on_phase_regression(tmp_path):
    result = _run_gate(tmp_path, [_stamped(0.3), _stamped(0.9)])
    assert result.returncode == 1
    assert "phase 'solve'" in result.stdout


def test_wall_gate_ignores_unstamped_rows(tmp_path):
    # Same 3x wall regression, but legacy rows carry no schema marker.
    result = _run_gate(
        tmp_path,
        [
            _record(100, 200, phase_seconds={"solve": 0.3}),
            _record(100, 200, phase_seconds={"solve": 0.9}),
        ],
    )
    assert result.returncode == 0


def test_wall_gate_respects_absolute_floor(tmp_path):
    # A 10x swing entirely below the floor is noise, not a regression.
    result = _run_gate(tmp_path, [_stamped(0.01), _stamped(0.1)])
    assert result.returncode == 0
    # Raising the floor above the regression silences it too.
    result = _run_gate(
        tmp_path, [_stamped(0.3), _stamped(0.9)], "--wall-floor", "1.0"
    )
    assert result.returncode == 0


def test_wall_gate_opt_out_flag(tmp_path):
    records = [_stamped(0.3), _stamped(0.9)]
    assert _run_gate(tmp_path, records, "--no-wall-gate").returncode == 0


def test_wall_gate_max_ratio_flag(tmp_path):
    records = [_stamped(0.3), _stamped(0.5)]
    assert _run_gate(tmp_path, records).returncode == 0
    assert (
        _run_gate(
            tmp_path, records, "--max-wall-ratio", "1.5"
        ).returncode
        == 1
    )


def test_wall_gate_elapsed_fallback(tmp_path):
    # Rows without phase_seconds still gate on the flat elapsed field.
    rows = [
        _record(100, 200, schema="repro.stats/1", elapsed=0.3),
        _record(100, 200, schema="repro.stats/1", elapsed=0.9),
    ]
    result = _run_gate(tmp_path, rows)
    assert result.returncode == 1
    assert "phase 'total'" in result.stdout


def test_wall_gate_counters_still_gated_when_opted_out(tmp_path):
    records = [_stamped(0.3), _stamped(0.9, pops=900)]
    result = _run_gate(tmp_path, records, "--no-wall-gate")
    assert result.returncode == 1
    assert "pops" in result.stdout


# -- bench records (repro bench cell rows) ------------------------------


def _bench_record(**overrides):
    payload = {
        "schema": "repro.stats/1",
        "kind": "bench",
        "benchmark": "164.gzip",
        "seed": 0,
        "factor": 1,
        "cell": "164.gzip/tl",
        "workload": "164.gzip",
        "config": "tl",
        "scale": 0.1,
        "status": "ok",
        "warned_uids": [12, 40],
        "checks": 5,
        "propagations": 59,
        "pops": 100,
        "facts_propagated": 80,
        "elapsed": 0.4,
    }
    payload.update(overrides)
    return payload


def test_bench_rows_pass_when_identical(tmp_path):
    result = _run_gate(tmp_path, [_bench_record(), _bench_record(elapsed=9.9)])
    assert result.returncode == 0
    assert "bench-stats gate passed" in result.stdout


def test_bench_rows_fail_on_warned_uids_drift(tmp_path):
    result = _run_gate(
        tmp_path, [_bench_record(), _bench_record(warned_uids=[12])]
    )
    assert result.returncode == 1
    assert "warned_uids" in result.stdout


def test_bench_rows_fail_on_status_flip(tmp_path):
    result = _run_gate(
        tmp_path, [_bench_record(), _bench_record(status="error")]
    )
    assert result.returncode == 1
    assert "status" in result.stdout


def test_bench_rows_fail_on_check_count_drift_either_direction(tmp_path):
    # Exact gate: fewer checks is as much a finding as more.
    result = _run_gate(tmp_path, [_bench_record(), _bench_record(checks=4)])
    assert result.returncode == 1
    assert "checks" in result.stdout


def test_bench_rows_ratio_gate_solver_work(tmp_path):
    result = _run_gate(tmp_path, [_bench_record(), _bench_record(pops=300)])
    assert result.returncode == 1
    assert "pops" in result.stdout
    # Within the ratio passes.
    result = _run_gate(tmp_path, [_bench_record(), _bench_record(pops=150)])
    assert result.returncode == 0


def test_bench_rows_never_wall_gated(tmp_path):
    # Schema-stamped with a 10x elapsed jump: committed baselines are
    # diffed across machines, so wall time must not gate bench rows.
    result = _run_gate(
        tmp_path, [_bench_record(elapsed=0.3), _bench_record(elapsed=3.0)]
    )
    assert result.returncode == 0


def test_bench_rows_group_by_cell(tmp_path):
    # Different cells never compare against each other.
    result = _run_gate(
        tmp_path,
        [
            _bench_record(),
            _bench_record(
                cell="164.gzip/full",
                config="full",
                checks=3,
                warned_uids=[],
                pops=900,
            ),
        ],
    )
    assert result.returncode == 0


def test_legacy_bench_cell_names_join_axis_free_history(tmp_path):
    # Baselines written before the axes went away name cells
    # workload/config/tier/storage/schedule/jN; their default-axis rows
    # gate the axis-free cells, their unified rows are skipped.
    legacy = dict(
        cell="164.gzip/tl/full/int/wave/j1",
        tier="full",
        storage="int",
        schedule="wave",
        jobs=1,
    )
    unified = dict(legacy, cell="164.gzip/tl/unified/int/wave/j1", tier="unified")
    result = _run_gate(
        tmp_path,
        [
            _bench_record(**legacy),
            _bench_record(warned_uids=[], **unified),
            _bench_record(warned_uids=[12]),
        ],
    )
    assert result.returncode == 1
    assert "164.gzip/tl: warned_uids changed" in result.stdout


# -- service records --------------------------------------------------------


def _service_record(warm, cold, **overrides):
    payload = {
        "benchmark": "service_warm_engine",
        "seed": 11,
        "factor": 16,
        "warm_seconds": warm,
        "cold_seconds": cold,
    }
    payload.update(overrides)
    return payload


def test_service_row_passes_when_warm_beats_cold(tmp_path):
    result = _run_gate(tmp_path, [_service_record(0.005, 0.03)])
    assert result.returncode == 0
    assert "service-stats gate passed" in result.stdout


def test_service_row_fails_when_warm_loses(tmp_path):
    result = _run_gate(tmp_path, [_service_record(0.04, 0.03)])
    assert result.returncode == 1
    assert "memo residency" in result.stdout


def test_legacy_pool_rows_are_skipped(tmp_path):
    # The resident worker pool is gone; its rows are history only.
    pool_row = {
        "benchmark": "service_query_batches",
        "seed": 11,
        "factor": 16,
        "jobs": 4,
        "serial_seconds": 0.01,
        "resident_seconds": 0.5,
    }
    result = _run_gate(tmp_path, [pool_row, _service_record(0.005, 0.03)])
    assert result.returncode == 0


def test_baseline_flag_gates_single_run_log(tmp_path):
    baseline = tmp_path / "baseline.jsonl"
    baseline.write_text(json.dumps(_bench_record()) + "\n")
    # A matching fresh run passes...
    result = _run_gate(
        tmp_path, [_bench_record(elapsed=1.2)], "--baseline", str(baseline)
    )
    assert result.returncode == 0
    # ...a drifted one fails.
    result = _run_gate(
        tmp_path,
        [_bench_record(warned_uids=[])],
        "--baseline",
        str(baseline),
    )
    assert result.returncode == 1
    assert "warned_uids" in result.stdout


def test_baseline_flag_fails_on_missing_cell(tmp_path):
    baseline = tmp_path / "baseline.jsonl"
    baseline.write_text(
        json.dumps(_bench_record()) + "\n"
        + json.dumps(
            _bench_record(cell="164.gzip/full/full/int/wave/j1")
        )
        + "\n"
    )
    result = _run_gate(
        tmp_path, [_bench_record()], "--baseline", str(baseline)
    )
    assert result.returncode == 1
    assert "coverage shrank" in result.stdout


def test_baseline_flag_missing_file_is_an_error(tmp_path):
    result = _run_gate(
        tmp_path,
        [_bench_record()],
        "--baseline",
        str(tmp_path / "absent.jsonl"),
    )
    assert result.returncode == 2


def test_baseline_flag_works_for_solver_records_too(tmp_path):
    baseline = tmp_path / "baseline.jsonl"
    baseline.write_text(json.dumps(_record(100, 200)) + "\n")
    result = _run_gate(
        tmp_path, [_record(900, 200)], "--baseline", str(baseline)
    )
    assert result.returncode == 1
    assert "pops" in result.stdout

"""Unit tests for the unified stats registry (:mod:`repro.obs.registry`)."""

import json

from repro.obs.registry import (
    SCHEMA,
    StatsRegistry,
    append_jsonl,
    write_stats_row,
)


class FakeStats:
    def __init__(self, payload):
        self._payload = payload

    def as_dict(self):
        return dict(self._payload)


class TestStatsRegistry:
    def test_generic_record_shape(self):
        registry = StatsRegistry()
        registry.record(
            "solver", "solve", {"pops": 3}, wall_s={"solve": 0.1}, config="usher"
        )
        (row,) = registry.rows()
        assert row == {
            "schema": SCHEMA,
            "stat": "solver",
            "phase": "solve",
            "counters": {"pops": 3},
            "wall_s": {"solve": 0.1},
            "tags": {"config": "usher"},
        }

    def test_solver_adapter_promotes_phase_seconds(self):
        registry = StatsRegistry()
        registry.record_solver(
            FakeStats(
                {
                    "pops": 7,
                    "elapsed": 1.5,
                    "phase_seconds": {"solve": 0.4, "constraints": 0.1},
                }
            ),
            config="usher_tl",
        )
        (row,) = registry.rows(stat="solver")
        assert row["wall_s"] == {"solve": 0.4, "constraints": 0.1}
        assert row["counters"] == {"pops": 7}  # elapsed/walls hoisted out
        assert row["tags"] == {"config": "usher_tl"}

    def test_update_adapter_carries_wall(self):
        registry = StatsRegistry()
        registry.record_update(
            FakeStats({"update_seconds": 0.25, "memos_carried": 4}),
            session="abc",
        )
        (row,) = registry.rows(stat="update")
        assert row["wall_s"] == {"update": 0.25}
        assert row["counters"]["memos_carried"] == 4

    def test_opt2_and_vfg_adapters_accept_dict_or_object(self):
        registry = StatsRegistry()
        registry.record_opt2({"redirected_nodes": 2})
        registry.record_vfg(FakeStats({"nodes": 10}))
        assert registry.rows(stat="opt2")[0]["counters"] == {
            "redirected_nodes": 2
        }
        assert registry.rows(stat="vfg")[0]["counters"] == {"nodes": 10}

    def test_rows_filter_and_limit(self):
        registry = StatsRegistry()
        for index in range(5):
            registry.record("query", "demand", {"n": index})
        registry.record("solver", "solve", {"pops": 1})
        assert len(registry.rows(stat="query")) == 5
        assert registry.rows(stat="query", limit=2)[-1]["counters"] == {
            "n": 4
        }
        assert len(registry.rows()) == 6

    def test_ring_is_bounded(self):
        registry = StatsRegistry(maxlen=3)
        for index in range(10):
            registry.record("query", "demand", {"n": index})
        rows = registry.rows()
        assert len(rows) == 3
        assert [r["counters"]["n"] for r in rows] == [7, 8, 9]

    def test_clear(self):
        registry = StatsRegistry()
        registry.record("query", "demand", {})
        registry.clear()
        assert len(registry) == 0

    def test_write_jsonl_appends_snapshot(self, tmp_path):
        registry = StatsRegistry()
        registry.record("solver", "solve", {"pops": 1})
        registry.record("query", "demand", {"queries": 2})
        out = tmp_path / "rows.jsonl"
        assert registry.write_jsonl(out) == 2
        assert registry.write_jsonl(out, stat="query") == 1
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["stat"] for r in rows] == ["solver", "query", "query"]


class TestAppendJsonl:
    def test_creates_parents_and_appends(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "log.jsonl"
        append_jsonl(path, {"b": 1, "a": 2})
        append_jsonl(path, {"c": 3})
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == '{"a": 2, "b": 1}'  # sorted keys, compact


class TestWriteStatsRow:
    def test_legacy_flat_shape_with_schema_and_tags(self, tmp_path):
        path = tmp_path / "solver_stats.jsonl"
        row = write_stats_row(
            path,
            "solver_scalability",
            11,
            4,
            elapsed=1.23456789,
            stats=FakeStats({"pops": 9, "mode": "from-stats"}),
            solver="delta",
            mode="warm",
        )
        assert row["schema"] == SCHEMA
        assert row["benchmark"] == "solver_scalability"
        assert row["elapsed"] == 1.234568
        assert row["pops"] == 9  # stats spread flat at top level
        assert row["mode"] == "warm"  # explicit extra wins over stats
        assert row["tags"] == {"mode": "warm"}
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(row))

    def test_stats_and_elapsed_optional(self, tmp_path):
        path = tmp_path / "service_stats.jsonl"
        row = write_stats_row(
            path, "service_warm_engine", 11, 16, opt="usher", warm_seconds=0.1
        )
        assert "elapsed" not in row
        assert row["tags"] == {"opt": "usher"}

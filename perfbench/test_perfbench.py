"""Tests of the benchmark's own arithmetic and hooks; no workload runs.

    python3 -m pytest perfbench -q
"""

import os
import sys
import types

import pytest

import measure
import run
import spans
from measure import Tally, best_of, geomean_overhead, percentile, root_seconds, self_times
from spans import Hook, Tracer, installed


class TestPercentile:
    def test_median_needs_ten_samples_beyond_it(self):
        assert percentile(list(range(19)), 50) == (None, 19)
        assert percentile(list(range(20)), 50) == (9, 20)

    def test_p90_needs_a_hundred_samples(self):
        assert percentile(list(range(99)), 90) == (None, 99)
        assert percentile(list(range(100)), 90) == (89, 100)

    def test_unsorted_input_and_empty(self):
        values = [5.0, 1.0, 3.0] * 10
        assert percentile(values, 50) == (3.0, 30)
        assert percentile([], 50) == (None, 0)


class TestBestOf:
    def test_fastest_copy_of_each_unit(self):
        assert best_of([[1.0, 5.0, 2.0], [3.0, 1.0, 2.5]]) == pytest.approx(4.0)
        assert best_of([[2.0, 3.0]]) == pytest.approx(5.0)

    def test_misaligned_passes_fall_back_to_fastest_pass(self):
        assert best_of([[1.0, 1.0, 1.0], [2.5]]) == pytest.approx(2.5)

    def test_no_pass_is_an_error(self):
        with pytest.raises(ValueError):
            best_of([])


class TestReferenceSpeed:
    def test_scales_by_the_low_decile_of_the_reference(self):
        reference = [measure.REFERENCE_LOOP_S * f for f in (2.0, 1.5, 3.0, 1.0, 2.5, 4.0, 3.5, 2.0, 1.2, 5.0, 2.2)]
        # Sorted: 1.0, 1.2, 1.5, ...; the low decile of 11 samples is the second.
        assert measure.at_reference_speed(6.0, reference) == pytest.approx(5.0)

    def test_no_reference_is_an_error(self):
        with pytest.raises(ValueError):
            measure.at_reference_speed(1.0, [])

    def test_reference_loop_is_fixed_work(self):
        assert measure.reference_loop() == 256
        assert len(measure.time_reference(3)) == 3


class TestGeomeanOverhead:
    def test_figure10_quantity(self):
        assert geomean_overhead([0.0, 300.0]) == pytest.approx(2.0)
        assert geomean_overhead([100.0]) == pytest.approx(2.0)

    def test_no_programs_is_an_error(self):
        with pytest.raises(ValueError):
            geomean_overhead([])


class TestTally:
    def test_failed_output_check_clears_correct(self):
        tally = Tally()
        assert tally.check(True, "fine")
        assert not tally.check(False, "wrong verdicts")
        assert (tally.attempted, tally.failed, tally.correct) == (2, 1, False)
        assert tally.failed_share == 0.5
        assert tally.failures == ["wrong verdicts"]

    def test_failed_probe_counts_but_keeps_outputs_correct(self):
        tally = Tally()
        tally.check(False, "rejected edit changed the session", output=False)
        tally.check(True, "verdicts")
        assert (tally.attempted, tally.failed, tally.correct) == (2, 1, True)

    def test_nothing_attempted(self):
        assert Tally().failed_share == 0.0

    def test_merge_adds_another_process_operations(self):
        tally, other = Tally(), Tally()
        tally.check(True, "op")
        other.check(False, "wrong verdicts")
        tally.merge(other)
        assert (tally.attempted, tally.failed, tally.correct) == (2, 1, False)
        assert tally.failures == ["wrong verdicts"]


class TestSelfTime:
    def test_span_minus_covered_child_time(self):
        spans_ = [
            ("root", -1, 0.0, 10.0),
            ("child", 0, 2.0, 5.0),
            ("grandchild", 1, 3.0, 4.0),
            ("child", 0, 6.0, 8.0),
            ("root", -1, 12.0, 13.0),
        ]
        totals = self_times(spans_)
        assert totals["root"] == (2, pytest.approx(5.0 + 1.0))
        assert totals["child"] == (2, pytest.approx(2.0 + 2.0))
        assert totals["grandchild"] == (1, pytest.approx(1.0))
        assert root_seconds(spans_) == pytest.approx(11.0)

    def test_tracer_records_parents(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        tracer.active = True
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert tracer.finished_spans() == [("outer", -1, 0.0, 3.0), ("inner", 0, 1.0, 2.0)]

    def test_span_cost_is_small_and_positive(self):
        assert 0.0 <= spans.seconds_per_span(calls=2000) < 1e-3

    def test_inactive_tracer_records_nothing(self):
        tracer = Tracer()
        with tracer.span("outer"):
            pass
        assert tracer.spans == []


@pytest.fixture
def fake_layer(monkeypatch):
    module = types.ModuleType("fake_layer")

    def build(n):
        return n * 2

    class Engine:
        def solve(self, n):
            return n + 1

    module.build = build
    module.Engine = Engine
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    return module


class TestHooks:
    def test_hook_wraps_and_restores(self, fake_layer):
        tracer = Tracer()
        hooks = [
            Hook("vfg.build", "fake_layer", "build",
                 lambda t, layer, result: t.count(layer, nodes=result)),
            Hook("opt2", "fake_layer", "Engine.solve"),
        ]
        original = fake_layer.build
        with installed(tracer, hooks):
            tracer.active = True
            assert fake_layer.build(3) == 6
            assert fake_layer.Engine().solve(1) == 2
            tracer.active = False
        assert fake_layer.build is original
        assert "__wrapped__" not in vars(fake_layer.Engine.solve)
        names = [s[0] for s in tracer.finished_spans()]
        assert names == ["vfg.build", "opt2"]
        assert tracer.counts["vfg.build"]["nodes"] == 6
        assert tracer.unmeasured == set()

    def test_renamed_public_function_reports_layer_unmeasured(self, fake_layer):
        del fake_layer.build
        fake_layer.build_graph = lambda n: n
        tracer = Tracer()
        hooks = [Hook("vfg.build", "fake_layer", "build"),
                 Hook("opt2", "fake_layer", "Engine.solve_all"),
                 Hook("memssa", "no_such_module_anywhere", "build")]
        with installed(tracer, hooks):
            pass
        assert tracer.unmeasured == {"vfg.build", "opt2", "memssa"}
        metrics = run.layer_metrics(tracer)
        assert "vfg.build.s" not in metrics and "vfg.nodes" not in metrics
        assert "opt2.s" not in metrics and "memssa.s" not in metrics
        assert metrics["parse.s"] == (0.0, "s")

    def test_every_shipped_hook_resolves(self):
        pytest.importorskip("repro")
        tracer = Tracer()
        with installed(tracer):
            pass
        assert tracer.unmeasured == set()


class _Workload:
    name = "fake"

    def __init__(self, units=((0.5, 0.25),)):
        self.tracers = []
        self.units = list(units)

    def run_pass(self, tally, tracer):
        self.tracers.append(tracer)
        tally.check(True, "op")
        return list(self.units[(len(self.tracers) - 1) % len(self.units)])

    def verify(self, tally):
        pass


def test_end_to_end_run_never_installs_hooks(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the untraced run must not install hooks")

    monkeypatch.setattr(spans, "installed", forbidden)
    monkeypatch.setattr(run, "installed", forbidden)
    workload, tally = _Workload(), Tally()
    passes = run.timed_passes(workload, tally, [None] * run.pass_count(24, 12.0))
    assert passes == [[0.5, 0.25], [0.5, 0.25]]
    assert workload.tracers == [None, None]
    assert (tally.attempted, tally.failed) == (2, 0)


def test_pass_count_fits_whole_passes_in_seconds():
    assert run.pass_count(24, 12.0) == 2
    assert run.pass_count(35, 12.0) == 2
    assert run.pass_count(36, 12.0) == 3
    assert run.pass_count(1, 12.0) == 2


def test_tracing_overhead_compares_timed_units_only(monkeypatch, capsys):
    # Untraced, traced, traced, untraced: per-unit bests 1.0+1.0 untraced
    # and 1.5+1.0 traced, so the overhead is 0.5s whatever the passes'
    # untimed work costs.
    workload = _Workload(units=((1.0, 2.0), (2.0, 1.0), (1.5, 1.5), (2.0, 1.0)))
    run.traced_run(workload, Tally())
    out = capsys.readouterr().out
    assert "units 3.000s" in out  # the fastest traced pass
    assert "tracing overhead: measured +0.5000s" in out
    assert [t is not None for t in workload.tracers] == list(run.TRACED_PLAN)


def test_analysis_knobs_are_pinned_whatever_the_environment(monkeypatch):
    for name in run.PINNED_ENV:
        monkeypatch.setenv(name, "caller's value")

    def load_workload(name):
        raise ImportError("stop before any workload runs")

    monkeypatch.setattr(run, "load_workload", load_workload)
    assert run.main(["--workload", "spec_suite"]) == 2
    assert os.environ["REPRO_JOBS"] == "1"
    assert os.environ["REPRO_TIER"] == "full"
    assert os.environ["REPRO_STORAGE"] == "int"
    assert "REPRO_CORPUS_DIR" not in os.environ


class _TwinWorkload:
    def __init__(self, seed):
        self.seed = seed

    def run_pass(self, tally, tracer):
        assert tracer is None
        tally.check(True, "op")
        return [float(self.seed), 0.5]

    def verify(self, tally):
        pass

    def close(self):
        pass


class _BrokenWorkload(_TwinWorkload):
    def __init__(self, seed):
        raise RuntimeError("cannot build inputs")


def test_twin_runs_the_same_passes_in_another_process():
    tally = Tally()
    cpu = run.usable_cpus()[-1] if run.usable_cpus() else None
    passes, reference, rss = run.join_twin(run.fork_twin(_TwinWorkload, 3, 2, cpu), tally)
    assert passes == [[3.0, 0.5], [3.0, 0.5]]
    assert len(reference) == 2 * 2 * run.REFERENCE_SAMPLES
    assert rss > 0
    assert (tally.attempted, tally.failed) == (2, 0)


def test_failed_twin_counts_as_a_failed_operation(capfd):
    tally = Tally()
    passes, reference, _ = run.join_twin(run.fork_twin(_BrokenWorkload, 3, 2, None), tally)
    assert passes == [] and reference == []
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)
    assert "cannot build inputs" in capfd.readouterr().err

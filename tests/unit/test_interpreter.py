"""Unit tests for the shadow-memory interpreter."""

import pytest

from repro.core import build_msan_plan
from repro.runtime import (
    DEFAULT_COST_MODEL,
    CostModel,
    Interpreter,
    RuntimeFault,
    StepLimitExceeded,
    run_instrumented,
    run_native,
)
from repro.tinyc import compile_source
from tests.helpers import analyzed


def run(source, **kwargs):
    return run_native(compile_source(source), **kwargs)


class TestSemantics:
    def test_arithmetic(self):
        assert run("def main() { return 2 + 3 * 4; }").exit_value == 14

    def test_division_by_zero_is_zero(self):
        assert run("def main() { var z = 0; return 7 / z; }").exit_value == 0
        assert run("def main() { var z = 0; return 7 % z; }").exit_value == 0

    def test_64bit_wraparound(self):
        source = "def main() { var x = 1 << 63; return x < 0; }"
        assert run(source).exit_value == 1

    def test_memory_roundtrip(self):
        source = """
        def main() {
          var p = malloc(3);
          p[0] = 10; p[1] = 20; p[2] = 30;
          return p[0] + p[1] + p[2];
        }
        """
        assert run(source).exit_value == 60

    def test_out_of_range_index_clamps(self):
        source = """
        def main() {
          var a[4];
          a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 9;
          return a[99];
        }
        """
        assert run(source).exit_value == 9  # clamped to the last cell

    def test_global_default_initialized(self):
        assert run("global g; def main() { return g; }").exit_value == 0
        assert not run("global g; def main() { output(g); return g; }").true_undefined_uses

    def test_uninit_global_flagged_by_oracle(self):
        report = run("global uninit g; def main() { output(g); return 0; }")
        assert report.true_undefined_uses

    def test_outputs_collected_in_order(self):
        report = run("def main() { output(1); output(2); output(3); return 0; }")
        assert report.outputs == [1, 2, 3]

    def test_recursion(self):
        source = """
        def fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
        def main() { return fib(10); }
        """
        assert run(source).exit_value == 55


class TestOracle:
    def test_undefined_scalar_use_detected(self):
        report = run(
            "def main() { var x; if (0) { x = 1; } output(x); return 0; }"
        )
        assert report.true_undefined_uses

    def test_undefined_heap_read_detected(self):
        report = run(
            "def main() { var p = malloc(2); p[0] = 1; output(p[1]); return 0; }"
        )
        assert report.true_undefined_uses

    def test_calloc_is_defined(self):
        report = run(
            "def main() { var p = calloc(2); output(p[1]); return 0; }"
        )
        assert not report.true_undefined_uses

    def test_undefinedness_propagates_through_arithmetic(self):
        report = run(
            """
            def main() {
              var x;
              var y = x + 1;
              var z = y * 2;
              if (z) { output(1); }
              return 0;
            }
            """
        )
        assert report.true_undefined_uses

    def test_overwrite_cures_undefinedness(self):
        report = run(
            "def main() { var x; x = 5; output(x); return 0; }"
        )
        assert not report.true_undefined_uses


class TestLimits:
    def test_step_limit(self):
        source = """
        def main() {
          var i = 0, s = 0;
          while (i < 100000) { s = s + 1; i = i + 1; }
          return s;
        }
        """
        with pytest.raises(StepLimitExceeded):
            run_native(compile_source(source), max_steps=100)

    STEPPED = """
        def add(a, b) { return a + b; }
        def main() {
          var i = 0, s = 0;
          while (i < 4) { s = add(s, i); i = i + 1; }
          output(s);
          return s;
        }
        """

    @pytest.mark.parametrize("instrumented", [False, True])
    def test_step_budget_boundary(self, instrumented):
        """A run of exactly S steps completes at max_steps=S and raises
        at every smaller budget."""
        prepared = analyzed(self.STEPPED)
        plan = build_msan_plan(prepared.module) if instrumented else None

        def run_with(limit):
            return Interpreter(prepared.module, plan, max_steps=limit).run()

        steps = run_with(10_000).steps
        assert run_with(steps).steps == steps
        for limit in range(steps):
            with pytest.raises(StepLimitExceeded):
                run_with(limit)

    def test_fault_within_budget_beats_step_limit(self):
        """A fault on step k is raised at budget k and the step limit at
        k - 1, though the faulting block needs more steps than either."""
        module = compile_source(
            """
            def main() {
              var i = 0;
              while (i < 3) { i = i + 1; }
              var p = 12345;
              var q = i + 1;
              return *p + q;
            }
            """
        )
        traced = Interpreter(module)
        traced.trace_limit = 1000
        with pytest.raises(RuntimeFault, match="unmapped"):
            traced.run()
        fault_step = len(traced.trace_log)  # no φs: one line per step
        with pytest.raises(RuntimeFault, match="unmapped"):
            run_native(module, max_steps=fault_step)
        with pytest.raises(StepLimitExceeded):
            run_native(module, max_steps=fault_step - 1)

    def test_stack_overflow_fault(self):
        source = """
        def spin(n) { return spin(n + 1); }
        def main() { return spin(0); }
        """
        with pytest.raises(RuntimeFault):
            run(source)


class TestShadowMachine:
    def test_full_instrumentation_matches_oracle(self):
        source = """
        def main() {
          var x;
          if (0) { x = 1; }
          var p = malloc(2);
          p[0] = x;
          if (p[1] > 0) { output(1); } else { output(2); }
          output(p[0]);
          return 0;
        }
        """
        prepared = analyzed(source)
        plan = build_msan_plan(prepared.module)
        report = run_instrumented(prepared.module, plan)
        assert report.warning_set() == report.true_bug_set()

    def test_instrumentation_preserves_semantics(self):
        source = """
        def main() {
          var i = 0, s = 0;
          while (i < 8) { s = s + i; i = i + 1; }
          output(s);
          return 0;
        }
        """
        prepared = analyzed(source)
        native = run_native(prepared.module)
        instrumented = run_instrumented(
            prepared.module, build_msan_plan(prepared.module)
        )
        assert instrumented.outputs == native.outputs
        assert instrumented.exit_value == native.exit_value
        assert instrumented.native_ops == native.native_ops

    def test_events_counted(self):
        prepared = analyzed("def main() { var x = 1; output(x); return 0; }")
        report = run_instrumented(prepared.module, build_msan_plan(prepared.module))
        assert report.events.shadow_writes > 0
        assert report.events.checks >= 1


class TestCostModel:
    def test_zero_events_zero_slowdown(self):
        prepared = analyzed("def main() { return 0; }")
        report = run_native(prepared.module)
        assert DEFAULT_COST_MODEL.slowdown_percent(report) == 0.0

    def test_slowdown_is_linear_in_costs(self):
        prepared = analyzed("def main() { var x = 1; output(x + 2); return 0; }")
        report = run_instrumented(prepared.module, build_msan_plan(prepared.module))
        base = CostModel(1.0, 1.0, 1.0).slowdown_percent(report)
        doubled = CostModel(2.0, 2.0, 2.0).slowdown_percent(report)
        assert doubled == pytest.approx(2 * base)

    def test_more_instrumentation_costs_more(self):
        source = "def main() { var x; if (0) { x = 1; } output(x); return 0; }"
        prepared = analyzed(source)
        from repro.core import UsherConfig, run_usher

        msan = run_instrumented(prepared.module, build_msan_plan(prepared.module))
        usher = run_instrumented(
            prepared.module, run_usher(prepared, UsherConfig.full()).plan
        )
        assert DEFAULT_COST_MODEL.slowdown_percent(
            usher
        ) <= DEFAULT_COST_MODEL.slowdown_percent(msan)

"""Differential suite: the points-to storage is invisible in results.

The :class:`~repro.analysis.andersen.DeltaSolver` stores each points-to
set as a Python ``int`` bitset over interned locations; the
:class:`~repro.analysis.andersen.ReferenceSolver` keeps plain ``set``\\ s
of :class:`~repro.analysis.memobjects.MemLoc`.  The bitset storage
promises that it changes how many bytes the points-to sets occupy —
never what comes out.  Checked here over generated programs (plain and
pointer-heavy):

* the two storages give identical points-to sets, call targets,
  wrappers and allocation objects;
* the delta solver records a memory profile (``bytes_pts`` and
  ``peak_rss`` > 0), which ``repro check --mem-stats`` prints and the
  scalability benchmarks gate.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import analyze_pointers
from repro.opt import run_pipeline
from repro.tinyc import compile_source
from repro.workloads import GeneratorParams, generate_program

from tests.helpers import CORPUS_PARAMS as _PARAMS

_SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _module_for(seed, params=_PARAMS, name=None):
    module = compile_source(
        generate_program(seed, params), name or f"seed{seed}"
    )
    run_pipeline(module, "O0+IM")
    return module


def _normalize(result):
    return (
        {node: frozenset(locs) for node, locs in result.pts.items()},
        {uid: frozenset(t) for uid, t in result.call_targets.items()},
        frozenset(result.wrappers),
        {
            uid: [obj.name for obj in objs]
            for uid, objs in result.alloc_objects.items()
        },
    )


def assert_storages_agree(module):
    bitsets = analyze_pointers(module)
    sets = analyze_pointers(module, use_reference=True)
    assert _normalize(bitsets) == _normalize(sets)
    assert bitsets.solver_stats.solver == "delta"
    assert sets.solver_stats.solver == "reference"


class TestPointerStoragesAgree:
    @settings(**_SETTINGS)
    @given(st.integers(0, 500))
    def test_generated(self, seed):
        assert_storages_agree(_module_for(seed))

    @settings(**_SETTINGS)
    @given(st.integers(0, 500))
    def test_generated_pointer_heavy(self, seed):
        assert_storages_agree(
            _module_for(seed, GeneratorParams().pointer_heavy(), f"heavy{seed}")
        )

    def test_memory_profile_is_recorded(self):
        stats = analyze_pointers(_module_for(42)).solver_stats
        assert stats.bytes_pts > 0
        assert stats.peak_rss > 0
        summary = stats.format_memory_summary()
        assert f"{stats.bytes_pts:,d}" in summary

"""Differential suite: scheduling and batching are invisible.

The pointer analysis has one solver path — the wave-scheduled
:class:`~repro.analysis.andersen.DeltaSolver` — and the demand engine
answers both one site at a time and in batches.  The contract is that
the order work arrives in changes no result, only wall-clock and work
profiles.  Checked here over the bundled workloads,
hypothesis-generated programs and the pointer-heavy corpus:

* the wave schedule reaches the same fixpoint as the
  :class:`~repro.analysis.andersen.ReferenceSolver`'s naive worklist,
  and the same fixpoint again when the module's functions are inserted
  in reverse order (so constraints are generated in reverse function
  order);
* batched ``query_sites`` returns the one-site-at-a-time verdicts and
  leaves a memo whose entries all agree with a fresh engine;
* the end-to-end API produces the same Γ verdicts and instrumentation
  plans whichever solver ran, and ``REPRO_JOBS`` / ``REPRO_TIER`` /
  ``REPRO_STORAGE`` in the environment change nothing.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import analyze_pointers
from repro.api import analyze
from repro.core import UsherConfig, prepare_module, run_usher
from repro.opt import run_pipeline
from repro.options import AnalysisOptions
from repro.tinyc import compile_source
from repro.vfg.demand import DemandEngine
from repro.workloads import WORKLOADS, GeneratorParams, generate_program

from tests.helpers import CORPUS_PARAMS as _PARAMS

_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _module_for(seed, params=_PARAMS, name=None):
    module = compile_source(generate_program(seed, params), name or f"seed{seed}")
    run_pipeline(module, "O0+IM")
    return module


def _workload_module(workload):
    module = compile_source(workload.source(0.1), workload.name)
    run_pipeline(module, "O0+IM")
    return module


def _normalize(result):
    """Snapshot of everything the solvers must agree on —
    including ``alloc_objects`` list *order*, which plan construction
    and clone bookkeeping consume."""
    return (
        {node: frozenset(locs) for node, locs in result.pts.items()},
        {uid: frozenset(t) for uid, t in result.call_targets.items()},
        frozenset(result.wrappers),
        {uid: tuple(objs) for uid, objs in result.alloc_objects.items()},
    )


def _fixpoint(result):
    """The order-free part of :func:`_normalize`: what any schedule of
    the same constraints must reach (``alloc_objects`` compared as
    sets, since their order follows the generation order)."""
    pts, targets, wrappers, objects = _normalize(result)
    return pts, targets, wrappers, {
        uid: frozenset(objs) for uid, objs in objects.items()
    }


def _reversed_analysis(module):
    """``analyze_pointers`` over a copy of ``module`` whose functions
    are inserted in reverse order, so every function's constraints are
    generated (and scheduled) in the opposite order."""
    flipped = copy.deepcopy(module)
    flipped.functions = dict(reversed(list(flipped.functions.items())))
    return analyze_pointers(flipped)


def _plan_snapshot(plan):
    return (
        {func: tuple(ops) for func, ops in plan.entry_ops.items()},
        {
            uid: (tuple(ops.pre), tuple(ops.post))
            for uid, ops in plan.ops.items()
        },
    )


# -- solver: schedule differentials --------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_schedules_agree_on_workload_corpus(workload):
    """The fixpoint does not depend on the order the constraints are
    scheduled in: function order and reverse function order agree."""
    module = _workload_module(workload)
    wave = analyze_pointers(module)
    assert list(module.functions)[0] != list(module.functions)[-1]
    assert _fixpoint(wave) == _fixpoint(_reversed_analysis(module))
    assert wave.solver_stats.solver == "delta"
    assert wave.solver_stats.waves > 0


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**_SETTINGS)
def test_schedules_and_jobs_agree_on_random_programs(seed):
    module = _module_for(seed)
    wave = analyze_pointers(module)
    reference = analyze_pointers(module, use_reference=True)
    baseline = _normalize(wave)
    assert _normalize(reference) == baseline, seed
    assert _fixpoint(_reversed_analysis(module)) == _fixpoint(wave), seed


@pytest.mark.parametrize("seed", [3, 5, 11])
def test_wave_agrees_and_reduces_pops_on_pointer_heavy_corpus(seed):
    """The wave schedule must agree with the reference worklist on the
    corpus built to stress it (hub cells, copy cycles) — and actually
    do less work there: fewer pops is the whole point of deep
    propagation."""
    params = GeneratorParams().scaled(3).pointer_heavy()
    module = _module_for(seed, params, name=f"heavy{seed}")
    wave = analyze_pointers(module)
    reference = analyze_pointers(module, use_reference=True)
    assert _normalize(wave) == _normalize(reference)
    assert wave.solver_stats.waves > 0
    assert wave.solver_stats.peak_wave_width > 0
    assert wave.solver_stats.pops < reference.solver_stats.pops, (
        wave.solver_stats.pops,
        reference.solver_stats.pops,
    )


# -- demand engine: batched queries ---------------------------------------


def _vfg_for_seed(seed):
    module = _module_for(seed)
    prepared = prepare_module(module)
    return run_usher(prepared, UsherConfig.tl_at()).vfg


def _one_at_a_time(vfg, **engine_args):
    """Each site asked of its own fresh engine: no memo is shared."""
    verdicts = {}
    for site in vfg.check_sites:
        ok = DemandEngine(vfg, **engine_args).is_defined(site.node)
        verdicts[site.instr_uid] = verdicts.get(site.instr_uid, True) and ok
    return verdicts


@pytest.mark.parametrize("resolver", ["callstring", "summary"])
def test_parallel_query_sites_matches_serial(resolver):
    batched_sites = 0
    for seed in (2, 9, 17):
        vfg = _vfg_for_seed(seed)
        if len(vfg.check_sites) < 2:
            continue
        batched_sites += len(vfg.check_sites)
        engine = DemandEngine(vfg, resolver=resolver)
        assert engine.query_sites(vfg.check_sites) == _one_at_a_time(
            vfg, resolver=resolver
        ), (seed, resolver)
    assert batched_sites


def test_merged_memo_is_sound():
    """Every verdict the batch left in the memo must agree with a fresh
    engine — the memo-sharing argument made executable."""
    vfg = _vfg_for_seed(4)
    assert len(vfg.check_sites) >= 2
    batched = DemandEngine(vfg)
    batched.query_sites(vfg.check_sites)
    for site in vfg.check_sites:
        probe = DemandEngine(vfg)
        assert batched.is_defined(site.node) == probe.is_defined(site.node)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**_SETTINGS)
def test_parallel_queries_match_serial_on_random_programs(seed):
    vfg = _vfg_for_seed(seed)
    engine = DemandEngine(vfg)
    assert engine.query_sites(vfg.check_sites) == _one_at_a_time(vfg), seed


# -- end to end: identical plans and verdicts -----------------------------


def _assert_same_plans(base, other):
    assert set(base.plans) == set(other.plans)
    for name in base.plans:
        assert _plan_snapshot(base.plans[name]) == _plan_snapshot(
            other.plans[name]
        ), name


def test_api_jobs_produces_identical_plans_and_verdicts():
    source = generate_program(13, _PARAMS)
    options = AnalysisOptions(demand=True)
    wave = analyze(source=source, options=options)
    reference = analyze(
        source=source, options=options, use_reference_solver=True
    )
    _assert_same_plans(wave, reference)
    checked = 0
    for name, result in wave.results.items():
        other = reference.results[name]
        for site in result.vfg.check_sites:
            checked += 1
            assert result.gamma.is_defined(site.node) == other.gamma.is_defined(
                site.node
            ), (name, site.instr_uid)
    assert checked


def test_repro_jobs_env_is_invisible(monkeypatch):
    source = generate_program(21, _PARAMS)
    options = AnalysisOptions(demand=True)
    baseline = analyze(source=source, options=options)
    monkeypatch.setenv("REPRO_JOBS", "2")
    monkeypatch.setenv("REPRO_TIER", "unified")
    monkeypatch.setenv("REPRO_STORAGE", "compressed")
    enved = analyze(source=source, options=options)
    _assert_same_plans(baseline, enved)

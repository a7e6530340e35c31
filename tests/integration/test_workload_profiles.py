"""Per-workload profile tests: each benchmark's defining character.

The workloads substitute for SPEC CPU2000 by reproducing the profile
parameters Table 1 and §4.5 identify as driving the results.  These
tests pin those structural properties so future edits to the workloads
can't silently lose the distribution the figures depend on.
"""

import pytest

from repro.analysis.memobjects import GLOBAL, HEAP
from repro.api import analyze
from repro.bench.scheduler import nodes_reaching_checks
from repro.ir import instructions as ins
from repro.workloads import WORKLOADS, workload

SCALE = 0.1


@pytest.fixture(scope="module")
def runs():
    return {
        w.name: analyze(source=w.source(SCALE), name=w.name)
        for w in WORKLOADS
    }


def objects_of(run):
    return run.prepared.pointers.all_objects()


class TestProfiles:
    def test_mcf_everything_initialized(self, runs):
        """181.mcf allocates only calloc'd records (the one malloc'd
        array is the heap-cloning-ablation tombstone table) → ~0%
        slowdown."""
        heap = [o for o in objects_of(runs["181.mcf"]) if o.kind == HEAP]
        assert heap
        records = [o for o in heap if not o.is_array]
        assert records and all(o.initialized for o in records)

    def test_gap_everything_uninitialized(self, runs):
        """254.gap's arena hands out raw malloc blocks (high %F)."""
        heap = [o for o in objects_of(runs["254.gap"]) if o.kind == HEAP]
        assert heap
        assert all(not o.initialized for o in heap)

    def test_mesa_is_heap_heavy(self, runs):
        """177.mesa allocates per span (many heap allocations at
        run time, as Table 1's 2417 heap variables suggest)."""
        run = runs["177.mesa"]
        allocs = sum(
            1
            for uid, origin in run.prepared.pointers.alloc_objects.items()
            for o in origin
            if o.kind == HEAP
        )
        assert allocs >= 2
        # Dynamically: one vertex pair per frame.
        interp_allocs = [
            o for o in objects_of(run) if o.kind == HEAP
        ]
        assert interp_allocs

    def test_crafty_is_bitwise_dense(self, runs):
        """186.crafty: bitwise ops dominate its arithmetic (limits
        Opt I, §4.1)."""
        module = runs["186.crafty"].module
        binops = [
            i for i in module.instructions() if isinstance(i, ins.BinOp)
        ]
        bitwise = [i for i in binops if i.op in ("&", "|", "^", "<<", ">>")]
        assert len(bitwise) / len(binops) > 0.25

    def test_perlbmk_has_highest_reach(self, runs):
        """253.perlbmk: the largest share of VFG nodes reaching a
        needed check (paper: 84%)."""
        shares = {}
        for name, run in runs.items():
            result = run.results["usher_tl_at"]
            shares[name] = len(nodes_reaching_checks(result)) / max(
                result.vfg.num_nodes, 1
            )
        top_two = sorted(shares, key=shares.get, reverse=True)[:2]
        assert "253.perlbmk" in top_two, shares

    def test_gcc_has_widest_indirect_dispatch(self, runs):
        """176.gcc dispatches through a 5-entry function-pointer table."""
        cg = runs["176.gcc"].prepared.callgraph
        widths = [len(t) for t in cg.callees.values()]
        assert max(widths) >= 5

    def test_parser_is_the_only_buggy_workload(self, runs):
        for name, run in runs.items():
            bug = bool(run.run_native().true_undefined_uses)
            assert bug == (name == "197.parser"), name

    def test_twolf_uses_semi_strong_updates(self, runs):
        stats = runs["300.twolf"].results["usher_tl_at"].vfg.stats
        assert stats.semi_strong_applied >= 1

    def test_every_workload_exercises_memory(self, runs):
        for name, run in runs.items():
            module = run.module
            assert any(
                isinstance(i, ins.Load) for i in module.instructions()
            ), name
            assert any(
                isinstance(i, ins.Store) for i in module.instructions()
            ), name

    def test_globals_present_for_strong_updates(self, runs):
        """Most workloads keep a global scalar counter: the strong-update
        population Table 1's %SU column measures."""
        with_globals = [
            name
            for name, run in runs.items()
            if any(o.kind == GLOBAL for o in objects_of(run))
        ]
        assert len(with_globals) >= 12

    def test_workload_sources_are_distinct(self):
        sources = {w.name: w.source(0.1) for w in WORKLOADS}
        assert len(set(sources.values())) == len(sources)

    def test_scaling_changes_trip_counts_only(self):
        w = workload("164.gzip")
        small, large = w.source(0.1), w.source(1.0)
        assert small != large
        assert len(small.splitlines()) == len(large.splitlines())

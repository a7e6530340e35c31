"""Benchmark: a warm demand engine vs a cold one per batch.

The service acceptance gate: on a factor-16 generated program, a
session's worth of ``query_sites`` batches answered by one demand
engine that stays resident — its memo table survives from batch to
batch, which is what :class:`repro.service.session.AnalysisSession`
keeps between requests — must beat the same batches answered by a
fresh engine each, the status quo before ``repro serve``, where each
request re-analyzes from scratch.

Both timings are *per batch*, averaged over the same ``BATCHES``
identical batches (the warm one includes its first, cold batch), which
is the quantity a service client observes.  Each run appends one JSON
line to ``benchmarks/results/service_stats.jsonl``; the record's
``warm_seconds < cold_seconds`` invariant is re-checked by
``tools/diff_solver_stats.py`` in CI (kind ``service``).
"""

import time
from pathlib import Path

from repro.core import UsherConfig, prepare_module, run_usher
from repro.obs.registry import write_stats_row
from repro.opt import run_pipeline
from repro.tinyc import compile_source
from repro.vfg.demand import DemandEngine
from repro.workloads import GeneratorParams, generate_program

RESULTS_DIR = Path(__file__).parent / "results"
SERVICE_STATS_LOG = RESULTS_DIR / "service_stats.jsonl"

SEED = 11
FACTOR = 16
BATCHES = 8


def build_vfg(seed: int, factor: int):
    params = GeneratorParams().scaled(factor)
    module = compile_source(generate_program(seed, params), f"gen{seed}")
    run_pipeline(module, "O0+IM")
    prepared = prepare_module(module)
    return run_usher(prepared, UsherConfig.tl_at()).vfg


def record_service_stats(benchmark: str, seed: int, factor: int, **extra):
    return write_stats_row(
        SERVICE_STATS_LOG, benchmark, seed, factor, **extra
    )


class TestWarmEngineBeatsCold:
    def test_session_of_batches_amortized(self):
        vfg = build_vfg(SEED, FACTOR)
        sites = vfg.check_sites
        assert sites, "factor-16 program must have check sites"

        # Status quo: every batch pays a fresh engine (what a
        # from-scratch `repro check --demand` does per request).
        started = time.perf_counter()
        for _ in range(BATCHES):
            cold_verdicts = DemandEngine(vfg, context_depth=1).query_sites(
                sites
            )
        cold_seconds = (time.perf_counter() - started) / BATCHES

        # The service: one engine, its memo resident across batches.
        engine = DemandEngine(vfg, context_depth=1)
        batch_seconds = []
        for _ in range(BATCHES):
            batch_started = time.perf_counter()
            warm_verdicts = engine.query_sites(sites)
            batch_seconds.append(time.perf_counter() - batch_started)
        warm_seconds = sum(batch_seconds) / BATCHES

        assert warm_verdicts == cold_verdicts
        record = record_service_stats(
            "service_warm_engine",
            SEED,
            FACTOR,
            batches=BATCHES,
            sites=len(sites),
            uids=len(cold_verdicts),
            cold_seconds=round(cold_seconds, 6),
            warm_seconds=round(warm_seconds, 6),
            warm_first_seconds=round(batch_seconds[0], 6),
            warm_later_seconds=round(min(batch_seconds[1:]), 6),
        )
        assert record["warm_seconds"] < record["cold_seconds"], (
            f"warm engine ({warm_seconds:.4f}s/batch) must beat a cold "
            f"one ({cold_seconds:.4f}s/batch) once its memo is resident"
        )

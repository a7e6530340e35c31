"""Shared fixtures for the experiment benchmarks.

``REPRO_SCALE`` (default 0.5) scales every workload's "reference input"
— 1.0 reproduces the full-size experiments, smaller values keep CI
fast.  The paper's figures come from ``repro bench`` rows (one per
workload × configuration cell, :func:`repro.bench.run_cell`); each
matrix runs once per session so the pytest-benchmark timings measure
one well-defined piece of work each.
"""

import os
from pathlib import Path

import pytest

SCALE = float(os.environ.get("REPRO_SCALE", "0.5"))

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def record_table():
    """Persist a reproduced table under benchmarks/results/ (so the
    artifacts survive pytest's output capturing)."""

    def _record(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _record


@pytest.fixture(scope="session")
def scale():
    return SCALE


#: MSan and the paper's four Usher configurations.
PAPER_CONFIGS = ("msan", "tl", "tl_at", "opt_i", "full")


@pytest.fixture(scope="session")
def bench_rows(scale):
    """``bench_rows(level, configs)``: the bench rows of the 15
    SPEC2000-shaped workloads at ``scale``, run once per session."""
    from repro.bench import MatrixSpec, run_matrix
    from repro.workloads import WORKLOADS

    cache = {}

    def rows(level="O0+IM", configs=PAPER_CONFIGS):
        key = (level, tuple(configs))
        if key not in cache:
            spec = MatrixSpec(
                workloads=[w.name for w in WORKLOADS],
                configs=configs,
                scale=scale,
                level=level,
            )
            cache[key] = run_matrix(spec.expand())
            assert all(row["status"] == "ok" for row in cache[key])
        return cache[key]

    return rows


@pytest.fixture(scope="session")
def paper_rows(bench_rows):
    """The O0+IM paper matrix: Figures 10/11 and Table 1."""
    return bench_rows()

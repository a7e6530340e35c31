"""``repro bench``: the scenario-factory benchmark orchestrator.

One declarative :class:`~repro.bench.matrix.MatrixSpec` — workloads ×
configs — expands into
:class:`~repro.bench.matrix.Cell` objects, executes across a process
pool with per-cell timeouts and crash isolation
(:mod:`repro.bench.scheduler`), lands schema-stamped rows in a JSONL
log (:mod:`repro.bench.collector`), aggregates the paper-style tables
(:mod:`repro.bench.report`), and gates against a committed baseline
(:mod:`repro.bench.baseline`).  Oracle-minimized reproducers graduate
into the permanent corpus through :mod:`repro.bench.promote`.
"""

from repro.bench.baseline import diff_rows, load_rows
from repro.bench.collector import write_rows
from repro.bench.matrix import (
    BenchSpecError,
    CONFIG_SPECS,
    Cell,
    MatrixSpec,
    SPEC_TO_CONFIG,
)
from repro.bench.promote import promote
from repro.bench.report import format_bench_report
from repro.bench.scheduler import error_row, run_cell, run_matrix

__all__ = [
    "BenchSpecError",
    "CONFIG_SPECS",
    "Cell",
    "MatrixSpec",
    "SPEC_TO_CONFIG",
    "diff_rows",
    "error_row",
    "format_bench_report",
    "load_rows",
    "promote",
    "run_cell",
    "run_matrix",
    "write_rows",
]

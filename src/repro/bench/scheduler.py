"""Cell execution: one worker process per cell, crash-isolated.

:func:`run_cell` is the measurement itself — resolve the workload (the
registry's 19 programs or an oracle-bred corpus seed), run the full
pipeline under the cell's configuration, execute instrumented,
and return one flat row of counters.  :func:`run_matrix` drives a
bounded pool of **fork-started processes, one per cell**: a cell that
raises, dies, or overruns its timeout becomes a ``status: "error"``
row and the run continues — a 200-cell sweep must never lose 199
results to one pathological cell.

Fork-per-cell (rather than a reusable worker pool) is deliberate:

- a crashed or wedged interpreter cannot poison later cells — each
  cell gets a pristine process;
- timeouts are enforceable with ``terminate()`` without killing a
  shared worker mid-queue;
- monkeypatched measurement functions propagate to workers through
  fork copy-on-write, which is what lets the crash-isolation tests
  inject faults without plumbing.

On platforms without ``fork`` (or with ``pool=1``) execution degrades
to in-process, still exception-isolated per cell; rows are identical
because a cell's result does not depend on the process it ran in —
the pool only buys wall-clock and crash isolation.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Callable, Dict, List, Optional

from repro.bench.matrix import BenchSpecError, Cell

#: Default per-cell wall-clock budget (seconds) in process mode.
DEFAULT_TIMEOUT = 300.0

#: Poll interval while waiting on worker pipes (seconds).
_POLL_S = 0.02


def fork_available() -> bool:
    """Whether fork-started worker processes exist on this platform
    (POSIX)."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_workload(name: str, corpus_dir=None):
    """Resolve a cell's workload name: the registry's generated
    programs first, then the oracle-bred corpus.  Returns
    ``("workload", Workload)`` or ``("corpus", CorpusSeed)``."""
    from repro.workloads import BY_NAME
    from repro.workloads.corpus import load_corpus

    if name in BY_NAME:
        return "workload", BY_NAME[name]
    for seed in load_corpus(corpus_dir):
        if seed.name == name:
            return "corpus", seed
    known = sorted(BY_NAME) + [s.name for s in load_corpus(corpus_dir)]
    raise BenchSpecError(
        f"unknown workload {name!r} (known: {', '.join(known)})"
    )


def error_row(cell: Cell, message: str, elapsed: float = 0.0) -> Dict:
    """The row shape of a failed cell: identity, error, no counters."""
    row = cell.identity()
    row.update(status="error", error=message, elapsed=round(elapsed, 6))
    return row


def run_cell(cell: Cell, corpus_dir=None) -> Dict:
    """Execute one cell end to end and return its flat counter row.

    Registry workloads render TinyC at the cell's scale and go through
    ``analyze(source=...)``; corpus seeds parse as printed IR and run
    the oracle's pipeline level (``FUZZ_PIPELINE``), so a corpus
    cell's warned set is exactly the manifest's pinned set — the same
    contract ``repro fuzz --module`` replays.  Raises on failure; the
    scheduler turns that into an error row.
    """
    from repro.api import analyze

    started = time.perf_counter()
    kind, obj = resolve_workload(cell.workload, corpus_dir)
    config = cell.analysis_config
    if kind == "corpus":
        from repro.ir.parser import parse_ir
        from repro.oracle.harness import FUZZ_PIPELINE

        analysis = analyze(
            module=parse_ir(obj.text()),
            name=cell.workload,
            level=FUZZ_PIPELINE,
            configs=[config],
        )
    else:
        analysis = analyze(
            source=obj.source(cell.scale),
            name=cell.workload,
            configs=[config],
        )
    report = analysis.run(config)
    plan = analysis.plans[config]
    solver = analysis.prepared.solver_stats
    row = cell.identity()
    row.update(
        status="ok",
        warned_uids=sorted(report.warning_set()),
        warnings=len(report.warning_set()),
        checks=plan.count_checks(),
        propagations=plan.count_propagations(),
        native_ops=report.native_ops,
        slowdown_percent=round(analysis.slowdown(config), 3),
        pops=solver.pops if solver is not None else 0,
        facts_propagated=(
            solver.facts_propagated if solver is not None else 0
        ),
        elapsed=round(time.perf_counter() - started, 6),
    )
    return row


def _child(cell: Cell, corpus_dir, conn) -> None:
    """Worker body: measure, or report the exception as an error row.
    Runs in a forked child; the pipe is its only output channel."""
    started = time.perf_counter()
    try:
        row = run_cell(cell, corpus_dir)
    except BaseException as error:  # the row IS the crash report
        row = error_row(
            cell,
            f"{type(error).__name__}: {error}",
            elapsed=time.perf_counter() - started,
        )
    try:
        conn.send(row)
    finally:
        conn.close()


def _run_serial(
    cells: List[Cell], corpus_dir, log: Callable[[str], None]
) -> List[Dict]:
    rows: List[Dict] = []
    for cell in cells:
        started = time.perf_counter()
        try:
            row = run_cell(cell, corpus_dir)
        except Exception as error:
            row = error_row(
                cell,
                f"{type(error).__name__}: {error}",
                elapsed=time.perf_counter() - started,
            )
        log(_describe(row))
        rows.append(row)
    return rows


def _describe(row: Dict) -> str:
    if row["status"] == "ok":
        return (
            f"  {row['cell']}: ok, {row['warnings']} warning(s), "
            f"{row['checks']} checks, {row['elapsed']:.2f}s"
        )
    return f"  {row['cell']}: ERROR {row['error']}"


def run_matrix(
    cells: List[Cell],
    pool: int = 1,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    corpus_dir=None,
    log: Optional[Callable[[str], None]] = None,
) -> List[Dict]:
    """Execute every cell; one row per cell, in matrix order.

    ``pool`` bounds concurrent worker processes; ``timeout`` is the
    per-cell wall-clock budget (process mode only — ``None`` disables
    it).  Failed cells come back as error rows; the function itself
    raises only on programmer error.
    """
    say = log if log is not None else (lambda message: None)
    # Validate every workload name up front: an unknown name is a spec
    # error for the *whole* run, not 40 error rows deep into it.
    for name in {cell.workload for cell in cells}:
        resolve_workload(name, corpus_dir)
    if pool <= 1 or not fork_available():
        return _run_serial(cells, corpus_dir, say)

    ctx = multiprocessing.get_context("fork")
    queue = list(cells)
    next_index = 0
    running: Dict = {}  # proc -> (index, cell, conn, deadline)
    rows: List[Optional[Dict]] = [None] * len(cells)
    try:
        while next_index < len(queue) or running:
            while next_index < len(queue) and len(running) < pool:
                cell = queue[next_index]
                parent, child = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_child, args=(cell, corpus_dir, child)
                )
                proc.start()
                child.close()
                deadline = (
                    time.monotonic() + timeout if timeout else None
                )
                running[proc] = (next_index, cell, parent, deadline)
                next_index += 1
            finished = []
            for proc, (index, cell, conn, deadline) in running.items():
                row: Optional[Dict] = None
                if conn.poll(0):
                    try:
                        row = conn.recv()
                    except EOFError:
                        row = error_row(
                            cell, "worker closed the pipe without a row"
                        )
                elif not proc.is_alive():
                    row = error_row(
                        cell,
                        f"worker crashed (exit code {proc.exitcode})",
                    )
                elif deadline is not None and time.monotonic() > deadline:
                    proc.terminate()
                    row = error_row(
                        cell, f"timeout after {timeout:g}s", elapsed=timeout
                    )
                if row is not None:
                    proc.join()
                    conn.close()
                    rows[index] = row
                    say(_describe(row))
                    finished.append(proc)
            for proc in finished:
                del running[proc]
            if not finished:
                time.sleep(_POLL_S)
    finally:
        for proc in running:
            proc.terminate()
            proc.join()
    # Every slot is filled: each worker ends in exactly one of the
    # three arms above.  The assert documents the invariant.
    assert all(row is not None for row in rows)
    return rows  # type: ignore[return-value]


__all__ = [
    "DEFAULT_TIMEOUT",
    "error_row",
    "resolve_workload",
    "run_cell",
    "run_matrix",
]

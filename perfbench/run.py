"""The repository's benchmark: one workload per call, checked as it runs.

    python3 perfbench/run.py --workload spec_suite --seed 1 --seconds 36 --trace 0

Run it from the repository root.  ``--trace 0`` times the workload's
fixed work with no hook installed, in this process on one CPU and in a
forked twin on the other (:func:`fork_twin`), and prints every
end-to-end metric;
``--trace 1`` runs it twice untraced and twice with the layer hooks of
``spans.py`` installed, and prints the per-layer table, the
unattributed remainder and the tracing overhead.  Either way the last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The knobs that choose the analysis path are fixed (:data:`PINNED_ENV`)
whatever the caller's environment holds, so a run always measures the
same workload.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from measure import (  # noqa: E402
    Tally, at_reference_speed, best_of, ratio, root_seconds, self_times, time_reference,
)
from spans import Tracer, installed, seconds_per_span  # noqa: E402

WORKLOADS = ("spec_suite", "serve_edits")

#: Fresh processes timed from start to ready; ``setup_s`` is their median.
SETUP_PROBES = 6

#: Reference loops timed right before and right after each timed pass.
REFERENCE_SAMPLES = 10

#: The analysis-path knobs ``repro.options`` reads from the environment,
#: at the values every workload is defined with: one process (forked
#: workers would inherit :func:`pin_to_cpu`'s single CPU), the full
#: tier, int points-to storage.  ``None`` removes the variable, so the
#: committed corpus under ``tests/data/corpus`` is the one loaded.
PINNED_ENV = {
    "REPRO_JOBS": "1",
    "REPRO_TIER": "full",
    "REPRO_STORAGE": "int",
    "REPRO_CORPUS_DIR": None,
    # Requests go to the in-process server on loopback, never a proxy.
    "no_proxy": "*",
}

#: Passes of a traced run, in order, ``True`` for a traced one.  On two
#: CPUs (see :func:`pin_to_cpu`) each kind runs once on each CPU.
TRACED_PLAN = (False, True, True, False)

#: Layers in the order of the pipeline, then the service around it.
LAYERS = (
    "parse", "opt_pipeline", "pointer_analysis", "memssa", "vfg.build",
    "gamma", "opt2", "instrument", "execute.native", "execute.shadow",
    "session.open", "session.update", "session.query", "session.explain",
    "serve.http",
)


def load_workload(name: str):
    if name == "spec_suite":
        from spec_suite import SpecSuite
        return SpecSuite
    from serve_edits import ServeEdits
    return ServeEdits


def measure_setup(args) -> Tuple[float, List[float]]:
    """Median seconds for a fresh interpreter to import the program and
    build the workload's inputs (and, for ``serve_edits``, bind its
    server): process start to the point where the first timed operation
    would begin, with the reference loop's times right before and after
    each round of probes.  The probe prints that point on the
    system-wide monotonic clock, so neither its exit nor the wait for it
    counts.  Probes run one per CPU at a time, as the timed passes do."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    cpus = usable_cpus()[:2] or [None]
    times: List[float] = []
    reference: List[float] = []
    while len(times) < SETUP_PROBES:
        reference += time_reference(REFERENCE_SAMPLES)
        probes = []
        for cpu in cpus:
            started = time.monotonic()
            probe = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                     preexec_fn=lambda cpu=cpu: pin_to_cpu(cpu))
            probes.append((started, probe))
        for started, probe in probes:
            out, _ = probe.communicate(timeout=170)
            if probe.returncode:
                raise subprocess.CalledProcessError(probe.returncode, command)
            times.append(float(out.split()[-1]) - started)
        reference += time_reference(REFERENCE_SAMPLES)
    return statistics.median(times), reference


def pass_count(seconds: float, pass_seconds: float) -> int:
    """Passes in a run of ``seconds``: as many whole passes of the
    workload's measured ``pass_seconds`` as fit, fixed by the arguments
    and never by how fast this host happens to be, so that both sides of
    a comparison take :func:`measure.best_of` over the same count; at
    least two."""
    return max(2, int(seconds // pass_seconds))


def usable_cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin_to_cpu(cpu: Optional[int]) -> None:
    """Run every thread of this process on ``cpu``; ``None`` leaves the
    affinity alone.

    On a shared host each CPU runs at up to half its speed for
    stretches of seconds to minutes, independently of the other CPU, and
    at full speed in between.  Copies of a unit taken on both CPUs
    rarely all land in a slow stretch, so :func:`measure.best_of` over
    them reads the program, not the neighbours.
    """
    if cpu is None:
        return
    for tid in os.listdir("/proc/self/task"):
        os.sched_setaffinity(int(tid), {cpu})


def timed_passes(
    workload, tally: Tally, plan, cpus: Sequence[Optional[int]] = (None,),
    reference: Optional[List[float]] = None,
) -> List[List[float]]:
    """Unit seconds of one pass over the fixed work per entry of
    ``plan``, each pinned to the next of ``cpus``.  An entry is ``None``
    for a pass with no hook installed, or the :class:`Tracer` whose hooks
    the pass runs under.  Checks run between passes, untimed; each pass
    starts from a collected heap, so that the previous pass's garbage
    does not decide ``peak_rss_mb``.  Given a ``reference`` list, the
    reference loop is timed right before and after each pass into it."""
    timed: List[List[float]] = []
    for index, tracer in enumerate(plan):
        pin_to_cpu(cpus[index % len(cpus)])
        gc.collect()
        if reference is not None:
            reference += time_reference(REFERENCE_SAMPLES)
        if tracer is None:
            timed.append(workload.run_pass(tally, None))
        else:
            with installed(tracer):
                tracer.active = True
                try:
                    timed.append(workload.run_pass(tally, tracer))
                finally:
                    tracer.active = False
        if reference is not None:
            reference += time_reference(REFERENCE_SAMPLES)
        workload.verify(tally)
    return timed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def fork_twin(workload_class, seed: int, passes: int, cpu: int) -> Tuple[int, int]:
    """Start a process that builds its own copy of the workload and runs
    the same ``passes`` untraced passes on ``cpu``, while this process
    runs its own on the other CPU; that doubles the copies of each unit
    :func:`measure.best_of` picks from without lengthening the run.
    Call before this process starts any thread.  Returns ``(pid, fd)``
    for :func:`join_twin`."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    os.close(read_fd)
    status = 1
    try:
        workload = workload_class(seed)
        tally = Tally()
        reference: List[float] = []
        try:
            timed = timed_passes(workload, tally, [None] * passes, [cpu], reference)
        finally:
            workload.close()
        with os.fdopen(write_fd, "w") as out:
            json.dump({"passes": timed, "reference": reference,
                       "tally": dataclasses.asdict(tally), "peak_rss_mb": peak_rss_mb()}, out)
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(status)


def join_twin(twin: Tuple[int, int], tally: Tally) -> Tuple[List[List[float]], List[float], float]:
    """Wait for :func:`fork_twin`'s process; merge its operations into
    ``tally`` and return its passes, reference samples and peak RSS.  A
    twin that failed counts as one failed operation and contributes
    nothing else."""
    pid, read_fd = twin
    with os.fdopen(read_fd) as inp:
        text = inp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        tally.check(False, f"the twin process failed (wait status {status})")
        return [], [], 0.0
    result = json.loads(text)
    tally.merge(Tally(**result["tally"]))
    return result["passes"], result["reference"], result["peak_rss_mb"]


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of a traced pass, by name, with its unit.
    An unmeasured layer contributes none."""
    selves = self_times(tracer.finished_spans())
    counts = {layer: tracer.counts.get(layer, {}) for layer in LAYERS}
    seconds = {layer: selves.get(layer, (0, 0.0))[1] for layer in LAYERS}
    native, shadow, update = (
        counts["execute.native"], counts["execute.shadow"], counts["session.update"]
    )
    per_layer = {
        "parse": {"instrs": (counts["parse"].get("instrs", 0), "count")},
        "pointer_analysis": {
            "pops": (counts["pointer_analysis"].get("pops", 0), "count"),
            "facts": (counts["pointer_analysis"].get("facts", 0), "count"),
        },
        "opt2": {
            "sites": (counts["opt2"].get("sites", 0), "count"),
            "redirected_nodes": (counts["opt2"].get("redirected_nodes", 0), "count"),
        },
        "instrument": {
            "checks": (counts["instrument"].get("checks", 0), "count"),
            "propagations": (counts["instrument"].get("propagations", 0), "count"),
        },
        "execute.native": {
            "ops": (native.get("ops", 0), "count"),
            "ops_per_s": (ratio(native.get("ops", 0), seconds["execute.native"]), "1/s"),
        },
        "execute.shadow": {
            "steps": (shadow.get("steps", 0), "count"),
            "steps_per_s": (ratio(shadow.get("steps", 0), seconds["execute.shadow"]), "1/s"),
            "events": (shadow.get("events", 0), "count"),
        },
        "session.update": {
            "warm_share": (ratio(update.get("warm", 0), update.get("accepted", 0)), "share"),
            "dirty_fraction": (
                ratio(update.get("dirty_fraction_sum", 0), update.get("accepted", 0)), "share"
            ),
            "memo_carry_ratio": (
                ratio(update.get("memos_carried", 0),
                      update.get("memos_carried", 0) + update.get("memos_dropped", 0)),
                "share",
            ),
            "tapes_reused_ratio": (
                ratio(update.get("tapes_reused", 0),
                      update.get("tapes_reused", 0) + update.get("tapes_regenerated", 0)),
                "share",
            ),
        },
    }
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        if layer in tracer.unmeasured:
            continue
        metrics[f"{layer}.s"] = (seconds[layer], "s")
        for name, value in per_layer.get(layer, {}).items():
            metrics[f"{layer}.{name}"] = value
    if "vfg.build" not in tracer.unmeasured:
        metrics["vfg.nodes"] = (counts["vfg.build"].get("nodes", 0), "count")
        metrics["vfg.edges"] = (counts["vfg.build"].get("edges", 0), "count")
    return metrics


def print_layer_table(name: str, tracer: Tracer, traced_units: float, overhead: float) -> None:
    """The per-layer table of one traced pass whose timed units sum to
    ``traced_units``; every share is of that sum.  ``overhead`` is the
    measured tracing overhead; the accounted one beside it is the
    hooks' own work, which host noise does not blur."""
    spans_ = tracer.finished_spans()
    selves = self_times(spans_)
    print(f"\n== {name}: per-layer self time (traced pass, units {traced_units:.3f}s) ==")
    print(f"{'layer':<18}{'calls':>8}{'self_s':>11}{'share':>8}  counts")
    for layer in LAYERS:
        if layer in tracer.unmeasured:
            print(f"{layer:<18}{'unmeasured: a hooked public name is missing':>40}")
            continue
        calls, seconds = selves.get(layer, (0, 0.0))
        counts = " ".join(f"{k}={v:g}" for k, v in sorted(tracer.counts.get(layer, {}).items()))
        print(f"{layer:<18}{calls:>8}{seconds:>11.4f}{ratio(seconds, traced_units):>8.1%}  {counts}")
    remainder = traced_units - root_seconds(spans_)
    print(f"{'(unattributed)':<18}{'':>8}{remainder:>11.4f}{ratio(remainder, traced_units):>8.1%}")
    per_span = seconds_per_span()
    accounted = len(spans_) * per_span + tracer.counting_s
    print(
        f"tracing overhead: measured {overhead:+.4f}s "
        f"(best_of traced units minus best_of untraced units, two passes each); "
        f"accounted {accounted:.4f}s ({ratio(accounted, traced_units):.2%}: "
        f"{len(spans_)} spans x {per_span * 1e6:.2f}us + {tracer.counting_s:.4f}s counting)"
    )


def traced_run(workload, tally: Tally) -> Dict[str, Tuple[float, str]]:
    """Untraced and traced passes (:data:`TRACED_PLAN`); prints the
    table of the fastest traced pass and returns its layer metrics."""
    plan = [Tracer() if traced else None for traced in TRACED_PLAN]
    passes = timed_passes(workload, tally, plan, usable_cpus()[:2] or [None])
    traced = [(units, tracer) for units, tracer in zip(passes, plan) if tracer is not None]
    untraced = [units for units, tracer in zip(passes, plan) if tracer is None]
    overhead = best_of([units for units, _ in traced]) - best_of(untraced)
    units, tracer = min(traced, key=lambda pair: sum(pair[0]))
    print_layer_table(workload.name, tracer, sum(units), overhead)
    print("passes: " + ", ".join(
        f"{'traced' if traced_ else 'untraced'} {sum(pass_units):.3f}s"
        for traced_, pass_units in zip(TRACED_PLAN, passes)
    ))
    return layer_metrics(tracer)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for name, value in PINNED_ENV.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    try:
        workload_class = load_workload(args.workload)
    except ImportError as exc:
        print(f"perfbench: cannot import the program under src/: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workload = workload_class(args.seed)
        print(time.monotonic(), flush=True)
        workload.close()
        return 0

    tally = Tally()
    if args.trace:
        workload = workload_class(args.seed)
        try:
            metrics = traced_run(workload, tally)
        finally:
            workload.close()
    else:
        setup_s = at_reference_speed(*measure_setup(args))
        passes = pass_count(args.seconds, workload_class.pass_seconds)
        cpus = usable_cpus()
        twin = fork_twin(workload_class, args.seed, passes, cpus[1]) if len(cpus) > 1 else None
        reference: List[float] = []
        try:
            workload = workload_class(args.seed)
            try:
                own = timed_passes(
                    workload, tally, [None] * passes, cpus[:1] or [None], reference
                )
            finally:
                workload.close()
        finally:
            twins, twin_reference, twin_rss = join_twin(twin, tally) if twin else ([], [], 0.0)
        raw = best_of(own + twins)
        reference += twin_reference
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (at_reference_speed(raw, reference), "s"),
            "peak_rss_mb": (max(peak_rss_mb(), twin_rss), "MB"),
            "usher_static_ops": (workload.static_ops, "count"),
        }
        totals = ", ".join(f"{sum(units):.3f}s" for units in own)
        twin_totals = ", ".join(f"{sum(units):.3f}s" for units in twins) or "none"
        print(f"\n== {args.workload}: {workload.inputs()}; passes {totals}; twin {twin_totals} ==")
        samples = {"setup_s": SETUP_PROBES, "wall_s": len(own) + len(twins)}
        rows = [(k, v, u, samples.get(k, 1)) for k, (v, u) in metrics.items()]
        rows.append(("wall_measured_s", raw, "s", len(own) + len(twins)))
        rows.append(("reference_loop_ms", 1000 * statistics.median(reference), "ms", len(reference)))
        rows += workload.report()
        for name, value, unit, count in rows:
            shown = "n/a (too few samples)" if value is None else f"{value:.6g}"
            print(f"{name:<20}{shown:>24} {unit:<6} n={count}")
        for line in workload.notes():
            print(line)
    print(
        f"{'ops_failed_share':<20}{tally.failed_share:>24.6g} share  "
        f"failed={tally.failed} attempted={tally.attempted}"
    )
    for line in tally.failures[:20]:
        print(f"  FAILED: {line}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

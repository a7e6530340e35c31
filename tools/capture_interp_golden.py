#!/usr/bin/env python
"""Pin the interpreter's reports as sha256 goldens.

Every run the interpreter can be asked to make on the bench programs is
reduced to one digest: of ``(outputs, exit_value, native_ops, steps,
true_undefined_uses, warnings, events)`` when it completes, or of
``(exception type, message)`` when it raises.  The runs cover:

- ``workload/<name>``: the 19 bench workloads at scale 0.25;
- ``corpus/<name>``: every committed corpus seed (parsed IR, ``O0+IM``);
- ``seed/<n>``: 200 random fuzz-corpus programs;

each run natively and under the five ``CONFIG_ORDER`` plans, at the
default step limit and at ``max_steps=3000`` (so ``StepLimitExceeded``
is pinned too), plus

- ``drop/<n>``: 60 random programs under their ``msan`` and ``usher``
  plans with seeded random shadow-op drops, which pins the
  ``ShadowProtocolError`` messages of corrupted plans.

The output is a pure function of the tree: keys are sorted, nothing
time- or host-dependent is recorded, and every random choice comes from
a string-seeded ``random.Random``.  Re-pin only on purpose, after a
change that is meant to alter what the interpreter reports::

    python tools/capture_interp_golden.py            # write
    python tools/capture_interp_golden.py --check    # compare
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro import api  # noqa: E402
from repro.core.plan import InstrOps, InstrumentationPlan  # noqa: E402
from repro.ir import parser  # noqa: E402
from repro.oracle.harness import FUZZ_PARAMS  # noqa: E402
from repro.runtime import run_instrumented, run_native  # noqa: E402
from repro.workloads import ALL_WORKLOADS, generate_program  # noqa: E402
from repro.workloads.corpus import load_corpus  # noqa: E402

DEFAULT_OUT = ROOT / "tests" / "data" / "interp_golden.json"
SCHEMA = "repro.interp_golden/1"

WORKLOAD_SCALE = 0.25
RANDOM_SEEDS = 200
DROP_SEEDS = 60
DROP_CONFIGS = ("msan", "usher")
DROP_VARIANTS = 4
#: ``None`` is each entry point's own default limit.
LIMITS: Tuple[Optional[int], ...] = (None, 3000)

#: (key, thunk producing an ExecutionReport or raising)
Case = Tuple[str, Callable[[], object]]


def digest(thunk: Callable[[], object]) -> str:
    """sha256 of one run's observable outcome."""
    try:
        report = thunk()
    except Exception as exc:  # the outcome being pinned
        payload = ["raised", type(exc).__name__, str(exc)]
    else:
        events = report.events
        payload = [
            report.outputs,
            report.exit_value,
            report.native_ops,
            report.steps,
            report.true_undefined_uses,
            report.warnings,
            [events.shadow_reads, events.shadow_writes, events.checks],
        ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _runs(prefix: str, analysis: api.Analysis) -> Iterator[Case]:
    module = analysis.module
    for limit in LIMITS:
        tag = "default" if limit is None else f"max{limit}"
        kwargs = {} if limit is None else {"max_steps": limit}
        yield (
            f"{prefix}/native/{tag}",
            lambda kwargs=kwargs: run_native(module, **kwargs),
        )
        for config in api.CONFIG_ORDER:
            plan = analysis.plans[config]
            yield (
                f"{prefix}/{config}/{tag}",
                lambda plan=plan, kwargs=kwargs: run_instrumented(
                    module, plan, **kwargs
                ),
            )


def drop_ops(plan: InstrumentationPlan, rng: random.Random, count: int):
    """A copy of ``plan`` with ``count`` randomly chosen shadow ops
    removed (entry ops and per-instruction ops alike)."""
    clone = InstrumentationPlan(f"{plan.name}-drop{count}")
    for func, ops in plan.entry_ops.items():
        clone.entry_ops[func] = list(ops)
    for uid, instr_ops in plan.ops.items():
        clone.ops[uid] = InstrOps(list(instr_ops.pre), list(instr_ops.post))
    places: List[List] = [clone.entry_ops[f] for f in sorted(clone.entry_ops)]
    for uid in sorted(clone.ops):
        places += [clone.ops[uid].pre, clone.ops[uid].post]
    occupied = [(p, i) for p in places for i in range(len(p))]
    for ops, index in sorted(
        rng.sample(occupied, min(count, len(occupied))),
        key=lambda item: -item[1],
    ):
        del ops[index]
    return clone


def iter_cases(
    programs: bool = True, seeds: Iterable[int] = range(RANDOM_SEEDS)
) -> Iterator[Case]:
    """Pinned runs, lazily (one program analyzed at a time): the
    workload and corpus groups when ``programs`` is set, then the
    ``seed`` group of every seed in ``seeds`` and the ``drop`` group of
    those below ``DROP_SEEDS``."""
    if programs:
        for workload in ALL_WORKLOADS:
            analysis = api.analyze(
                source=workload.source(WORKLOAD_SCALE),
                name=workload.name,
                level="O0+IM",
            )
            yield from _runs(f"workload/{workload.name}", analysis)
        for entry in load_corpus():
            module = parser.parse_ir(entry.text())
            module.name = entry.name
            analysis = api.analyze(module=module, level="O0+IM")
            yield from _runs(f"corpus/{entry.name}", analysis)
    for seed in seeds:
        analysis = api.analyze(
            source=generate_program(seed, FUZZ_PARAMS), name=f"seed{seed}"
        )
        yield from _runs(f"seed/{seed}", analysis)
        if seed >= DROP_SEEDS:
            continue
        for config in DROP_CONFIGS:
            for variant in range(1, DROP_VARIANTS + 1):
                rng = random.Random(f"drop/{seed}/{config}/{variant}")
                plan = drop_ops(analysis.plans[config], rng, variant)
                yield (
                    f"drop/{seed}/{config}/{variant}",
                    lambda plan=plan, module=analysis.module: run_instrumented(
                        module, plan
                    ),
                )


def capture(cases: Iterator[Case]) -> Dict[str, str]:
    runs: Dict[str, str] = {}
    for key, thunk in cases:
        if key in runs:
            raise ValueError(f"duplicate golden key {key!r}")
        runs[key] = digest(thunk)
    return runs


def render(runs: Dict[str, str]) -> str:
    """The golden file's exact bytes."""
    body = json.dumps({"schema": SCHEMA, "runs": runs}, indent=1, sort_keys=True)
    return body + "\n"


def load(path: Path = DEFAULT_OUT) -> Dict[str, str]:
    data = json.loads(Path(path).read_text())
    if data.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} file")
    return data["runs"]


def mismatches(expected: Dict[str, str], got: Dict[str, str]) -> List[str]:
    """Keys whose digest differs, or that only one side has."""
    return sorted(
        k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k)
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser_ = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser_.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser_.add_argument("--seeds", type=int, default=RANDOM_SEEDS,
                         help="cover random seeds 0..N-1 (a slice for quick runs)")
    parser_.add_argument("--no-programs", action="store_true",
                         help="skip the workload and corpus groups")
    parser_.add_argument("--check", action="store_true",
                         help="compare against --out instead of writing it")
    args = parser_.parse_args(argv)
    runs = capture(iter_cases(not args.no_programs, range(args.seeds)))
    if args.check:
        expected = {k: v for k, v in load(args.out).items() if k in runs}
        bad = mismatches(expected, runs)
        for key in bad:
            print(f"mismatch: {key}")
        print(f"{len(runs)} runs, {len(bad)} mismatches")
        return 1 if bad else 0
    args.out.write_text(render(runs))
    print(f"wrote {len(runs)} runs to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``spec_suite``: the ``repro check`` path over every bench program.

All 19 ``ALL_WORKLOADS`` plus every committed corpus seed, each
analyzed through :func:`repro.api.analyze` at ``O0+IM`` and then run
natively and under the five ``CONFIG_ORDER`` plans.  No program is left
out and nothing is reused between passes.  Scale 0.25 quarters the loop
trip counts of the reference scale 1.0 (same programs, VFGs and plans)
so that a run holds four passes: the host's speed swings in stretches
of seconds, and the more copies of each unit a run times, the surer
:func:`measure.best_of` finds one taken at full speed.  The programs
take no input, so the seed only fixes the order in which programs and
configs run.  The timed units are each analysis and each execution
(a corpus seed's IR is parsed inside its analysis unit).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Tuple

from repro import api
from repro.ir import parser
from repro.oracle.differ import EXACT_NAMES
from repro.workloads import ALL_WORKLOADS
from repro.workloads.corpus import BASE_CONFIG_SPECS, load_corpus

from measure import Tally, geomean_overhead
from spans import Tracer

#: The analysis config each soundness-oracle contract name stands for.
ORACLE_NAME = {
    "msan": "msan",
    "usher_tl": "tl",
    "usher_tl_at": "tl_at",
    "usher_opt1": "opt_i",
    "usher": "full",
}

#: Corpus seeds committed at the commit that defined this benchmark;
#: fewer means the checkout is incomplete, not that the corpus shrank.
MIN_CORPUS_SEEDS = 3

SCALE = 0.25


class _Program:
    def __init__(self, name: str, source: Optional[str], ir: Optional[str], pins):
        self.name = name
        self.source = source
        self.ir = ir
        self.pins = pins  # (true_bugs, {oracle name: warned}) for corpus seeds

    def analyze(self) -> api.Analysis:
        """What ``repro check`` does with the file: a corpus seed's IR is
        parsed first, inside the same timed unit."""
        if self.source is not None:
            return api.analyze(source=self.source, name=self.name, level="O0+IM")
        module = parser.parse_ir(self.ir)
        module.name = self.name
        return api.analyze(module=module, level="O0+IM")


class SpecSuite:
    #: Seconds of one pass and its untimed checks on a 2-vCPU host, at
    #: the host's slower speed, to turn ``--seconds`` into passes.
    pass_seconds = 8.5
    name = "spec_suite"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        programs = [
            _Program(w.name, w.source(SCALE), None, None) for w in ALL_WORKLOADS
        ]
        corpus = load_corpus()
        if len(corpus) < MIN_CORPUS_SEEDS:
            raise RuntimeError(
                f"found {len(corpus)} corpus seeds, expected at least "
                f"{MIN_CORPUS_SEEDS} under tests/data/corpus"
            )
        for seed_entry in corpus:
            pins = (
                tuple(seed_entry.true_bugs),
                {spec: tuple(seed_entry.pinned_warnings(spec))
                 for spec in BASE_CONFIG_SPECS},
            )
            programs.append(_Program(seed_entry.name, None, seed_entry.text(), pins))
        rng.shuffle(programs)
        self.programs = programs
        self.config_orders = []
        for _ in programs:
            order = list(api.CONFIG_ORDER)
            rng.shuffle(order)
            self.config_orders.append(order)
        self.slowdowns: Dict[str, Dict[str, float]] = {}
        self.static_ops = 0

    def inputs(self) -> str:
        return (
            f"{len(self.programs)} programs at scale {SCALE} x "
            f"{len(api.CONFIG_ORDER)} configs"
        )

    def run_pass(self, tally: Tally, tracer: Optional[Tracer]) -> List[float]:
        units: List[float] = []

        def timed(call, *args, **kwargs):
            started = time.perf_counter()
            result = call(*args, **kwargs)
            units.append(time.perf_counter() - started)
            return result

        static_ops = 0
        for program, order in zip(self.programs, self.config_orders):
            try:
                analysis = timed(program.analyze)
                native = timed(analysis.run_native)
                reports = {config: timed(analysis.run, config) for config in order}
            except Exception as exc:  # one broken program must not end the run
                for _ in range(1 + len(order)):
                    tally.check(False, f"{program.name}: {type(exc).__name__}: {exc}")
                continue
            tally.check(
                program.pins is None or tuple(sorted(native.true_bug_set())) == program.pins[0],
                f"{program.name}: native true bugs differ from the corpus manifest",
            )
            for config in order:
                problems = contract_problems(
                    ORACLE_NAME[config], native, reports[config], program.pins
                )
                tally.check(not problems, f"{program.name}/{config}: {'; '.join(problems)}")
                self.slowdowns.setdefault(config, {})[program.name] = analysis.slowdown(config)
            static_ops += analysis.static_checks("usher") + analysis.static_propagations("usher")
        self.static_ops = static_ops
        return units

    def verify(self, tally: Tally) -> None:
        """Nothing left to check: every check ran on the pass's own
        reports."""

    def report(self) -> List[Tuple[str, float, str, int]]:
        return [
            ("usher_overhead_x", geomean_overhead(self.slowdowns["usher"].values()),
             "x", len(self.slowdowns["usher"])),
            ("msan_overhead_x", geomean_overhead(self.slowdowns["msan"].values()),
             "x", len(self.slowdowns["msan"])),
        ]

    def notes(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


def contract_problems(spec: str, native, report, pins) -> List[str]:
    """The soundness-oracle contract (:mod:`repro.oracle.differ`)
    applied to an instrumented run already made, plus the corpus pin
    when ``pins`` is given."""
    problems = []
    if report.outputs != native.outputs or report.exit_value != native.exit_value:
        problems.append("outputs or exit value differ from the native run")
    oracle = native.true_bug_set()
    warned = report.warning_set()
    if warned - oracle:
        problems.append(f"spurious warnings {sorted(warned - oracle)}")
    if spec in EXACT_NAMES:
        if oracle - warned:
            problems.append(f"missed warnings {sorted(oracle - warned)}")
    elif oracle and not warned:
        problems.append("buggy run left entirely unreported")
    if pins is not None and spec in pins[1]:
        if tuple(sorted(warned)) != pins[1][spec]:
            problems.append(f"warned {sorted(warned)} != pinned {list(pins[1][spec])}")
    return problems

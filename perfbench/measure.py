"""The arithmetic behind every reported number.

Kept free of any ``repro`` import so the tests in ``test_perfbench.py``
pin it down without running a workload.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, its value is one outlier away from noise.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> Tuple[Optional[float], int]:
    """The nearest-rank ``p``-th percentile of ``values`` and the sample
    count, or ``(None, n)`` when fewer than :data:`MIN_BEYOND` samples
    lie strictly above its rank."""
    n = len(values)
    if n == 0:
        return None, 0
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None, n
    return sorted(values)[rank - 1], n


def best_of(passes: Sequence[Sequence[float]]) -> float:
    """Seconds of the fixed work from several passes over it: the sum
    over its units of each unit's fastest pass.

    A shared host runs a process at one of two speeds for seconds at a
    time, so a unit's slowest copies carry the host's noise and its
    fastest the program's cost.  Passes whose units do not line up
    (one pass failed early) fall back to the fastest whole pass.
    """
    if not passes:
        raise ValueError("no passes")
    if len({len(units) for units in passes}) != 1:
        return min(sum(units) for units in passes)
    return sum(min(unit) for unit in zip(*passes))


#: Seconds one :func:`reference_loop` takes on the host this benchmark
#: was written on (2-vCPU Xeon, CPython 3.11) when that host runs at
#: full speed: the low decile of its samples.
REFERENCE_LOOP_S = 0.002

#: Share of a run's reference samples at or below the one that stands
#: for the host's speed during the run.
REFERENCE_QUANTILE = 0.1


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value: int, nxt: Optional["_Cell"]) -> None:
        self.value = value
        self.next = nxt


def reference_loop(n: int = 6000) -> int:
    """A fixed pure-Python loop of allocation, dict and list work, about
    2 ms: the host's speed, read with code the program cannot change."""
    table: Dict[int, _Cell] = {}
    out: List[int] = []
    head: Optional[_Cell] = None
    for i in range(n):
        head = _Cell(i, head if i & 7 else None)
        table[i & 255] = head
        got = table.get((i * 7) & 255)
        if got is not None:
            out.append(got.value + len(out))
        if len(out) > 32:
            out.clear()
    return len(table)


def time_reference(samples: int) -> List[float]:
    """Seconds of ``samples`` back-to-back :func:`reference_loop` calls."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - started)
    return times


def at_reference_speed(seconds: float, reference: Sequence[float]) -> float:
    """``seconds`` measured while :func:`reference_loop` took
    ``reference``, scaled to a host on which it takes
    :data:`REFERENCE_LOOP_S`.

    A shared host runs at full speed for moments and at up to half of
    it for minutes at a time.  :func:`best_of` reads each unit at its
    fastest moment in the run, and the low decile of the reference
    samples reads the host's speed at such moments, so their ratio
    varies less from run to run than either alone.
    """
    if not reference:
        raise ValueError("no reference samples")
    ordered = sorted(reference)
    low = ordered[int(REFERENCE_QUANTILE * (len(ordered) - 1))]
    return seconds * REFERENCE_LOOP_S / low


def geomean_overhead(slowdowns_percent: Iterable[float]) -> float:
    """The Figure-10 quantity: the geometric mean over programs of
    ``1 + slowdown/100`` (a slowdown of 302% is a 4.02x run)."""
    factors = [1.0 + s / 100.0 for s in slowdowns_percent]
    if not factors:
        raise ValueError("geomean over no programs")
    return math.exp(sum(math.log(f) for f in factors) / len(factors))


@dataclass
class Tally:
    """Operations attempted and failed, with one line per failure.

    A failed correctness check marks its operation failed and clears
    ``correct``; a failed robustness probe (a rejected edit that left
    the session changed) marks its operation failed but leaves the
    program's outputs, and so ``correct``, alone.  Neither aborts the
    run.
    """

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, detail: str, output: bool = True) -> bool:
        """Count one operation whose outcome is ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(detail)
            if output:
                self.correct = False
        return ok

    def merge(self, other: "Tally") -> None:
        """Add the operations of ``other``, counted in another process."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.correct = self.correct and other.correct
        self.failures.extend(other.failures)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def self_times(
    spans: Sequence[Tuple[str, int, float, float]]
) -> Dict[str, Tuple[int, float]]:
    """Calls and self seconds per span name.

    ``spans`` holds ``(name, parent_index, start, end)`` with
    ``parent_index`` -1 for a root.  A span's self time is its duration
    minus the time its direct children cover; children of one span do
    not overlap, because every traced call nests inside its caller.
    """
    covered = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Dict[str, Tuple[int, float]] = {}
    for index, (name, _parent, start, end) in enumerate(spans):
        calls, seconds = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, seconds + (end - start) - covered[index])
    return totals


def root_seconds(spans: Sequence[Tuple[str, int, float, float]]) -> float:
    """Seconds covered by root spans: the attributed part of a pass."""
    return sum(end - start for _n, parent, start, end in spans if parent < 0)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0

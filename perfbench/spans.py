"""Per-layer spans recorded from outside the program.

Each layer is timed by replacing its public function, or a method of
its public class, with a wrapper in the namespace where the caller
looks the name up (``repro.api``, ``repro.core.usher``,
``repro.service.session``).  Nothing under ``src/`` knows about it.  A
hook whose target no longer exists marks its layer *unmeasured*: the
traced run says so instead of printing a number that misses calls.
The timed, untraced run installs no hook at all.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple


class Tracer:
    """Spans kept in memory as ``(name, parent_index, start, end)``.

    One stack serves every thread.  That is exact for this benchmark:
    its client is closed-loop and the server handles one request at a
    time, so a server-side span always opens and closes inside the
    client span of the request that caused it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[List] = []
        self.counts: Dict[str, Counter] = {}
        self.unmeasured: Set[str] = set()
        #: Seconds the hooks spent reading counts off results.
        self.counting_s = 0.0
        self.active = False
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, self.clock(), None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[3] = self.clock()
            self._stack.pop()

    def count(self, layer: str, **amounts: float) -> None:
        self.counts.setdefault(layer, Counter()).update(amounts)

    def finished_spans(self) -> List[Tuple[str, int, float, float]]:
        """The spans of a finished pass, as tuples."""
        assert not self._stack, "a span is still open"
        return [tuple(s) for s in self.spans]


def span_of(tracer: Optional[Tracer], name: str):
    """A span when tracing, a no-op context otherwise."""
    return tracer.span(name) if tracer is not None else nullcontext()


# ----------------------------------------------------------------------
# Counters: read sizes off a layer's return value, outside its span.
# ----------------------------------------------------------------------
def _count_instrs(tracer: Tracer, layer: str, module) -> None:
    tracer.count(
        layer,
        instrs=sum(
            1 for fn in module.functions.values() for _ in fn.instructions()
        ),
    )


def _count_solver(tracer: Tracer, layer: str, pointers) -> None:
    stats = pointers.solver_stats
    if stats is not None:
        tracer.count(layer, pops=stats.pops, facts=stats.facts_propagated)


def _count_vfg(tracer: Tracer, layer: str, vfg) -> None:
    tracer.count(layer, nodes=vfg.num_nodes, edges=vfg.num_edges)


def _count_opt2(tracer: Tracer, layer: str, result) -> None:
    _gamma, stats = result
    tracer.count(
        layer, sites=stats.sites_processed, redirected_nodes=stats.redirected_nodes
    )


def _count_plan(tracer: Tracer, layer: str, result) -> None:
    plan = result[0] if isinstance(result, tuple) else result
    tracer.count(
        layer,
        checks=plan.count_checks(),
        propagations=plan.count_propagations(),
    )


def _count_native(tracer: Tracer, layer: str, report) -> None:
    tracer.count(layer, ops=report.native_ops)


def _count_shadow(tracer: Tracer, layer: str, report) -> None:
    events = report.events
    tracer.count(
        layer,
        steps=report.steps,
        events=events.shadow_reads + events.shadow_writes + events.checks,
    )


def _count_update(tracer: Tracer, layer: str, stats) -> None:
    tracer.count(
        layer,
        accepted=1,
        warm=1 if stats.mode == "warm" else 0,
        dirty_fraction_sum=stats.dirty_fraction,
        memos_carried=stats.memos_carried,
        memos_dropped=stats.memos_dropped,
        tapes_reused=stats.tapes_reused,
        tapes_regenerated=stats.tapes_regenerated,
    )


@dataclass(frozen=True)
class Hook:
    """Wrap ``module``'s ``attr`` (``"Class.method"`` for a method) as
    a span named ``layer``; ``counter`` reads counts off the result."""

    layer: str
    module: str
    attr: str
    counter: Optional[Callable] = None


_API = "repro.api"
_USHER = "repro.core.usher"
_SESSION = "repro.service.session"

#: Every layer boundary the traced run records, by caller namespace.
HOOKS: Tuple[Hook, ...] = (
    Hook("parse", _API, "compile_source", _count_instrs),
    Hook("parse", "repro.ir.parser", "parse_ir", _count_instrs),
    Hook("opt_pipeline", _API, "run_pipeline"),
    Hook("pointer_analysis", _USHER, "analyze_pointers", _count_solver),
    Hook("pointer_analysis", _USHER, "CallGraph"),
    Hook("pointer_analysis", _USHER, "ModRefResult"),
    Hook("memssa", _USHER, "build_memory_ssa"),
    Hook("vfg.build", _USHER, "build_vfg", _count_vfg),
    Hook("gamma", _USHER, "resolve_for_config"),
    Hook("opt2", _USHER, "redundant_check_elimination", _count_opt2),
    Hook("instrument", _USHER, "build_guided_plan", _count_plan),
    Hook("instrument", _USHER, "build_msan_plan", _count_plan),
    Hook("execute.native", _API, "run_native", _count_native),
    Hook("execute.shadow", _API, "run_instrumented", _count_shadow),
    Hook("parse", _SESSION, "compile_source", _count_instrs),
    Hook("parse", _SESSION, "parse_ir", _count_instrs),
    Hook("opt_pipeline", _SESSION, "run_pipeline"),
    Hook("pointer_analysis", _SESSION, "CallGraph"),
    Hook("pointer_analysis", _SESSION, "ModRefResult"),
    Hook("memssa", _SESSION, "build_memory_ssa"),
    Hook("vfg.build", _SESSION, "build_vfg", _count_vfg),
    Hook("gamma", _SESSION, "resolve_for_config"),
    Hook("opt2", _SESSION, "redundant_check_elimination", _count_opt2),
    Hook("instrument", _SESSION, "build_guided_plan", _count_plan),
    Hook("session.open", _SESSION, "AnalysisSession.__init__"),
    Hook("session.update", _SESSION, "AnalysisSession.update", _count_update),
    Hook("session.query", _SESSION, "AnalysisSession.query_sites"),
    Hook("session.explain", _SESSION, "AnalysisSession.explain"),
)


def _wrap(tracer: Tracer, hook: Hook, fn: Callable) -> Callable:
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        with tracer.span(hook.layer):
            result = fn(*args, **kwargs)
        if hook.counter is not None:
            started = tracer.clock()
            hook.counter(tracer, hook.layer, result)
            tracer.counting_s += tracer.clock() - started
        return result

    traced.__wrapped__ = fn
    return traced


def seconds_per_span(calls: int = 20000) -> float:
    """What one hooked call costs beyond the call itself: a hooked
    no-op against the bare no-op, each the faster of three loops."""

    def noop():
        return None

    tracer = Tracer()
    tracer.active = True
    hooked = _wrap(tracer, Hook("noop", "", ""), noop)

    def loop(fn) -> float:
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - started

    bare = min(loop(noop) for _ in range(3))
    wrapped = min(loop(hooked) for _ in range(3))
    return max(0.0, wrapped - bare) / calls


@contextmanager
def installed(tracer: Tracer, hooks: Sequence[Hook] = HOOKS):
    """Install ``hooks`` for the duration of the block.  A hook whose
    module or attribute is missing adds its layer to
    ``tracer.unmeasured`` and is skipped."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for hook in hooks:
            try:
                owner = importlib.import_module(hook.module)
                *path, name = hook.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[name] if path else getattr(owner, name)
            except (ImportError, AttributeError, KeyError):
                tracer.unmeasured.add(hook.layer)
                continue
            setattr(owner, name, _wrap(tracer, hook, original))
            undo.append((owner, name, original))
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

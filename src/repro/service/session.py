"""Resident analysis sessions.

An :class:`AnalysisSession` holds one module's analysis between
requests: the pre-pipeline function texts it accepts edits against,
the post-pipeline module, the prepared module (points-to sets, call
graph, mod/ref, memory SSA) and the configuration's result (VFG, Γ,
instrumentation plan).  :meth:`AnalysisSession.update` replaces one
function body and re-analyzes the whole module cold — the same
:func:`repro.core.usher.prepare_module` + ``run_usher`` a one-shot
analysis runs, so every result is bit-identical to it by construction.

Each rebuild is built aside and committed by swap: the candidate text
is parsed, optimized, verified and analyzed into locals, and only when
every step has succeeded do the function texts, the modules, the
result and the generation change, together.  A rejected edit raises
and leaves the session exactly as it was.

Identifier stability across edits comes from a uid transplant: the new
module's instructions are re-assigned the uids of textually identical
instructions in the previous module (whole function, else a
prefix/suffix match), and only genuinely new instructions get fresh
uids, so clients can hold uids across edits.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ir.module import Module
from repro.ir.parser import parse_ir
from repro.ir.printer import function_to_str, module_to_str
from repro.ir.verifier import verify_module
from repro.opt import run_pipeline
from repro.analysis.andersen import PointerResult
from repro.obs.registry import REGISTRY
from repro.obs.trace import TRACE
from repro.core.usher import (
    PreparedModule,
    UsherConfig,
    UsherResult,
    prepare_module,
    run_msan,
    run_usher,
)
from repro.core.plan import InstrumentationPlan
from repro.options import AnalysisOptions
from repro.tinyc import compile_source
from repro.vfg.demand import DemandEngine, LazyDefinedness
from repro.vfg.explain import FlowStep, explain_check_site
from repro.vfg.graph import VFG

# Layer hooks that time sessions from outside (perfbench) look these up here.
from repro.analysis.callgraph import CallGraph  # noqa: F401
from repro.analysis.modref import ModRefResult  # noqa: F401
from repro.core.instrument import build_guided_plan  # noqa: F401
from repro.core.opt2 import redundant_check_elimination  # noqa: F401
from repro.core.usher import resolve_for_config  # noqa: F401
from repro.memssa import build_memory_ssa  # noqa: F401
from repro.vfg.builder import build_vfg  # noqa: F401

__all__ = ["AnalysisSession", "UpdateStats", "plan_signature"]

#: The named configurations a session can run (``msan`` is a plan, not
#: an analysis — see :meth:`AnalysisSession.msan_plan`).
_BASE_CONFIGS = {
    "usher_tl": UsherConfig.tl,
    "usher_tl_at": UsherConfig.tl_at,
    "usher_opt1": UsherConfig.opt_i,
    "usher": UsherConfig.full,
    "usher_ext": UsherConfig.extended,
}


# ----------------------------------------------------------------------
# Structural signatures
# ----------------------------------------------------------------------
def plan_signature(plan: InstrumentationPlan):
    """A structural, comparable signature of an instrumentation plan.

    :class:`InstrumentationPlan` has no ``__eq__``; the differential
    suite compares these instead — entry ops per function and pre/post
    shadow ops per instruction uid, all stringified.
    """
    return (
        {
            fname: tuple(str(op) for op in ops)
            for fname, ops in plan.entry_ops.items()
        },
        {
            uid: (
                tuple(str(op) for op in iops.pre),
                tuple(str(op) for op in iops.post),
            )
            for uid, iops in plan.ops.items()
        },
    )


# ----------------------------------------------------------------------
# Update statistics
# ----------------------------------------------------------------------
@dataclass
class UpdateStats:
    """What one :meth:`AnalysisSession.update` (or the initial build)
    did.  Every build re-analyzes the whole module, so ``mode`` is
    ``initial`` or ``rebuild``, every function and VFG node counts as
    dirty, and the tape and memo counters are always 0: nothing is
    cached between generations."""

    function: Optional[str]
    mode: str  #: ``initial`` | ``rebuild``
    generation: int
    dirty_functions: Tuple[str, ...]
    dirty_nodes: int
    total_nodes: int
    tapes_reused: int
    tapes_regenerated: int
    memos_carried: int
    memos_dropped: int
    update_seconds: float

    @property
    def dirty_fraction(self) -> float:
        return self.dirty_nodes / self.total_nodes if self.total_nodes else 0.0

    def as_dict(self) -> Dict:
        return {
            "function": self.function,
            "mode": self.mode,
            "generation": self.generation,
            "dirty_functions": sorted(self.dirty_functions),
            "dirty_nodes": self.dirty_nodes,
            "total_nodes": self.total_nodes,
            "dirty_fraction": self.dirty_fraction,
            "tapes_reused": self.tapes_reused,
            "tapes_regenerated": self.tapes_regenerated,
            "memos_carried": self.memos_carried,
            "memos_dropped": self.memos_dropped,
            "update_seconds": self.update_seconds,
        }


# ----------------------------------------------------------------------
# The session
# ----------------------------------------------------------------------
class AnalysisSession:
    """A resident analysis of one module under one configuration.

    Construct with :meth:`from_source` (TinyC) or :meth:`from_ir`;
    edit with :meth:`update`; query with :meth:`query_sites` /
    :meth:`explain`.  All results are bit-identical to a cold analysis
    of the session's current module.
    """

    def __init__(
        self,
        module: Module,
        name: str = "module",
        options: Optional[AnalysisOptions] = None,
        usher_config: Optional[UsherConfig] = None,
        level: str = "O0+IM",
    ) -> None:
        self.name = name
        self._level = level
        opts = options if options is not None else AnalysisOptions()
        self._options = opts
        self._config = self._resolve_config(opts, usher_config)
        self._header = self._globals_header(module)

        # Committed state, swapped in whole by ``_rebuild``.
        #: Canonical pre-pipeline texts: the printed post-pipeline
        #: module is not parseable (memory-SSA φs), so every update
        #: reassembles and re-lowers from these.
        self._fn_texts: Dict[str, str] = {}
        #: post-pipeline, never memory-SSA'd — the uid-transplant base.
        self._pristine: Optional[Module] = None
        self._prepared: Optional[PreparedModule] = None
        self._result: Optional[UsherResult] = None
        self._explainer: Optional[DemandEngine] = None
        self.generation = 0
        self.last_update: Optional[UpdateStats] = None
        self._rebuild(module, edited=None)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_source(
        cls,
        source: str,
        name: str = "module",
        options: Optional[AnalysisOptions] = None,
        usher_config: Optional[UsherConfig] = None,
        level: str = "O0+IM",
    ) -> "AnalysisSession":
        return cls(
            compile_source(source, name),
            name=name,
            options=options,
            usher_config=usher_config,
            level=level,
        )

    @classmethod
    def from_ir(
        cls,
        text: str,
        name: str = "module",
        options: Optional[AnalysisOptions] = None,
        usher_config: Optional[UsherConfig] = None,
        level: str = "O0+IM",
    ) -> "AnalysisSession":
        return cls(
            parse_ir(text),
            name=name,
            options=options,
            usher_config=usher_config,
            level=level,
        )

    @staticmethod
    def _resolve_config(
        options: AnalysisOptions, usher_config: Optional[UsherConfig]
    ) -> UsherConfig:
        overrides: Dict = {}
        if usher_config is not None:
            config = usher_config
            if options.demand is not None:
                overrides["demand"] = options.demand
        else:
            name = options.config or "usher"
            factory = _BASE_CONFIGS.get(name)
            if factory is None:
                raise ValueError(
                    f"unknown session config {name!r} (msan is a plan — "
                    f"use AnalysisSession.msan_plan())"
                )
            config = factory()
            # Sessions default to demand-driven Γ, so query_sites
            # answers from the engine's memo.  Verdicts are identical
            # either way.
            overrides["demand"] = (
                True if options.demand is None else options.demand
            )
        if options.resolver is not None:
            overrides["resolver"] = options.resolver
        if options.context_depth is not None:
            overrides["context_depth"] = options.context_depth
        return replace(config, **overrides)

    @staticmethod
    def _globals_header(module: Module) -> str:
        shell = Module(module.name)
        shell.globals = module.globals
        return module_to_str(shell).rstrip("\n")

    # -- public surface -------------------------------------------------
    @property
    def prepared(self) -> PreparedModule:
        assert self._prepared is not None
        return self._prepared

    @property
    def module(self) -> Module:
        return self.prepared.module

    @property
    def pristine(self) -> Module:
        """The post-pipeline module *without* memory-SSA annotations —
        deep-copy it to feed a cold ``prepare_module`` oracle."""
        assert self._pristine is not None
        return self._pristine

    @property
    def config(self) -> UsherConfig:
        return self._config

    @property
    def result(self) -> UsherResult:
        assert self._result is not None
        return self._result

    @property
    def plan(self) -> InstrumentationPlan:
        return self.result.plan

    @property
    def vfg(self) -> VFG:
        return self.result.vfg

    @property
    def gamma(self):
        return self.result.gamma

    @property
    def pointers(self) -> PointerResult:
        return self.prepared.pointers

    def function_names(self) -> List[str]:
        return list(self._fn_texts)

    def function_text(self, fname: str) -> str:
        """The canonical pre-pipeline IR text of one function — the
        shape :meth:`update` accepts back."""
        return self._fn_texts[fname]

    def msan_plan(self) -> InstrumentationPlan:
        return run_msan(self.prepared)

    def update(self, function_name: str, new_body: str) -> UpdateStats:
        """Replace ``function_name``'s body and re-analyze the module.

        ``new_body`` is the function's new pre-pipeline IR text (the
        dialect :meth:`function_text` returns).  Raises ``KeyError``
        for unknown functions and ``ValueError`` if the replacement
        renames the function or changes the module's function set;
        parse, verification and analysis errors propagate as raised.
        Whatever is raised, the session is left unchanged.
        """
        if function_name not in self._fn_texts:
            raise KeyError(f"unknown function {function_name!r}")
        candidate = dict(self._fn_texts)
        candidate[function_name] = new_body.strip("\n")
        text = "\n\n".join([self._header] + list(candidate.values()))
        module = parse_ir(text)
        if set(module.functions) != set(self._fn_texts):
            raise ValueError(
                "update() must keep the module's function set: "
                f"got {sorted(module.functions)}"
            )
        return self._rebuild(module, edited=function_name)

    def query_sites(
        self, uids: Optional[Iterable[int]] = None
    ) -> Dict[int, bool]:
        """Definedness verdict per check site of the session's VFG,
        keyed by instruction uid (AND-folded over the site's operands).

        Verdicts mirror the session's Γ exactly — under Opt II they are
        answered on the rewired scratch graph, like a cold ``analyze``;
        demand configurations answer through the generation's engine,
        whose memo persists across batches.
        """
        gamma = self.gamma
        engine = gamma.engine if isinstance(gamma, LazyDefinedness) else None
        wanted = set(uids) if uids is not None else None
        site_list = (
            engine.vfg.check_sites
            if engine is not None
            else self.vfg.check_sites
        )
        verdicts: Dict[int, bool] = {}
        for site in site_list:
            if wanted is not None and site.instr_uid not in wanted:
                continue
            ok = gamma.is_defined(site.node)
            verdicts[site.instr_uid] = verdicts.get(site.instr_uid, True) and ok
        return verdicts

    def explain(
        self, instr_uid: int, max_steps: int = 50
    ) -> Optional[List[FlowStep]]:
        """A shortest undefined-value flow chain into ``instr_uid``'s
        first ⊥ operand, or ``None`` when every operand is defined."""
        if self._explainer is None:
            self._explainer = DemandEngine(
                self.vfg,
                context_depth=max(1, self._config.context_depth),
                resolver="callstring",
            )
        return explain_check_site(
            self.vfg, self.module, instr_uid, engine=self._explainer
        )

    def stats(self) -> Dict:
        """A JSON-safe snapshot of the session's state and last update."""
        solver_stats = self.prepared.solver_stats
        payload = {
            "name": self.name,
            "generation": self.generation,
            "config": self._config.name,
            "resolver": self._config.resolver,
            "demand": self._config.demand,
            "functions": len(self._fn_texts),
            "check_sites": len(self.vfg.check_sites),
            "vfg_nodes": self.vfg.num_nodes,
            "vfg_edges": self.vfg.num_edges,
        }
        if solver_stats is not None:
            payload["solver"] = {
                "pops": solver_stats.pops,
                "facts_propagated": solver_stats.facts_propagated,
                "solve_passes": solver_stats.solve_passes,
            }
        if self.last_update is not None:
            payload["last_update"] = self.last_update.as_dict()
        return payload

    # -- rebuild ----------------------------------------------------------
    def _rebuild(self, module: Module, edited: Optional[str]) -> UpdateStats:
        """Analyze ``module`` (pre-pipeline) aside, then commit it.

        Nothing on ``self`` changes until every step has succeeded."""
        with TRACE.span(
            "session.update", session=self.name, function=edited or ""
        ):
            started = time.perf_counter()
            fn_texts = {
                fname: function_to_str(fn)
                for fname, fn in module.functions.items()
            }
            run_pipeline(module, self._level)
            verify_module(module)
            if self._pristine is not None:
                _transplant_uids(module, self._pristine)
            prepared = prepare_module(copy.deepcopy(module))
            result = run_usher(prepared, self._config)
            initial = edited is None
            stats = UpdateStats(
                function=edited,
                mode="initial" if initial else "rebuild",
                generation=self.generation if initial else self.generation + 1,
                dirty_functions=tuple(sorted(fn_texts)),
                dirty_nodes=result.vfg.num_nodes,
                total_nodes=result.vfg.num_nodes,
                tapes_reused=0,
                tapes_regenerated=0,
                memos_carried=0,
                memos_dropped=0,
                update_seconds=time.perf_counter() - started,
            )
            # Commit: swap the whole generation in at once.
            self._fn_texts = fn_texts
            self._pristine = module
            self._prepared = prepared
            self._result = result
            self._explainer = None
            self.generation = stats.generation
            self.last_update = stats
        REGISTRY.record_update(stats, session=self.name)
        return stats


# ----------------------------------------------------------------------
# uid transplantation
# ----------------------------------------------------------------------
def _transplant_uids(module: Module, old: Module) -> None:
    """Re-assign the previous module's uids to textually matching
    instructions of the new one.

    Per function: identical text copies uids positionally; otherwise
    the longest common prefix and (non-overlapping) suffix of the
    instruction streams keep their uids and the middle gets fresh ones.
    ``Module.assign_uids`` then fills every unmatched instruction with
    ids above the transplanted maximum, so uids a client holds stay
    valid across edits.
    """
    for fn in module.functions.values():
        for instr in fn.instructions():
            instr.uid = -1
    for name, fn_new in module.functions.items():
        fn_old = old.functions.get(name)
        if fn_old is None:
            continue
        new_instrs = list(fn_new.instructions())
        old_instrs = list(fn_old.instructions())
        if function_to_str(fn_new) == function_to_str(fn_old):
            for instr_new, instr_old in zip(new_instrs, old_instrs):
                instr_new.uid = instr_old.uid
            continue
        new_texts = [str(instr) for instr in new_instrs]
        old_texts = [str(instr) for instr in old_instrs]
        limit = min(len(new_texts), len(old_texts))
        prefix = 0
        while prefix < limit and new_texts[prefix] == old_texts[prefix]:
            new_instrs[prefix].uid = old_instrs[prefix].uid
            prefix += 1
        suffix = 0
        while (
            suffix < limit - prefix
            and new_texts[-1 - suffix] == old_texts[-1 - suffix]
        ):
            new_instrs[-1 - suffix].uid = old_instrs[-1 - suffix].uid
            suffix += 1
    module.assign_uids()

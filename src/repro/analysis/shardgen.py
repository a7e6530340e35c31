"""Per-function constraint tapes for the incremental session cache.

The constraint generator walks every function (plus any allocation-
wrapper clones its call sites instantiate) and emits pts / copy / load /
store / gep / icall constraints.  :class:`repro.service.session.AnalysisSession`
caches that walk per function so an edit only regenerates the dirty
functions:

1. A :class:`_ShardCollector` — the real generator
   (``_SolverBase._gen_function``, including nested wrapper clone
   instantiation) with the constraint hooks swapped for recorders —
   runs over one function and returns a :class:`ShardResult`: a
   symbol table (its own interning, local ids) plus a flat ``int64``
   word arena over those ids.  Generation *streams* into the arena:
   each hook appends its op's words directly, so no per-function tuple
   lists are ever materialized.
2. The solver replays the word streams **in module order** through its
   id-level constraint hooks, remapping each tape-local symbol to a
   dense solver id once (``DeltaSolver._replay_shard``).  Because each
   arena is in generation order, the replayed constraint stream is
   exactly the serial generator's stream, so the solver state — and
   therefore every downstream result — is bit-identical to a cold
   :func:`repro.analysis.andersen.analyze_pointers`.

Word encoding (one op = one run of ``int64`` words, tags from
:mod:`repro.analysis.andersen`):

- ``PTS/COPY/LOAD/STORE`` → ``[tag, a, b]``
- ``GEP`` → ``[tag, base, dst, offset]`` (``None`` offset encoded as
  :data:`GEP_NONE`)
- ``ICALL`` → ``[tag, callee, call_uid, nargs, arg..., dst]`` (``-1``
  encodes a missing arg / dst)
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.memobjects import MemLoc, MemObject
from repro.analysis.solverstats import SolverStats
from repro.ir.module import Module

#: ``None`` GEP-offset sentinel — far outside any field index.
GEP_NONE = -(2**62)


def iter_ops(words: Sequence[int]) -> Iterator[tuple]:
    """Decode a word arena op by op (no list materialized)."""
    from repro.analysis.andersen import OP_GEP, OP_ICALL

    i = 0
    n = len(words)
    while i < n:
        tag = words[i]
        if tag == OP_ICALL:
            nargs = words[i + 3]
            end = i + 5 + nargs
            args = tuple(words[i + 4 : end - 1])
            yield (tag, words[i + 1], words[i + 2], args, words[end - 1])
            i = end
        elif tag == OP_GEP:
            offset = words[i + 3]
            yield (
                tag,
                words[i + 1],
                words[i + 2],
                None if offset == GEP_NONE else offset,
            )
            i += 4
        else:
            yield (tag, words[i + 1], words[i + 2])
            i += 3


@dataclass
class ShardResult:
    """One collector run's product: a symbol table, a flat word arena
    over it, and the generation side-tables the solver must merge."""

    #: shard-local id -> symbol (PVar or MemLoc, in first-use order)
    syms: List[object] = field(default_factory=list)
    #: the op tape as a flat ``int64`` word arena (see the module
    #: docstring for the encoding); appended to directly during
    #: generation
    words: "array" = field(default_factory=lambda: array("q"))
    #: call uid -> direct-call targets seen during generation
    call_targets: Dict[int, Set[str]] = field(default_factory=dict)
    #: clone namespace -> base function name
    clone_base: Dict[str, str] = field(default_factory=dict)
    #: (wrapper, callsite uid) clones this shard instantiated
    instantiated: Set[Tuple[str, int]] = field(default_factory=set)
    #: alloc uid -> objects, in generation order
    alloc_objects: Dict[int, List[MemObject]] = field(default_factory=dict)


def _collector_class():
    # Deferred: andersen imports this module lazily (inside
    # _replay_shard) and importing it here at top level would be
    # circular.
    from repro.analysis import andersen

    class _ShardCollector(andersen._SolverBase):
        """The constraint generator with recording hooks.

        Runs ``_gen_function`` (and everything it pulls in — wrapper
        clone instantiation, direct-call binding) for the named
        functions, interning symbols tape-locally and streaming each
        emitted constraint's words straight into the tape arena.  It never solves; its only products are the arena
        and the side-tables.
        """

        kind = "shard"

        def __init__(
            self,
            module: Module,
            wrappers: FrozenSet[str],
            recursive: Set[str],
            names: List[str],
        ) -> None:
            self._names = names
            self.result_shard = ShardResult()
            self._words = self.result_shard.words
            self._sids: Dict[object, int] = {}
            super().__init__(
                module,
                wrappers,
                stats=SolverStats(solver=self.kind),
                recursive=recursive,
            )

        def _seed(self) -> None:
            for glob in self.module.globals.values():
                self.global_objects[glob.name] = andersen.global_object(
                    glob.name, glob.initialized, glob.size, glob.is_array
                )
            for name in self.module.functions:
                self.function_objects[name] = andersen.function_object(name)
            for name in self._names:
                function = self.module.functions[name]
                self._gen_function(function, ns=function.name, clone_ctx=None)
            shard = self.result_shard
            shard.call_targets = self.call_targets
            shard.clone_base = self.clone_base
            shard.instantiated = self._instantiated
            shard.alloc_objects = self.alloc_objects

        # -- recording hooks ------------------------------------------
        def _sid(self, sym: object) -> int:
            sid = self._sids.get(sym)
            if sid is None:
                sid = len(self.result_shard.syms)
                self._sids[sym] = sid
                self.result_shard.syms.append(sym)
            return sid

        def _emit3(self, tag: int, a: int, b: int) -> None:
            words = self._words
            words.append(tag)
            words.append(a)
            words.append(b)

        def _add_pts(self, node, loc: MemLoc) -> None:
            self._emit3(andersen.OP_PTS, self._sid(node), self._sid(loc))

        def _add_copy(self, src, dst) -> None:
            self._emit3(andersen.OP_COPY, self._sid(src), self._sid(dst))

        def _add_load(self, ptr, dst) -> None:
            self._emit3(andersen.OP_LOAD, self._sid(ptr), self._sid(dst))

        def _add_store(self, ptr, src) -> None:
            self._emit3(andersen.OP_STORE, self._sid(ptr), self._sid(src))

        def _add_gep(self, base, dst, offset: Optional[int]) -> None:
            words = self._words
            words.append(andersen.OP_GEP)
            words.append(self._sid(base))
            words.append(self._sid(dst))
            words.append(GEP_NONE if offset is None else offset)

        def _add_icall(self, callee_node, call_uid, arg_nodes, dst_node) -> None:
            words = self._words
            words.append(andersen.OP_ICALL)
            words.append(self._sid(callee_node))
            words.append(call_uid)
            words.append(len(arg_nodes))
            for a in arg_nodes:
                words.append(-1 if a is None else self._sid(a))
            words.append(-1 if dst_node is None else self._sid(dst_node))

    return _ShardCollector

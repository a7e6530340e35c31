"""A shadow-memory interpreter for the TinyC IR.

Stands in for the paper's compiled binaries: it executes a module in SSA
form while (a) tracking *ground-truth* definedness of every value and
memory cell (the oracle — what a perfect detector would know), and (b)
executing the shadow operations of an :class:`InstrumentationPlan`
exactly where a compiled MSan/Usher binary would.

Definedness is **bit-level precise** (§4.1): every value and shadow is
a 64-bit undefined mask, propagated by the rules of
:mod:`repro.runtime.bits` — bitwise operations can launder undefined
bits, non-bitwise operations spread them over the whole word.  The
oracle, MSan and Usher all use the same rules, so their reports are
exactly comparable.

The shadow machine enforces the paper's soundness invariant — "all
shadow values accessed by any shadow statement at run time are
well-defined": reading a shadow slot that no instrumentation ever wrote
raises :class:`ShadowProtocolError`, which the test-suite uses to verify
the guided instrumentation never under-instruments.

Total semantics (documented substitutions for C undefined behaviour):
division/modulo by zero yield 0; out-of-range element offsets clamp to
the object's bounds; values read from uninitialized storage are 0 with
all oracle-mask bits set.

**Decoding.**  A function is compiled on its first call into
*segments*: closure lists for each φ-edge, and from each block head or
call return to the next call or terminator, each priced with its static
steps, native ops and shadow events (``docs/internals.md`` §6).  Trace
flags are read at decode time: set them before :meth:`Interpreter.run`.

**Step accounting.**  One step is one executed IR instruction (φs
included) or one executed shadow operation.  The budget is charged a
whole segment at a time on entry: at function entry (its entry shadow
ops), at a φ-edge (the φs and their shadow ops), at a block head, and
after each call returns.  A call ends its segment, so the charges add
up, in execution order, to the per-step count: ``report.steps`` is the
number of steps executed, and :class:`StepLimitExceeded` is raised
exactly when that number would exceed ``max_steps``.  A segment whose
charge overruns the budget runs only as far as the budget reaches, so a
fault within the budget still wins over the step limit.
"""

from __future__ import annotations

import functools
import operator
import sys
from typing import Dict, List, Optional, Tuple, Union

from repro.ir import instructions as ins
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.values import Const, Value
from repro.core.plan import (
    AndShadowVar,
    BinOpShadow,
    Check,
    CopyShadowVar,
    InstrumentationPlan,
    LoadShadow,
    PhiShadow,
    RelayIn,
    RelayOut,
    SetShadowMem,
    SetShadowVar,
    ShadowOp,
    StoreShadow,
    UnOpShadow,
    VarSlot,
)
from repro.runtime.bits import DEFINED, UNDEFINED, binop_mask, is_bitwise, unop_mask
from repro.opt.localopt import fold_binop, fold_unop
from repro.runtime.events import ExecutionReport


class RuntimeFault(Exception):
    """The program performed an unrecoverable action (bad pointer,
    unresolved indirect call, stack overflow)."""


class StepLimitExceeded(Exception):
    """The step budget ran out (guards runaway random programs)."""


class ShadowProtocolError(Exception):
    """A shadow statement read a shadow value nothing initialized —
    the instrumentation plan is unsound (test oracle)."""


_MASK = (1 << 64) - 1
_HALF = 1 << 63

#: What a slot holds before anything writes it: it reads as an undefined
#: 0, and shadow ops tell an unset pointer by its identity.  A value
#: copied out of a slot is replaced by the equal ``_UNDEF``, so the
#: identity never spreads to a written slot.
_UNSET = tuple([0, UNDEFINED])
_UNDEF = (0, UNDEFINED)

#: The cost of one native instruction: (native ops, reads, writes, checks).
_NATIVE = (1, 0, 0, 0)

#: Value of a binary op (comparisons give bools, wrapped to 0/1).
_FOLD = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}


def _wrap(value: int) -> int:
    """Two's-complement 64-bit wrap-around."""
    return ((value + _HALF) & _MASK) - _HALF


def _raise(exc: Exception):
    def fail(env, sh):
        raise exc

    return fail


class _Segment:
    """Closures run in order on entry; then control moves to ``next``,
    to ``branch(env)``, or returns ``env[ret]``.  ``cum[i]`` is the
    steps charged before ``ops[i]`` runs; ``cost`` is (native ops,
    shadow reads, writes, checks)."""

    __slots__ = ("ops", "cum", "steps", "cost", "next", "branch", "ret", "hits")

    def __init__(self) -> None:
        self.ops, self.cum, self.cost = [], [], [0, 0, 0, 0]
        self.steps = self.hits = 0
        self.next = self.branch = self.ret = None

    def add(self, fn, steps: int = 0, cost=()) -> None:
        """Charge ``steps`` and ``cost``, then append ``fn`` (if any)."""
        self.steps += steps
        if cost:
            self.cost = [a + b for a, b in zip(self.cost, cost)]
        if fn is not None:
            self.ops.append(fn)
            self.cum.append(self.steps)


class Interpreter:
    """Executes a module, optionally under an instrumentation plan."""

    def __init__(
        self,
        module: Module,
        plan: Optional[InstrumentationPlan] = None,
        max_steps: int = 2_000_000,
        max_depth: int = 400,
    ) -> None:
        self.module = module
        self.plan = plan
        self.max_steps = max_steps
        self.max_depth = max_depth

        self.report = ExecutionReport()
        self.events = self.report.events

        #: flat memory: address -> (value, undefined-mask)
        self.memory: Dict[int, Tuple[int, int]] = {}
        #: address -> (base, size) of its allocation
        self.extent: Dict[int, Tuple[int, int]] = {}
        #: address -> shadow undefined-mask
        self.shadow_memory: Dict[int, int] = {}
        self._next_addr = 16
        #: function name <-> code address
        self._func_addr: Dict[str, int] = {}
        self._addr_func: Dict[int, str] = {}
        #: global name -> base address
        self.global_addr: Dict[str, int] = {}
        #: σ_g relay slots
        self._relay: Dict[Union[int, str], int] = {}
        self._depth = 0
        self._steps = 0
        #: allocation provenance: base address -> ("alloc", uid) or
        #: ("global", name); used by trace_memory.
        self.origin: Dict[int, Tuple[str, object]] = {}
        self.trace_memory = False
        #: load/store uid -> set of origins actually accessed
        self.mem_accesses: Dict[int, set] = {}
        #: optional execution trace: first ``trace_limit`` executed
        #: instructions, as "func: instr" strings.
        self.trace_limit = 0
        self.trace_log: List[str] = []
        #: functions and segments decoded during :meth:`run`
        self._codes: Dict[str, _Code] = {}
        self._segments: List[_Segment] = []

        self._layout()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _layout(self) -> None:
        for index, name in enumerate(self.module.functions):
            addr = -(index + 1)
            self._func_addr[name] = addr
            self._addr_func[addr] = name
        for glob in self.module.globals.values():
            base = self._allocate(glob.size, glob.initialized)
            self.origin[base] = ("global", glob.name)
            self.global_addr[glob.name] = base
            if self.plan is not None:
                # Global shadow is static storage: initialized at load
                # time by both MSan and Usher.
                bit = DEFINED if glob.initialized else UNDEFINED
                for offset in range(glob.size):
                    self.shadow_memory[base + offset] = bit

    def _allocate(self, size: int, initialized: bool) -> int:
        base = self._next_addr
        self._next_addr += size + 1  # +1: red zone between objects
        cells = range(base, base + size)
        cell = (0, DEFINED if initialized else UNDEFINED)
        self.memory.update(dict.fromkeys(cells, cell))
        self.extent.update(dict.fromkeys(cells, (base, size)))
        return base

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, args: Optional[List[int]] = None) -> ExecutionReport:
        if "main" not in self.module.functions:
            raise RuntimeFault("no main function")
        # Each simulated frame costs a handful of Python frames; make
        # sure the guest's max_depth guard fires before CPython's.
        needed = self.max_depth * 40 + 1000
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)
        values = [(v, DEFINED) for v in (args or [])]
        self._codes = {n: _Code(self, f) for n, f in self.module.functions.items()}
        try:
            result = self._call(self._codes["main"], values)
            native, reads, writes, checks = (
                sum(segment.hits * segment.cost[i] for segment in self._segments)
                for i in range(4)
            )
        finally:
            # Segments and closures refer to each other and back to this
            # interpreter: unlink them so they are freed at once, not by
            # the cycle collector.
            for segment in self._segments:
                segment.ops = segment.next = segment.branch = None
            self._codes, self._segments = {}, []
        self.report.exit_value = result[0]
        self.report.steps = self._steps
        self.report.native_ops += native
        self.events.shadow_reads += reads
        self.events.shadow_writes += writes
        self.events.checks += checks
        return self.report

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _call(self, code: "_Code", args: List[Tuple[int, int]]) -> Tuple[int, int]:
        self._depth += 1
        if self._depth > self.max_depth:
            raise RuntimeFault("call stack overflow")
        if code.entry is None:
            code.decode()
        env = code.env.copy()
        sh = code.shadow.copy()
        for (versioned, plain), arg in zip(code.params, args):
            # SSA form names the entry definition version 1; pre-SSA
            # code uses the unversioned (version-0) slot.
            env[versioned] = env[plain] = _UNDEF if arg is _UNSET else arg
        segment = code.entry
        limit = self.max_steps
        try:
            while True:
                self._steps += segment.steps
                if self._steps > limit:
                    self._overrun(segment, env, sh)
                segment.hits += 1
                for op in segment.ops:
                    op(env, sh)
                following = segment.next
                if following is None:
                    if segment.branch is None:
                        self._depth -= 1
                        result = env[segment.ret]
                        return _UNDEF if result is _UNSET else result
                    following = segment.branch(env)
                segment = following
        except KeyError as missing:
            # Only a read of an unwritten shadow slot raises a KeyError
            # with an int key.
            if not (missing.args and type(missing.args[0]) is int):
                raise
            raise code.unread(missing.args[0]) from None

    def _overrun(self, segment: _Segment, env, sh) -> None:
        """Run ``segment`` as far as the budget reaches, then stop."""
        allowed = self.max_steps - (self._steps - segment.steps)
        for op, charged in zip(segment.ops, segment.cum):
            if charged > allowed:
                break
            op(env, sh)
        raise StepLimitExceeded(f"exceeded {self.max_steps} steps")

    def _trace(self, uid: int, addr: int) -> None:
        extent = self.extent.get(addr)
        if extent is None:
            return
        origin = self.origin.get(extent[0])
        if origin is not None:
            self.mem_accesses.setdefault(uid, set()).add(origin)

    def _segment(self) -> _Segment:
        segment = _Segment()
        self._segments.append(segment)
        return segment


class _Code:
    """One function under the interpreter's plan, decoded on its first
    call: segments of closures over the interpreter's state, the frame
    templates (``env``: a list of runtime value and oracle mask per
    slot; ``shadow``: a map of the written shadow masks, constants
    pre-defined) and the parameters' slot pairs."""

    def __init__(self, vm: Interpreter, function: Function) -> None:
        self.vm = vm
        self.function = function
        self.entry: Optional[_Segment] = None

    # -- frame layout ----------------------------------------------------
    def var(self, slot: VarSlot) -> int:
        index = self.slots.get(slot)
        if index is None:
            index = self.slots[slot] = len(self.env)
            self.env.append(_UNSET)
        return index

    def constant(self, value, shadow: int = DEFINED) -> int:
        """A pre-filled slot holding ``value``, its shadow pre-set."""
        if (value, shadow) not in self.consts:
            self.consts[(value, shadow)] = index = len(self.env)
            self.shadow[index] = shadow
            self.env.append((value, DEFINED))
        return self.consts[(value, shadow)]

    def literal(self, defined: bool) -> int:
        """A slot whose shadow is pre-set to T/F."""
        return self.constant(None, DEFINED if defined else UNDEFINED)

    def value(self, value: Value) -> int:
        if isinstance(value, Const):
            return self.constant(value.value)
        return self.var((value.name, value.version or 0))

    def unread(self, index: int) -> ShadowProtocolError:
        """The error for reading slot ``index``'s shadow before a write."""
        name, version = next(s for s, i in self.slots.items() if i == index)
        return ShadowProtocolError(
            f"shadow of {name}.{version} read before any write in {self.function.name}"
        )

    # -- control flow ----------------------------------------------------
    def decode(self) -> None:
        function, plan = self.function, self.vm.plan
        self.slots: Dict[VarSlot, int] = {}
        self.consts: Dict[object, int] = {}
        self.env: List[Tuple[int, int]] = []
        self.shadow: Dict[int, int] = {}
        self.table = plan.ops if plan is not None else {}
        self.bodies: Dict[str, _Segment] = {}
        self.edges: Dict[Tuple[Optional[str], str], _Segment] = {}
        self.pending: List[str] = []
        entry = self.edge(None, function.entry.label)
        while self.pending:
            label = self.pending.pop()
            self.block(self.bodies[label], function.block(label))
        for (prev, label), segment in self.edges.items():
            self.phis(segment, function.block(label), prev)
            segment.next = self.bodies[label]
        if plan is not None and plan.entry_ops.get(function.name):
            head = self.vm._segment()
            for op in plan.entry_ops[function.name]:
                self.shadow_op(head, op)
            head.next, entry = entry, head
        self.params = [(self.var((p, 1)), self.var((p, 0))) for p in function.params]
        self.entry = entry

    def edge(self, prev: Optional[str], label: str) -> _Segment:
        """The segment entering block ``label`` from ``prev``: the
        block's body, after an edge prologue when the block has φs."""
        if label not in self.bodies:
            self.bodies[label] = self.vm._segment()
            self.pending.append(label)
        if not self.function.block(label).phis():
            return self.bodies[label]
        if (prev, label) not in self.edges:
            self.edges[(prev, label)] = self.vm._segment()
        return self.edges[(prev, label)]

    def phis(self, segment: _Segment, block, prev: Optional[str]) -> None:
        """The φ-edge prologue: the φs read in parallel, then each φ's
        value lands and its post shadow ops run — the ``PhiShadow``
        ops both plan builders put there, resolved for this edge."""
        phis = block.phis()
        segment.add(None, len(phis), (len(phis), 0, 0, 0))
        sources = [self.value(phi.incomings[prev]) for phi in phis]
        if len(phis) > 1:  # stage every read before the first φ lands
            staged = [self.var(("", index)) for index in range(len(phis))]
            for temp, source in zip(staged, sources):
                segment.add(_copy(temp, source))
            sources = staged
        for phi, source in zip(phis, sources):
            segment.add(_copy(self.var((phi.dst.name, phi.dst.version or 0)), source))
            for op in self.table[phi.uid].post if phi.uid in self.table else ():
                self.shadow_op(segment, op, prev)

    def block(self, segment: _Segment, block) -> None:
        """A block's non-φ instructions, split into segments at calls."""
        trace_limit, log = self.vm.trace_limit, self.vm.trace_log
        for instr in block.instrs:
            if isinstance(instr, ins.Phi):
                continue
            segment.add(None, 1, _NATIVE)
            if trace_limit:

                def trace(env, sh, text=f"{self.function.name}: {instr}"):
                    if len(log) < trace_limit:
                        log.append(text)

                segment.add(trace)
            ops = self.table.get(instr.uid)
            for op in ops.pre if ops is not None else ():
                self.shadow_op(segment, op)
            if isinstance(instr, ins.Jump):
                segment.next = self.edge(block.label, instr.target)
                return
            if isinstance(instr, ins.Branch):
                segment.branch = self.branch(instr, block.label)
                return
            if isinstance(instr, ins.Ret):
                ret = instr.value
                segment.ret = self.constant(0) if ret is None else self.value(ret)
                return
            segment.add(self.native(instr))
            if isinstance(instr, ins.Call):
                segment.next = segment = self.vm._segment()
            for op in ops.post if ops is not None else ():
                self.shadow_op(segment, op)
        segment.add(_raise(RuntimeFault(f"block {block.label} fell through")))

    def branch(self, instr: ins.Branch, label: str):
        cond, uid = self.value(instr.cond), instr.uid
        uses = self.vm.report.true_undefined_uses
        taken = self.edge(label, instr.then_label)
        fallthrough = self.edge(label, instr.else_label)

        def branch(env):
            value, mask = env[cond]
            if mask:
                uses.append(uid)
            return taken if value else fallthrough

        return branch

    # -- instructions ----------------------------------------------------
    def native(self, instr: ins.Instr):
        """The closure executing one non-terminator instruction."""
        vm, uid = self.vm, instr.uid
        uses = vm.report.true_undefined_uses
        dst = getattr(instr, "dst", None)
        d = self.value(dst) if dst is not None else self.var(("", 0))
        if isinstance(instr, ins.Copy):
            return _copy(d, self.value(instr.src))
        if isinstance(instr, ins.BinOp):
            return _binop(d, self.value(instr.lhs), self.value(instr.rhs), instr.op)
        if isinstance(instr, ins.ConstCopy):
            return _copy(d, self.constant(instr.value))
        if isinstance(instr, (ins.GlobalAddr, ins.FuncAddr)):
            is_global = isinstance(instr, ins.GlobalAddr)
            table = vm.global_addr if is_global else vm._func_addr
            name = instr.global_name if is_global else instr.func_name
            return _copy(d, self.constant(table[name]))
        if isinstance(instr, ins.Gep):
            b, o, extent = self.value(instr.base), self.value(instr.offset), vm.extent

            def gep(env, sh):
                base, base_mask = env[b]
                offset, offset_mask = env[o]
                bounds = extent.get(base)
                if bounds is not None:
                    # Out-of-range offsets clamp (documented); address
                    # arithmetic on a junk pointer stays total.
                    start, size = bounds
                    index = base - start + offset
                    base = start + (0 if index < 0 else min(index, size - 1))
                env[d] = (base, UNDEFINED if base_mask or offset_mask else DEFINED)

            return gep
        if isinstance(instr, (ins.Load, ins.Store)):
            p, memory = self.value(instr.ptr), vm.memory
            v = self.value(instr.value) if isinstance(instr, ins.Store) else None

            def access(env, sh):
                addr, mask = env[p]
                if mask:
                    uses.append(uid)
                cell = memory.get(addr)
                if cell is None:
                    raise RuntimeFault(f"access to unmapped address {addr}")
                if v is None:
                    env[d] = cell
                else:
                    value = env[v]
                    memory[addr] = _UNDEF if value is _UNSET else value

            if not vm.trace_memory:
                return access

            def traced(env, sh):
                addr = env[p][0]
                access(env, sh)
                vm._trace(uid, addr)

            return traced
        if isinstance(instr, ins.Call):
            return self.call(instr, d)
        if isinstance(instr, ins.Output):
            s, outputs = self.value(instr.value), vm.report.outputs

            def output(env, sh):
                value, mask = env[s]
                if mask:
                    uses.append(uid)
                outputs.append(value)

            return output
        if isinstance(instr, ins.Alloc):
            allocate, origin = vm._allocate, vm.origin
            size, initialized = instr.size, instr.initialized

            def alloc(env, sh):
                base = allocate(size, initialized)
                origin[base] = ("alloc", uid)
                env[d] = (base, DEFINED)

            return alloc
        if isinstance(instr, ins.UnOp):
            s, op = self.value(instr.operand), instr.op

            def unop(env, sh):
                value, mask = env[s]
                env[d] = (_wrap(fold_unop(op, value)), unop_mask(op, value, mask))

            return unop
        return _raise(RuntimeFault(f"cannot execute {instr}"))

    def call(self, instr: ins.Call, d: int):
        """A direct call binds its callee now, an indirect one per call."""
        vm = self.vm
        args = tuple(self.value(a) for a in instr.args)
        call, codes, functions = vm._call, vm._codes, vm._addr_func
        callee = self.value(instr.callee) if instr.is_indirect else None
        code = None if instr.is_indirect else codes.get(instr.callee)
        if callee is None and code is None:
            return _raise(RuntimeFault(f"call to unknown function {instr.callee!r}"))

        def run(env, sh):
            actuals = [env[a] for a in args]
            target = code
            if target is None:
                addr = env[callee][0]
                if addr not in functions:
                    raise RuntimeFault(f"indirect call to non-function {addr}")
                target = codes[functions[addr]]
            env[d] = call(target, actuals)

        return run

    # -- shadow machine --------------------------------------------------
    def shadow_op(self, segment: _Segment, op: ShadowOp, prev: Optional[str] = None):
        """Add one shadow op, a step of its own; a ``PhiShadow`` is
        resolved for the edge from ``prev``.  Every shadow read is
        ``sh[slot]``: the ``KeyError`` of an unwritten slot becomes the
        protocol error in :meth:`Interpreter._call`."""
        if isinstance(op, PhiShadow):
            incoming = dict(op.incomings).get(prev)
            op = (
                SetShadowVar(op.dst, True)
                if incoming is None
                else CopyShadowVar(op.dst, incoming)
            )
        checks = int(op.is_check)
        segment.add(self._shadow(op), 1, (0, op.reads, 1 - checks, checks))

    def _shadow(self, op: ShadowOp):
        vm = self.vm
        d = self.var(op.dst) if hasattr(op, "dst") else None
        if isinstance(op, Check):
            return _check(self.var(op.operand), op.label, vm.report.warnings)
        if isinstance(op, SetShadowVar):
            return _shadow_copy(d, self.literal(op.literal))
        if isinstance(op, CopyShadowVar):
            return _shadow_copy(d, self.var(op.src))
        if isinstance(op, AndShadowVar):
            return _shadow_and(d, [self.var(s) for s in op.srcs])
        if isinstance(op, (BinOpShadow, UnOpShadow)):
            binary = isinstance(op, BinOpShadow)
            lhs = self.value(op.lhs if binary else op.operand)
            return _shadow_arith(d, lhs, self.value(op.rhs) if binary else None, op.op)
        if isinstance(op, (RelayIn, RelayOut)):
            # σ_g is a shadow memory addressed by a pre-filled slot.
            table, key, unset = vm._relay, self.constant(op.slot), None
            missing = "σ_g[{}] read before write"
        elif isinstance(op, (SetShadowMem, StoreShadow, LoadShadow)):
            table, key = vm.shadow_memory, self.var(op.ptr)
            unset = ShadowProtocolError(
                f"shadow op refers to unset pointer {op.ptr[0]}.{op.ptr[1]}"
            )
            missing = "shadow memory at {} read before any write"
        else:
            return _raise(RuntimeFault(f"unknown shadow op {op}"))
        if isinstance(op, (RelayIn, LoadShadow)):
            return _shadow_load(d, table, key, unset, missing)
        if isinstance(op, SetShadowMem):
            extent = vm.extent if op.whole_object else None
            return _shadow_store(table, key, unset, self.literal(op.literal), extent)
        s = self.var(op.src) if op.src is not None else self.literal(True)
        return _shadow_store(table, key, unset, s, None)


def _copy(d: int, s: int):
    def copy(env, sh):
        value = env[s]
        env[d] = _UNDEF if value is _UNSET else value

    return copy


def _binop(d: int, lhs: int, rhs: int, op: str):
    fold = _FOLD.get(op) or functools.partial(fold_binop, op)
    bitwise = is_bitwise(op)

    def binop(env, sh):
        a, a_mask = env[lhs]
        b, b_mask = env[rhs]
        env[d] = (
            ((fold(a, b) + _HALF) & _MASK) - _HALF,
            binop_mask(op, a, a_mask, b, b_mask)
            if bitwise
            else UNDEFINED if a_mask or b_mask else DEFINED,
        )

    return binop


def _check(c: int, label: int, warnings: List[int]):
    def check(env, sh):
        if sh[c]:
            warnings.append(label)

    return check


def _shadow_copy(d: int, s: int):
    def copy(env, sh):
        sh[d] = sh[s]

    return copy


def _shadow_and(d: int, sources: List[int]):
    """The conjunction of the sources' shadows: exact under full-spread
    semantics, the sources being non-bitwise must-flow sources."""

    def conjoin(env, sh):
        masks = [sh[s] for s in sources]  # every source is read
        sh[d] = UNDEFINED if any(masks) else DEFINED

    return conjoin


def _shadow_arith(d: int, lhs: int, rhs: Optional[int], op: str):
    """The bit-precise shadow of ``op lhs`` or ``lhs op rhs`` (a
    constant's shadow slot is pre-defined)."""
    if rhs is None:

        def unop(env, sh):
            sh[d] = unop_mask(op, env[lhs][0], sh[lhs])

        return unop
    bitwise = is_bitwise(op)

    def binop(env, sh):
        lhs_mask, rhs_mask = sh[lhs], sh[rhs]
        if bitwise:
            sh[d] = binop_mask(op, env[lhs][0], lhs_mask, env[rhs][0], rhs_mask)
        else:
            sh[d] = UNDEFINED if lhs_mask or rhs_mask else DEFINED

    return binop


def _shadow_load(d: int, table: Dict, key: int, unset, missing: str):
    """σ(d) := ``table[env[key]]`` (shadow memory or σ_g)."""

    def load(env, sh):
        pointer = env[key]
        if pointer is _UNSET:
            raise unset
        bit = table.get(pointer[0])
        if bit is None:
            raise ShadowProtocolError(missing.format(pointer[0]))
        sh[d] = bit

    return load


def _shadow_store(table: Dict, key: int, unset, s: int, extent):
    """``table[env[key]]`` := σ(s), over the whole allocation when given
    the ``extent`` map (shadow memory or σ_g)."""

    def store(env, sh):
        pointer = env[key]
        if pointer is _UNSET:
            raise unset
        value = sh[s]
        if extent is None:
            table[pointer[0]] = value
            return
        bounds = extent.get(pointer[0])
        if bounds is None:
            raise RuntimeFault(f"shadow set through bad pointer {pointer[0]}")
        table.update(dict.fromkeys(range(bounds[0], bounds[0] + bounds[1]), value))

    return store


def run_native(
    module: Module, args: Optional[List[int]] = None, max_steps: int = 2_000_000
) -> ExecutionReport:
    """Execute ``module`` without instrumentation."""
    return Interpreter(module, plan=None, max_steps=max_steps).run(args)


def run_instrumented(
    module: Module,
    plan: InstrumentationPlan,
    args: Optional[List[int]] = None,
    max_steps: int = 8_000_000,
) -> ExecutionReport:
    """Execute ``module`` under ``plan``'s shadow operations."""
    return Interpreter(module, plan=plan, max_steps=max_steps).run(args)

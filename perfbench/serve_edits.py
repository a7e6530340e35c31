"""``serve_edits``: the resident ``repro serve`` edit/query loop.

An in-process :class:`repro.service.server.ReproServer` on loopback,
served from one thread and driven by one closed-loop client (the
calling thread) through :class:`repro.service.server.ServiceClient`.
Each pass opens two sessions over two different factor-8 generated
modules and runs a fixed script of :data:`ROUNDS` rounds; in every
round each session gets:

* one ``update``: a definedness-neutral insert (a fresh constant or a
  copy of a stack slot's address; both only add constraints, the warm
  path) or, in the rounds of :data:`REVERT_ROUNDS`, a revert of an
  edited function to its opening text (which removes constraints, the
  rebuild path);
* ``query_sites`` over all sites, then over :data:`QUERY_SUBSETS`
  random quarter subsets;
* :data:`EXPLAINS` ``explain`` calls on uids the full query reported
  undefined.

Session B also sends the rejected bodies of :data:`REJECTS`: one that
fails to parse and one that parses but fails verification.  After
each, the probe expects a 400, an unchanged ``function_text`` and
unchanged verdicts, and then sends the round's regular update to
another function, which must be accepted; the user then resubmits a
valid edit of the rejected function.  The seed picks the edited
functions, subsets and explained uids; the modules are fixed.  The
timed units are the requests.

The request mix is a chosen script, not recorded traffic: the
repository holds no trace of real ``repro serve`` use.  :meth:`notes`
prints each request kind's count per pass and its share of ``wall_s``.

Between requests the client also reads the server's session objects
directly (function texts, plan sizes, the final module for the cold
check): the HTTP API has no route for them, and with one closed-loop
client the server is idle whenever the client runs.
"""

from __future__ import annotations

import copy
import random
import re
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.core import prepare_module, run_usher
from repro.ir.printer import module_to_str
from repro.service.server import ReproServer, ServiceClient, ServiceError
from repro.workloads import GeneratorParams, generate_program

from measure import Tally, percentile
from spans import Tracer, span_of

MODULE_SEEDS = (11, 12)
FACTOR = 8
ROUNDS = 2
#: Rounds whose update reverts an edited function (the rebuild path).
REVERT_ROUNDS = (1,)
#: Rounds in which session B first sends a rejected body, by kind.
REJECTS = {0: "parse", 1: "verify"}
#: Subset queries and explains per session and round: enough that a
#: four-pass run has ten samples beyond ``query_p90_s`` and
#: ``explain_p50_s``.
QUERY_SUBSETS = 5
EXPLAINS = 2

_ALLOC = re.compile(r"^\s*(%\S+) := alloc_")


def _insert_after_entry(text: str, line: str) -> str:
    lines = text.splitlines()
    for index, current in enumerate(lines):
        if current.rstrip().endswith(":"):
            lines.insert(index + 1, line)
            return "\n".join(lines)
    raise ValueError("function text has no block label")


class _Script:
    """Client-side state of one session during a pass."""

    def __init__(self, name: str, digest: str, session) -> None:
        self.name = name
        self.digest = digest
        self.session = session
        self.functions = session.function_names()
        self.opening = {f: session.function_text(f) for f in self.functions}
        self.edited: Set[str] = set()
        self.verdicts: Dict[int, bool] = {}
        self.inserts = 0


class ServeEdits:
    #: Seconds of one pass and its untimed checks on a 2-vCPU host, at
    #: the host's slower speed, to turn ``--seconds`` into passes.
    pass_seconds = 9.0
    name = "serve_edits"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.sources = {
            f"gen{s}": generate_program(s, GeneratorParams().scaled(FACTOR))
            for s in MODULE_SEEDS
        }
        self.server = ReproServer(("127.0.0.1", 0))
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.client = ServiceClient(f"http://{host}:{port}", timeout=120.0)
        self.samples: Dict[str, List[float]] = {
            "open": [], "update": [], "query": [], "explain": []
        }
        self.scripts: List[_Script] = []
        self.units: List[float] = []
        self.kinds: List[str] = []
        self.passes_units: List[List[float]] = []
        #: Cold verdicts by final module text.
        self.cold: Dict[str, Dict[int, bool]] = {}
        self.passes = 0
        self.static_ops = 0

    def inputs(self) -> str:
        return (
            f"modules {', '.join(self.sources)} at factor {FACTOR}, "
            f"{ROUNDS} rounds per pass"
        )

    # -- the timed pass --------------------------------------------------
    def run_pass(self, tally: Tally, tracer: Optional[Tracer]) -> List[float]:
        rng = random.Random(self.seed)
        self.passes += 1
        self.scripts = []
        self.units = []
        self.kinds = []
        self.passes_units.append(self.units)
        for name, source in self.sources.items():
            ok, opened = self._call(tally, tracer, "open", self.client.open,
                                    source=source, name=f"{name}.{self.passes}")
            if ok:
                session = self.server.sessions[opened["digest"]]
                self.scripts.append(_Script(name, opened["digest"], session))
        self.static_ops = sum(
            s.session.plan.count_checks() + s.session.plan.count_propagations()
            for s in self.scripts
        )
        for script in self.scripts:
            self._query_all(tally, tracer, script)
        for round_no in range(ROUNDS):
            for index, script in enumerate(self.scripts):
                probed = None
                if index == 1 and round_no in REJECTS:
                    probed = self._reject(tally, tracer, rng, script, REJECTS[round_no])
                self._update(tally, tracer, rng, script, round_no,
                             avoid=probed and probed[0])
                if probed is not None:
                    self._update(tally, tracer, rng, script, round_no, resubmit=probed)
                self._query_all(tally, tracer, script)
                uids = sorted(script.verdicts)
                for _ in range(QUERY_SUBSETS):
                    subset = rng.sample(uids, max(1, len(uids) // 4))
                    ok, got = self._call(tally, tracer, "query.subset",
                                         self.client.query_sites, script.digest, uids=subset)
                    if ok:
                        tally.check(
                            got == {u: script.verdicts[u] for u in subset},
                            f"{script.name}: subset verdicts disagree with the full query",
                        )
                undefined = sorted(u for u, ok in script.verdicts.items() if not ok)
                for _ in range(EXPLAINS if undefined else 0):
                    uid = rng.choice(undefined)
                    ok, steps = self._call(tally, tracer, "explain", self.client.explain,
                                           script.digest, uid)
                    if ok and not steps:
                        tally.check(False, f"{script.name}: no flow explains undefined uid {uid}")
        return self.units

    def _call(self, tally: Tally, tracer, kind: str, fn, *args, expect=200, **kwargs):
        """One request of ``kind`` (``"update.warm"`` samples as
        ``update``), counted as an operation; returns ``(ok, result)``.
        Its latency is a sample only when it succeeds."""
        started = time.perf_counter()
        status, result, message = 200, None, ""
        try:
            with span_of(tracer, "serve.http"):
                result = fn(*args, **kwargs)
        except ServiceError as exc:
            status, message = exc.status, exc.message
        elapsed = time.perf_counter() - started
        self.units.append(elapsed)
        self.kinds.append(kind)
        family = kind.split(".")[0]
        ok = tally.check(
            status == expect,
            f"{kind} {args[1:2]}: HTTP {status}, expected {expect} {message}".rstrip(),
            output=family != "update",
        )
        if ok and status == 200:
            self.samples[family].append(elapsed)
        return ok, result

    def _query_all(self, tally: Tally, tracer, script: _Script) -> None:
        ok, got = self._call(tally, tracer, "query.all", self.client.query_sites, script.digest)
        if ok:
            script.verdicts = got

    def _update(self, tally, tracer, rng, script: _Script, round_no: int,
                avoid: Optional[str] = None,
                resubmit: Optional[Tuple[str, str]] = None) -> None:
        """One regular update; ``resubmit`` is ``(function, text)``: a
        valid edit of ``text``, the function as it was before a rejected
        edit."""
        if resubmit is not None:
            kind = "update.resubmit"
            function, base = resubmit
            body = _insert_after_entry(base, self._neutral_line(script, function))
        elif round_no in REVERT_ROUNDS and script.edited - {avoid}:
            kind = "update.revert"
            function = rng.choice(sorted(script.edited - {avoid}))
            body = script.opening[function]
        else:
            kind = "update.warm"
            function = rng.choice([f for f in script.functions if f != avoid])
            body = _insert_after_entry(
                script.session.function_text(function),
                self._neutral_line(script, function),
            )
        ok, _stats = self._call(tally, tracer, kind, self.client.update,
                                script.digest, function, body)
        if ok:
            if body == script.opening[function]:
                script.edited.discard(function)
            else:
                script.edited.add(function)

    def _neutral_line(self, script: _Script, function: str) -> str:
        script.inserts += 1
        target = f"%__bench{script.inserts}"
        if script.inserts % 2 == 0:
            for line in script.opening[function].splitlines():
                match = _ALLOC.match(line)
                if match:
                    return f"    {target} := {match.group(1)}"
        return f"    {target} := 0"

    def _reject(self, tally, tracer, rng, script: _Script, kind: str) -> Tuple[str, str]:
        """Send a body that fails ``kind`` (``"parse"`` or ``"verify"``)
        and probe that the session is unchanged."""
        function = rng.choice(script.functions)
        before_text = script.session.function_text(function)
        before = dict(script.verdicts)
        bad_line = {
            "parse": "    %__bad := ??",
            "verify": "    %__bad := __no_such_function(1)",
        }[kind]
        self._call(tally, tracer, f"reject.{kind}", self.client.update, script.digest,
                   function, _insert_after_entry(before_text, bad_line), expect=400)
        tally.check(
            script.session.function_text(function) == before_text,
            f"{script.name}: rejected ({kind}) edit of {function} changed its function_text",
            output=False,
        )
        self._query_all(tally, tracer, script)
        tally.check(
            script.verdicts == before,
            f"{script.name}: rejected edit of {function} changed query_sites",
            output=False,
        )
        return function, before_text

    # -- untimed checks ----------------------------------------------------
    def verify(self, tally: Tally) -> None:
        """Each session's final verdicts against a cold analysis of its
        final module, then drop the pass's sessions.  Every pass runs the
        same script, so a final module text already analyzed cold is not
        analyzed again."""
        for script in self.scripts:
            session = script.session
            text = module_to_str(session.pristine)
            cold = self.cold.get(text)
            if cold is None:
                prepared = prepare_module(copy.deepcopy(session.pristine))
                result = run_usher(prepared, session.config)
                cold = {}
                for site in result.vfg.check_sites:
                    ok = result.gamma.is_defined(site.node)
                    cold[site.instr_uid] = cold.get(site.instr_uid, True) and ok
                self.cold[text] = cold
            tally.check(
                cold == script.verdicts,
                f"{script.name}: final verdicts differ from a cold analysis",
            )
        self.server.close_sessions()
        self.scripts = []

    def report(self) -> List[Tuple[str, float, str, int]]:
        rows = []
        opens = self.samples["open"]
        if opens:
            rows.append(("open_s", sum(opens) / len(opens), "s", len(opens)))
        for name, kind, p in (
            ("update_p50_s", "update", 50),
            ("query_p50_s", "query", 50),
            ("query_p90_s", "query", 90),
            ("explain_p50_s", "explain", 50),
        ):
            value, n = percentile(self.samples[kind], p)
            rows.append((name, value, "s", n))
        return rows

    def notes(self) -> List[str]:
        """The request mix: each kind's count per pass and its share of
        ``wall_s``, both from the passes' fastest copies of each unit."""
        if not self.passes_units or len({len(u) for u in self.passes_units}) != 1:
            return ["request mix: passes do not line up, no shares"]
        fastest = [min(copies) for copies in zip(*self.passes_units)]
        total = sum(fastest)
        per_kind: Dict[str, List[float]] = {}
        for kind, seconds in zip(self.kinds, fastest):
            per_kind.setdefault(kind, []).append(seconds)
        lines = ["request mix per pass (a chosen script, not recorded traffic):"]
        for kind, times in sorted(per_kind.items(), key=lambda kv: -sum(kv[1])):
            lines.append(
                f"  {kind:<16}{len(times):>5} requests {sum(times) / total:>7.1%} of wall_s"
            )
        return lines

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join(timeout=30)
        self.server.server_close()

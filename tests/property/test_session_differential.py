"""Differential suite: ``AnalysisSession.update()`` vs cold analysis.

The contract is absolute: after any sequence of updates, the session's
points-to sets, instrumentation plan and Γ verdicts must be
*bit-identical* to a from-scratch ``prepare_module`` + ``run_usher`` of
the session's current module, and uids of unedited instructions must
survive every edit.  A rejected update — a body that fails to parse or
verify, or any rebuild step raising — must leave the session exactly as
it was and the next valid update must still succeed.
"""

import copy

import pytest

from repro.core import prepare_module, run_usher
from repro.ir.parser import IRParseError
from repro.ir.verifier import VerificationError
from repro.options import AnalysisOptions
from repro.service import AnalysisSession, plan_signature
from repro.service import session as session_module
from repro.workloads import GeneratorParams, generate_program

PROGRAM = """
def leaf(p) {
  var t = *p + 1;
  return t;
}
def helper(p, q) {
  var a;
  if (*p > 2) { a = leaf(q); }
  return a;
}
def classify(v) {
  var bin;
  var cell = malloc(1);
  *cell = v;
  if (v < 5) { bin = helper(cell, cell); }
  return bin;
}
def main() {
  var b = classify(9);
  var c = classify(1);
  if (b + c) { output(1); }
  return 0;
}
"""


def _insert_line(session, fname, line):
    """``fname``'s text with ``line`` inserted after its first label."""
    lines = session.function_text(fname).splitlines()
    for index, current in enumerate(lines):
        if current.rstrip().endswith(":"):
            lines.insert(index + 1, line)
            break
    return "\n".join(lines)


def _const_edit(session, fname):
    """Insert a fresh constant assignment after the function's first
    label — a definedness-neutral edit."""
    return _insert_line(session, fname, "    %__e0 := 0")


def _uids(session):
    """Per function, the post-pipeline instructions with their uids."""
    return {
        fname: [(instr.uid, str(instr)) for instr in fn.instructions()]
        for fname, fn in session.pristine.functions.items()
    }


def _cold_oracle(session):
    """From-scratch analysis of the session's current module."""
    prepared = prepare_module(copy.deepcopy(session.pristine))
    result = run_usher(prepared, session.config)
    verdicts = {}
    for site in result.vfg.check_sites:
        ok = result.gamma.is_defined(site.node)
        verdicts[site.instr_uid] = verdicts.get(site.instr_uid, True) and ok
    return prepared, result, verdicts


def _assert_bit_identical(session):
    cold_prep, cold, cold_verdicts = _cold_oracle(session)
    assert session.pointers.pts == cold_prep.pointers.pts
    assert plan_signature(session.plan) == plan_signature(cold.plan)
    assert session.query_sites() == cold_verdicts


class TestBitIdentity:
    def test_initial_and_per_function_edits(self):
        session = AnalysisSession.from_source(PROGRAM, name="prog")
        _assert_bit_identical(session)
        for fname in session.function_names():
            stats = session.update(fname, _const_edit(session, fname))
            assert stats.function == fname
            assert stats.generation == session.generation
            _assert_bit_identical(session)

    def test_non_opt2_config(self):
        session = AnalysisSession.from_source(
            PROGRAM,
            name="prog",
            options=AnalysisOptions(config="usher_tl"),
        )
        _assert_bit_identical(session)
        session.update("classify", _const_edit(session, "classify"))
        _assert_bit_identical(session)

    def test_identity_update_is_warm(self):
        """An identity update keeps every uid (and rebuilds cold)."""
        session = AnalysisSession.from_source(PROGRAM, name="prog")
        before = _uids(session)
        stats = session.update("leaf", session.function_text("leaf"))
        assert stats.mode == "rebuild"
        assert _uids(session) == before
        _assert_bit_identical(session)


class TestIncrementalityBounds:
    def test_single_function_edit_on_factor8_corpus(self):
        """A single-function edit keeps every uid outside the edited
        function, and every uid of the instructions it kept."""
        source = generate_program(11, GeneratorParams().scaled(8))
        session = AnalysisSession.from_source(source, name="gen11")
        target = session.function_names()[0]
        before = _uids(session)
        stats = session.update(target, _const_edit(session, target))
        assert stats.mode == "rebuild"
        assert stats.total_nodes > 0
        assert stats.dirty_fraction == 1.0
        assert stats.memos_carried == stats.tapes_reused == 0
        after = _uids(session)
        assert len(after) > 1
        for fname, instrs in before.items():
            if fname != target:
                assert after[fname] == instrs, fname
        assert set(before[target]) <= set(after[target])
        _assert_bit_identical(session)


class TestUpdateValidation:
    def test_unknown_function(self):
        session = AnalysisSession.from_source(PROGRAM, name="prog")
        with pytest.raises(KeyError):
            session.update("nope", "def nope() {\nentry:\n    ret 0\n}")

    def test_rename_rejected(self):
        session = AnalysisSession.from_source(PROGRAM, name="prog")
        renamed = session.function_text("leaf").replace(
            "def leaf", "def sprout", 1
        )
        with pytest.raises(ValueError):
            session.update("leaf", renamed)

    def test_generation_counts_updates(self):
        session = AnalysisSession.from_source(PROGRAM, name="prog")
        assert session.generation == 0
        session.update("leaf", _const_edit(session, "leaf"))
        session.update("main", _const_edit(session, "main"))
        assert session.generation == 2
        assert session.last_update.function == "main"


# ----------------------------------------------------------------------
# Failure atomicity
# ----------------------------------------------------------------------
class InjectedFault(RuntimeError):
    """Raised by a monkeypatched rebuild step."""


def _observable(session):
    """Everything a client can read off a session."""
    verdicts = session.query_sites()
    explained = {}
    for uid in sorted(verdicts):
        steps = session.explain(uid)
        explained[uid] = None if steps is None else [s.render() for s in steps]
    return (
        {f: session.function_text(f) for f in session.function_names()},
        session.generation,
        session.last_update,
        plan_signature(session.plan),
        verdicts,
        explained,
        _uids(session),
    )


def _assert_recovers(session, rejected_fn):
    """The next valid update succeeds — to the rejected function and to
    another one — and matches a cold analysis bit for bit."""
    generation = session.generation
    for fname in (rejected_fn, "main"):
        stats = session.update(fname, _const_edit(session, fname))
        generation += 1
        assert stats.generation == session.generation == generation
        _assert_bit_identical(session)


_BAD_LINES = {
    "parse": (IRParseError, "    %__bad := ??"),
    "unknown-call": (VerificationError, "    %__bad := __no_such_function(1)"),
}


class TestFailureAtomicity:
    @pytest.mark.parametrize("kind", sorted(_BAD_LINES))
    def test_rejected_body_leaves_session_unchanged(self, kind):
        session = AnalysisSession.from_source(PROGRAM, name="prog")
        session.update("leaf", _const_edit(session, "leaf"))
        before = _observable(session)
        error, line = _BAD_LINES[kind]
        with pytest.raises(error):
            session.update("helper", _insert_line(session, "helper", line))
        assert _observable(session) == before
        _assert_recovers(session, "helper")

    def test_jump_to_unknown_block_leaves_session_unchanged(self):
        session = AnalysisSession.from_source(PROGRAM, name="prog")
        before = _observable(session)
        text = session.function_text("helper")
        assert "goto join3\njoin3:" in text
        bad = text.replace("goto join3\njoin3:", "goto nowhere\njoin3:")
        with pytest.raises(VerificationError, match="nowhere"):
            session.update("helper", bad)
        assert _observable(session) == before
        _assert_recovers(session, "helper")

    @pytest.mark.parametrize(
        "step", ["run_pipeline", "verify_module", "prepare_module", "run_usher"]
    )
    def test_failing_rebuild_step_leaves_session_unchanged(
        self, monkeypatch, step
    ):
        session = AnalysisSession.from_source(PROGRAM, name="prog")
        before = _observable(session)

        def fail(*args, **kwargs):
            raise InjectedFault(step)

        with monkeypatch.context() as patch:
            patch.setattr(session_module, step, fail)
            with pytest.raises(InjectedFault):
                session.update("classify", _const_edit(session, "classify"))
        assert _observable(session) == before
        _assert_recovers(session, "classify")

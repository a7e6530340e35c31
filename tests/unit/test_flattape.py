"""Flat constraint-tape encode/decode.

The session cache stores each function's constraints as a flat
``int64`` word tape (:mod:`repro.analysis.shardgen`): the collector's
recording hooks encode every op as it is generated, and
:func:`~repro.analysis.shardgen.iter_ops` decodes the tape when
``DeltaSolver._replay_shard`` and the warm-restart check read it back.
The round trip must be exact on every op shape and edge case — empty
tapes, ``None`` GEP offsets, missing icall args and destinations,
int64-sized uids and offsets.
"""

from repro.analysis.andersen import (
    OP_COPY,
    OP_GEP,
    OP_ICALL,
    OP_LOAD,
    OP_PTS,
    OP_STORE,
)
from repro.analysis.shardgen import GEP_NONE, _collector_class, iter_ops
from repro.service.session import _collect_tape
from tests.helpers import random_module

#: Largest raw word the tape must carry losslessly (int64 max).
MAX_ID = 2**63 - 1


def _collector(module=None):
    """A collector that generated nothing yet: its hooks are the
    encoder under test."""
    module = module or random_module(0)
    return _collector_class()(module, frozenset(), set(), [])


def _emit(collector, ops):
    """Feed symbol-level ops through the recording hooks."""
    hooks = {
        OP_PTS: collector._add_pts,
        OP_COPY: collector._add_copy,
        OP_LOAD: collector._add_load,
        OP_STORE: collector._add_store,
        OP_GEP: collector._add_gep,
        OP_ICALL: collector._add_icall,
    }
    for op in ops:
        hooks[op[0]](*op[1:])


def _decode(shard):
    """Decode a tape back to symbol-level ops."""
    syms = shard.syms

    def sym(sid):
        return None if sid == -1 else syms[sid]

    out = []
    for op in iter_ops(shard.words):
        tag = op[0]
        if tag == OP_ICALL:
            out.append(
                (tag, sym(op[1]), op[2], tuple(sym(a) for a in op[3]),
                 sym(op[4]))
            )
        elif tag == OP_GEP:
            out.append((tag, sym(op[1]), sym(op[2]), op[3]))
        else:
            out.append((tag, sym(op[1]), sym(op[2])))
    return out


def _round_trip(ops):
    collector = _collector()
    _emit(collector, ops)
    return _decode(collector.result_shard)


class TestEncodeDecodeRoundTrip:
    def test_empty_tape(self):
        shard = _collector().result_shard
        assert len(shard.words) == 0
        assert list(iter_ops(shard.words)) == []

    def test_single_op(self):
        ops = [(OP_COPY, "a", "b")]
        assert _round_trip(ops) == ops

    def test_every_op_shape(self):
        ops = [
            (OP_PTS, "p", "loc"),
            (OP_COPY, "p", "q"),
            (OP_LOAD, "q", "r"),
            (OP_STORE, "r", "s"),
            (OP_GEP, "s", "t", 7),
            (OP_GEP, "t", "u", None),
            (OP_ICALL, "fp", 99, ("a", None, "b"), "ret"),
            (OP_ICALL, "fp", 100, (), None),
        ]
        assert _round_trip(ops) == ops

    def test_max_int64_ids(self):
        ops = [
            (OP_GEP, "base", "dst", MAX_ID),
            (OP_ICALL, "fp", MAX_ID, ("a",), "ret"),
        ]
        assert _round_trip(ops) == ops

    def test_gep_none_sentinel_is_distinct(self):
        # GEP_NONE only ever encodes a None offset; a real offset of
        # the same magnitude cannot arise (field indices are small
        # non-negative ints), and None round-trips exactly.
        collector = _collector()
        _emit(collector, [(OP_GEP, "base", "dst", None)])
        words = collector.result_shard.words
        assert words[3] == GEP_NONE
        assert _decode(collector.result_shard) == [
            (OP_GEP, "base", "dst", None)
        ]

    def test_iter_ops_is_lazy_and_equivalent(self):
        collector = _collector()
        _emit(collector, [(OP_PTS, "p", "loc"), (OP_ICALL, "fp", 4, ("a",), "r")])
        iterator = iter_ops(collector.result_shard.words)
        first = next(iterator)
        assert first[0] == OP_PTS
        rest = list(iterator)
        assert [op[0] for op in rest] == [OP_ICALL]

    def test_shard_result_ops_property_decodes_words(self):
        # A real function's tape decodes to ops that, fed back through
        # a fresh collector's hooks, re-encode to the identical words.
        module = random_module(3)
        checked = 0
        for fname in module.functions:
            shard = _collect_tape(module, frozenset(), set(), fname)
            ops = _decode(shard)
            again = _collector(module)
            _emit(again, ops)
            assert again.result_shard.words == shard.words, fname
            assert again.result_shard.syms == shard.syms, fname
            checked += len(ops)
        assert checked

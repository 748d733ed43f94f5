"""Differential properties of the paged QUAD shadow memory.

The paged/interned sink (:mod:`repro.quad.shadow`) must be *byte-identical*
to the per-byte dict/set walk (the oracle in ``tests/reference/quad.py``)
for any access stream.  Hypothesis drives `QuadTool` and the oracle over
random streams of reads/writes of random sizes and alignments,
interleaved with kernel enter/return events, SP movement (including
accesses straddling the stack pointer) and mid-stream drains, then
compares every Table II counter, UnMA cardinality and binding.

Those streams are short and drain at a tiny cap.  A second differential
drives long *loop-shaped* streams through the sink at its default cap, so
drains run at real batch sizes: a few hot words re-read many times (long
runs that collapse), byte writes into words later read whole, and SP
sweeping across the hot words.  Deterministic cases pin the two branches
such streams reach rarely: repeated reads of a mixed-producer persistent
word, and repeated reads of an unknown producer with ``defer_unknown``.

A last block checks `ShadowPages.snapshot` / `compose` — the primitives
the parallel merge builds its composed pre-shard shadow from — against a
plain dict model, including writer-id remapping.

Budget: the long-stream example count is ``LONG_EXAMPLES`` (CI-sized);
under ``TQUAD_NIGHTLY=1`` it is ``FUZZ_NIGHTLY_EXAMPLES``, as for the
differential fuzzer.
"""

import os

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.quad.shadow import (DEFAULT_RAW_CAP, PAGE, PagedQuadSink,
                               ShadowPages, make_raw_recorder)
from repro.quad.tracker import QuadTool
from repro.vm.program import MAIN_IMAGE
from tests.reference.quad import PerByteQuadTool

_NAMES = ["alpha", "beta", "gamma"]

NIGHTLY = os.environ.get("TQUAD_NIGHTLY", "") == "1"
LONG_EXAMPLES = (int(os.environ.get("FUZZ_NIGHTLY_EXAMPLES", "200"))
                 if NIGHTLY else 6)


@st.composite
def access_streams(draw):
    """A random event stream: kernel transitions + sized memory accesses.

    Addresses cluster either low in memory or around a shadow page
    boundary (so multi-page gathers/scatters are exercised); SP values sit
    inside the address cluster so accesses can fall fully below, fully
    above, or straddle the stack pointer.
    """
    base = draw(st.sampled_from([64, PAGE - 128]))
    n = draw(st.integers(min_value=1, max_value=120))
    events = []
    for _ in range(n):
        kind = draw(st.sampled_from(
            ["enter", "ret", "flush", "read", "read", "read",
             "write", "write", "write"]))
        if kind == "enter":
            events.append(("enter", draw(st.sampled_from(_NAMES))))
        elif kind in ("ret", "flush"):
            events.append((kind,))
        else:
            ea = base + draw(st.integers(min_value=0, max_value=256))
            size = draw(st.integers(min_value=1, max_value=8))
            sp = base + draw(st.sampled_from([0, 13, 128, 260, 1 << 30]))
            events.append((kind, ea, size, sp))
    return events


def _replay(events, shadow: str, cap: int = 24):
    """Drive `QuadTool` (``"paged"``) or the per-byte oracle
    (``"legacy"``) over the stream, engine-free."""
    if shadow == "paged":
        tool = QuadTool()
        # mirror attach(), by default with a small cap to force frequent
        # drains
        tool.sink = PagedQuadSink(tool.callstack, cap=cap)
        on_read = make_raw_recorder(tool.sink, write=False)
        on_write = make_raw_recorder(tool.sink, write=True)
    else:
        tool = PerByteQuadTool()
        on_read, on_write = tool.on_read, tool.on_write
    for ev in events:
        kind = ev[0]
        if kind == "enter":
            tool.callstack.enter(ev[1], MAIN_IMAGE)
        elif kind == "ret":
            tool.callstack.on_ret()
        elif kind == "flush":
            if shadow == "paged":
                tool.flush()
        elif kind == "read":
            on_read(ev[1], ev[2], ev[3])
        else:
            on_write(ev[1], ev[2], ev[3])
    if shadow == "paged":
        tool.flush()
        tool._materialize()
        ios = tool.kernels
    else:
        ios = tool.kernel_io()
    kernels = {
        name: (io.in_bytes_incl, io.in_bytes_excl,
               io.out_bytes_incl, io.out_bytes_excl,
               io.in_unma_incl, io.in_unma_excl,
               io.out_unma_incl, io.out_unma_excl,
               io.reads, io.writes, io.reads_nonstack, io.writes_nonstack)
        for name, io in ios.items()
    }
    bindings = {k: tuple(v) for k, v in tool.bindings.items()}
    return kernels, bindings


class TestPagedLegacyDifferential:
    @given(access_streams())
    @settings(max_examples=120, deadline=None)
    def test_byte_identical_to_legacy(self, events):
        paged = _replay(events, "paged")
        legacy = _replay(events, "legacy")
        assert paged == legacy

    @given(access_streams(), access_streams())
    @settings(max_examples=40, deadline=None)
    def test_reset_gives_independent_run(self, first, second):
        """After reset() the paged tool reproduces a fresh tool's results
        (no state bleed through shadow, counters, bitmaps or buffer)."""
        tool = QuadTool()
        tool.sink = PagedQuadSink(tool.callstack, cap=24)

        def play(events):
            on_read = make_raw_recorder(tool.sink, write=False)
            on_write = make_raw_recorder(tool.sink, write=True)
            for ev in events:
                kind = ev[0]
                if kind == "enter":
                    tool.callstack.enter(ev[1], MAIN_IMAGE)
                elif kind == "ret":
                    tool.callstack.on_ret()
                elif kind == "flush":
                    tool.flush()
                elif kind == "read":
                    on_read(ev[1], ev[2], ev[3])
                else:
                    on_write(ev[1], ev[2], ev[3])
            tool.flush()
            tool._materialize()
            return ({n: (io.in_bytes_incl, io.in_bytes_excl,
                         io.out_bytes_incl, io.out_bytes_excl)
                     for n, io in tool.kernels.items()},
                    {k: tuple(v) for k, v in tool.bindings.items()})

        play(first)
        frozen = tool.kernels
        tool.reset()
        got = play(second)
        fresh = _replay(second, "paged")
        assert got[0] == {n: v[:4] for n, v in fresh[0].items()}
        assert got[1] == fresh[1]
        # previously extracted references stayed frozen
        assert frozen is not tool.kernels


@st.composite
def loop_streams(draw):
    """A long stream: one loop body of kernel transitions and accesses,
    iterated until the stream holds ~20k accesses, one more than the
    default cap, or ~300k.

    A prologue writes every word the loop touches.  Accesses target a
    few hot words (fixed addresses, re-read every iteration), a swept
    array (address moves with the iteration) or a byte inside a hot word;
    SP is fixed high, fixed inside the hot words, or sweeps across them
    with the iteration.
    """
    base = draw(st.sampled_from([64, PAGE - 24]))
    hot = [base + 8 * i for i in range(draw(st.integers(2, 5)))]
    span = draw(st.integers(1, 64))
    sp_mode = draw(st.sampled_from(["high", "inside", "sweep"]))
    body = [("enter", draw(st.sampled_from(_NAMES)))]
    for _ in range(draw(st.integers(3, 14))):
        kind = draw(st.sampled_from(
            ["read", "read", "read", "write", "write", "byte",
             "enter", "ret"]))
        if kind == "enter":
            body.append(("enter", draw(st.sampled_from(_NAMES))))
        elif kind == "ret":
            body.append(("ret",))
        elif kind == "byte":
            body.append(("write", "byte", draw(st.sampled_from(hot)),
                         draw(st.integers(0, 7))))
        else:
            target = draw(st.sampled_from(["hot", "hot", "sweep"]))
            where = (draw(st.sampled_from(hot)) if target == "hot"
                     else draw(st.integers(1, 3)))
            body.append((kind, target, where, 0))
    body.append(("ret",))
    # enough accesses for one or more full-cap drains, not just a tail
    accesses = sum(op[0] in ("read", "write") for op in body)
    total = draw(st.sampled_from([20_000, DEFAULT_RAW_CAP + 1, 300_000]))
    iterations = -(-total // max(accesses, 1))

    # a prologue produces every hot and swept word, so the loop's reads
    # resolve to producers, in its own drain or the persistent shadow
    events = [("enter", draw(st.sampled_from(_NAMES)))]
    events += [("write", ea, 8, 1 << 30)
               for ea in hot + [base + 512 + 8 * j for j in range(span)]]
    events.append(("ret",))
    for i in range(iterations):
        if sp_mode == "high":
            sp = 1 << 30
        elif sp_mode == "inside":
            sp = hot[1] + 3
        else:
            sp = base + (3 * i) % (8 * len(hot) + 8)
        for op in body:
            if op[0] in ("enter", "ret"):
                events.append(op)
                continue
            kind, target, where, off = op
            if target == "byte":
                events.append((kind, where + off, 1, sp))
            elif target == "hot":
                events.append((kind, where, 8, sp))
            else:
                ea = base + 512 + 8 * ((i * where) % span)
                events.append((kind, ea, 8, sp))
    return events


class TestLongStreams:
    @given(loop_streams())
    @settings(max_examples=LONG_EXAMPLES, deadline=None)
    def test_default_cap_byte_identical_to_legacy(self, events):
        assert (_replay(events, "paged", cap=DEFAULT_RAW_CAP)
                == _replay(events, "legacy"))

    def test_repeated_reads_of_mixed_persistent_word(self, monkeypatch):
        """A run of whole-word reads of a word whose persistent bytes
        have two producers: the run collapses to one event, and the byte
        expansion must still credit every read."""
        seen = []
        real = PagedQuadSink._persistent_mixed

        def spy(self, words, cons1, nb):
            seen.append(words.size)
            return real(self, words, cons1, nb)

        monkeypatch.setattr(PagedQuadSink, "_persistent_mixed", spy)
        high = 1 << 30
        events = [("enter", "alpha"), ("write", 128, 8, high),
                  ("enter", "beta"), ("write", 131, 1, high),
                  ("flush",), ("enter", "gamma")]
        events += [("read", 128, 8, 132)] * 50
        events += [("ret",), ("ret",), ("ret",)]
        assert _replay(events, "paged") == _replay(events, "legacy")
        assert sum(seen) == 50

    @staticmethod
    def _deferred(records):
        """Drain ``records`` (kernel, addr, size, is_write, sp) through a
        deferring sink; return its deferred columns by consumer name."""
        tool = QuadTool()
        sink = PagedQuadSink(tool.callstack)
        sink.defer_unknown = True
        on = {False: make_raw_recorder(sink, write=False),
              True: make_raw_recorder(sink, write=True)}
        for name, ea, size, write, sp in records:
            if name is None:
                sink.flush()
                continue
            tool.callstack.enter(name, MAIN_IMAGE)
            on[write](ea, size, sp)
            tool.callstack.on_ret()
        sink.flush()
        names = tool.callstack.interned_names
        return {names[cid]: {int(a): (int(i), int(e))
                             for a, i, e in zip(*cols)}
                for cid, cols in sink.deferred_columns().items()}, sink

    def test_repeated_reads_of_unknown_producer_are_deferred(self):
        """Forty reads of a never-written word (SP inside it: 5 bytes
        below) defer 40 incl / 40 excl counts to bytes 0-4 and 40 incl to
        bytes 5-7, with no binding."""
        got, sink = self._deferred([("beta", 256, 8, False, 261)] * 40)
        assert got == {"beta": {256 + b: (40, 40 if b < 5 else 0)
                                for b in range(8)}}
        assert sink.kid_bindings == {}

    def test_repeated_reads_of_partly_unknown_mixed_word(self):
        """A byte write leaves one known producer in an otherwise
        never-written word; thirty later whole-word reads bind that byte
        and defer the other seven."""
        got, sink = self._deferred(
            [("alpha", 258, 1, True, 1 << 30), (None,) * 5]
            + [("gamma", 256, 8, False, 1 << 30)] * 30)
        assert got == {"gamma": {256 + b: (30, 30)
                                 for b in range(8) if b != 2}}
        assert sink.kid_bindings == {(0, 1): [30, 30]}


class TestSnapshotCompose:
    @st.composite
    def write_ops(draw, *, max_ops=30):
        base = draw(st.sampled_from([0, PAGE - 64]))
        n = draw(st.integers(min_value=0, max_value=max_ops))
        return [(base + draw(st.integers(0, 200)),
                 draw(st.integers(1, 16)),
                 draw(st.integers(1, 3)))
                for _ in range(n)]

    @staticmethod
    def _apply(shadow, model, ops):
        for addr, size, writer1 in ops:
            shadow.set_range(addr, size, writer1)
            for a in range(addr, addr + size):
                model[a] = writer1

    @staticmethod
    def _as_dict(shadow):
        return dict(shadow.items())

    @given(write_ops(), write_ops())
    @settings(max_examples=60, deadline=None)
    def test_snapshot_is_immutable_copy(self, ops1, ops2):
        s = ShadowPages(4 * PAGE)
        model = {}
        self._apply(s, model, ops1)
        snap = s.snapshot()
        at_snapshot = dict(model)
        self._apply(s, model, ops2)
        assert self._as_dict(snap) == at_snapshot
        assert self._as_dict(s) == model

    @given(write_ops(), write_ops(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_compose_layers_other_on_top(self, ops1, ops2, use_remap):
        lower, lower_model = ShadowPages(4 * PAGE), {}
        upper, upper_model = ShadowPages(4 * PAGE), {}
        self._apply(lower, lower_model, ops1)
        self._apply(upper, upper_model, ops2)
        if use_remap:
            remap = np.array([0, 11, 12, 13], np.int32)
            upper_model = {a: int(remap[w]) for a, w in upper_model.items()}
        else:
            remap = None
        lower.compose(upper, remap)
        expected = dict(lower_model)
        expected.update(upper_model)
        assert self._as_dict(lower) == expected

"""Unit tests for the run-telemetry package (``repro.obs``)."""

import json

import pytest

from repro import obs
from repro.obs import (MAIN_TID, NULL_SPAN, Telemetry, summary_table,
                       to_chrome_trace, write_chrome_trace)


def make_tele(*, enabled=True, start=1_000_000):
    """A Telemetry on a deterministic fake clock (1 µs per call)."""
    state = {"now": start}

    def clock():
        state["now"] += 1_000
        return state["now"]

    return Telemetry(enabled=enabled, clock=clock)


class TestSpans:
    def test_disabled_span_is_the_shared_noop(self):
        tele = Telemetry(enabled=False)
        assert tele.span("x") is NULL_SPAN
        with tele.span("x", cat="c", arg=1):
            pass
        assert tele.events == []

    def test_enabled_span_records_on_exit(self):
        tele = make_tele()
        with tele.span("replay", cat="shard", shard=3):
            pass
        assert len(tele.events) == 1
        name, cat, ts, dur, tid, args = tele.events[0]
        assert (name, cat, tid) == ("replay", "shard", 0)
        assert args == {"shard": 3}
        assert dur == 1_000                 # exactly one clock tick inside

    def test_span_records_even_when_body_raises(self):
        tele = make_tele()
        with pytest.raises(ValueError):
            with tele.span("boom"):
                raise ValueError("x")
        assert [e[0] for e in tele.events] == ["boom"]

    def test_nested_spans_both_record(self):
        tele = make_tele()
        with tele.span("outer"):
            with tele.span("inner"):
                pass
        assert [e[0] for e in tele.events] == ["inner", "outer"]

    def test_instant_is_zero_duration_and_gated(self):
        tele = make_tele()
        tele.instant("mark", cat="c", k=1)
        assert tele.events[0][3] == 0
        off = Telemetry(enabled=False)
        off.instant("mark")
        assert off.events == []


class TestCountersAndGauges:
    def test_counters_accumulate_and_are_always_on(self):
        tele = Telemetry(enabled=False)
        tele.count("a")
        tele.count("a", 4)
        tele.count("b", 2)
        assert tele.counters == {"a": 5, "b": 2}

    def test_gauges_keep_latest_value(self):
        tele = Telemetry(enabled=False)
        tele.gauge("pages", 3)
        tele.gauge("pages", 7)
        assert tele.gauges == {"pages": 7}

    def test_merge_counters_adds(self):
        tele = Telemetry()
        tele.count("a", 1)
        tele.merge_counters({"a": 2, "c": 5})
        assert tele.counters == {"a": 3, "c": 5}


class TestCrossProcess:
    def test_take_events_detaches(self):
        tele = make_tele()
        with tele.span("x"):
            pass
        taken = tele.take_events()
        assert len(taken) == 1 and tele.events == []

    def test_adopt_retags_tid(self):
        parent = make_tele()
        worker = make_tele()
        with worker.span("replay", cat="shard", shard=0):
            pass
        parent.adopt(worker.take_events(), tid=7)
        assert parent.events[0][4] == 7
        assert parent.events[0][0] == "replay"

    def test_events_are_picklable(self):
        import pickle

        tele = make_tele()
        with tele.span("x", cat="c", a=1):
            pass
        assert pickle.loads(pickle.dumps(tele.events)) == tele.events


class TestLifecycle:
    def test_reset_clears_everything(self):
        tele = make_tele()
        with tele.span("x"):
            pass
        tele.count("c")
        tele.gauge("g", 1)
        tele.reset()
        assert (tele.events, tele.counters, tele.gauges) == ([], {}, {})

    def test_span_stats_aggregates_by_name(self):
        tele = make_tele()
        for _ in range(3):
            with tele.span("a"):
                pass
        with tele.span("b"):
            pass
        stats = tele.span_stats()
        assert stats["a"] == (3, 3_000)
        assert stats["b"] == (1, 1_000)

    def test_module_singleton_enable_disable(self):
        obs.reset()
        assert obs.span("x") is NULL_SPAN
        try:
            tele = obs.enable()
            assert tele is obs.TELEMETRY
            with obs.span("x"):
                pass
            assert len(obs.TELEMETRY.events) == 1
        finally:
            obs.disable()
            obs.reset()
        assert obs.span("x") is NULL_SPAN


class TestChromeTrace:
    def _sample(self):
        tele = make_tele()
        with tele.span("replay", cat="shard", shard=1):
            pass
        tele.adopt([("replay", "shard", 2_000_000, 5_000, 0, {"shard": 2})],
                   tid=3)
        tele.instant("note")
        tele.count("shards", 2)
        tele.gauge("pages", 4)
        return tele

    def test_structure_and_units(self):
        tele = self._sample()
        doc = to_chrome_trace(tele)
        json.dumps(doc)                     # must be JSON-serialisable
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["args"]["name"] == "main" and e["tid"] == MAIN_TID
                   for e in meta)
        assert any(e["args"]["name"] == "worker-3" for e in meta)
        xs = [e for e in events if e["ph"] == "X"]
        assert all(set(e) >= {"name", "cat", "ts", "dur", "pid", "tid"}
                   for e in xs)
        span = next(e for e in xs if e["tid"] == 3)
        assert span["ts"] == 2_000_000 / 1000       # ns -> µs
        assert span["dur"] == 5.0
        assert any(e["ph"] == "i" for e in events)
        assert doc["otherData"]["counters"] == {"shards": 2}
        assert doc["otherData"]["gauges"] == {"pages": 4}

    def test_write_chrome_trace_round_trips(self, tmp_path):
        path = tmp_path / "run.json"
        write_chrome_trace(self._sample(), str(path))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_empty_collection_is_still_valid(self):
        doc = to_chrome_trace(Telemetry())
        json.dumps(doc)
        # only the parent thread-name metadata row, no span events
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]


class TestSummaryTable:
    def test_lists_spans_counters_gauges(self):
        tele = self._loaded()
        text = summary_table(tele)
        assert "replay" in text and "shards" in text and "pages" in text
        # sorted by total time descending
        lines = [ln for ln in text.splitlines() if ln.startswith(("replay",
                                                                  "merge"))]
        assert lines[0].startswith("replay")

    def test_empty_fallback(self):
        assert "no telemetry recorded" in summary_table(Telemetry())

    @staticmethod
    def _loaded():
        tele = make_tele()
        for _ in range(3):
            with tele.span("replay"):
                pass
        with tele.span("merge"):
            pass
        tele.count("shards", 3)
        tele.gauge("pages", 9)
        return tele


class TestQuadDrainTelemetry:
    """Live flushes and capture replays both account their QUAD drains:
    one ``drain`` span and one ``quad/records_drained`` count per flush,
    and per replayed stream."""

    APP = """
    int a[256];
    int fill() { int i; for (i = 0; i < 256; i++) { a[i] = i; } return 0; }
    int sum() { int i; int s = 0; for (i = 0; i < 256; i++) { s += a[i]; }
                return s; }
    int main() { fill(); return sum() & 7; }
    """

    def test_replay_drain_is_one_span_and_count(self):
        import io

        from repro.capture import (STREAM_QUAD, CaptureReader, capture_run,
                                   replay_quad)
        from repro.minic import build_program

        buf = io.BytesIO()
        capture_run(build_program(self.APP), buf, tools=("quad",))
        buf.seek(0)
        reader = CaptureReader(buf)
        records = sum(page.size for page in reader.pages(STREAM_QUAD))
        assert records
        obs.reset()
        try:
            tele = obs.enable()
            replay_quad(reader)
            drains = [e for e in tele.events if e[0] == "drain"]
            assert [(e[1], e[5]) for e in drains] == [
                ("quad", {"records": records})]
            assert tele.counters["quad/records_drained"] == records
        finally:
            obs.disable()
            obs.reset()

"""Per-layer attribution for the traced benchmark run.

Tracing wraps the public functions and methods of each layer with
timers from this file only; the program under test is not edited.  A
wrapped function is rebound in every loaded module that holds it (so
``from x import f`` call sites are timed too) and restored afterwards.
Only the outermost call per layer key is timed, so a layer that calls
itself (``sweep_to_json`` rendering its cells) is not counted twice.

The ``repro.obs`` spans (``sweep.*``) and the always-on counters are
read from the process-wide telemetry around each op.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

#: layer key -> public call sites (``module:attr`` or ``module:Class.attr``).
TARGETS: dict[str, tuple[str, ...]] = {
    "minic.compile": ("repro.minic.driver:build_program",),
    "capture.record": ("repro.capture.record:capture_run",),
    "capture.encode": ("repro.capture.writer:CaptureWriter.add",
                       "repro.capture.writer:CaptureWriter.finalize"),
    "capture.open": ("repro.capture.reader:CaptureReader.__init__",),
    "capture.sidecar_build": ("repro.capture.pagecache:build_sidecar",),
    "capture.decode_page": ("repro.capture.format:decode_page",),
    "replay.tquad": ("repro.capture.replay:replay_tquad",),
    "replay.gprof": ("repro.capture.replay:replay_gprof",),
    "replay.quad": ("repro.capture.replay:replay_quad",),
    "replay.many": ("repro.capture.replay:replay_many",),
    # every QUAD drain, live (flush) or replayed (drain_stream), ends here;
    # the obs ``drain`` span only covers the live flushes
    "quad.drain": ("repro.quad.shadow:PagedQuadSink._drain",),
    "sweep.run": ("repro.sweep.engine:sweep_tquad",),
    "core.phases": ("repro.core.kernel_phases:cluster_kernel_phases",),
    "analysis.strips": ("repro.analysis.plots:bandwidth_strips",),
    "serialize.render": (
        "repro.serialize:tquad_to_json", "repro.serialize:flat_to_json",
        "repro.serialize:quad_to_json", "repro.serialize:sweep_to_json",
        "repro.core.report:TQuadReport.format_table",
        "repro.gprofsim.report:FlatProfile.format_table",
        "repro.gprofsim.report:FlatProfile.format_call_graph",
        "repro.quad.report:QuadReport.format_table",
        "repro.core.kernel_phases:KernelPhaseAnalysis.format_table"),
    "corpus.entry": ("repro.corpus.fleet:render_artifacts",),
    "corpus.store_lookup": ("repro.corpus.store:CaptureStore.capture",),
    "corpus.verify": ("repro.corpus.fleet:verify_fleet",),
}

#: obs span name -> layer key
SPANS = {"sweep.decode": "sweep.decode",
         "sweep.bucket": "sweep.bucket", "sweep.fold": "sweep.fold",
         "sweep.report": "sweep.report"}

#: obs counter -> layer key
COUNTERS = {"vm/superblocks": "vm.superblocks",
            "pin/analysis_calls_inserted": "pin.analysis_calls",
            "capture/pages_written": "capture.pages_written",
            "capture/compressed_bytes": "capture.bytes_written"}

#: The committed layer map: per-layer metric -> which end-to-end metric
#: it should move on which workload.
LAYER_MAP_PATH = Path(__file__).with_name("layers.json")


def load_layer_map() -> dict:
    """Per-layer metric name -> its ``layers.json`` entry."""
    with open(LAYER_MAP_PATH, encoding="utf-8") as fh:
        return json.load(fh)["metrics"]


class LayerTrace:
    """Accumulates per-layer busy seconds, call counts and side tallies."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.tally: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping
    def _timed(self, key: str, fn):
        seconds, calls, depth = self.seconds, self.calls, self._depth
        before_hook, after_hook = _HOOKS.get(key, (None, None))
        tally = self.tally

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if depth[key]:
                return fn(*args, **kwargs)
            depth[key] += 1
            token = before_hook(args) if before_hook else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds[key] += time.perf_counter() - start
                calls[key] += 1
                depth[key] -= 1
            if after_hook is not None:
                after_hook(tally, args, result, token)
            return result

        return timed

    def install(self) -> None:
        """Wrap every target in place; :meth:`uninstall` restores them."""
        for key, sites in TARGETS.items():
            for site in sites:
                modname, _, attr = site.partition(":")
                module = importlib.import_module(modname)
                owner_name, _, meth = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    fn = owner.__dict__[meth]
                    self._set(owner, meth, self._timed(key, fn), fn)
                    continue
                fn = getattr(module, attr)
                wrapped = self._timed(key, fn)
                for mod in list(sys.modules.values()):
                    space = getattr(mod, "__dict__", None)
                    if not isinstance(space, dict):
                        continue
                    for name, value in list(space.items()):
                        if value is fn:
                            self._set(mod, name, wrapped, fn)
        # the reader's page-source tallies are read as each reader closes
        from repro.capture.reader import CaptureReader

        close = CaptureReader.__dict__["close"]
        tally = self.tally

        def counted_close(reader):
            for stat, n in reader.stats.items():
                tally[f"reader.{stat}"] += n
            return close(reader)

        self._set(CaptureReader, "close", counted_close, close)

    def _set(self, owner, name: str, new, old) -> None:
        setattr(owner, name, new)
        self._undo.append((owner, name, old))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    # ---------------------------------------------------------- telemetry
    def absorb_telemetry(self, tele, counters_before: dict[str, int]) -> None:
        """Fold the obs spans and counter deltas of one op into the trace."""
        for span, (n, total_ns) in tele.span_stats().items():
            key = SPANS.get(span)
            if key is not None:
                self.seconds[key] += total_ns / 1e9
                self.calls[key] += n
        for counter, key in COUNTERS.items():
            self.tally[key] += (tele.counters.get(counter, 0)
                                - counters_before.get(counter, 0))

    def absorb(self, other: dict) -> None:
        """Add a trace dumped by :meth:`to_json` (a traced child)."""
        for field in ("seconds", "calls", "tally"):
            mine = getattr(self, field)
            for key, value in other[field].items():
                mine[key] += value

    def to_json(self) -> dict:
        return {"seconds": dict(self.seconds), "calls": dict(self.calls),
                "tally": dict(self.tally)}


def _count_bytes(tally, _args, result, _token) -> None:
    tally["serialize.bytes"] += len(result)


def _count_cells(tally, _args, result, _token) -> None:
    tally["sweep.cells"] += len(result)


def _count_records(tally, args, _result, _token) -> None:
    tally["quad.records_drained"] += len(args[1])


def _store_hits(args) -> int:
    return args[0].hits


def _count_reuse(tally, args, _result, hits_before) -> None:
    tally["corpus.captures_reused"] += args[0].hits - hits_before


#: layer key -> (called before with the args, called after with the result)
_HOOKS = {"serialize.render": (None, _count_bytes),
          "sweep.run": (None, _count_cells),
          "quad.drain": (None, _count_records),
          "corpus.store_lookup": (_store_hits, _count_reuse)}


def traced_op(trace: LayerTrace, op):
    """Run ``op()`` with the wrappers installed and obs spans enabled."""
    from repro import obs

    tele = obs.TELEMETRY
    before = dict(tele.counters)
    tele.take_events()
    trace.install()
    obs.enable()
    try:
        return op()
    finally:
        obs.disable()
        trace.uninstall()
        trace.absorb_telemetry(tele, before)
        tele.take_events()


def layer_metrics(trace: LayerTrace, ops: int, probes: dict[str, float],
                  overhead_frac: float) -> dict[str, float]:
    """Per-op layer numbers (every name in ``layers.json``).

    ``probes`` holds the separately timed calls (bare VM run, single-tool
    captures, CLI import); a layer the workload's ops never enter reads 0.
    """
    n = max(ops, 1)
    sec, calls, tally = trace.seconds, trace.calls, trace.tally

    def per_op(value: float) -> float:
        return value / n

    served = sum(tally[f"reader.{k}"] for k in
                 ("decoded_pages", "page_cache_hits", "disk_cache_hits"))
    lookups = calls["corpus.store_lookup"]
    reused = tally["corpus.captures_reused"]
    vm_run = probes.get("vm.run_s", 0.0)
    record = per_op(sec["capture.record"])
    out = {
        "cli.import_s": probes.get("cli.import_s", 0.0),
        "minic.compile_s": per_op(sec["minic.compile"]),
        "minic.compiles": per_op(calls["minic.compile"]),
        "vm.run_s": vm_run,
        "vm.instructions": probes.get("vm.instructions", 0.0),
        "vm.superblocks": per_op(tally["vm.superblocks"]),
        "capture.record_s": record,
        "capture.record_overhead_s": record - vm_run if record else 0.0,
        "capture.record_tquad_s": probes.get("capture.record_tquad_s", 0.0),
        "capture.record_quad_s": probes.get("capture.record_quad_s", 0.0),
        "capture.record_gprof_s": probes.get("capture.record_gprof_s", 0.0),
        "pin.analysis_calls": per_op(tally["pin.analysis_calls"]),
        "capture.encode_s": per_op(sec["capture.encode"]),
        "capture.pages_written": per_op(tally["capture.pages_written"]),
        "capture.bytes_written": per_op(tally["capture.bytes_written"]),
        "capture.open_s": per_op(sec["capture.open"]),
        "capture.sidecar_build_s": per_op(sec["capture.sidecar_build"]),
        "capture.pages_decoded": per_op(calls["capture.decode_page"]),
        "capture.sidecar_hit_frac": (tally["reader.disk_cache_hits"] / served
                                     if served else 0.0),
        "replay.tquad_s": per_op(sec["replay.tquad"]),
        "replay.gprof_s": per_op(sec["replay.gprof"]),
        "replay.quad_s": per_op(sec["replay.quad"]),
        "replay.many_s": per_op(sec["replay.many"]),
        "quad.drain_s": per_op(sec["quad.drain"]),
        "quad.records_drained": per_op(tally["quad.records_drained"]),
        "sweep.decode_s": per_op(sec["sweep.decode"]),
        "sweep.bucket_s": per_op(sec["sweep.bucket"]),
        "sweep.fold_s": per_op(sec["sweep.fold"]),
        "sweep.report_s": per_op(sec["sweep.report"]),
        "sweep.cells": per_op(tally["sweep.cells"]),
        "core.phases_s": per_op(sec["core.phases"]),
        "analysis.strips_s": per_op(sec["analysis.strips"]),
        "serialize.render_s": per_op(sec["serialize.render"]),
        "serialize.bytes": per_op(tally["serialize.bytes"]),
        "corpus.entry_s": (sec["corpus.entry"] / calls["corpus.entry"]
                           if calls["corpus.entry"] else 0.0),
        # verify minus entry rendering: the golden byte diff and the
        # stale-fixture scan, per op
        "corpus.golden_diff_s": (per_op(sec["corpus.verify"]
                                        - sec["corpus.entry"])
                                 if calls["corpus.verify"] else 0.0),
        "corpus.store_lookup_s": per_op(sec["corpus.store_lookup"]),
        "corpus.captures_reused_frac": reused / lookups if lookups else 0.0,
        "trace.overhead_frac": overhead_frac,
    }
    return out

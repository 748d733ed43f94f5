"""Shard execution: replay one shard under the full analysis stack.

A worker rebuilds a :class:`~repro.pin.PinEngine` from the shard's
snapshot, attaches the requested tools, seeds their attribution state from
the shard's call-stack image, runs to the shard boundary (exact budget) or
to guest exit (final shard, fini callbacks included), and extracts plain
picklable payloads for the merge stage.

Seeding is what makes mid-execution replay exact:

* tQUAD and QUAD rebuild their :class:`~repro.core.callstack.CallStack` by
  replaying ``enter(name, image)`` over the live frames — kernel
  attribution is a pure function of the frames below, so the replayed
  stack behaves identically to the serial one.
* gprof-sim adopts the frames with their *absolute* entry icounts
  (:meth:`~repro.gprofsim.tool.GprofTool.seed_frames`), so returns
  observed inside the shard charge cumulative time for the full
  activation, exactly as the serial run does.
* QUAD's shadow memory cannot be seeded cheaply (it is the whole write
  history), so :class:`ShardPagedQuadTool` *defers* reads whose producer
  is unknown within the shard, through the paged sink's native
  ``defer_unknown`` tables, and the merge resolves them against the
  sequentially-composed shadow of all earlier shards.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..core.options import TQuadOptions
from ..core.profiler import TQuadTool
from ..gprofsim.tool import GprofTool
from ..obs import Telemetry
from ..pin import PinEngine
from ..quad.tracker import QuadTool
from ..vm.program import Program
from .checkpoint import ShardSpec


# ------------------------------------------------------------- tool specs
@dataclass(frozen=True)
class TQuadSpec:
    """Request a tQUAD profile in the parallel pipeline."""

    key: ClassVar[str] = "tquad"
    options: TQuadOptions = field(default_factory=TQuadOptions)
    #: Also collect capture pages (shipped home in the shard payload and
    #: merged by :mod:`repro.capture.segments`).
    capture: bool = False


@dataclass(frozen=True)
class QuadSpec:
    """Request a QUAD (data communication) profile."""

    key: ClassVar[str] = "quad"
    track_bindings: bool = True


@dataclass(frozen=True)
class GprofSpec:
    """Request a gprof-sim flat profile."""

    key: ClassVar[str] = "gprof"
    main_image_only: bool = True


ToolSpec = TQuadSpec | QuadSpec | GprofSpec


@dataclass(frozen=True)
class ShardRunnerFactory:
    """Picklable recipe for the supervisor's default runner.

    The supervisor ships a *factory* to each worker instead of a live
    runner so non-shard workloads (the corpus fleet) can ride the same
    fault-tolerant scheduling: any picklable callable with a
    ``result_type`` attribute that builds an object exposing
    ``execute(task) -> result_type`` and ``progress()`` works.
    """

    program: Program
    tool_specs: tuple[ToolSpec, ...]
    jit: bool = True

    result_type: ClassVar[type] = None  # type: ignore[assignment]

    def __call__(self, telemetry: Telemetry) -> "ShardRunner":
        return ShardRunner(self.program, self.tool_specs, jit=self.jit,
                           telemetry=telemetry)


# --------------------------------------------------------- shard payloads
@dataclass
class TQuadPayload:
    history: dict[str, dict[int, tuple[int, int, int, int]]]
    prefetches_skipped: int
    #: stream -> sealed capture pages (raw int64 bytes, shard-local
    #: kernel ids) when the spec asked for capture, else ``None``.
    capture_pages: dict[str, list[bytes]] | None = None
    #: shard-local kernel-id -> name table for remapping at merge.
    capture_kernels: list[str] | None = None


@dataclass
class QuadPagedPayload:
    """QUAD shard results from the paged shadow, in wire form.

    Everything stays in the sink's interned/paged representation: counter
    matrix, UnMA bitmap pages, last-writer shadow pages and the deferred
    columns all pickle as flat buffers; the merge composes them without
    ever expanding to per-address Python objects.
    """

    #: interned kernel names — shard-local kid -> name
    names: list[str]
    #: (8, nk) counter matrix (row indices from :mod:`repro.quad.shadow`)
    counts: np.ndarray
    #: (kid, view) -> (pids, pages) UnMA bitmap export
    unma: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]
    #: (producer_kid, consumer_kid) -> [bytes incl, bytes excl]
    bindings: dict[tuple[int, int], list[int]]
    #: shard-local last-writer shadow: page ids + int32 writer1 pages
    shadow_pids: np.ndarray
    shadow_pages: np.ndarray
    #: consumer kid -> (addrs, incl counts, excl counts) of reads whose
    #: producer wrote before this shard started
    deferred: dict[int, tuple[array, array, array]]


@dataclass
class GprofPayload:
    self_instructions: dict[str, int]
    cumulative_instructions: dict[str, int]
    calls: dict[str, int]
    edges: dict[tuple[str, str], int]


@dataclass
class ShardResult:
    index: int
    end_icount: int
    #: Guest exit code for the final shard, ``None`` for bounded shards.
    exit_code: int | None
    payloads: dict[str, object]


class ShardPagedQuadTool(QuadTool):
    """Paged-shadow QUAD variant for mid-execution shards.

    The paged sink defers natively: with ``defer_unknown`` set, reads that
    miss both the record buffer and the shard-local shadow are tabulated
    per (address, consumer) during the drain and exported as flat columns
    for the merge to resolve against the composed pre-shard shadow.
    """

    def attach(self, engine: PinEngine) -> "ShardPagedQuadTool":
        super().attach(engine)
        self.sink.defer_unknown = True
        return self


# ---------------------------------------------------------------- executor
def build_tools(engine: PinEngine,
                tool_specs: tuple[ToolSpec, ...]) -> list[tuple[ToolSpec,
                                                                object]]:
    """Attach one tool instance per spec on ``engine`` (unseeded)."""
    tools: list[tuple[ToolSpec, object]] = []
    for ts in tool_specs:
        if isinstance(ts, TQuadSpec):
            capture = None
            if ts.capture:
                from ..capture.writer import CaptureCollector

                capture = CaptureCollector()
            tool = TQuadTool(ts.options, capture=capture).attach(engine)
        elif isinstance(ts, QuadSpec):
            tool = ShardPagedQuadTool(
                track_bindings=ts.track_bindings).attach(engine)
        elif isinstance(ts, GprofSpec):
            tool = GprofTool().attach(engine)
        else:
            raise TypeError(f"unknown tool spec {ts!r}")
        tools.append((ts, tool))
    return tools


def _quad_paged_payload(tool: ShardPagedQuadTool) -> QuadPagedPayload:
    """Export a shard's paged QUAD state in its native interned form."""
    sink = tool.sink
    sink.flush()
    sink._ensure_kernels()
    nk = sink._nk
    unma: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for kid in range(nk):
        for view in range(4):
            pids, pages = sink._unma.export(kid * 4 + view)
            if pids.size:
                unma[(kid, view)] = (pids, pages)
    shadow = sink.shadow
    shadow_pids = np.nonzero(shadow.lut >= 0)[0]
    return QuadPagedPayload(
        names=list(tool.callstack.interned_names),
        counts=sink._counts[:, :nk].copy(),
        unma=unma,
        bindings=dict(sink.kid_bindings),
        shadow_pids=shadow_pids,
        shadow_pages=shadow._data[shadow.lut[shadow_pids]],
        deferred=sink.deferred_columns())


def _seed_tool(ts: ToolSpec, tool, spec: ShardSpec) -> None:
    if isinstance(ts, GprofSpec):
        tool.seed_frames(spec.frames, spec.start_icount)
    else:
        for name, image, _entry in spec.frames:
            tool.callstack.enter(name, image)


class ShardRunner:
    """A reusable engine + tool set: compile once, replay many shards.

    Instrumented JIT compilation is the dominant fixed cost of a shard
    replay — compiled closures capture the machine's ``mem``/``x``/``f``
    and each tool's state containers *by identity*, so they cannot be
    shared between machines, but they survive both
    :meth:`~repro.vm.machine.Machine.restore` and the tools'
    ``reset()``.  Each worker process (and the inline executor) therefore
    keeps one runner and pays compilation once, not once per shard.
    """

    def __init__(self, program: Program, tool_specs: tuple[ToolSpec, ...],
                 *, jit: bool = True, telemetry: Telemetry | None = None):
        self.program = program
        self.tool_specs = tuple(tool_specs)
        self.jit = jit
        if telemetry is None:
            from .. import obs

            telemetry = obs.TELEMETRY
        self.telemetry = telemetry
        self._engine: PinEngine | None = None
        self._tools: list[tuple[ToolSpec, object]] | None = None

    def progress(self):
        """Monotone progress token for the supervisor's heartbeat: the
        replayed machine's ``icount`` stops advancing when a replay
        stalls, so the beat stops too."""
        engine = self._engine
        return engine.machine.icount if engine is not None else -1

    def execute(self, spec: ShardSpec) -> ShardResult:
        """Replay one shard and return its analysis payloads."""
        tele = self.telemetry
        if self._engine is None:
            self._engine = PinEngine(self.program, snapshot=spec.snapshot,
                                     jit=self.jit)
            self._tools = build_tools(self._engine, self.tool_specs)
        else:
            self._engine.machine.restore(spec.snapshot)
            for ts, tool in self._tools:
                tool.reset()
        engine, tools = self._engine, self._tools
        for ts, tool in tools:
            _seed_tool(ts, tool, spec)
        with tele.span("replay", cat="shard", shard=spec.index):
            if spec.end_icount is None:
                exit_code = engine.run()
            else:
                exit_code = engine.run_until(spec.end_icount)
                with tele.span("drain", cat="shard", shard=spec.index):
                    for ts, tool in tools:
                        if isinstance(ts, TQuadSpec):
                            tool._flush_buffers()
                            tool.ledger.flush()
                        elif isinstance(ts, QuadSpec):
                            tool.flush()
                        elif isinstance(ts, GprofSpec):
                            tool.flush_shard()
        tele.count("parallel/shards_replayed")
        with tele.span("payload", cat="shard", shard=spec.index):
            payloads: dict[str, object] = {}
            for ts, tool in tools:
                if isinstance(ts, TQuadSpec):
                    payloads[ts.key] = TQuadPayload(
                        history=tool.ledger.history,
                        prefetches_skipped=tool.prefetches_skipped,
                        capture_pages=(dict(tool.capture.pages)
                                       if ts.capture else None),
                        capture_kernels=(list(tool.callstack.interned_names)
                                         if ts.capture else None))
                elif isinstance(ts, QuadSpec):
                    payloads[ts.key] = _quad_paged_payload(tool)
                elif isinstance(ts, GprofSpec):
                    payloads[ts.key] = GprofPayload(
                        self_instructions=tool.self_instructions,
                        cumulative_instructions=tool.cumulative_instructions,
                        calls=tool.calls, edges=tool.edges)
        return ShardResult(index=spec.index,
                           end_icount=engine.machine.icount,
                           exit_code=exit_code, payloads=payloads)


def execute_shard(program: Program, spec: ShardSpec,
                  tool_specs: tuple[ToolSpec, ...], *,
                  jit: bool = True) -> ShardResult:
    """Replay one shard in a one-off runner (convenience/test entry)."""
    return ShardRunner(program, tool_specs, jit=jit).execute(spec)


ShardRunnerFactory.result_type = ShardResult

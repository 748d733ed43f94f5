"""The parallel profiling orchestrator.

``parallel_profile`` is the one entry point: it takes a program, a tuple of
tool specs, and a worker count, and returns whole-run reports that are
byte-identical to the serial tools' output (same tables, same JSON).

* ``jobs=1`` runs the true serial path — one engine, tools co-attached, no
  checkpointing — so comparing ``--jobs N`` against ``--jobs 1`` compares
  the parallel pipeline against the reference implementation.
* ``jobs>1`` streams shards from the checkpoint pass
  (:mod:`repro.parallel.checkpoint`) into a fault-tolerant
  :class:`~repro.parallel.supervise.Supervisor`: each worker replays its
  shard under the full analysis stack (:mod:`repro.parallel.worker`) while
  the checkpoint pass is still producing later shards, and the per-shard
  payloads fold into reports in :mod:`repro.parallel.merge`.  Worker
  crashes, hangs past the heartbeat ``deadline``, and torn result payloads
  are retried on surviving workers (``max_retries`` times) and finally
  degraded to in-process serial replay — replay is deterministic, so the
  merged report is byte-identical to the serial run no matter which
  workers die.

The ``executor="inline"`` mode runs shards sequentially in-process — the
same shard/seed/merge machinery without process overhead; the differential
tests use it to exercise exactness cheaply, and it is the automatic
fallback when the platform offers no working ``multiprocessing``.

All three profilers share one checkpoint pass: the pass costs roughly one
bare execution, then every shard is profiled by every requested tool in
one replay.

Telemetry: the run records checkpoint / replay / drain / merge spans and
the pipeline's structural counters (shards, retries, degradations, the
``--jobs`` clamp) into ``telemetry`` — the process-wide
:data:`repro.obs.TELEMETRY` by default.  Workers record their spans into
per-process collections that ship back with each shard result and land on
the parent timeline keyed by worker id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.profiler import TQuadTool
from ..gprofsim.tool import GprofTool
from ..obs import Telemetry
from ..pin import PinEngine
from ..quad.tracker import QuadTool
from ..testing.faults import FaultInjector, FaultPlan
from ..vm.layout import DEFAULT_MEM_SIZE
from ..vm.program import Program
from .checkpoint import iter_shards
from .merge import merge_gprof, merge_quad, merge_tquad
from .supervise import DEFAULT_DEADLINE, DEFAULT_MAX_RETRIES, Supervisor
from .worker import (GprofSpec, QuadSpec, ShardRunner, ToolSpec, TQuadSpec)


@dataclass
class ParallelRun:
    """Results of one (possibly parallel) profiling run."""

    #: Reports keyed by tool spec key ("tquad", "quad", "gprof").
    reports: dict[str, object]
    exit_code: int
    total_instructions: int
    n_shards: int
    jobs: int
    prefetches_skipped: int = 0
    images: dict[str, str] = field(default_factory=dict)
    #: Failed shard executions that were re-run on another worker.
    retries: int = 0
    #: Shards that exhausted retries and were replayed in-process.
    degraded: int = 0
    #: Worker processes actually forked (lazily; ≤ ``jobs``).
    workers_spawned: int = 0
    #: Global kernel intern table of the emitted capture segments (when a
    #: ``capture_writer`` was given) — the manifest's ``kernels`` key.
    capture_kernels: list[str] | None = None
    #: ``machine.mem_size`` of the profiled run (for capture manifests).
    mem_size: int = 0


def _default_telemetry() -> Telemetry:
    from .. import obs

    return obs.TELEMETRY


def _serial_run(program: Program, tool_specs: tuple[ToolSpec, ...], *,
                fs, mem_size, jit, telemetry: Telemetry,
                capture_writer=None) -> ParallelRun:
    """The reference path: one engine, tools co-attached, no sharding."""
    kwargs = {}
    if mem_size is not None:
        kwargs["mem_size"] = mem_size
    engine = PinEngine(program, fs=fs, jit=jit, **kwargs)
    tools: list[tuple[ToolSpec, object]] = []
    capture_kernels = None
    for ts in tool_specs:
        if isinstance(ts, TQuadSpec):
            tool = TQuadTool(ts.options,
                             capture=(capture_writer if ts.capture
                                      else None))
        elif isinstance(ts, QuadSpec):
            tool = QuadTool(track_bindings=ts.track_bindings)
        elif isinstance(ts, GprofSpec):
            tool = GprofTool()
        else:
            raise TypeError(f"unknown tool spec {ts!r}")
        tools.append((ts, tool.attach(engine)))
    with telemetry.span("replay", cat="run", jobs=1):
        exit_code = engine.run()
    reports: dict[str, object] = {}
    prefetches = 0
    with telemetry.span("merge", cat="run", jobs=1):
        for ts, tool in tools:
            if isinstance(ts, GprofSpec):
                reports[ts.key] = tool.report(
                    main_image_only=ts.main_image_only)
            else:
                reports[ts.key] = tool.report()
            if isinstance(ts, TQuadSpec):
                prefetches = tool.prefetches_skipped
                if ts.capture:
                    capture_kernels = list(tool.callstack.interned_names)
    return ParallelRun(reports=reports, exit_code=exit_code,
                       total_instructions=engine.machine.icount,
                       n_shards=1, jobs=1, prefetches_skipped=prefetches,
                       images={r.name: r.image for r in program.routines},
                       capture_kernels=capture_kernels,
                       mem_size=engine.machine.mem_size)


def parallel_profile(program: Program,
                     tool_specs: Sequence[ToolSpec] | ToolSpec, *,
                     jobs: int = 1, fs=None, mem_size: int | None = None,
                     jit: bool = True, quantum: int | None = None,
                     align: bool = True, executor: str = "process",
                     deadline: float = DEFAULT_DEADLINE,
                     max_retries: int = DEFAULT_MAX_RETRIES,
                     faults: FaultPlan | None = None,
                     telemetry: Telemetry | None = None,
                     capture_writer=None) -> ParallelRun:
    """Profile ``program`` with the requested tools using ``jobs`` workers.

    ``executor`` selects how shards run when ``jobs > 1``: ``"process"``
    (default) uses supervised worker processes, ``"inline"`` replays them
    sequentially in-process (deterministic tests, no fork overhead).
    ``quantum``/``align`` control shard boundary placement — see
    :func:`~repro.parallel.checkpoint.iter_shards`.

    Fault tolerance (``executor="process"``): a worker that crashes,
    makes no progress for ``deadline`` seconds, or returns a torn payload
    costs a bounded retry of its shard on another worker
    (``max_retries``), then an in-process serial replay — never the run,
    and never exactness.  ``faults`` injects failures deterministically
    for tests (defaults to the ``TQUAD_FAULTS`` environment seam).
    """
    if isinstance(tool_specs, (TQuadSpec, QuadSpec, GprofSpec)):
        tool_specs = (tool_specs,)
    tool_specs = tuple(tool_specs)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if len({ts.key for ts in tool_specs}) != len(tool_specs):
        raise ValueError("at most one spec per tool kind")
    if capture_writer is not None and not any(
            isinstance(ts, TQuadSpec) and ts.capture for ts in tool_specs):
        raise ValueError("capture_writer requires a TQuadSpec with "
                         "capture=True")
    tele = telemetry if telemetry is not None else _default_telemetry()
    if jobs == 1:
        return _serial_run(program, tool_specs, fs=fs, mem_size=mem_size,
                           jit=jit, telemetry=tele,
                           capture_writer=capture_writer)
    if executor not in ("process", "inline"):
        raise ValueError(f"unknown executor {executor!r}")

    interval = 1
    for ts in tool_specs:
        if isinstance(ts, TQuadSpec):
            interval = ts.options.slice_interval
    shards = iter_shards(program, jobs=jobs, fs=fs, mem_size=mem_size,
                         jit=jit, interval=interval, quantum=quantum,
                         align=align, telemetry=tele)
    supervisor = None
    if executor == "inline":
        runner = ShardRunner(program, tool_specs, jit=jit, telemetry=tele)
        results = [runner.execute(s) for s in shards]
    else:
        supervisor = Supervisor(program, tool_specs, jobs=jobs, jit=jit,
                                deadline=deadline,
                                max_retries=max_retries, faults=faults,
                                telemetry=tele)
        results = supervisor.run(shards)

    final = results[-1]
    total = final.end_icount
    images = {r.name: r.image for r in program.routines}
    reports: dict[str, object] = {}
    prefetches = 0
    plan = (faults if faults is not None
            else (supervisor.plan if supervisor is not None
                  else FaultPlan.from_env()))
    FaultInjector(plan, role="parent").fire("merge")
    for ts in tool_specs:
        with tele.span("merge", cat="parallel", tool=ts.key,
                       shards=len(results)):
            if isinstance(ts, TQuadSpec):
                reports[ts.key], prefetches = merge_tquad(results, ts,
                                                          images, total)
            elif isinstance(ts, QuadSpec):
                reports[ts.key] = merge_quad(results, ts, images, total)
            elif isinstance(ts, GprofSpec):
                reports[ts.key] = merge_gprof(results, ts, images, total)
    capture_kernels = None
    if capture_writer is not None:
        from ..capture.segments import merge_capture_segments

        with tele.span("merge", cat="capture", shards=len(results)):
            capture_kernels = merge_capture_segments(results,
                                                     capture_writer)
    return ParallelRun(reports=reports,
                       exit_code=final.exit_code if final.exit_code
                       is not None else 0,
                       total_instructions=total, n_shards=len(results),
                       jobs=jobs, prefetches_skipped=prefetches,
                       images=images,
                       retries=supervisor.retries if supervisor else 0,
                       degraded=supervisor.degraded if supervisor else 0,
                       workers_spawned=(supervisor._spawned
                                        if supervisor else 0),
                       capture_kernels=capture_kernels,
                       mem_size=DEFAULT_MEM_SIZE if mem_size is None
                       else mem_size)

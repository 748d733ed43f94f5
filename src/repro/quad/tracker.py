"""QUAD — memory access pattern analyser (Ostadzadeh et al., ARC 2010).

tQUAD's companion tool: it reveals the quantitative data communication
between kernels through a byte-granular *shadow memory* that remembers the
last writer of every address.  When a kernel reads a byte last written by
another kernel, a producer→consumer *binding* is recorded.

Per kernel it accumulates the four Table II columns, in both stack-included
and stack-excluded views:

* ``IN``       — total bytes read by the function
* ``IN UnMA``  — unique memory addresses used in reading
* ``OUT``      — total bytes read *by any function* from locations this
  function previously wrote (i.e. consumed production)
* ``OUT UnMA`` — unique memory addresses used in writing

Two shadow implementations produce byte-identical reports:

* ``shadow="paged"`` (default) — the paged, kernel-ID-interned NumPy
  shadow of :mod:`repro.quad.shadow`, fed by packed records the engine
  inlines into superblocks and drained in bulk;
* ``shadow="legacy"`` — the original per-byte ``dict``/``set`` walk,
  kept as the differential reference and escape hatch.

Stack classification is per *byte* for the byte-denominated columns: an
access straddling the stack pointer (``ea < sp <= ea + size``) contributes
only its below-SP bytes to the ``excl`` views, while the dynamic access
counters (``reads_nonstack``/``writes_nonstack``) stay whole-access
(``ea < sp``), as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.callstack import CallStack
from ..pin import IARG, INS, IPOINT, PinEngine, RTN


@dataclass
class KernelIO:
    """Accumulators for one kernel.

    The UnMA fields hold address sets on the legacy path and plain
    cardinalities (``int``) when materialized from the paged shadow's
    bitmaps; use :func:`unma_card` when consuming them.
    """

    in_bytes_incl: int = 0
    in_bytes_excl: int = 0
    out_bytes_incl: int = 0          #: consumed bytes of this kernel's output
    out_bytes_excl: int = 0
    in_unma_incl: set[int] | int = field(default_factory=set)
    in_unma_excl: set[int] | int = field(default_factory=set)
    out_unma_incl: set[int] | int = field(default_factory=set)
    out_unma_excl: set[int] | int = field(default_factory=set)
    reads: int = 0                   #: dynamic read accesses (not bytes)
    writes: int = 0
    reads_nonstack: int = 0
    writes_nonstack: int = 0


class RecordOnlyError(RuntimeError):
    """A capturing QuadTool only records; replay the capture instead."""


def unma_card(value: "set[int] | int") -> int:
    """Cardinality of an UnMA field (set on the legacy path, int on the
    paged path)."""
    return value if isinstance(value, int) else len(value)


class QuadTool:
    """The QUAD pintool (record-only when ``capture`` is set)."""

    def __init__(self, *, track_bindings: bool = True,
                 shadow: str = "paged", capture=None):
        if shadow not in ("paged", "legacy"):
            raise ValueError(f"unknown shadow implementation {shadow!r}")
        if capture is not None and shadow != "paged":
            raise ValueError("capture requires the paged shadow")
        self.shadow_mode = shadow
        self.capture = capture
        self.track_bindings = track_bindings
        self.callstack = CallStack()
        self.shadow: dict[int, str] = {}          #: addr -> last writer
        self.kernels: dict[str, KernelIO] = {}
        #: (producer, consumer) -> [bytes incl. stack, bytes excl. stack]
        self.bindings: dict[tuple[str, str], list[int]] = {}
        self.sink = None                          #: PagedQuadSink when paged
        self._rec_read = None
        self._rec_write = None
        self._machine = None
        self._images: dict[str, str] = {}
        self.finished = False

    # ------------------------------------------------------------ plumbing
    def attach(self, engine: PinEngine) -> "QuadTool":
        if self._machine is not None:
            raise RuntimeError("tool already attached")
        self._machine = engine.machine
        self._images = {r.name: r.image for r in engine.program.routines}
        if self.shadow_mode == "paged":
            from .shadow import (CapturingPagedQuadSink, PagedQuadSink,
                                 make_raw_recorder)

            if self.capture is not None:
                self.sink = CapturingPagedQuadSink(
                    self.callstack, self.capture,
                    mem_size=engine.machine.mem_size,
                    track_bindings=self.track_bindings)
            else:
                self.sink = PagedQuadSink(
                    self.callstack, mem_size=engine.machine.mem_size,
                    track_bindings=self.track_bindings)
            self._rec_read = make_raw_recorder(self.sink, write=False)
            self._rec_write = make_raw_recorder(self.sink, write=True)
        engine.INS_AddInstrumentFunction(self._instrument_instruction)
        engine.RTN_AddInstrumentFunction(self._instrument_routine)
        engine.AddFiniFunction(self._fini)
        return self

    def reset(self) -> None:
        """Prepare the attached tool for another independent run.

        Result containers are *replaced* (previously extracted references
        stay valid and frozen); the call stack and the paged sink's record
        buffer — captured by identity in compiled instrumentation — are
        reset in place.
        """
        self.callstack.reset()
        self.shadow = {}
        self.kernels = {}
        self.bindings = {}
        if self.sink is not None:
            self.sink.reset()
        self.finished = False

    def _instrument_instruction(self, ins: INS) -> None:
        if ins.IsPrefetch():
            return
        on_read = self._rec_read if self.sink is not None else self._on_read
        on_write = (self._rec_write if self.sink is not None
                    else self._on_write)
        if ins.IsMemoryRead():
            ins.InsertPredicatedCall(IPOINT.BEFORE, on_read,
                                     IARG.MEMORY_EA, IARG.MEMORY_SIZE,
                                     IARG.REG_SP)
        if ins.IsMemoryWrite():
            ins.InsertPredicatedCall(IPOINT.BEFORE, on_write,
                                     IARG.MEMORY_EA, IARG.MEMORY_SIZE,
                                     IARG.REG_SP)
        if ins.IsRet():
            ins.InsertCall(IPOINT.BEFORE, self.callstack.on_ret)

    def _instrument_routine(self, rtn: RTN) -> None:
        rtn.InsertCall(IPOINT.BEFORE, self.callstack.enter,
                       IARG.RTN_NAME, IARG.RTN_IMAGE)

    def flush(self) -> None:
        """Drain (capturing: spill) any buffered records (no-op on the
        legacy path) and publish the shadow-memory footprint gauges."""
        if self.sink is not None:
            self.sink.flush()
            if self.capture is None:
                from .. import obs

                for key, value in self.sink.stats().items():
                    obs.TELEMETRY.gauge(f"quad/{key}", value)
        elif self.shadow:
            from .. import obs

            obs.TELEMETRY.gauge("quad/shadow_addresses", len(self.shadow))

    def _fini(self, exit_code: int) -> None:
        self.flush()
        self.finished = True

    # ------------------------------------------------------------- analysis
    def _io(self, name: str) -> KernelIO:
        io = self.kernels.get(name)
        if io is None:
            io = self.kernels[name] = KernelIO()
        return io

    def _on_write(self, ea: int, size: int, sp: int) -> None:
        name = self.callstack.current_kernel
        if name is None:
            return
        io = self._io(name)
        io.writes += 1
        if ea < sp:
            io.writes_nonstack += 1
        shadow = self.shadow
        incl = io.out_unma_incl
        excl = io.out_unma_excl
        for addr in range(ea, ea + size):
            shadow[addr] = name
            incl.add(addr)
            if addr < sp:
                excl.add(addr)

    def _on_read(self, ea: int, size: int, sp: int) -> None:
        name = self.callstack.current_kernel
        if name is None:
            return
        io = self._io(name)
        io.reads += 1
        io.in_bytes_incl += size
        if ea < sp:
            io.reads_nonstack += 1
        shadow = self.shadow
        kernels = self.kernels
        bindings = self.bindings
        track = self.track_bindings
        in_incl = io.in_unma_incl
        in_excl = io.in_unma_excl
        for addr in range(ea, ea + size):
            below = addr < sp
            in_incl.add(addr)
            if below:
                io.in_bytes_excl += 1
                in_excl.add(addr)
            producer = shadow.get(addr)
            if producer is None:
                continue
            pio = kernels[producer]
            pio.out_bytes_incl += 1
            if below:
                pio.out_bytes_excl += 1
            if track:
                key = (producer, name)
                b = bindings.get(key)
                if b is None:
                    b = bindings[key] = [0, 0]
                b[0] += 1
                if below:
                    b[1] += 1

    # ------------------------------------------------------------- results
    def _materialize(self) -> None:
        """Convert the paged sink's interned state into the name-keyed
        ``kernels``/``bindings`` containers the report consumes."""
        from .shadow import (_IN_EXCL, _IN_INCL, _OUT_EXCL, _OUT_INCL,
                             _READS, _READS_NS, _V_IN_INCL, _WRITES,
                             _WRITES_NS)

        sink = self.sink
        sink.flush()
        sink._ensure_kernels()
        names = self.callstack.interned_names
        counts = sink._counts
        kernels: dict[str, KernelIO] = {}
        for kid, name in enumerate(names):
            c = counts[:, kid]
            # the legacy tool creates a kernel entry on its first access
            if c[_READS] == 0 and c[_WRITES] == 0:
                continue
            kernels[name] = KernelIO(
                in_bytes_incl=int(c[_IN_INCL]),
                in_bytes_excl=int(c[_IN_EXCL]),
                out_bytes_incl=int(c[_OUT_INCL]),
                out_bytes_excl=int(c[_OUT_EXCL]),
                in_unma_incl=sink.unma_count(kid, _V_IN_INCL),
                in_unma_excl=sink.unma_count(kid, _V_IN_INCL + 1),
                out_unma_incl=sink.unma_count(kid, _V_IN_INCL + 2),
                out_unma_excl=sink.unma_count(kid, _V_IN_INCL + 3),
                reads=int(c[_READS]), writes=int(c[_WRITES]),
                reads_nonstack=int(c[_READS_NS]),
                writes_nonstack=int(c[_WRITES_NS]))
        self.kernels = kernels
        self.bindings = {(names[p], names[c]): list(v)
                         for (p, c), v in sink.kid_bindings.items()}

    def report(self, *, allow_partial: bool = False) -> "QuadReport":
        from .report import QuadReport

        if self.capture is not None:
            raise RecordOnlyError(
                "a capturing QuadTool records only; replay the capture "
                "(repro.capture.replay_quad) for its report")
        if not self.finished and not allow_partial:
            raise RuntimeError("run the engine before asking for the report")
        if self.sink is not None:
            self._materialize()
        return QuadReport(kernels=dict(self.kernels),
                          bindings=dict(self.bindings),
                          images=dict(self._images),
                          total_instructions=self._machine.icount,
                          shadow_stats=(self.sink.stats()
                                        if self.sink is not None else None))


def run_quad(program, *, fs=None, track_bindings: bool = True,
             max_instructions: int | None = None,
             mem_size: int | None = None, shadow: str = "paged"):
    """Convenience: run QUAD over ``program`` and return its report."""
    kwargs = {"fs": fs}
    if mem_size is not None:
        kwargs["mem_size"] = mem_size
    engine = PinEngine(program, **kwargs)
    tool = QuadTool(track_bindings=track_bindings, shadow=shadow)
    tool.attach(engine)
    engine.run(max_instructions=max_instructions)
    return tool.report()

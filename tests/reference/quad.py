"""QUAD as a per-byte walk: the oracle for the paged shadow.

Every access is resolved one byte at a time against a ``dict`` last-writer
map, and the UnMA columns are Python sets of addresses.  The report is
built from the same :class:`~repro.quad.report.QuadReport` and
:class:`~repro.quad.tracker.KernelIO` classes as the production tool's,
with each set collapsed to its cardinality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.callstack import CallStack
from repro.pin import IARG, INS, IPOINT, PinEngine, RTN
from repro.quad.report import QuadReport
from repro.quad.tracker import KernelIO


@dataclass
class SetIO:
    """One kernel's accumulators, UnMA columns as address sets."""

    in_bytes_incl: int = 0
    in_bytes_excl: int = 0
    out_bytes_incl: int = 0
    out_bytes_excl: int = 0
    in_unma_incl: set[int] = field(default_factory=set)
    in_unma_excl: set[int] = field(default_factory=set)
    out_unma_incl: set[int] = field(default_factory=set)
    out_unma_excl: set[int] = field(default_factory=set)
    reads: int = 0
    writes: int = 0
    reads_nonstack: int = 0
    writes_nonstack: int = 0

    def kernel_io(self) -> KernelIO:
        return KernelIO(
            in_bytes_incl=self.in_bytes_incl,
            in_bytes_excl=self.in_bytes_excl,
            out_bytes_incl=self.out_bytes_incl,
            out_bytes_excl=self.out_bytes_excl,
            in_unma_incl=len(self.in_unma_incl),
            in_unma_excl=len(self.in_unma_excl),
            out_unma_incl=len(self.out_unma_incl),
            out_unma_excl=len(self.out_unma_excl),
            reads=self.reads, writes=self.writes,
            reads_nonstack=self.reads_nonstack,
            writes_nonstack=self.writes_nonstack)


class PerByteQuadTool:
    """The QUAD pintool, one analysis call per access, per-byte walk.

    ``on_read``/``on_write`` are the analysis routines; tests may also
    drive them directly with ``(ea, size, sp)`` and push frames onto
    ``callstack`` themselves.
    """

    def __init__(self, *, track_bindings: bool = True):
        self.track_bindings = track_bindings
        self.callstack = CallStack()
        self.shadow: dict[int, str] = {}          #: addr -> last writer
        self.kernels: dict[str, SetIO] = {}
        #: (producer, consumer) -> [bytes incl. stack, bytes excl. stack]
        self.bindings: dict[tuple[str, str], list[int]] = {}
        self._machine = None
        self._images: dict[str, str] = {}
        self.finished = False

    def attach(self, engine: PinEngine) -> "PerByteQuadTool":
        self._machine = engine.machine
        self._images = {r.name: r.image for r in engine.program.routines}
        engine.INS_AddInstrumentFunction(self._instrument_instruction)
        engine.RTN_AddInstrumentFunction(self._instrument_routine)
        engine.AddFiniFunction(self._fini)
        return self

    def _instrument_instruction(self, ins: INS) -> None:
        if ins.IsPrefetch():
            return
        if ins.IsMemoryRead():
            ins.InsertPredicatedCall(IPOINT.BEFORE, self.on_read,
                                     IARG.MEMORY_EA, IARG.MEMORY_SIZE,
                                     IARG.REG_SP)
        if ins.IsMemoryWrite():
            ins.InsertPredicatedCall(IPOINT.BEFORE, self.on_write,
                                     IARG.MEMORY_EA, IARG.MEMORY_SIZE,
                                     IARG.REG_SP)
        if ins.IsRet():
            ins.InsertCall(IPOINT.BEFORE, self.callstack.on_ret)

    def _instrument_routine(self, rtn: RTN) -> None:
        rtn.InsertCall(IPOINT.BEFORE, self.callstack.enter,
                       IARG.RTN_NAME, IARG.RTN_IMAGE)

    def _fini(self, exit_code: int) -> None:
        self.finished = True

    def _io(self, name: str) -> SetIO:
        io = self.kernels.get(name)
        if io is None:
            io = self.kernels[name] = SetIO()
        return io

    def on_write(self, ea: int, size: int, sp: int) -> None:
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

    def on_read(self, ea: int, size: int, sp: int) -> None:
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

    def kernel_io(self) -> dict[str, KernelIO]:
        """The per-kernel accumulators with UnMA sets as cardinalities."""
        return {name: io.kernel_io() for name, io in self.kernels.items()}

    def report(self) -> QuadReport:
        if not self.finished:
            raise RuntimeError("run the engine before asking for the report")
        return QuadReport(kernels=self.kernel_io(),
                          bindings={k: list(v)
                                    for k, v in self.bindings.items()},
                          images=dict(self._images),
                          total_instructions=self._machine.icount)


def run_per_byte_quad(program, *, fs=None, track_bindings: bool = True,
                      max_instructions: int | None = None) -> QuadReport:
    """Run the oracle over ``program`` and return its report."""
    engine = PinEngine(program, fs=fs)
    tool = PerByteQuadTool(track_bindings=track_bindings).attach(engine)
    engine.run(max_instructions=max_instructions)
    return tool.report()

"""tQUAD's per-event analysis routine: the oracle for the recording path.

This is the profiler as the paper's implementation section (§IV-C,
Figs 3–5) reads: ``Instruction()`` inserts ``IncreaseRead``/
``IncreaseWrite`` on memory instructions, and each call attributes its
access to the current kernel and time slice on the spot.  The prefetch
guard lives in the analysis routine itself (``IARG.IS_PREFETCH``), as in
the paper.  The production :class:`~repro.core.TQuadTool` records
accesses into flat buffers and aggregates them in bulk instead.
"""

from __future__ import annotations

from repro.core.callstack import CallStack
from repro.core.ledger import BandwidthLedger
from repro.core.options import StackPolicy, TQuadOptions
from repro.core.report import TQuadReport
from repro.pin import IARG, INS, IPOINT, PinEngine, RTN


class PerEventTQuadTool:
    """Temporal memory-bandwidth profiler, attributing every access."""

    def __init__(self, options: TQuadOptions | None = None):
        self.options = options or TQuadOptions()
        # built as the recording tool builds it, so the call-stack upkeep
        # costs the same on both sides of a throughput comparison
        self.callstack = CallStack(
            exclude_library_accesses=self.options.exclude_libraries,
            mark_library=not self.options.exclude_libraries)
        self.ledger = BandwidthLedger(self.options.slice_interval)
        self._machine = None
        self._images: dict[str, str] = {}
        self._on_read = None
        self._on_write = None
        self.prefetches_skipped = 0
        self.finished = False

    def attach(self, engine: PinEngine) -> "PerEventTQuadTool":
        """Register instrumentation with the engine (Pin ``main``)."""
        self._machine = engine.machine
        self._images = {r.name: r.image for r in engine.program.routines}
        self._on_read = self._make_on_access(write=False)
        self._on_write = self._make_on_access(write=True)
        engine.INS_AddInstrumentFunction(self._instrument_instruction)
        engine.RTN_AddInstrumentFunction(self._instrument_routine)
        engine.AddFiniFunction(self._fini)
        return self

    def _instrument_instruction(self, ins: INS) -> None:
        """``Instruction()`` — see paper Fig. 4."""
        if ins.IsPrefetch():
            ins.InsertPredicatedCall(
                IPOINT.BEFORE, self._increase_read,
                IARG.MEMORY_EA, IARG.MEMORY_SIZE, IARG.REG_SP,
                IARG.IS_PREFETCH)
            return
        if ins.IsMemoryRead():
            ins.InsertPredicatedCall(
                IPOINT.BEFORE, self._on_read,
                IARG.MEMORY_EA, IARG.MEMORY_SIZE, IARG.REG_SP)
        if ins.IsMemoryWrite():
            ins.InsertPredicatedCall(
                IPOINT.BEFORE, self._on_write,
                IARG.MEMORY_EA, IARG.MEMORY_SIZE, IARG.REG_SP)
        if ins.IsRet():
            ins.InsertCall(IPOINT.BEFORE, self.callstack.on_ret)

    def _instrument_routine(self, rtn: RTN) -> None:
        """``UpdateCallStack()`` — see paper Fig. 5."""
        rtn.InsertCall(IPOINT.BEFORE, self.callstack.enter,
                       IARG.RTN_NAME, IARG.RTN_IMAGE)

    def _increase_read(self, ea: int, size: int, sp: int,
                       is_prefetch: bool) -> None:
        """``IncreaseRead`` with the paper's prefetch guard."""
        if is_prefetch:
            self.prefetches_skipped += 1
            return
        self._on_read(ea, size, sp)

    def _make_on_access(self, *, write: bool):
        """Build the per-event analysis routine for one direction.

        One parameterized closure stands in for the paper's six
        near-identical ``Increase{Read,Write}[{Incl,Excl}]`` variants: the
        stack policy selects which of the four ledger counters get the
        bytes, and whether stack accesses are discarded up front.
        """
        policy = self.options.stack
        exclude_libs = self.options.exclude_libraries
        cs = self.callstack
        ledger = self.ledger
        machine = self._machine
        incl_col = 2 if write else 0
        excl_col = 3 if write else 1
        track_incl = policy is not StackPolicy.EXCLUDE
        track_excl = policy is not StackPolicy.INCLUDE

        def on_access(ea: int, size: int, sp: int) -> None:
            if not track_incl and ea >= sp:
                return  # local stack area: discarded before any tracing work
            if cs.in_library and exclude_libs:
                return
            name = cs.current_kernel
            if name is None:
                return
            s = (machine.icount - 1) // ledger.interval
            if s != ledger.cur_slice:
                ledger.advance(s)
            c = ledger.cur.get(name)
            if c is None:
                c = ledger.cur[name] = [0, 0, 0, 0]
            if track_incl:
                c[incl_col] += size
            if track_excl and ea < sp:
                c[excl_col] += size
        return on_access

    def _fini(self, exit_code: int) -> None:
        self.ledger.flush()
        self.finished = True

    def report(self) -> TQuadReport:
        if not self.finished:
            raise RuntimeError("run the engine before asking for the report")
        return TQuadReport(ledger=self.ledger, options=self.options,
                           total_instructions=self._machine.icount,
                           images=dict(self._images), complete=True)


def run_per_event_tquad(program, *, options: TQuadOptions | None = None,
                        fs=None, max_instructions: int | None = None,
                        jit: bool = True) -> TQuadReport:
    """Profile ``program`` with the oracle and return its report."""
    engine = PinEngine(program, fs=fs, jit=jit)
    tool = PerEventTQuadTool(options).attach(engine)
    engine.run(max_instructions=max_instructions)
    return tool.report()

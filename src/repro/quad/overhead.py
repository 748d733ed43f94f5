"""Instrumentation-overhead model for the QUAD-instrumented profile.

Table III of the paper profiles the *QUAD-instrumented* binary with gprof.
The instrumented run inflates each kernel's time by the cost of the injected
analysis work — and, crucially, QUAD's "instrumentation routine simply
discards the local stack area accesses and only upon detection of a
non-local memory access, an analysis routine is called" (§V-B).  Kernel time
therefore grows in proportion to *non-stack* accesses, which is what makes
the instrumented ranking "more representative of a real execution ... on
systems that have a very expensive access cost for external memory compared
to mapped on-chip local buffers".

We reproduce that mechanism with a simple linear cost model measured in
(virtual) instructions per event.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gprofsim.report import FlatProfile, FlatRow
from .report import QuadReport


@dataclass(frozen=True)
class InstrumentationCostModel:
    """Per-event analysis costs, in guest instructions.

    Three mechanisms, mirroring a shadow-memory tracer like QUAD:

    * every access pays a short stack-discard check;
    * every non-stack access runs the tracing body;
    * every *first touch* of a new address grows the shadow map, which is
      far more expensive than re-tracing a known one.  This term is what
      "reveals the data communication overhead introduced by accessing
      individual memory addresses" (§V-B): kernels that spray distinct
      addresses (AudioIo_setFrames, wav_store) inflate the most, exactly as
      in the paper's Table III.

    The absolute values only set the scale; the *ranking* comes from each
    kernel's access profile.
    """

    check_cost: float = 5.0          #: every access: stack-discard check
    trace_cost: float = 40.0         #: every non-stack access: tracing body
    unma_cost: float = 40.0          #: every newly touched non-stack byte
    call_cost: float = 20.0          #: per routine entry (call stack upkeep)


def instrumented_profile(base: FlatProfile, quad: QuadReport,
                         model: InstrumentationCostModel | None = None
                         ) -> FlatProfile:
    """Derive the Table III profile from a clean profile + QUAD counts."""
    model = model or InstrumentationCostModel()
    rows: list[FlatRow] = []
    for row in base.rows:
        inflated = float(row.self_instructions)
        if row.name in quad.kernels:
            io = quad.kernels[row.name]
            reads, writes, nreads, nwrites = quad.access_counts(row.name)
            inflated += model.check_cost * (reads + writes)
            inflated += model.trace_cost * (nreads + nwrites)
            inflated += model.unma_cost * (io.in_unma_excl
                                           + io.out_unma_excl)
        inflated += model.call_cost * row.calls
        rows.append(FlatRow(name=row.name,
                            self_instructions=int(round(inflated)),
                            cumulative_instructions=row.cumulative_instructions,
                            calls=row.calls))
    total = sum(r.self_instructions for r in rows)
    return FlatProfile(rows=sorted(rows, key=lambda r: r.self_instructions,
                                   reverse=True),
                       total_instructions=total,
                       machine=base.machine)


@dataclass
class RankShift:
    """How one kernel's rank moved between the clean and instrumented runs
    (the *rank*/*trend* columns of Table III)."""

    kernel: str
    base_rank: int
    instrumented_rank: int
    base_percent: float
    instrumented_percent: float

    @property
    def trend(self) -> str:
        """Paper-style trend arrow."""
        d = self.base_percent - self.instrumented_percent
        if abs(d) < 0.75:
            return "<->"
        arrow = "down" if d > 0 else "up"
        return arrow * 2 if abs(d) > 5.0 else arrow


def rank_shifts(base: FlatProfile, instrumented: FlatProfile
                ) -> list[RankShift]:
    """Per-kernel rank movement, ordered by the base profile."""
    base_rank = {r.name: i + 1 for i, r in enumerate(base.rows)}
    inst_rank = {r.name: i + 1 for i, r in enumerate(instrumented.rows)}
    base_pct = {r.name: base.percent(r.name) for r in base.rows}
    inst_pct = {r.name: instrumented.percent(r.name)
                for r in instrumented.rows}
    return [RankShift(kernel=r.name,
                      base_rank=base_rank[r.name],
                      instrumented_rank=inst_rank.get(r.name, -1),
                      base_percent=base_pct[r.name],
                      instrumented_percent=inst_pct.get(r.name, 0.0))
            for r in base.rows]

"""Multi-pass bandwidth estimation (paper §V-B, Table IV method).

"The average memory bandwidth usage is calculated over several passes with
different time slices" and "for some of the kernels … upper bounds are
specified [because] slight inconsistencies in the measurements of the
overall time slices were detected."

:func:`profile_passes` produces tQUAD reports for several slice intervals,
and :class:`MultiPassResult` reports per-kernel averages with the spread
across passes — when the spread is non-negligible, the rendered value
carries the paper's ``<`` upper-bound marker.

The passes do not re-execute the VM per interval: one instrumented run
captures the access quads at the gcd of the requested intervals, and the
whole ladder comes out of one :func:`repro.sweep.sweep_tquad` pass that
decodes each captured page once.  Each report is byte-identical to a
direct run at its interval; the tests check this against a
run-per-interval oracle (``tests/reference/multipass.py``).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable

from ..pin import PinEngine
from .options import TQuadOptions
from .profiler import TQuadTool
from .report import TQuadReport

#: Relative spread above which a measurement is flagged as an upper bound.
INCONSISTENCY_THRESHOLD = 0.05


@dataclass
class BandwidthEstimate:
    """One kernel × metric estimate aggregated over passes."""

    kernel: str
    mean: float               #: bytes/instruction, averaged over passes
    maximum: float
    minimum: float

    @property
    def spread(self) -> float:
        if self.maximum == 0:
            return 0.0
        return (self.maximum - self.minimum) / self.maximum

    @property
    def is_upper_bound(self) -> bool:
        """Paper: values with measurement inconsistencies are reported as
        upper bounds ('<x')."""
        return self.spread > INCONSISTENCY_THRESHOLD

    def render(self, precision: int = 4) -> str:
        text = f"{self.maximum:.{precision}f}"
        return f"<{text}" if self.is_upper_bound else text


@dataclass
class MultiPassResult:
    """tQUAD reports for several slice intervals plus aggregation."""

    reports: dict[int, TQuadReport]

    def __post_init__(self) -> None:
        if not self.reports:
            raise ValueError("at least one pass is required")

    @property
    def intervals(self) -> list[int]:
        return sorted(self.reports)

    @property
    def finest(self) -> TQuadReport:
        return self.reports[self.intervals[0]]

    def kernels(self) -> list[str]:
        return self.finest.kernels()

    def _collect(self, fn: Callable[[TQuadReport], float],
                 kernel: str) -> BandwidthEstimate:
        values = [fn(rep) for rep in self.reports.values()]
        return BandwidthEstimate(kernel=kernel,
                                 mean=sum(values) / len(values),
                                 maximum=max(values), minimum=min(values))

    def average_bandwidth(self, kernel: str, *, write: bool,
                          include_stack: bool) -> BandwidthEstimate:
        return self._collect(
            lambda rep: rep.series(kernel).average_bandwidth(
                write=write, include_stack=include_stack), kernel)

    def max_bandwidth(self, kernel: str, *,
                      include_stack: bool) -> BandwidthEstimate:
        return self._collect(
            lambda rep: rep.series(kernel).max_bandwidth(
                include_stack=include_stack), kernel)

    def total_bytes_consistent(self) -> bool:
        """The conservation check: totals must agree across every pass."""
        totals = {
            (rep.total_bytes(write=False, include_stack=True),
             rep.total_bytes(write=True, include_stack=True))
            for rep in self.reports.values()
        }
        return len(totals) == 1

    def format_table(self, kernels: list[str] | None = None) -> str:
        """Table-IV-style averages with '<' upper-bound markers."""
        if kernels is None:
            kernels = self.kernels()
        head = (f"{'kernel':<26}"
                f"{'avgR(i)':>10}{'avgR(x)':>10}"
                f"{'avgW(i)':>10}{'avgW(x)':>10}"
                f"{'maxBW(i)':>11}{'maxBW(x)':>11}")
        lines = [head, "-" * len(head)]
        for k in kernels:
            cells = [
                self.average_bandwidth(k, write=False, include_stack=True),
                self.average_bandwidth(k, write=False, include_stack=False),
                self.average_bandwidth(k, write=True, include_stack=True),
                self.average_bandwidth(k, write=True, include_stack=False),
            ]
            maxes = [self.max_bandwidth(k, include_stack=True),
                     self.max_bandwidth(k, include_stack=False)]
            lines.append(f"{k:<26}"
                         + "".join(f"{c.render():>10}" for c in cells)
                         + "".join(f"{m.render():>11}" for m in maxes))
        lines.append(f"passes: intervals {self.intervals}")
        return "\n".join(lines)


def profile_passes(build: Callable[[], tuple], intervals: list[int], *,
                   options: TQuadOptions | None = None,
                   max_instructions: int | None = None) -> MultiPassResult:
    """Produce tQUAD reports for each of ``intervals``.

    ``build()`` must return a fresh ``(program, fs)`` pair per call (the
    machine is single-shot).  ``options`` provides the non-interval
    settings.  The guest executes *once*, capturing at the gcd of the
    intervals, and the whole ladder is one sweep-engine pass over the
    capture; a single interval is one live run, where a capture buys
    nothing.  An empty ``intervals`` list, or any
    non-positive interval, raises :class:`ValueError` before any run.
    """
    from ..sweep.grid import validate_intervals

    validate_intervals(intervals)
    base = options or TQuadOptions()
    if len(set(intervals)) == 1:
        program, fs = build()
        opts = TQuadOptions(slice_interval=intervals[0], stack=base.stack,
                            exclude_libraries=base.exclude_libraries,
                            kernels=base.kernels)
        engine = PinEngine(program, fs=fs)
        tool = TQuadTool(opts).attach(engine)
        engine.run(max_instructions=max_instructions)
        return MultiPassResult(reports={intervals[0]: tool.report()})

    from ..capture import CaptureReader, capture_run, replay_many
    from ..sweep import SweepGrid

    grain = reduce(math.gcd, intervals)
    program, fs = build()
    buf = io.BytesIO()
    capture_run(program, buf, fs=fs,
                options=TQuadOptions(slice_interval=grain,
                                     stack=base.stack,
                                     exclude_libraries=base.exclude_libraries),
                tools=("tquad",), label="multipass",
                max_instructions=max_instructions)
    buf.seek(0)
    grid = SweepGrid(intervals=tuple(intervals), stacks=(base.stack,),
                     library_modes=(base.exclude_libraries,),
                     kernels=base.kernels)
    with CaptureReader(buf) as reader:
        result = replay_many(reader, tools=(), grid=grid).sweep
    reports = result.by_interval(stack=base.stack,
                                 exclude_libraries=base.exclude_libraries)
    return MultiPassResult(reports=reports)

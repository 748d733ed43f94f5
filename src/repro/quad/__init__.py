"""QUAD: memory access pattern analyser (producer/consumer bindings)."""

from .overhead import (InstrumentationCostModel, RankShift,
                       instrumented_profile, rank_shifts)
from .report import QuadReport, Table2Row
from .tracker import KernelIO, QuadTool, RecordOnlyError, run_quad

__all__ = [
    "QuadTool", "RecordOnlyError", "run_quad", "QuadReport", "Table2Row",
    "KernelIO", "InstrumentationCostModel", "instrumented_profile",
    "rank_shifts", "RankShift",
]

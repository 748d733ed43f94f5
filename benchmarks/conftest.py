"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper on the
``small`` preset of the WFS case study (see DESIGN.md §4 for the experiment
index), prints it, and writes it to ``benchmarks/output/``.  Timings are
single-shot (``pedantic(rounds=1)``) — these are experiment pipelines, not
micro-benchmarks.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from repro.apps.wfs import SMALL, build_wfs_program, make_workspace
from repro.core import TQuadOptions, run_tquad
from repro.gprofsim import run_gprof
from repro.pin import PinEngine
from repro.quad import QuadTool

# The throughput gates time the production tools against the oracles of
# the test tree (tests/reference/), so the repo root must be importable.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

#: The 21 kernels of the paper's Tables I–IV.
PAPER_KERNELS = [
    "wav_store", "fft1d", "DelayLine_processChunk", "bitrev", "zeroRealVec",
    "AudioIo_setFrames", "perm", "cadd", "cmult", "Filter_process",
    "wav_load", "Filter_process_pre_", "zeroCplxVec", "r2c", "c2r",
    "AudioIo_getFrames", "ffw", "vsmult2d", "calculateGainPQ",
    "PrimarySource_deriveTP", "ldint",
]

#: Slice interval used for the Table IV (fine) runs, the scaled analogue of
#: the paper's 5000-instruction slices.
FINE_INTERVAL = 5000

#: Coarse interval for the Figure 6 analogue (the paper's 10⁸ slices gave 64
#: slices over the run; this gives ~63 over ours).
COARSE_INTERVAL = 150_000

#: Medium interval for the Figure 7 analogue (paper: 25·10⁶ → 255 slices).
MEDIUM_INTERVAL = 37_500


@pytest.fixture(scope="session")
def small_program():
    return build_wfs_program(SMALL)


@pytest.fixture(scope="session")
def results_cache():
    """Cross-benchmark cache so derived experiments (Table III) can reuse
    the profiles produced by earlier ones regardless of execution order."""
    return {}


@pytest.fixture(scope="session")
def outdir():
    path = pathlib.Path(__file__).parent / "output"
    path.mkdir(exist_ok=True)
    return path


def save_artifact(outdir: pathlib.Path, name: str, text: str) -> None:
    (outdir / name).write_text(text + "\n")
    print(f"\n### {name} ###")
    print(text)


def get_flat(cache, program):
    if "flat" not in cache:
        cache["flat"] = run_gprof(program, fs=make_workspace(SMALL))
    return cache["flat"]


def get_quad(cache, program):
    if "quad" not in cache:
        engine = PinEngine(program, fs=make_workspace(SMALL))
        tool = QuadTool().attach(engine)
        engine.run()
        cache["quad"] = tool.report()
    return cache["quad"]


def get_tquad(cache, program, interval):
    key = f"tquad-{interval}"
    if key not in cache:
        cache[key] = run_tquad(program, fs=make_workspace(SMALL),
                               options=TQuadOptions(slice_interval=interval))
    return cache[key]

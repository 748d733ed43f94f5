"""A3 — engineering baseline: VM and instrumentation throughput.

Measures guest instructions/second for the bare VM and for instrumented
engines, on both execution tiers (fused superblocks vs per-instruction
closures) and both tQUAD analysis paths (buffered recording vs the
paper's per-event routine, the oracle in ``tests/reference/tquad.py``,
labelled "legacy" below).  The per-instruction + legacy configurations
reproduce the original seed numbers; the fused + buffered configurations
are the optimized defaults and must hold a ≥3× (bare) / ≥2×
(engine+tQUAD) speedup over them.  Results land in ``vm_throughput.txt`` (human) and
``BENCH_vm_throughput.json`` (machine-readable, tracked across PRs).
"""

import json
import time

from conftest import save_artifact
from repro.apps.kernels import build_fir
from repro.core import TQuadOptions, TQuadTool
from repro.pin import PinEngine
from repro.vm import Machine
from tests.reference.tquad import PerEventTQuadTool


def _ips_bare(program, jit):
    m = Machine(program, jit=jit)
    m.run()
    return m.icount


def _ips_engine(program, *, jit, tool, buffered=True):
    engine = PinEngine(program, jit=jit)
    if tool:
        cls = TQuadTool if buffered else PerEventTQuadTool
        cls(TQuadOptions(slice_interval=10_000)).attach(engine)
    engine.run()
    return engine.machine.icount


def test_vm_throughput(benchmark, outdir):
    # long enough that trace compilation is fully amortized
    program = build_fir(length=4096, n_taps=16)

    configs = {
        "bare VM": lambda: _ips_bare(program, True),
        "bare VM, unfused": lambda: _ips_bare(program, False),
        "engine, no tools": lambda: _ips_engine(program, jit=True,
                                                tool=False),
        "engine + tQUAD": lambda: _ips_engine(program, jit=True, tool=True),
        "engine + tQUAD, legacy": lambda: _ips_engine(
            program, jit=True, tool=True, buffered=False),
        "engine + tQUAD, legacy unfused": lambda: _ips_engine(
            program, jit=False, tool=True, buffered=False),
    }

    stats = {}
    for label, fn in configs.items():
        best = 0.0
        for _ in range(3):
            t0 = time.perf_counter()
            icount = fn()
            dt = time.perf_counter() - t0
            best = max(best, icount / dt)
        stats[label] = best

    benchmark.pedantic(lambda: _ips_bare(program, True),
                       rounds=1, iterations=1)

    # --- assertions -----------------------------------------------------------
    assert stats["bare VM"] > 100_000          # sanity floor
    # instrumentation costs real throughput
    assert stats["engine + tQUAD"] < stats["bare VM"]
    # an engine with no tools compiles through the same code cache and must
    # be in the same ballpark as the bare VM
    assert stats["engine, no tools"] > 0.5 * stats["bare VM"]
    # the superblock tier's reason to exist: >=3x the per-instruction tier
    # (the seed configuration) on the bare VM ...
    assert stats["bare VM"] >= 3.0 * stats["bare VM, unfused"]
    # ... and >=2x end-to-end with tQUAD attached, fused + buffered against
    # the per-instruction legacy path
    assert (stats["engine + tQUAD"]
            >= 2.0 * stats["engine + tQUAD, legacy unfused"])

    lines = [f"{'configuration':<34}{'instr/s':>14}"]
    for label, ips in stats.items():
        lines.append(f"{label:<34}{ips:>14,.0f}")
    save_artifact(outdir, "vm_throughput.txt", "\n".join(lines))
    payload = {
        "benchmark": "vm_throughput",
        "workload": "fir(length=4096, n_taps=16)",
        "instr_per_second": {k: round(v) for k, v in stats.items()},
        "speedup": {
            "bare": stats["bare VM"] / stats["bare VM, unfused"],
            "engine_tquad": (stats["engine + tQUAD"]
                             / stats["engine + tQUAD, legacy unfused"]),
        },
    }
    (outdir / "BENCH_vm_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n")

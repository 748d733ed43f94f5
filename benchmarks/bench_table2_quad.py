"""E2/E8 — Table II: QUAD producer/consumer statistics, both stack views.

Paper shape to reproduce (§V-B):

* fft1d's stack-inclusion/exclusion byte ratio ≈ 10;
* zeroRealVec / zeroCplxVec ratios are enormous (almost all reads local);
* AudioIo_setFrames writes every output byte to a distinct address
  (OUT ≈ OUT UnMA pattern), AudioIo_getFrames likewise on reads;
* the QDU graph traces DelayLine_processChunk → AudioIo_setFrames →
  wav_store;
* bitrev's buffer footprint is tiny (~0.1 KB).

This is also the QUAD throughput gate: the paged/interned shadow of
:class:`~repro.quad.QuadTool` must produce a byte-identical report to the
per-byte dict/set walk (the oracle in ``tests/reference/quad.py``,
labelled "legacy" below) at ≥5x the accesses/sec, and the measurements
land in ``BENCH_quad_throughput.json``.
"""

import gc
import json
import resource
import time

from conftest import save_artifact
from repro.apps.wfs import SMALL, make_workspace
from repro.pin import PinEngine
from repro.quad import QuadTool
from repro.serialize import quad_to_json
from tests.reference.quad import PerByteQuadTool

#: Acceptance floor for the paged shadow's speedup over legacy.
MIN_SPEEDUP = 5.0
#: Timed rounds per shadow implementation; the gate compares the best
#: round of each, which is robust against one-off scheduler noise on
#: shared CI machines.
ROUNDS = 2


def _run_quad(program, shadow):
    engine = PinEngine(program, fs=make_workspace(SMALL))
    tool = (QuadTool() if shadow == "paged" else PerByteQuadTool())
    tool.attach(engine)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()          # collector pauses are noise, not tool cost
    try:
        t0 = time.perf_counter()
        engine.run()
        report = tool.report()
        elapsed = time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    return report, elapsed


def test_table2_quad(benchmark, small_program, results_cache, outdir):
    # paged first: ru_maxrss is a process-lifetime high-water mark, so the
    # first phase's reading is untainted; the legacy phase (whose dict/set
    # state is the larger of the two) then raises it further
    paged_runs = []

    def paged_once():
        r = _run_quad(small_program, "paged")
        paged_runs.append(r)
        return r

    benchmark.pedantic(paged_once, rounds=ROUNDS, iterations=1)
    quad = paged_runs[0][0]
    paged_s = min(e for _, e in paged_runs)
    paged_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    legacy_runs = [_run_quad(small_program, "legacy")
                   for _ in range(ROUNDS)]
    legacy = legacy_runs[0][0]
    legacy_s = min(e for _, e in legacy_runs)
    legacy_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    results_cache["quad"] = quad

    # --- equality gate: paged must be byte-identical to legacy --------------
    assert quad_to_json(quad) == quad_to_json(legacy)
    assert quad.format_table() == legacy.format_table()

    accesses = sum(io.reads + io.writes for io in quad.kernels.values())
    speedup = legacy_s / paged_s
    payload = {
        "benchmark": "quad_throughput",
        "workload": f"wfs(preset=small), {accesses} accesses",
        "reports_identical": True,
        "accesses_per_second": {
            "paged": int(accesses / paged_s),
            "legacy": int(accesses / legacy_s),
        },
        "seconds": {"paged": round(paged_s, 3),
                    "legacy": round(legacy_s, 3)},
        "speedup": round(speedup, 2),
        "peak_rss_kb": {"paged": paged_rss_kb,
                        "after_legacy": legacy_rss_kb},
        "shadow_stats": quad.shadow_stats,
    }
    (outdir / "BENCH_quad_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    print(f"\npaged {paged_s:.2f}s vs legacy {legacy_s:.2f}s "
          f"-> {speedup:.2f}x")
    assert speedup >= MIN_SPEEDUP

    # --- paper-shape assertions ---------------------------------------------
    assert 4 < quad.row("fft1d").stack_in_ratio < 25
    for zv in ("zeroRealVec", "zeroCplxVec"):
        assert quad.row(zv).stack_in_ratio > 100
    setf = quad.row("AudioIo_setFrames")
    assert setf.out_unma_excl == SMALL.frames * SMALL.n_speakers * 8
    getf = quad.row("AudioIo_getFrames")
    assert getf.in_unma_excl > 0.9 * getf.in_excl
    assert quad.row("bitrev").out_unma_excl + \
        quad.row("bitrev").in_unma_excl < 256
    assert quad.communication("DelayLine_processChunk",
                              "AudioIo_setFrames") > 0
    assert quad.communication("AudioIo_setFrames", "wav_store") > 0
    # wav_store pulls the entire output buffer from distinct addresses
    assert quad.row("wav_store").in_unma_excl >= \
        SMALL.frames * SMALL.n_speakers

    _, edges = quad.qdu_graph(include_stack=False)
    assert ("DelayLine_processChunk", "AudioIo_setFrames") in edges
    assert ("AudioIo_setFrames", "wav_store") in edges

    save_artifact(outdir, "table2_quad.txt", quad.format_table())

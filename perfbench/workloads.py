"""The three benchmark workloads: one per path a user takes.

* ``paper-cold`` -- first contact with a binary: compile the wfs
  ``small`` guest, capture one execution under tQUAD+gprof+QUAD, open the
  capture cold (building its page sidecar) and render Table IV.
* ``paper-warm`` -- re-analysis of an existing capture: regenerate
  Tables I-IV and Figures 6/7 from a warm capture, by standalone replay
  and again by one sweep pass.
* ``fleet-verify`` -- the regression fleet: ``tquad corpus verify`` over
  the PR tier, as a subprocess against a store filled in set-up.

Each workload's set-up runs in a fresh interpreter (``setup_child``), so
its time includes imports and the op process's peak RSS is not inflated
by set-up garbage.  Every op checks its outputs against the committed
goldens and returns ``False`` on any mismatch; the runner counts that op
as failed and never retries it.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.analysis import bandwidth_strips
from repro.apps.wfs import SMALL, build_wfs_program, make_workspace
from repro.capture import (CaptureReader, capture_run, replay_gprof,
                           replay_quad, replay_tquad)
from repro.core import TQuadOptions, cluster_kernel_phases
from repro.corpus import CaptureStore, run_fleet
from repro.quad import instrumented_profile, rank_shifts
from repro.refwfs import run_reference
from repro.sweep import SweepGrid, sweep_tquad
from repro.vm import run_program

from layers import traced_op

#: The 21 kernels of the paper's Tables I-IV and the three published
#: slice intervals, as the golden tests in ``tests/integration`` use them.
PAPER_KERNELS = [
    "wav_store", "fft1d", "DelayLine_processChunk", "bitrev", "zeroRealVec",
    "AudioIo_setFrames", "perm", "cadd", "cmult", "Filter_process",
    "wav_load", "Filter_process_pre_", "zeroCplxVec", "r2c", "c2r",
    "AudioIo_getFrames", "ffw", "vsmult2d", "calculateGainPQ",
    "PrimarySource_deriveTP", "ldint",
]
FINE_INTERVAL = 5000        # Table IV
MEDIUM_INTERVAL = 37_500    # Figure 7
COARSE_INTERVAL = 150_000   # Figure 6
WARM_GRAIN = math.gcd(FINE_INTERVAL, MEDIUM_INTERVAL, COARSE_INTERVAL)

#: Entries in the corpus PR tier (the fleet op must report all of them ok).
FLEET_ENTRIES = 8
#: A hung fleet child is killed after this many seconds (a failed op).
FLEET_TIMEOUT_S = 120


def child_env(root: Path, tmp: Path) -> dict[str, str]:
    """Environment for every child: the checkout's sources, the run's
    temporary directory, and none of the program's behaviour switches
    (nightly tier, fault injection) leaking in from the caller."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("TQUAD_NIGHTLY", "TQUAD_FAULTS")}
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)
    return env


def peak_rss_reset() -> None:
    """Start a new peak-RSS window for this process (Linux ``VmHWM``)."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mib() -> float:
    with open("/proc/self/status") as fh:
        kib = int(re.search(r"VmHWM:\s+(\d+)", fh.read()).group(1))
    return kib / 1024


# ------------------------------------------------------------ rendering
def render_table3(flat, quad) -> str:
    inst = instrumented_profile(flat, quad)
    shifts = {s.kernel: s for s in rank_shifts(flat, inst)}
    lines = [f"{'kernel':<26}{'%time':>8}{'self s':>10}{'rank':>6}"
             f"{'trend':>7}"]
    for row in inst.rows[:12]:
        s = shifts.get(row.name)
        lines.append(f"{row.name:<26}{inst.percent(row.name):>8.2f}"
                     f"{inst.self_seconds(row.name):>10.4f}"
                     f"{inst.rank(row.name):>6}"
                     f"{(s.trend if s else '?'):>7}")
    return "\n".join(lines)


def render_table4(report) -> str:
    return cluster_kernel_phases(report, kernels=PAPER_KERNELS,
                                 max_phases=5).format_table()


def render_fig6(report) -> str:
    names, mat = report.bandwidth_matrix(report.top_kernels(10),
                                         write=False, include_stack=True)
    return bandwidth_strips(
        names, mat, interval=report.interval, width=100,
        title="Figure 6 analogue: read bandwidth incl. stack, top 10")


def render_fig7(report) -> str:
    top10 = report.top_kernels(10)
    bottom = [k for k in PAPER_KERNELS
              if k in report.ledger.kernels() and k not in top10][:10]
    names, mat = report.bandwidth_matrix(bottom, write=True,
                                         include_stack=False)
    half = mat[:, :mat.shape[1] // 2]
    return bandwidth_strips(
        names, half, interval=report.interval, width=100,
        title="Figure 7 analogue: write bandwidth excl. stack, "
              "last 10 kernels, first half")


def load_goldens(golden: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in golden.glob("*.txt")}


# ------------------------------------------------------------ workloads
class Workload:
    """One set of inputs.  ``setup_child`` runs in a fresh interpreter
    and leaves its products under ``work``; ``prepare`` loads them into
    the measuring process; ``op`` does one timed unit of work and returns
    whether every output matched its reference."""

    name = ""

    def __init__(self, root: Path, work: Path, golden: Path, seed: int):
        self.root = root
        self.work = work
        self.golden = golden
        self.seed = seed

    def setup_child(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def op(self) -> bool:
        raise NotImplementedError

    def traced(self, trace) -> bool:
        """One op with the layer timers of ``trace`` installed."""
        return traced_op(trace, self.op)

    def op_peak_rss_mib(self) -> float:
        """Peak RSS of the process that did the last op."""
        return peak_rss_mib()

    def probes(self) -> dict[str, float]:
        """Layer calls timed apart from the ops (traced runs only)."""
        return {}

    def guest_instructions(self) -> int:
        """Guest instructions one op's inputs retire (run context)."""
        raise NotImplementedError


class PaperCold(Workload):
    name = "paper-cold"

    def setup_child(self) -> None:
        (self.work / "ref.wav").write_bytes(run_reference(SMALL).wav_bytes)

    def prepare(self) -> None:
        self.ref_wav = (self.work / "ref.wav").read_bytes()
        self.table4 = (self.golden / "table4_phases.txt").read_text()
        self.instructions = 0

    def op(self) -> bool:
        path = self.work / "cold.capture"
        program = build_wfs_program(SMALL)
        fs = make_workspace(SMALL)
        try:
            manifest = capture_run(
                program, str(path), fs=fs,
                options=TQuadOptions(slice_interval=FINE_INTERVAL),
                label="paper-cold")
            with CaptureReader(str(path)) as reader:
                report = replay_tquad(
                    reader, TQuadOptions(slice_interval=FINE_INTERVAL))
                table4 = render_table4(report)
        finally:
            for p in (path, Path(str(path) + ".pages")):
                p.unlink(missing_ok=True)
        self.instructions = manifest["total_instructions"]
        return (table4 + "\n" == self.table4
                and fs.get(SMALL.output_wav_name) == self.ref_wav)

    def guest_instructions(self) -> int:
        return self.instructions

    def probes(self) -> dict[str, float]:
        """Per-layer calls timed apart from the op: the bare VM run and a
        capture per single tool, on the same guest."""
        program = build_wfs_program(SMALL)
        out = {}
        start = time.perf_counter()
        machine = run_program(program, fs=make_workspace(SMALL))
        out["vm.run_s"] = time.perf_counter() - start
        out["vm.instructions"] = float(machine.icount)
        path = self.work / "probe.capture"
        for tool in ("tquad", "quad", "gprof"):
            start = time.perf_counter()
            capture_run(program, str(path), fs=make_workspace(SMALL),
                        options=TQuadOptions(slice_interval=FINE_INTERVAL),
                        tools=(tool,), label="probe")
            out[f"capture.record_{tool}_s"] = time.perf_counter() - start
            path.unlink()
        return out


class PaperWarm(Workload):
    name = "paper-warm"

    def setup_child(self) -> None:
        path = self.work / "warm.capture"
        capture_run(build_wfs_program(SMALL), str(path),
                    fs=make_workspace(SMALL),
                    options=TQuadOptions(slice_interval=WARM_GRAIN),
                    label="paper-warm")
        with CaptureReader(str(path)) as reader:   # builds the sidecar
            if reader.page_cache_state != "built":
                raise RuntimeError("paper-warm set-up built no sidecar")

    def prepare(self) -> None:
        self.path = str(self.work / "warm.capture")
        self.goldens = load_goldens(self.golden)
        with CaptureReader(self.path) as reader:
            self.instructions = reader.manifest["total_instructions"]
        self.rng = random.Random(self.seed)

    def _queries(self, reader):
        """The paper's artifacts as ``(golden name, render)`` queries;
        gprof/QUAD reports are shared between Tables I-III within an op."""
        memo = {}

        def flat():
            if "flat" not in memo:
                memo["flat"] = replay_gprof(reader)
            return memo["flat"]

        def quad():
            if "quad" not in memo:
                memo["quad"] = replay_quad(reader)
            return memo["quad"]

        def tquad(interval):
            return replay_tquad(reader,
                                TQuadOptions(slice_interval=interval))

        def sweep():
            result = sweep_tquad(reader, SweepGrid(
                intervals=(FINE_INTERVAL, MEDIUM_INTERVAL,
                           COARSE_INTERVAL)))
            return [("table4_phases.txt",
                     render_table4(result.report(FINE_INTERVAL))),
                    ("fig6_read_bandwidth.txt",
                     render_fig6(result.report(COARSE_INTERVAL))),
                    ("fig7_write_bandwidth.txt",
                     render_fig7(result.report(MEDIUM_INTERVAL)))]

        return [
            lambda: [("table1_flat_profile.txt", flat().format_table(top=21))],
            lambda: [("table2_quad.txt", quad().format_table())],
            lambda: [("table3_instrumented.txt",
                      render_table3(flat(), quad()))],
            lambda: [("table4_phases.txt",
                      render_table4(tquad(FINE_INTERVAL)))],
            lambda: [("fig6_read_bandwidth.txt",
                      render_fig6(tquad(COARSE_INTERVAL)))],
            lambda: [("fig7_write_bandwidth.txt",
                      render_fig7(tquad(MEDIUM_INTERVAL)))],
            sweep,
        ]

    def op(self) -> bool:
        ok = True
        with CaptureReader(self.path) as reader:
            queries = self._queries(reader)
            self.rng.shuffle(queries)
            for query in queries:
                for name, text in query():
                    ok &= text + "\n" == self.goldens[name]
            ok &= reader.page_cache_state == "warm"
        return ok

    def guest_instructions(self) -> int:
        return self.instructions


class FleetVerify(Workload):
    name = "fleet-verify"

    def setup_child(self) -> None:
        report = run_fleet(store=CaptureStore(self.work / "store"))
        if not report.ok or len(report.entries) != FLEET_ENTRIES:
            raise RuntimeError(f"fleet set-up failed: {report.summary()}")

    def prepare(self) -> None:
        self.instructions = 0
        for path in sorted((self.work / "store").glob("*.capture")):
            with CaptureReader(str(path), page_cache=False) as reader:
                self.instructions += reader.manifest["total_instructions"]
        self.env = child_env(self.root, self.work)
        self.last_rss_mib = 0.0
        self.traces = 0

    def argv(self, traced_out: Path | None = None) -> list[str]:
        tail = ["corpus", "verify", "--store", str(self.work / "store"),
                "--golden", str(self.golden / "corpus"),
                "--report", str(self.work / "fleet-report.json")]
        if traced_out is None:
            return [sys.executable, "-m", "repro.cli", *tail]
        shim = Path(__file__).with_name("traced_cli.py")
        return [sys.executable, str(shim), str(traced_out), *tail]

    def op(self, traced_out: Path | None = None) -> bool:
        log = self.work / "verify.out"
        with open(log, "w") as out:
            proc = subprocess.Popen(self.argv(traced_out), env=self.env,
                                    cwd=self.root, stdout=out,
                                    stderr=subprocess.STDOUT)
        code, rusage = _wait(proc, FLEET_TIMEOUT_S)
        # the child's own peak RSS (ru_maxrss is KiB on Linux)
        self.last_rss_mib = rusage.ru_maxrss / 1024
        text = log.read_text()
        if code == 0 and f"({FLEET_ENTRIES} ok)" in text:
            return True
        print(f"fleet-verify op failed (exit {code}):\n{text}",
              file=sys.stderr)
        return False

    def traced(self, trace) -> bool:
        """The op through ``traced_cli.py``; its layer trace is folded
        into ``trace``."""
        self.traces += 1
        out = self.work / f"trace-{self.traces}.json"
        ok = self.op(traced_out=out)
        if out.exists():
            trace.absorb(json.loads(out.read_text()))
            out.unlink()
        return ok

    def op_peak_rss_mib(self) -> float:
        return self.last_rss_mib

    def guest_instructions(self) -> int:
        return self.instructions

    def probes(self) -> dict[str, float]:
        """``import repro.cli`` in a fresh interpreter, median of three."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import repro.cli"],
                           env=self.env, cwd=self.root, check=True)
            times.append(time.perf_counter() - start)
        return {"cli.import_s": statistics.median(times)}


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with ``wait4`` (for its own rusage), killing it once
    ``timeout`` seconds pass.  Returns ``(exit code, rusage)``."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, rusage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


WORKLOADS = {w.name: w for w in (PaperCold, PaperWarm, FleetVerify)}

"""The repo benchmark: one command, three workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 15 \
        --trace 0

Workloads (see ``workloads.py``): ``paper-cold`` (compile + capture the
wfs ``small`` guest, open it cold, render Table IV), ``paper-warm``
(regenerate Tables I-IV and Figures 6/7 from a warm capture) and
``fleet-verify`` (``tquad corpus verify`` over the PR tier).

The run sets its workload up ``SETUP_REPS`` times, each in a fresh
interpreter, then repeats the op until ``--seconds`` have passed (one
load generator, closed loop: the next op starts when the last one ends).
Every op's outputs are checked against the committed goldens; an op
that fails its check or raises counts as failed and is not retried.

``--trace 0`` prints the end-to-end metrics: ``op_s`` (median seconds
per op), ``setup_s`` (median set-up seconds) and ``peak_rss_mib`` (peak
RSS of the process doing the work over the untraced ops, set-up
excluded; for ``fleet-verify`` the largest CLI child).  Both times are
in reference-host seconds: each op and set-up is bracketed by a fixed
calibration workload (:class:`HostSpeed`), so a shared host's speed
drift cancels out; the plain wall times are in the context line.
``--trace 1`` alternates untraced and traced ops and prints the
per-layer metrics named in ``layers.json`` (per traced op), with
``trace.overhead_frac`` comparing the two.  End-to-end numbers never
come from traced ops.

The last line of standard output is the JSON result; the line before it
is the run context (cores, versions, git sha, guest instructions, wall
and scaled times, calibrations).  Everything the run writes goes to ``.perfbench-work/`` in the
checkout and is removed before it exits.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench-work"
GOLDEN = ROOT / "tests" / "golden"
SETUP_REPS = 3
#: A set-up child that has not finished by then is a broken run.
SETUP_TIMEOUT_S = 120
#: Wall seconds of one ``calibrate.py`` request on the host the bounds
#: were tuned on (a 2-vCPU Intel Xeon VM, Python 3.11, NumPy 2.4).
CAL_REF_S = 0.227


class HostSpeed:
    """Scales wall seconds to reference-host seconds.

    On a shared host whose speed drifts by tens of percent over minutes,
    this is what lets one run's times be compared with another's.  Every
    timed step is bracketed by a calibration (``calibrate.py``, in its own
    process) just before and just after it; the step's time is multiplied
    by ``CAL_REF_S`` over the mean of the two.  On a host running at the
    reference speed the scaled time equals the wall time.
    """

    def __init__(self, env: dict[str, str]) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("calibrate.py"))],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        self._calibrate()   # warm-up: first-touch of its buffers
        self.cal = [self._calibrate()]

    def _calibrate(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def scale(self, seconds: float) -> float:
        self.cal.append(self._calibrate())
        return seconds * CAL_REF_S / ((self.cal[-2] + self.cal[-1]) / 2)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", type=Path, default=None,
                   help=argparse.SUPPRESS)  # internal: one set-up child
    return p.parse_args(argv)


def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git (a
    checkout that is not a repository records ``null``)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_setups(args, tmp: Path, env: dict[str, str],
               host: HostSpeed) -> tuple[Path, list, list]:
    """Set the workload up ``SETUP_REPS`` times; keep the last product.
    Returns the product's directory, wall and scaled set-up seconds."""
    times, scaled, work = [], [], None
    for rep in range(SETUP_REPS):
        if work is not None:
            shutil.rmtree(work)
        work = tmp / f"setup{rep}"
        work.mkdir()
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", args.workload, "--seed",
                        str(args.seed), "--seconds", "0",
                        "--setup-into", str(work)],
                       env=env, cwd=ROOT, check=True,
                       timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        scaled.append(host.scale(times[-1]))
    return work, times, scaled


def run_op(workload, trace) -> tuple[bool, float, float]:
    """One op: ``(passed, wall seconds, peak RSS MiB)``."""
    from workloads import peak_rss_reset

    gc.collect()
    peak_rss_reset()
    start = time.perf_counter()
    try:
        ok = workload.op() if trace is None else workload.traced(trace)
    except Exception:   # a crashing op is a failed op, never a dead run
        traceback.print_exc()
        ok = False
    seconds = time.perf_counter() - start
    return ok, seconds, workload.op_peak_rss_mib()


def measure(args, tmp: Path) -> tuple[dict, dict]:
    from workloads import child_env

    env = child_env(ROOT, tmp)
    host = HostSpeed(env)
    try:
        return _measure(args, tmp, env, host)
    finally:
        host.close()


def _measure(args, tmp: Path, env: dict[str, str],
             host: HostSpeed) -> tuple[dict, dict]:
    from layers import LayerTrace, layer_metrics, load_layer_map
    from workloads import WORKLOADS

    work, setup_wall, setup_s = run_setups(args, tmp, env, host)
    workload = WORKLOADS[args.workload](ROOT, work, GOLDEN, args.seed)
    workload.prepare()
    trace = LayerTrace() if args.trace else None
    plain, traced, rss, wall = [], [], [], []
    failed = 0
    deadline = time.perf_counter() + args.seconds
    while not plain or (trace is not None and not traced) \
            or time.perf_counter() < deadline:
        use_trace = trace is not None and len(traced) < len(plain)
        ok, seconds, peak = run_op(workload, trace if use_trace else None)
        failed += not ok
        (traced if use_trace else plain).append(host.scale(seconds))
        wall.append(seconds)
        if not use_trace:
            rss.append(peak)
    attempted = len(plain) + len(traced)
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": __import__("numpy").__version__, "git_sha": git_sha(),
        "guest_instructions": workload.guest_instructions(),
        "setup_s": setup_s, "op_s": plain, "traced_op_s": traced,
        "peak_rss_mib": rss, "wall_setup_s": setup_wall, "wall_op_s": wall,
        "calibration_s": host.cal,
    }
    if trace is None:
        metrics = {
            "op_s": (statistics.median(plain), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mib": (max(rss), "MiB"),
        }
    else:
        probes = workload.probes()
        overhead = statistics.median(traced) / statistics.median(plain) - 1
        values = layer_metrics(trace, len(traced), probes, overhead)
        units = {m: spec["unit"] for m, spec in load_layer_map().items()}
        metrics = {m: (values[m], units[m]) for m in units}
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": u}
                    for m, (v, u) in metrics.items()},
    }
    return context, result


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run "
              f"from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    from workloads import WORKLOADS

    if args.setup_into is not None:
        WORKLOADS[args.workload](ROOT, args.setup_into, GOLDEN,
                                 args.seed).setup_child()
        return 0
    WORK_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    # in-process temporaries (spill runs, sidecar staging) stay in the run dir
    tempfile.tempdir = str(tmp)
    try:
        context, result = measure(args, tmp)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass   # another run still owns a directory there
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

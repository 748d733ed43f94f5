"""The benchmark's own checks: live output checks, layer map, contract.

Run from the repo root::

    python3 -m pytest perfbench/tests -q

The perturbation tests copy a golden reference, flip one byte and show
that the op which passed against the original now fails.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from layers import LayerTrace, TARGETS, load_layer_map, traced_op

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
GOLDEN = ROOT / "tests" / "golden"
WORKLOAD_NAMES = {"paper-cold", "paper-warm", "fleet-verify"}


def flip_one_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def copied_golden(tmp_path: Path) -> Path:
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    return golden


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# ----------------------------------------------------------- live checks
@pytest.fixture(scope="module")
def fleet_work(tmp_path_factory):
    work = tmp_path_factory.mktemp("fleet")
    workloads.FleetVerify(ROOT, work, GOLDEN, 0).setup_child()
    return work


def test_fleet_op_fails_on_flipped_golden_byte(fleet_work, tmp_path):
    golden = copied_golden(tmp_path)
    w = workloads.FleetVerify(ROOT, fleet_work, golden, 0)
    w.prepare()
    assert w.op()
    flip_one_byte(golden / "corpus" / "wfs-tiny" / "tquad.txt")
    assert not w.op()


@pytest.fixture(scope="module")
def warm_work(tmp_path_factory):
    work = tmp_path_factory.mktemp("warm")
    workloads.PaperWarm(ROOT, work, GOLDEN, 0).setup_child()
    return work


@pytest.mark.parametrize("artifact", sorted(p.name for p in
                                            GOLDEN.glob("*.txt")))
def test_warm_op_fails_on_flipped_golden_byte(warm_work, tmp_path, artifact):
    golden = copied_golden(tmp_path)
    w = workloads.PaperWarm(ROOT, warm_work, golden, 0)
    w.prepare()
    assert w.op()
    flip_one_byte(golden / artifact)
    w.prepare()
    assert not w.op()


def test_warm_op_layer_trace(warm_work):
    w = workloads.PaperWarm(ROOT, warm_work, GOLDEN, 0)
    w.prepare()
    trace = LayerTrace()
    assert traced_op(trace, w.op)
    # one gprof and one QUAD replay per op, whatever the query order
    assert trace.calls["replay.gprof"] == 1
    assert trace.calls["replay.quad"] == 1
    assert trace.calls["replay.tquad"] == 3
    assert trace.tally["sweep.cells"] == 3
    assert trace.tally["quad.records_drained"] > 0
    # the wrappers are gone again
    from repro.capture import replay as replay_mod
    assert not hasattr(replay_mod.replay_quad, "__wrapped__")


@pytest.mark.parametrize("reference", ["table4", "wav"])
def test_cold_op_fails_on_flipped_reference_byte(tmp_path, reference):
    golden = copied_golden(tmp_path)
    work = tmp_path / "work"
    work.mkdir()
    w = workloads.PaperCold(ROOT, work, golden, 0)
    w.setup_child()
    flip_one_byte(golden / "table4_phases.txt" if reference == "table4"
                  else work / "ref.wav")
    w.prepare()
    assert not w.op()


# ------------------------------------------------------------- layer map
def test_layer_map_matches_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = load_layer_map()
    assert [m["name"] for m in bench["per_layer"]] == list(layer_map)
    for metric in bench["per_layer"]:
        spec = layer_map[metric["name"]]
        assert (spec["unit"], spec["better"]) == (metric["unit"],
                                                  metric["better"])
        assert set(spec["on"]) | set(spec["bypassed_by"]) <= WORKLOAD_NAMES
        if spec["on"]:
            assert spec["moves"] in {m["name"] for m in bench["end_to_end"]}
    assert {w["name"] for w in bench["workloads"]} == WORKLOAD_NAMES
    routes = json.loads((BENCH / "layers.json").read_text())
    assert set(routes["unmeasured_routes"]) == {
        "--jobs N", "--mem-limit", "--approx", "--no-page-cache"}


def test_every_layer_target_resolves():
    trace = LayerTrace()
    trace.install()
    try:
        assert len(trace._undo) > sum(map(len, TARGETS.values()))
    finally:
        trace.uninstall()
    assert not trace._undo


# -------------------------------------------------------------- contract
def test_run_is_hermetic_and_prints_the_result_last():
    golden_before = tree_digest(GOLDEN)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-verify",
         "--seed", "3", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"op_s", "setup_s", "peak_rss_mib"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (ROOT / ".perfbench-work").exists()
    assert tree_digest(GOLDEN) == golden_before


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

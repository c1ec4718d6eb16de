"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Run from the repository root.  Checks that every workload runs, that
every metric in BENCHMARK.json is emitted with its unit, that a failing
check raises failed_ratio, and that traced and untraced passes give
identical job outputs.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def _bench(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    stdout, result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "failed_ratio" in stdout and "conditions" in stdout


def test_benchmark_json_matches_tracer_and_layer_map():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == list(tracer.METRICS)
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    with open(os.path.join(HERE, "LAYER_MAP.json")) as fh:
        layer_map = json.load(fh)
    assert set(layer_map["metrics"]) == {name for name, _, _ in tracer.METRICS}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for entry in layer_map["metrics"].values():
        moves = {(m["metric"], m["workload"]) for m in entry["moves"]}
        assert {m for m, _ in moves} <= e2e
        named = {w for _, w in moves}
        assert named | set(entry["flat"]) == set(workloads.WORKLOADS) or not named


def test_jobs_follow_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.build_jobs(w, 3) == workloads.build_jobs(w, 3)
        assert workloads.build_jobs(w, 3) != workloads.build_jobs(w, 4)


def _pass(tmp_path, workload, trace, check, name):
    result = tmp_path / f"{name}.json"
    out = tmp_path / name
    out.mkdir()
    worker.main(["worker.py", workload, "5", "tiny", str(result), str(out), str(trace), str(check)])
    return json.loads(result.read_text())


def test_failing_check_raises_failed_ratio(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads._CHECKS, "exponents", lambda job, out: "deliberately failed")
    monkeypatch.setitem(workloads._RUNNERS, "regime", lambda job, out_dir: 1 / 0)
    result = _pass(tmp_path, "annealed-blocks", 0, 1, "broken")
    attempted, failures = run.tally([result])
    failed = sum(len(v) for v in failures.values())
    assert attempted == 4 and failed == 4  # the exponent check and three regime jobs
    assert failures["00-exponents"] == ["deliberately failed"]


def test_output_drift_between_passes_counts_as_failure():
    a = {"jobs": [{"id": "j", "failure": None, "digest": "x"}]}
    b = {"jobs": [{"id": "j", "failure": None, "digest": "y"}]}
    attempted, failures = run.tally([a, b])
    assert attempted == 2 and len(failures["j"]) == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_identical(tmp_path, workload):
    env = run.pinned_env(ROOT)
    digests = []
    for trace in (0, 1):
        result = tmp_path / f"r{trace}.json"
        out = tmp_path / f"o{trace}"
        out.mkdir()
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), workload, "5", "tiny",
                        str(result), str(out), str(trace), "0"], env=env, check=True, timeout=300)
        res = json.loads(result.read_text())
        assert (res["layers"] is not None) == bool(trace)
        digests.append([(j["id"], j["digest"]) for j in res["jobs"]])
    assert digests[0] == digests[1]
    assert all(d is not None for _, d in digests[0])

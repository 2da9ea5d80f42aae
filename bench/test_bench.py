"""Smoke test of the benchmark itself (not part of the package's suite).

    python -m pytest bench/test_bench.py

Runs one short pass of every workload, untraced and traced, and checks
that each metric BENCHMARK.json names is printed with its unit, that the
result line has exactly the agreed keys, and that nothing failed.  Takes
about a minute and a half on two cores.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(*args):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=180, check=False)
    return done


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_pass_emits_every_metric(workload, trace):
    done = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(got["value"] > 0 for got in result["metrics"].values())


def test_same_seed_same_inputs(tmp_path):
    sys.path.insert(0, HERE)
    try:
        import workloads
    finally:
        sys.path.remove(HERE)
    a = workloads.make_inputs(7)
    assert a == workloads.make_inputs(7)
    assert a != workloads.make_inputs(8)
    assert len(set(a.weights_p3)) == workloads.N_P3


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            (bench / name).write_bytes(
                open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload",
         SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
        check=False)
    assert done.returncode != 0
    assert done.stdout.strip() == ""

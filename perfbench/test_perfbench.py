"""Self-tests of the benchmark: each workload, shrunk with --tiny, reports
every metric BENCHMARK.json names with its unit, and the correctness gate
counts a failing CLI run as failed.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# verify_conditions' stencil makes 3 + 2d + 2d^2 phi calls per theta, with
# d = 2 (r' + r''); --tiny sets --theta-grid 4.
PHI_CALLS = {"verify_r33": 4 * 315, "report_sweep": 4 * 87, "batch_bulk": 0}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == tracer.layer_metrics()
    assert {w["name"] for w in BENCH["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name, _ in (tracer.layer_metrics() if trace else run.END_TO_END):
        assert name in proc.stdout.split(json.dumps(result))[0], f"{name} not printed"
    if trace:
        assert values["perturbation.phi.calls"] == PHI_CALLS[workload]
        assert values["error_rate"] == 0.0
        assert values["trace.self_sum_s"] == pytest.approx(values["trace.run_s"], rel=0.02)
    else:
        assert all(v > 0 for v in values.values())


def test_gate_counts_a_failing_verify_as_failed():
    # wrong_sign.json's quadratic phi fails condition P3, so verify exits 1
    sys.path.insert(0, str(run.SRC))
    tally = run.Tally()
    run.run_cli(["verify", "--threads", "1"], ROOT / "tests" / "fixtures" / "wrong_sign.json",
                0.0, False, tally)
    assert tally.attempted == run.MIN_REPS
    assert tally.failed == run.MIN_REPS
    assert any("exit code 1" in p for p in tally.problems)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "verify_r33", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

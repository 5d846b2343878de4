#!/usr/bin/env python3
"""flipq benchmark: end-to-end timings of the CLI and the batch library,
and a traced run that splits them by layer.

    python3 perfbench/run.py --workload report_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a flipq checkout; flipq is imported from ``src/``.
Prints one line per metric (name, value, unit), then, as the last line,
the JSON result {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  Exits 1 if any output fails its check and 2 if the
checkout holds no flipq sources.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
SETUP_REPS = 15
MIN_REPS = 11  # run_s_tail needs ten samples beyond it
TRACED_REPS = 3
CLI_TIMEOUT_S = 60
SCAN_RESIDUAL_TOL = 1e-12
MOMENT_RESIDUAL_TOL = 1e-12
ORBIT_DEVIATION_TOL = 1e-11

# argv of each CLI workload; "tiny" flags are appended (argparse keeps the
# last value) to shrink a workload for the benchmark's own tests.
WORKLOADS = {
    "verify_r33": {
        "ranks": (3, 3),
        "argv": ["verify", "--threads", "1"],
        "tiny": ["--theta-grid", "4", "--samples", "200"],
    },
    "report_sweep": {
        "ranks": (2, 1),
        "argv": ["report", "--threads", "1", "--theta-steps", "64", "--t-steps", "31",
                 "--match-samples", "2000", "--blowup-rays", "64"],
        "tiny": ["--theta-grid", "4", "--samples", "200", "--theta-steps", "4", "--t-steps", "3",
                 "--match-samples", "20", "--blowup-rays", "2"],
    },
    "batch_bulk": {"ranks": (3, 3), "lanes": 200_000, "tiny_lanes": 2_000},
}


def make_config(workload: str, seed: int) -> dict:
    """The workload's config document, built from flipq.presets."""
    from flipq import presets

    r_prime, r_second = WORKLOADS[workload]["ranks"]
    doc = presets.fourier_metric_config(r_prime, r_second, seed=seed)
    if (r_prime, r_second) == (3, 3):
        doc["perturbation"]["terms"].append({
            "generators": {"ref_inner_sq": 2},
            "coeff_fourier": [0.05, 0.02],
            "ref_section": [[1.0, 0.0]] + [[0.0, 0.0]] * (r_prime - 1),
        })
    return doc


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """Run child.py to completion and return the JSON object it printed."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {timeout} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(values)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def metadata(load_1min: float) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "loadavg_1min_at_start": load_1min,
        "threads": 1,
        **THREAD_ENV,
    }


# ---------------------------------------------------------------------------
# Correctness gate for one CLI invocation


def cli_check(args, rep: dict, reference_sha: str | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one CLI invocation.

    A failure is a nonzero exit code, "pass": false, an output that fails a
    check below, or (counted per point) a matching_stats.n_errors entry.
    """
    if "error" in rep:
        return 1, 1, [rep["error"]]
    problems = []
    if rep["exit_code"] != 0:
        problems.append(f"exit code {rep['exit_code']}")
    if reference_sha is not None and sha256(rep["stdout"]) != reference_sha:
        problems.append("stdout differs from the first repetition of this seed")
    try:
        doc = json.loads(rep["stdout"])
    except ValueError:
        return 1, 1, problems + ["stdout is not JSON"]
    if doc.get("pass") is not True:
        problems.append('"pass" is not true')
    cond = doc.get("condition_report", {})
    for p in ("p1", "p2", "p3"):
        if cond.get(f"{p}_ok") is not True or not cond.get(f"worst_{p}", float("inf")) <= args.tol:
            problems.append(f"condition {p} fails: worst {cond.get(f'worst_{p}')} > tol {args.tol}")
    if cond.get("samples") != args.theta_grid:
        problems.append(f"condition report covers {cond.get('samples')} thetas, not {args.theta_grid}")
    attempted, n_errors = 1, 0
    if args.command == "report":
        problems += scan_problems(doc.get("scan", []), args)
        stats = doc.get("matching_stats", {})
        attempted += args.match_samples
        n_errors = stats.get("n_errors", args.match_samples)
        if stats.get("n_points") != args.match_samples:
            problems.append(f"matched {stats.get('n_points')} points, not {args.match_samples}")
        for key, tol in (("max_moment_residual", MOMENT_RESIDUAL_TOL),
                         ("max_orbit_deviation", ORBIT_DEVIATION_TOL)):
            if not (stats.get(key) is not None and stats[key] <= tol):
                problems.append(f"{key} = {stats.get(key)} exceeds {tol}")
    return attempted, n_errors + (1 if problems else 0), problems


def scan_problems(rows: list[dict], args) -> list[str]:
    problems = []
    if len(rows) != args.theta_steps * args.t_steps:
        problems.append(f"scan has {len(rows)} rows, not {args.theta_steps * args.t_steps}")
    for row in rows:
        t = row["t"]
        expected = "QPrime" if t < 0 else ("QSecond" if t > 0 else "QZero")
        if row["fiber_type"] != expected or row["n_stable_samples"] != args.scan_samples:
            problems.append(f"scan row {row} is inconsistent")
        if not row["mean_level_residual"] <= SCAN_RESIDUAL_TOL:
            problems.append(f"scan row residual {row['mean_level_residual']} exceeds {SCAN_RESIDUAL_TOL}")
    return problems


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Workloads


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, problems=()):
        self.attempted += attempted
        self.failed += failed
        self.problems += list(problems)


def run_cli(argv: list[str], config: Path, seconds: float, trace: bool, tally: Tally) -> dict:
    """Time ``flipq.cli.main(argv)``, one fresh interpreter per repetition."""
    from flipq.cli import build_parser

    args = build_parser().parse_args(argv + ["--config", str(config)])
    samples, rss = [], []
    reference = None
    reps = 0
    start = perf_counter()
    while reps < MIN_REPS or perf_counter() - start < seconds:
        reps += 1
        rep = run_child(["cli", str(config), "0", *argv], CLI_TIMEOUT_S)
        tally.add(*cli_check(args, rep, reference))
        if "error" in rep or rep["run_s"] is None:
            continue
        reference = reference or sha256(rep["stdout"])
        samples.append(rep["run_s"])
        rss.append(rep["rss_mb"])
    out = {"samples": samples, "rss_mb": median(rss) if rss else float("nan")}
    if trace:
        traced = []
        for _ in range(TRACED_REPS):
            rep = run_child(["cli", str(config), "1", *argv], CLI_TIMEOUT_S)
            tally.add(*cli_check(args, rep, reference))
            if "error" not in rep and rep["run_s"] is not None:
                rep["layers"]["cli.output_bytes"] = len(rep["stdout"].encode())
                traced.append(rep)
        out["traced"] = traced
    return out


def run_batch(workload: str, config: Path, seed: int, seconds: float, trace: bool,
              tiny: bool, tally: Tally) -> dict:
    spec = WORKLOADS[workload]
    lanes = spec["tiny_lanes"] if tiny else spec["lanes"]
    rep = run_child(["batch", str(config), "1" if trace else "0", str(seed), str(lanes),
                     str(seconds), str(MIN_REPS), str(TRACED_REPS)], seconds + 120)
    if "error" in rep:
        tally.add(1, 1, [rep["error"]])
        return {"samples": [], "rss_mb": float("nan"), "traced": []}
    tally.add(rep["attempted"], rep["failed"],
              [] if rep["deterministic"] else ["batch outputs differ between repetitions"])
    if rep["failed"]:
        tally.problems.append(f"{rep['failed']} of {rep['attempted']} lanes failed their checks")
    return {"samples": rep["samples"], "rss_mb": rep["rss_mb"], "traced": rep.get("traced", [])}


def measure_setup(config: Path, tally: Tally) -> list[float]:
    """Import flipq and load the config in fresh interpreters; the first
    run only warms the file cache and the bytecode cache."""
    samples = []
    for i in range(SETUP_REPS + 1):
        rep = run_child(["setup", str(config)], CLI_TIMEOUT_S)
        tally.add(1, int("error" in rep), [rep["error"]] if "error" in rep else [])
        if "error" not in rep and i:
            samples.append(rep["setup_s"])
    return samples


def layer_metrics(timed: dict) -> dict:
    """Per-layer values from the traced repetition with the median wall time."""
    import tracer

    traced = sorted(timed.get("traced", []), key=lambda r: r["run_s"])
    if not traced:
        return {}
    chosen = traced[len(traced) // 2]
    values = tracer.derive(chosen["layers"])
    values["trace.run_s"] = chosen["run_s"]
    values["trace.overhead_s"] = median([r["run_s"] for r in traced]) - median(timed["samples"])
    return values


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              tiny: bool) -> tuple[dict, Tally, dict]:
    """Run one workload; returns (metrics, tally, details)."""
    WORK.mkdir(exist_ok=True)
    config = WORK / f"{workload}-seed{seed}.json"
    config.write_text(json.dumps(make_config(workload, seed), indent=1))
    tally = Tally()
    spec = WORKLOADS[workload]
    if "argv" in spec:
        argv = spec["argv"] + (spec["tiny"] if tiny else [])
        timed = run_cli(argv, config, seconds, trace, tally)
    else:
        timed = run_batch(workload, config, seed, seconds, trace, tiny, tally)
    samples = timed["samples"]
    if len(samples) < MIN_REPS:
        tally.add(0, 0, ["too few successful repetitions to report timings"])
        return {}, tally, {"samples": len(samples)}
    values = {"run_s": median(samples), "peak_rss_mb": timed["rss_mb"]}
    values["run_s_tail"], percentile = tail(samples)
    details = {"samples": len(samples), "run_s_tail": values["run_s_tail"],
               "run_s_tail_percentile": percentile, "run_s_samples": samples}
    if trace:
        import tracer

        values.update(layer_metrics(timed))
        names = tracer.layer_metrics()
    else:
        setup = measure_setup(config, tally)
        if not setup:
            tally.add(0, 0, ["no set-up time measured"])
            return {}, tally, details
        values["setup_s"] = median(setup)
        details["setup_samples"] = len(setup)
        names = END_TO_END
    values["error_rate"] = details["error_rate"] = tally.failed / max(tally.attempted, 1)
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in names}, tally, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload (self-tests)")
    args = parser.parse_args(argv)
    if not (SRC / "flipq" / "__init__.py").is_file():
        print(f"no flipq sources under {SRC}; run from a flipq checkout", file=sys.stderr)
        return 2
    load_1min = os.getloadavg()[0]
    sys.path.insert(0, str(SRC))

    metrics, tally, details = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    correct = tally.failed == 0 and not tally.problems
    result = {"correct": correct, "attempted": max(tally.attempted, 1), "failed": tally.failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metadata": metadata(load_1min), "details": details,
              "problems": tally.problems[:20], **result}
    (WORK / f"BENCH_{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print("metadata", json.dumps(record["metadata"], sort_keys=True))
    print("details", json.dumps({k: v for k, v in details.items() if k != "run_s_samples"}, sort_keys=True))
    for problem in tally.problems[:20]:
        print("FAILED", problem)
    for name, m in metrics.items():
        print(f"{name:52s} {m['value']:.9g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""The names the traced benchmark (perfbench/tracer.py) binds still exist.

The tracer looks each target up by (module, attribute) when it installs its
wrappers, so a rename here would break `perfbench/run.py --trace 1` without
failing any other test.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flipq import (BasePoint, FiberPoint, chi_eval, fiber_norms, matching_map, perturbation, phi_graph, presets,
                   solve_rho)
from flipq.cli import run_scan
from flipq.config_io import load_run_config
from flipq.core import check_metrics

from conftest import make_config

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _ in tracer.TARGETS]


@pytest.mark.parametrize("module, attr", _targets() + [("flipq.cli", "phi_from_config")])
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_metrics_cache_reports_hits():
    # the tracer's perturbation.metrics_cache counters read this one cache of metric
    # certificates: a field's first lookup is a miss, every later lookup a hit
    cfg = make_config()
    p = FiberPoint(BasePoint(0.25, 0.0), np.array([0.3]), np.array([0.2]))
    phi = phi_graph(cfg)
    before = perturbation._metrics_cached.cache_info()
    check_metrics(cfg)
    after = perturbation._metrics_cached.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 0)
    for call in (lambda: fiber_norms(cfg, p), lambda: chi_eval(cfg, p),
                 lambda: phi([p.base.theta], p.y_prime[None], p.y_second[None], [0.0]),
                 lambda: solve_rho(cfg, p), lambda: matching_map(cfg, p)):
        before = perturbation._metrics_cached.cache_info()
        call()
        call()
        after = perturbation._metrics_cached.cache_info()
        assert after.misses == before.misses
        assert after.hits >= before.hits + 2


def test_traced_cli_run_reads_the_metrics_cache(tmp_path):
    # perfbench/child.py's traced cli mode, as perfbench/run.py --trace 1 starts it, on a tiny report
    path = tmp_path / "fourier.json"
    path.write_text(json.dumps(presets.fourier_metric_config(2, 1)))
    root = TRACER.parent.parent
    tiny = ["--theta-grid", "4", "--samples", "50", "--theta-steps", "2", "--t-steps", "3",
            "--match-samples", "10", "--blowup-rays", "2"]
    proc = subprocess.run([sys.executable, str(TRACER.parent / "child.py"), "cli", str(path), "1", "report", *tiny],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert isinstance(result, dict) and "error" not in result
    assert result["exit_code"] == 0
    # the config's certificate is computed once, when it loads
    assert result["layers"]["perturbation.metrics_cache.misses"] == 1
    assert result["layers"]["perturbation.metrics_cache.hits"] >= 1


def test_run_scan_returns_a_sized_sequence_of_rows(tmp_path):
    # the tracer's cli.scan_rows counter is len(run_scan(...)); a table without len, or
    # whose len is not its row count, would break it silently
    path = tmp_path / "fourier.json"
    path.write_text(json.dumps(presets.fourier_metric_config(2, 1)))
    theta_steps, t_steps = 4, 3
    table = run_scan(load_run_config(str(path)), 3, theta_steps, t_steps, 2)
    assert len(table) == theta_steps * t_steps
    assert table.fiber_type[:t_steps] == ["QPrime", "QZero", "QSecond"]
    assert all(n == 2 and theta == table.theta[i - i % t_steps]
               for i, (n, theta) in enumerate(zip(table.n_stable_samples, table.theta)))

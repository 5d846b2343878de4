"""The names the traced benchmark (perfbench/tracer.py) binds still exist.

The tracer looks each target up by (module, attribute) when it installs its
wrappers, so a rename here would break `perfbench/run.py --trace 1` without
failing any other test.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from flipq import (BasePoint, FiberPoint, chi_eval, fiber_norms, matching_map, perturbation, phi_graph, presets,
                   solve_rho)
from flipq.cli import run_scan
from flipq.config_io import load_run_config

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
    # the tracer's perturbation.metrics_cache counters read this one cache,
    # which every scalar metric lookup goes through
    cfg = make_config()
    p = FiberPoint(BasePoint(0.25, 0.0), np.array([0.3]), np.array([0.2]))
    phi = phi_graph(cfg)
    for call in (lambda: fiber_norms(cfg, p), lambda: chi_eval(cfg, p),
                 lambda: phi([p.base.theta], p.y_prime[None], p.y_second[None], 0.0),
                 lambda: solve_rho(cfg, p), lambda: matching_map(cfg, p)):
        before = perturbation._metrics_cached.cache_info()
        call()
        call()
        after = perturbation._metrics_cached.cache_info()
        assert after.hits >= before.hits + 1
        assert after.hits + after.misses >= before.hits + before.misses + 2



def test_run_scan_returns_a_sized_sequence_of_rows(tmp_path):
    # the tracer's cli.scan_rows counter is len(run_scan(...)); a row container
    # without len would break it silently
    path = tmp_path / "fourier.json"
    path.write_text(json.dumps(presets.fourier_metric_config(2, 1)))
    theta_steps, t_steps = 4, 3
    rows = run_scan(load_run_config(str(path)), 3, theta_steps, t_steps, 2)
    assert len(rows) == theta_steps * t_steps
    assert [row["fiber_type"] for row in rows[:t_steps]] == ["QPrime", "QZero", "QSecond"]
    assert all(row["n_stable_samples"] == 2 and row["theta"] == rows[i - i % t_steps]["theta"]
               for i, row in enumerate(rows))

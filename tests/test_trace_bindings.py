"""The names the traced benchmark (perfbench/tracer.py) binds still exist.

The tracer looks each target up by (module, attribute) when it installs its
wrappers, so a rename here would break `perfbench/run.py --trace 1` without
failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from flipq import BasePoint, FiberPoint, chi_eval, fiber_norms, matching_map, perturbation, phi_graph, solve_rho

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

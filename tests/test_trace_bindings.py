"""The names the traced benchmark (perfbench/tracer.py) binds still exist.

The tracer looks each target up by (module, attribute) when it installs its
wrappers, so a rename here would break `perfbench/run.py --trace 1` without
failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
    from flipq import perturbation

    info = perturbation._metrics_cached.cache_info()
    assert info.hits >= 0 and info.misses >= 0

"""Golden outputs: the CLI's stdout and exit code on the shipped fixtures, byte for byte,
and the sha256 of the batch library's outputs on the benchmark's batch workload.

The files under tests/golden/ were written by this module's __main__:

    PYTHONPATH=src python tests/test_golden.py

which reruns every case and rewrites its stdout file and MANIFEST.json.
Floats print with repr, so the bytes depend on numpy's arithmetic; under a
numpy version other than the one recorded in the manifest the test skips.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest

from flipq import kernels, perturbation, quotient, sampling
from flipq.cli import main
from flipq.config_io import parse_run_config

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
MANIFEST = GOLDEN / "MANIFEST.json"
PERFBENCH_RUN = HERE.parent / "perfbench" / "run.py"

# (name, fixture, argv before --config)
CASES = [
    ("report_default", "default.json", ["report", "--seed", "1"]),
    ("report_quartic", "quartic.json", ["report", "--seed", "1"]),
    ("report_wrong_sign", "wrong_sign.json", ["report", "--seed", "1"]),
    ("match_quartic", "quartic.json", ["match", "--random", "20", "--blowup-rays", "4", "--seed", "1"]),
    # 312 scan rows of 32 samples: two lane-block passes of the scan
    ("report_fourier21", "fourier21.json", ["report", "--seed", "1", "--theta-steps", "24", "--t-steps", "13"]),
]

# (name, workload of perfbench/run.py's make_config, seed, lanes)
DIGESTS = [("batch_bulk_20000", "batch_bulk", 1, 20_000)]


def _run(fixture: str, argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--config", str(HERE / "fixtures" / fixture)])
    return code, out.getvalue().encode()


def _batch_digest(workload: str, seed: int, lanes: int) -> str:
    """sha256 of the benchmark batch mode's library calls on lanes drawn as perfbench/child.py draws them:
    chi_eval_batch, matching_map_batch (all five arrays), level_rho_batch and newton_rescale seeded at 1."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH_RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    cfg = parse_run_config(run.make_config(workload, seed)).model
    thetas, y_prime, y_second = sampling.random_domain_batch(np.random.default_rng(seed), cfg, lanes)
    c, g1, g2 = perturbation.chi_parts_batch(cfg, thetas, y_prime, y_second)
    chi = perturbation.chi_eval_batch(cfg, thetas, y_prime, y_second)
    outputs = (chi, *perturbation.matching_map_batch(cfg, thetas, y_prime, y_second),
               quotient.level_rho_batch(cfg, thetas, chi, y_prime, y_second),
               *kernels.newton_rescale(g1, g2, c, seed=np.ones(lanes)))
    sha = hashlib.sha256()
    for a in outputs:
        sha.update(np.ascontiguousarray(a).tobytes())
    return sha.hexdigest()


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("name, fixture, argv", CASES, ids=[case[0] for case in CASES])
def test_cli_output_matches_golden(name, fixture, argv):
    manifest = _manifest()
    if manifest["numpy"] != np.__version__:
        pytest.skip(f"goldens were written under numpy {manifest['numpy']}, this is {np.__version__}")
    code, stdout = _run(fixture, argv)
    assert code == manifest["exit_codes"][name]
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()


@pytest.mark.parametrize("name, workload, seed, lanes", DIGESTS, ids=[case[0] for case in DIGESTS])
def test_batch_outputs_match_golden_digest(name, workload, seed, lanes):
    manifest = _manifest()
    if manifest["numpy"] != np.__version__:
        pytest.skip(f"goldens were written under numpy {manifest['numpy']}, this is {np.__version__}")
    assert _batch_digest(workload, seed, lanes) == manifest["digests"][name]


def rewrite() -> None:
    GOLDEN.mkdir(exist_ok=True)
    exit_codes = {}
    for name, fixture, argv in CASES:
        exit_codes[name], stdout = _run(fixture, argv)
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
    digests = {name: _batch_digest(*case) for name, *case in DIGESTS}
    MANIFEST.write_text(json.dumps({"numpy": np.__version__, "exit_codes": exit_codes, "digests": digests},
                                   indent=2) + "\n")


if __name__ == "__main__":
    rewrite()

"""Golden outputs: the CLI's stdout and exit code on the shipped fixtures, byte for byte.

The files under tests/golden/ were written by this module's __main__:

    PYTHONPATH=src python tests/test_golden.py

which reruns every case and rewrites its stdout file and MANIFEST.json.
Floats print with repr, so the bytes depend on numpy's arithmetic; under a
numpy version other than the one recorded in the manifest the test skips.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from flipq.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
MANIFEST = GOLDEN / "MANIFEST.json"

# (name, fixture, argv before --config)
CASES = [
    ("report_default", "default.json", ["report", "--seed", "1"]),
    ("report_quartic", "quartic.json", ["report", "--seed", "1"]),
    ("report_wrong_sign", "wrong_sign.json", ["report", "--seed", "1"]),
    ("match_quartic", "quartic.json", ["match", "--random", "20", "--blowup-rays", "4", "--seed", "1"]),
]


def _run(fixture: str, argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--config", str(HERE / "fixtures" / fixture)])
    return code, out.getvalue().encode()


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


def rewrite() -> None:
    GOLDEN.mkdir(exist_ok=True)
    exit_codes = {}
    for name, fixture, argv in CASES:
        exit_codes[name], stdout = _run(fixture, argv)
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
    MANIFEST.write_text(json.dumps({"numpy": np.__version__, "exit_codes": exit_codes}, indent=2) + "\n")


if __name__ == "__main__":
    rewrite()

"""Run the mutation gate: each mutant of table.MUTANTS in its own copy of the tree.

    python mutants/runner.py             # every mutant
    python mutants/runner.py NAME ...    # the named mutants only
    python -m pytest mutants             # the same, as one test per mutant

A mutant is applied to a copy of the repository under a temporary
directory, never to the working tree, and only its node ids run there.  It
is killed when they fail (pytest exit code 1); any other exit code, a pass
included, is a survivor.  The exit code is 1 if a mutant survives or its old
text does not occur exactly once.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from table import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parent.parent
# what a copy leaves out: version control, caches and run outputs
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_work",
                                 ".benchmarks")


def run_mutant(mutant: Mutant) -> subprocess.CompletedProcess:
    """Apply the mutant to a temporary copy of the tree and run its node ids there.

    Raises ValueError, before any test runs, if the old text does not occur exactly once.
    """
    with tempfile.TemporaryDirectory(prefix="flipq-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIPPED)
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *mutant.tests], cwd=tree, env=env, capture_output=True, text=True)


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in chosen:
        try:
            code = run_mutant(mutant).returncode
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
        except ValueError as e:
            verdict = str(e)
        failed += verdict != "killed"
        print(f"{mutant.name}: {verdict}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

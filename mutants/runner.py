"""Run the mutation gate: each mutant of table.MUTANTS in its own copy of the tree.

    python -m pytest mutants             # every mutant, one test each
    python -m pytest mutants -k NAME     # the named mutants only

A mutant is applied to a copy of the repository under a temporary
directory, never to the working tree, and only its node ids run there.  It
is killed when they fail (pytest exit code 1); any other exit code, a pass
included, is a survivor, and so is a failure on a broken name (test_mutants.py
reads the output for it).  Before any mutant, the baseline runs the node ids
of every row on an unmutated copy: a node id that already fails would count
every mutant naming it as killed, so the gate fails with a "baseline:"
message unless that run passes.  Then the mutants run WORKERS at a time,
each in its own copy and subprocess, and run_mutants yields their results
in table order.  test_mutants.py, the gate's one entry point, makes each
mutant one test, failed if its mutant survives or its old text does not
occur exactly once.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterator

from table import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parent.parent
# what a copy leaves out: version control, caches and run outputs
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_work",
                                 ".benchmarks")
# mutants run at once: two, or fewer if this process may use fewer cores
WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def run_mutant(mutant: Mutant | None, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    """Apply the mutant (None: no edit) to a temporary copy of the tree and run the node ids there.

    Raises ValueError, before any test runs, if the old text does not occur exactly once.
    """
    with tempfile.TemporaryDirectory(prefix="flipq-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIPPED)
        if mutant is not None:
            target = tree / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                raise ValueError(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times in {mutant.path}")
            target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        # no node id uses pytest-benchmark, and @given tests run without hypothesis' pytest plugin
        return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-p",
                               "no:benchmark", "-p", "no:hypothesispytest", *tests], cwd=tree, env=env,
                              capture_output=True, text=True)


def baseline_error() -> str | None:
    """The "baseline:" message if the union of every row's node ids fails on an unmutated copy, else None."""
    tests = tuple(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
    result = run_mutant(None, tests)
    if result.returncode == 0:
        return None
    tail = "\n".join((result.stdout + result.stderr).splitlines()[-15:])
    return f"baseline: the unmutated tree fails its node ids (pytest exit {result.returncode}):\n{tail}"


def run_mutants(mutants) -> Iterator[subprocess.CompletedProcess | ValueError]:
    """Each mutant run on its own node ids, WORKERS at a time; the results come in the mutants' order,
    each the run or the ValueError of an old text that does not occur exactly once."""
    def run(mutant):
        try:
            return run_mutant(mutant, mutant.tests)
        except ValueError as e:
            return e

    with ThreadPoolExecutor(WORKERS) as pool:
        yield from pool.map(run, mutants)

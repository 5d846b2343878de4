"""The mutation gate as a test: every mutant in table.MUTANTS must be killed by its node ids.

Run it with `python -m pytest mutants`; it is outside the tier-1 testpaths.
Every mutant test first needs the baseline, the unmutated tree passing
every row's node ids; if it fails, each of them fails with its message.
Then the selected mutants run runner.WORKERS at a time, once, and each
test reads its mutant's result.
"""

import pytest

from runner import baseline_error, run_mutants
from table import MUTANTS


@pytest.fixture(scope="module")
def baseline():
    error = baseline_error()
    if error is not None:
        pytest.fail(error, pytrace=False)


@pytest.fixture(scope="module")
def results(request, baseline):
    """The result of each selected mutant, by name, from one parallel run."""
    chosen = [item.callspec.params["mutant"] for item in request.session.items if item.module is request.module]
    return dict(zip((m.name for m in chosen), run_mutants(chosen)))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed(results, mutant):
    result = results[mutant.name]
    if isinstance(result, ValueError):  # the old text does not occur exactly once
        raise result
    tail = "\n".join((result.stdout + result.stderr).splitlines()[-15:])
    assert result.returncode == 1, f"the mutant survived {mutant.tests} (pytest exit {result.returncode}):\n{tail}"

"""The mutation gate as a test: every mutant in table.MUTANTS must be killed by its node ids.

Run it with `python -m pytest mutants`; it is outside the tier-1 testpaths.
Every mutant test first needs the baseline, the unmutated tree passing
every row's node ids; if it fails, each of them fails with its message.
"""

import pytest

from runner import baseline_error, run_mutant
from table import MUTANTS


@pytest.fixture(scope="module")
def baseline():
    error = baseline_error()
    if error is not None:
        pytest.fail(error, pytrace=False)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed(baseline, mutant):
    result = run_mutant(mutant, mutant.tests)  # raises ValueError unless the old text occurs exactly once
    tail = "\n".join((result.stdout + result.stderr).splitlines()[-15:])
    assert result.returncode == 1, f"the mutant survived {mutant.tests} (pytest exit {result.returncode}):\n{tail}"

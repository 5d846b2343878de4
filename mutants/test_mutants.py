"""The mutation gate as a test: every mutant in table.MUTANTS must be killed by its node ids.

Run it with `python -m pytest mutants`; it is outside the tier-1 testpaths.
"""

import pytest

from runner import run_mutant
from table import MUTANTS


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed(mutant):
    result = run_mutant(mutant)  # raises ValueError unless the old text occurs exactly once
    tail = "\n".join((result.stdout + result.stderr).splitlines()[-15:])
    assert result.returncode == 1, f"the mutant survived {mutant.tests} (pytest exit {result.returncode}):\n{tail}"

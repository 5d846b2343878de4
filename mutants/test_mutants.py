"""The mutation gate as a test: every mutant in table.MUTANTS must be killed by its node ids.

Run it with `python -m pytest mutants`; it is outside the tier-1 testpaths.
Every mutant test first needs the baseline, the unmutated tree passing
every row's node ids; if it fails, each of them fails with its message.
Then the selected mutants run runner.WORKERS at a time, once, and each
test reads its mutant's result.  A run that fails on a NameError or on an
AttributeError of a flipq module counts as a survivor: its mutant broke a
name, such as one whose function was deleted, and no test saw its rule.
"""

import pytest

from runner import baseline_error, run_mutants
from table import MUTANTS

# output that shows a mutant failing on a missing name rather than on what its tests pin
BROKEN_NAME = ("NameError", "AttributeError: module 'flipq")


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
    output = result.stdout + result.stderr
    tail = "\n".join(output.splitlines()[-15:])
    broken = [text for text in BROKEN_NAME if text in output]
    assert not broken, f"the mutant broke a name ({broken[0]}), not its rule, in {mutant.tests}:\n{tail}"
    assert result.returncode == 1, f"the mutant survived {mutant.tests} (pytest exit {result.returncode}):\n{tail}"

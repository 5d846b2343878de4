"""Fuzzed CLI boundary: mutated config documents and small flag vectors.

Every run must end in exit 0, 1 or 2 without an escaping exception, and
print either nothing or strict JSON (no NaN or Infinity tokens) on stdout,
laid out as json.dumps(indent=2, sort_keys=True) lays it out.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from flipq import presets
from flipq.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
BASE_DOCS = [json.loads((FIXTURES / name).read_text())
             for name in ("quartic.json", "default.json", "wrong_sign.json")]
BASE_DOCS.append(presets.fourier_metric_config(2, 1))
BASE_DOCS.append(presets.ref_section_config(2, 1))

# replacement values: wrong types, extreme and non-finite numbers, ragged
# or empty matrices, zero and negative counts
ODD_VALUES = [None, True, "x", 0, -1, 2, 1.5, -0.5, 1e-300, 1e308, -1e308, 10**400, -(10**400),
              float("nan"), float("inf"), float("-inf"), [], {}, [[]], [[1, 0], [0]], [[1, 2]],
              [[1.0]], [[0.0]], [[-1.0]], [0.1, "a"], [[1.0, 0.0]], {"kind": "fourier"}]

FLAGS = {
    "verify": [("--samples", ["0", "1", "7"]), ("--theta-grid", ["0", "1", "3"]),
               ("--fd-step", ["1e-3", "0", "nan"]), ("--tol", ["1e-4", "-1", "inf"])],
    "scan": [("--theta-steps", ["0", "1", "2"]), ("--t-steps", ["-1", "1", "3"]),
             ("--samples", ["0", "1", "4"])],
    "match": [("--random", ["-2", "0", "3"]), ("--blowup-rays", ["0", "1", "2"]),
              ("--point", ['{"theta": 0.3, "y_prime": [0.1], "y_second": [[0.1, 0.2]]}',
                           '{"y_prime": [], "y_second": [0.1]}', "[1]"])],
    "report": [("--samples", ["0", "5"]), ("--theta-grid", ["1", "2"]), ("--theta-steps", ["1"]),
               ("--t-steps", ["1", "2"]), ("--scan-samples", ["0", "2"]),
               ("--match-samples", ["0", "2"]), ("--blowup-rays", ["0", "1"])],
}
# report's defaults sample far more than a fuzz example needs
REPORT_TINY = ["--samples", "5", "--theta-grid", "2", "--theta-steps", "1", "--t-steps", "1",
               "--scan-samples", "2", "--match-samples", "2", "--blowup-rays", "1"]


def _quartic_with(edit):
    doc = copy.deepcopy(BASE_DOCS[0])
    edit(doc)
    return doc


# extreme finite values overflow in the kernels: the run rejects the
# non-finite result, and no numpy RuntimeWarning reaches stderr
HUGE_METRIC = _quartic_with(lambda doc: doc["metrics"].update(g_prime=[[1e308]]))
HUGE_REF_SECTION = _quartic_with(lambda doc: doc["perturbation"]["terms"].append(
    {"generators": {"ref_inner_sq": 2}, "coeff_fourier": [0.1], "ref_section": [[1e308, 0.0]]}))
HUGE_EXPONENT = _quartic_with(lambda doc: doc["perturbation"]["terms"][0]["generators"].update(mixed=2**62))


def _paths(doc, prefix=()):
    """Every key path of a JSON document, parents before children."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def config_docs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASE_DOCS)))
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, last = draw(st.sampled_from(paths))
        node = doc
        for key in parents:
            node = node[key]
        if isinstance(node, dict) and draw(st.booleans()):
            del node[last]
        else:
            node[last] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    return doc


@st.composite
def flag_vectors(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command] + (REPORT_TINY if command == "report" else [])
    for flag, values in draw(st.lists(st.sampled_from(FLAGS[command]), max_size=3)):
        argv += [flag, draw(st.sampled_from(values))]
    return argv


def _reject_constant(token):
    raise AssertionError(f"{token} in stdout")


@settings(max_examples=50, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=config_docs(), argv=flag_vectors())
@example(doc=HUGE_METRIC, argv=["scan"])
@example(doc=HUGE_METRIC, argv=["report"])
@example(doc=HUGE_REF_SECTION, argv=["report"])
@example(doc=HUGE_EXPONENT, argv=["report"])
def test_cli_boundary_is_total(doc, argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv + ["--config", str(path)])
            except SystemExit as e:  # argparse usage errors
                code = e.code
    assert code in (0, 1, 2), err.getvalue()
    if out.getvalue():
        stdout = out.getvalue()
        # flipq's writer prints what json.dumps would
        assert stdout == json.dumps(json.loads(stdout, parse_constant=_reject_constant),
                                    indent=2, sort_keys=True) + "\n"

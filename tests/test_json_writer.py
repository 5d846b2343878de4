"""flipq's JSON writer: byte-identical to json.dumps(indent=2, sort_keys=True, allow_nan=False).

json.dumps writes every value but a top-level table, which cli._table_text
writes through one %-template; the tests here pin that boundary.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipq import FlipQError, cli, presets
from flipq.cli import _dump, _json_text, main
from flipq.config_io import load_run_config

FIXTURES = Path(__file__).parent / "fixtures"
SHIPPED = ["default.json", "quartic.json", "wrong_sign.json"]

COMMANDS = {
    "verify": ["verify", "--samples", "200", "--theta-grid", "8"],
    "scan": ["scan", "--theta-steps", "6", "--t-steps", "5", "--samples", "8"],
    "match": ["match", "--random", "12", "--blowup-rays", "3"],
    "report": ["report", "--samples", "200", "--theta-grid", "8", "--theta-steps", "6", "--t-steps", "5",
               "--scan-samples", "8", "--match-samples", "12", "--blowup-rays", "3"],
}


def _reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


@pytest.fixture
def fourier_config(tmp_path):
    path = tmp_path / "fourier.json"
    path.write_text(json.dumps(presets.fourier_metric_config(2, 1)))
    return str(path)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("fixture", SHIPPED + ["fourier"])
def test_command_documents_match_json_dumps(command, fixture, fourier_config, monkeypatch, capsys):
    docs = []
    dump = cli._dump
    monkeypatch.setattr(cli, "_dump", lambda doc, out: (docs.append(doc), dump(doc, out)))
    config = fourier_config if fixture == "fourier" else str(FIXTURES / fixture)
    argv = COMMANDS[command] + ["--config", config]
    if command == "match":
        model = load_run_config(config).model
        for theta, scale in ((0.3, 0.1), (4.0, -0.05)):
            point = {"theta": theta, "y_prime": [[scale, 0.05]] * model.r_prime,
                     "y_second": [[0.2, scale]] * model.r_second}
            argv += ["--point", json.dumps(point)]
    main(argv)
    [doc] = docs
    assert _json_text(doc) == _reference(doc)
    assert capsys.readouterr().out == _reference(doc) + "\n"


# -- generated documents ---------------------------------------------------------

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               np.float64(0.1), np.float64(-0.0), np.float64(0.0), np.float64(-2.5e-300)]
EDGE_STRINGS = ["", "é", "naïve ∂ρ", "\x00\x01\x1f\x7f", '"\\/', "  ", "\U0001f600", "%s %d %%"]

keys = st.text(max_size=6) | st.sampled_from(EDGE_STRINGS)
scalars = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from(EDGE_FLOATS) | st.text() | st.sampled_from(EDGE_STRINGS)
           | st.floats(allow_nan=False, allow_infinity=False).map(np.float64))


@st.composite
def tables(draw, values):
    """Lists of flat dicts: one key set (sometimes broken by a row) and values that may change type."""
    names = draw(st.lists(keys, min_size=1, max_size=5, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({name: values for name in names}), min_size=1, max_size=8))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.dictionaries(keys, values, max_size=4)))
    return rows


documents = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=5) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(keys, children, max_size=5)
                      | tables(children) | tables(scalars)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None, database=None)
@given(doc=documents)
def test_generated_documents_match_json_dumps(doc):
    assert _json_text(doc) == _reference(doc)


@settings(max_examples=100, deadline=None, database=None)
@given(column=st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=20))
def test_float_columns_keep_signed_zeros(column):
    # the float texts are shared within one call, but -0.0 == 0.0 print apart
    doc = {"rows": [{"x": x, "y": -x} for x in column], "again": column}
    assert _json_text(doc) == _reference(doc)


# -- the table boundary -----------------------------------------------------------

# lists that are tables and lists next to one: each must come out as json.dumps writes it
BOUNDARY_TABLES = {
    "int and float in one column": [{"a": 1, "b": 0.5}, {"a": 2.0, "b": 1.5}],
    "bool column": [{"a": True, "b": 0.5}, {"a": False, "b": 1.5}],
    "bool among ints": [{"a": 1}, {"a": True}],
    "None column": [{"a": None, "b": "x"}, {"a": None, "b": "y"}],
    "np.float64 column": [{"a": np.float64(0.1)}, {"a": np.float64(-0.0)}],
    "np.float64 among floats": [{"a": 0.1}, {"a": np.float64(0.2)}],
    "nested lists": [{"a": [0.5, 1]}, {"a": [2.0]}],
    "nested dicts": [{"a": {"b": 0.5}}, {"a": {"b": 1.0}}],
    "key sets differ at one size": [{"a": 0.5, "b": 1.0}, {"a": 0.5, "c": 1.0}],
    "a row with an extra key": [{"a": 0.5}, {"a": 1.0, "b": 2.0}],
    "a row with a missing key": [{"a": 0.5, "b": 2.0}, {"a": 1.0}],
    "empty rows": [{}, {}],
    "a row that is a list": [{"a": 0.5}, [0.5]],
    "signed zeros": [{"x": 0.0, "y": -0.0}, {"x": -0.0, "y": 0.0}, {"x": 0.0, "y": 0.0}],
    "repeated floats": [{"x": 0.1, "y": 0.1}, {"x": 0.1, "y": -0.1}],
    "% in keys and values": [{"%s": 0.5, "%%": 1, "%(a)s": "%d"}, {"%s": 1.5, "%%": 2, "%(a)s": "%%"}],
    "scan rows": [{"fiber_type": "QZero", "mean_level_residual": 0.5, "n_stable_samples": 4, "t": 0.0,
                   "theta": -0.0}] * 3,
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_TABLES))
@pytest.mark.parametrize("place", [
    lambda table: {"scan": table},
    lambda table: {"a": 1.0, "z": {"scan": table}},  # nested below the top level
    lambda table: {"z": [table]},
    lambda table: table,
], ids=["top", "nested dict", "nested list", "bare"])
def test_table_boundary_matches_json_dumps(name, place):
    doc = place(BOUNDARY_TABLES[name])
    assert _json_text(doc) == _reference(doc)


@pytest.mark.parametrize("command", ["scan", "report"])
def test_nan_scan_residual_fails_the_run_on_one_line(command, fourier_config, monkeypatch, capsys, tmp_path):
    residuals = cli._scan_residuals
    monkeypatch.setattr(cli, "_scan_residuals",
                        lambda *args: [float("nan")] + residuals(*args)[1:])
    out = tmp_path / "out.json"
    assert main(COMMANDS[command] + ["--config", fourier_config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("FlipQError: output holds a non-finite value "
                   "(Out of range float values are not JSON compliant: nan)\n")
    assert not out.exists()


# -- refused values ------------------------------------------------------------


def _row(value):
    return {"fiber_type": "Q0", "mean_level_residual": value, "n_stable_samples": 4, "t": 0.0, "theta": 1.5}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), np.float64("nan")])
@pytest.mark.parametrize("place", [
    lambda v: v,
    lambda v: [1.0, v],
    lambda v: {"a": {"b": v}},
    lambda v: {"scan": [_row(0.5), _row(v), _row(0.25)]},
    lambda v: {"scan": [_row(v)]},
    lambda v: {"scan": [_row(0.0), _row(-0.0), _row(v)]},
    lambda v: [{"a": 1.0}, {"a": [v]}],
])
def test_non_finite_values_fail_the_run(bad, place, tmp_path):
    out = tmp_path / "out.json"
    with pytest.raises(FlipQError, match="non-finite"):
        _dump(place(bad), str(out))
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.int64(3), np.bool_(True), {1, 2}, object(), 1j])
@pytest.mark.parametrize("place", [
    lambda v: v,
    lambda v: [0.5, v],
    lambda v: {"a": v},
    lambda v: {"scan": [_row(0.5), {**_row(0.25), "n_stable_samples": v}]},
])
def test_types_json_rejects_raise_type_error(bad, place):
    doc = place(bad)
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with pytest.raises(TypeError):
        _dump(doc, None)

"""flipq's JSON writer: byte-identical to json.dumps(indent=2, sort_keys=True, allow_nan=False).

json.dumps writes every value but a ScanTable under a document's top-level
"scan" key, whose rows cli._scan_rows writes lazily through one %-template
over the sorted SCAN_COLUMNS; the tests here pin that boundary, the scan
rows' float texts, and that nothing is written when a value is refused.
The reference for a document holding a ScanTable is json.dumps of the same
document with the table's row dicts in its place.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipq import FlipQError, cli, presets
from flipq.cli import SCAN_COLUMNS, ScanTable, _dump, _json_pieces, main
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


def _json_text(doc) -> str:
    return "".join(_json_pieces(doc))


def _table(rows: list[dict]) -> ScanTable:
    """The ScanTable of row dicts keyed by the SCAN_COLUMNS."""
    return ScanTable(**{key: [row[key] for row in rows] for key in SCAN_COLUMNS})


def _rows(table: ScanTable) -> list[dict]:
    return [dict(zip(SCAN_COLUMNS, row)) for row in zip(*(getattr(table, key) for key in SCAN_COLUMNS))]


def _tabled(doc):
    """doc with the row dicts under its top-level "scan" key as a ScanTable, as the CLI holds them."""
    return {**doc, "scan": _table(doc["scan"])} if type(doc) is dict and "scan" in doc else doc


def _plain(doc):
    """doc with its top-level ScanTable as row dicts: the reference json.dumps can write."""
    return {**doc, "scan": _rows(doc["scan"])} if type(doc) is dict and "scan" in doc else doc


def _assert_same_text(got: str, want: str):
    # names the first differing line only: pytest's own diff of two long texts can run for minutes
    if got != want:
        got_lines, want_lines = got.split("\n"), want.split("\n")
        i = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
                 min(len(got_lines), len(want_lines)))
        pytest.fail(f"line {i + 1} differs: got {got_lines[i:i + 1]}, want {want_lines[i:i + 1]}", pytrace=False)


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
    monkeypatch.setattr(cli, "_dump", lambda doc, out, csv_path: (docs.append(doc), dump(doc, out, csv_path)))
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
    assert (type(doc.get("scan")) is ScanTable) == (command in ("scan", "report"))
    _assert_same_text(_json_text(doc), _reference(_plain(doc)))
    _assert_same_text(capsys.readouterr().out, _reference(_plain(doc)) + "\n")


# -- generated documents ---------------------------------------------------------


def _row(residual, theta=1.5, t=0.0, fiber_type="QZero", samples=4):
    return {"fiber_type": fiber_type, "mean_level_residual": residual, "n_stable_samples": samples, "t": t,
            "theta": theta}


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               np.float64(0.1), np.float64(-0.0), np.float64(0.0), np.float64(-2.5e-300)]
EDGE_STRINGS = ["", "é", "naïve ∂ρ", "\x00\x01\x1f\x7f", '"\\/', "  ", "\U0001f600", "%s %d %%"]

# "scan" holds scan rows only: a generated document gets them from `tables`, as a ScanTable in
# the document written and as row dicts in the reference
keys = (st.text(max_size=6) | st.sampled_from(EDGE_STRINGS)).filter(lambda key: key != "scan")
floats = (st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
          | st.floats(allow_nan=False, allow_infinity=False).map(np.float64))
scalars = st.none() | st.booleans() | st.integers() | floats | st.text() | st.sampled_from(EDGE_STRINGS)

# scan rows: edge floats in the float columns, edge strings as the fiber type, ints as the sample count
tables = st.lists(st.fixed_dictionaries({
    "theta": floats, "t": floats, "mean_level_residual": floats,
    "fiber_type": st.sampled_from(EDGE_STRINGS) | st.text(), "n_stable_samples": st.integers(),
}), min_size=1, max_size=8)

values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=5) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(keys, children, max_size=5) | tables),
    max_leaves=40,
)
documents = values | st.builds(lambda doc, rows: {**doc, "scan": rows},
                               st.dictionaries(keys, values, max_size=5), tables)


@settings(max_examples=300, deadline=None, database=None)
@given(doc=documents)
def test_generated_documents_match_json_dumps(doc):
    _assert_same_text(_json_text(_tabled(doc)), _reference(doc))


@settings(max_examples=100, deadline=None, database=None)
@given(column=st.lists(floats, min_size=1, max_size=20))
def test_float_columns_keep_signed_zeros(column):
    # the float texts are shared within a column, but -0.0 == 0.0 print apart
    doc = {"scan": [_row(x, theta=-x, t=x) for x in column], "again": column}
    _assert_same_text(_json_text(_tabled(doc)), _reference(doc))


# -- the table boundary -----------------------------------------------------------

# lists that are tables and lists next to one: none is a ScanTable, so each must come out as
# json.dumps writes it, under the top-level "scan" key too
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
    "scan rows": [_row(0.5, theta=-0.0)] * 3,
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_TABLES))
@pytest.mark.parametrize("place", [
    lambda table: {"rows": table, "seed": 1},  # a top-level table under a key other than "scan"
    lambda table: {"a": 1.0, "z": {"scan": table}},  # nested below the top level
    lambda table: {"z": [table]},
    lambda table: table,
    lambda table: {"scan": table, "seed": 1},  # row dicts under "scan": only a ScanTable is a scan table
], ids=["top", "nested dict", "nested list", "bare", "top scan"])
def test_table_boundary_matches_json_dumps(name, place):
    doc = place(BOUNDARY_TABLES[name])
    _assert_same_text(_json_text(doc), _reference(doc))


# -- the scan rows ---------------------------------------------------------------

MAX = 1.7976931348623157e308
SCAN_ROWS = {
    "one row": [_row(0.5)],
    "signed zeros in theta": [_row(0.5, theta=-0.0), _row(0.5, theta=0.0), _row(0.5, theta=-0.0)],
    "signed zeros in t": [_row(0.5, t=0.0), _row(0.5, t=-0.0), _row(0.5, t=0.0)],
    "signed zeros in mean_level_residual": [_row(-0.0), _row(0.0), _row(-0.0)],
    "a zero residual next to a nonzero one": [_row(0.0), _row(2.5e-17), _row(0.0), _row(-0.0)],
    "repeated values": [_row(0.1, theta=0.1, t=-0.1), _row(0.1, theta=0.1, t=0.1)] * 3,
    "np.float64 values": [_row(np.float64(0.1), theta=np.float64(-0.0), t=np.float64(2.5)),
                          _row(0.1, theta=np.float64(0.0), t=2.5)],
    "extreme floats": [_row(5e-324, theta=MAX, t=-MAX), _row(-5e-324, theta=-MAX, t=MAX)],
    "escaped fiber types": [_row(0.5, fiber_type=text) for text in EDGE_STRINGS],
    "sample counts": [_row(0.5, samples=n) for n in (0, 1, -7, 10**30)],
    "no rows": [],
}


@pytest.mark.parametrize("name", sorted(SCAN_ROWS))
def test_scan_rows_match_json_dumps(name):
    doc = {"config_digest": "sha256:0", "scan": SCAN_ROWS[name], "seed": 1}
    _assert_same_text(_json_text(_tabled(doc)), _reference(doc))


def test_report_sweep_document_matches_json_dumps(monkeypatch, tmp_path):
    # a full-size report: 64 x 31 scan rows of 32 samples, 2,000 matches and 64 rays on ranks 2/1
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(presets.fourier_metric_config(2, 1, seed=1)))
    docs = []
    monkeypatch.setattr(cli, "_dump", lambda doc, out, csv_path: docs.append(doc))
    main(["report", "--theta-steps", "64", "--t-steps", "31", "--match-samples", "2000",
          "--blowup-rays", "64", "--config", str(config)])
    [doc] = docs
    assert len(doc["scan"]) == 64 * 31
    _assert_same_text(_json_text(doc), _reference(_plain(doc)))


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


def test_nan_scan_residual_writes_no_csv(fourier_config, monkeypatch, capsys, tmp_path):
    # the document is formatted before the CSV is written: a refused scan leaves no file at all
    residuals = cli._scan_residuals
    monkeypatch.setattr(cli, "_scan_residuals",
                        lambda *args: [float("nan")] + residuals(*args)[1:])
    out, table = tmp_path / "out.json", tmp_path / "out.csv"
    assert main(COMMANDS["scan"] + ["--config", fourier_config, "--out", str(out), "--csv", str(table)]) == 1
    assert capsys.readouterr().out == ""
    assert not out.exists() and not table.exists()
    assert main(COMMANDS["scan"] + ["--config", fourier_config, "--csv", str(table)]) == 1
    assert capsys.readouterr().out == ""
    assert not table.exists()


# -- refused values ------------------------------------------------------------


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), np.float64("nan")])
@pytest.mark.parametrize("place", [
    lambda v: v,
    lambda v: [1.0, v],
    lambda v: {"a": {"b": v}},
    lambda v: {"scan": [_row(0.5), _row(v), _row(0.25)]},
    lambda v: {"scan": [_row(v)]},
    lambda v: {"scan": [_row(0.0), _row(-0.0), _row(v)]},
    lambda v: [{"a": 1.0}, {"a": [v]}],
    lambda v: {"scan": [_row(0.5), _row(0.5, theta=v)]},
    lambda v: {"scan": [_row(0.5, t=v), _row(0.5)]},
    # in the last row of each float column: every row before it would already be written if the
    # writer formatted the rows' floats as it wrote them
    lambda v: {"config_digest": "sha256:0", "scan": [_row(0.5)] * 3 + [_row(v)], "seed": 1},
    lambda v: {"config_digest": "sha256:0", "scan": [_row(0.5)] * 3 + [_row(0.5, theta=v)], "seed": 1},
    lambda v: {"config_digest": "sha256:0", "scan": [_row(0.5)] * 3 + [_row(0.5, t=v)], "seed": 1},
])
def test_non_finite_values_fail_the_run(bad, place, tmp_path, capsys):
    # nothing is written: no --out file, and not a byte on stdout
    doc = _tabled(place(bad))
    out = tmp_path / "out.json"
    with pytest.raises(FlipQError, match="non-finite"):
        _dump(doc, str(out))
    assert not out.exists()
    with pytest.raises(FlipQError, match="non-finite"):
        _dump(doc, None)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("doc", [
    {"a": float("inf"), "scan": [_row(float("nan"))], "z": float("-inf")},
    {"scan": [_row(0.5), _row(float("nan"))], "z": float("inf")},
    # within the scan, json.dumps meets the rows in order and each row's values in key order
    {"scan": [_row(0.5, t=float("inf")), _row(float("nan"))]},
    {"scan": [_row(float("inf")), _row(float("nan"))]},
    {"scan": [_row(0.5, theta=float("-inf")), _row(float("inf"))]},
    {"scan": [_row(0.5, t=float("nan"), theta=float("-inf")), _row(float("inf"))]},
    {"scan": [_row(0.5)] * 3 + [_row(float("-inf"), theta=float("nan"))]},
], ids=["before the scan", "in the scan", "t then a later residual", "residuals in row order",
        "theta then a later residual", "t before theta in one row", "residual before theta in one row"])
def test_the_refused_value_is_the_first_json_dumps_meets(doc):
    # the top-level values are formatted in key order, the scan's at its key
    with pytest.raises(ValueError) as want:
        _reference(doc)
    with pytest.raises(FlipQError) as got:
        _dump(_tabled(doc), None)
    assert str(got.value.__cause__) == str(want.value)


@pytest.mark.parametrize("bad", [np.int64(3), np.bool_(True), {1, 2}, object(), 1j])
@pytest.mark.parametrize("place", [
    lambda v: v,
    lambda v: [0.5, v],
    lambda v: {"a": v},
    lambda v: {"scan": [_row(0.5), {**_row(0.25), "n_stable_samples": v}]},
])
def test_types_json_rejects_raise_type_error(bad, place, capsys):
    doc = place(bad)
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with pytest.raises(TypeError):
        _dump(_tabled(doc), None)
    assert capsys.readouterr().out == ""


# -- streaming -------------------------------------------------------------------


def test_dump_streams_a_scan_table(tmp_path):
    # 50,000 rows with about 10 distinct values per float column: the writer holds their texts
    # and one row at a time, never the document, so its peak is a small share of the file's size
    n = 50_000
    thetas = [0.0, -0.0] + [0.7 * k for k in range(1, 9)]
    ts = [-0.0, 0.0] + [0.01 * k for k in range(-4, 0)] + [0.01 * k for k in range(1, 5)]
    residuals = [0.0] + [1e-17 * k for k in range(1, 10)]
    t = [ts[i % 10] for i in range(n)]
    table = ScanTable(theta=[thetas[i // 17 % 10] for i in range(n)], t=t,
                      fiber_type=["QPrime" if x < 0 else "QSecond" if x > 0 else "QZero" for x in t],
                      n_stable_samples=[32] * n, mean_level_residual=[residuals[i // 3 % 10] for i in range(n)])
    doc = {"config_digest": "sha256:0", "scan": table, "seed": 1}
    out = tmp_path / "out.json"
    tracemalloc.start()
    try:
        _dump(doc, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert peak < 0.1 * size, f"peak {peak} B while writing {size} B"
    _assert_same_text(out.read_text(), _reference(_plain(doc)) + "\n")

"""CLI contract: outputs, determinism, and the 0/1/2 exit-code scheme."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import MIXED_MATCH_REFUSAL, dense_metric, make_config, mixed_match_config
from flipq import (
    BasePoint,
    ConfigInvalid,
    FiberPoint,
    FlipQError,
    PerturbationTerm,
    chi_eval,
    cli,
    fiber_norms,
    matching_map,
    presets,
    solve_rho,
)
from flipq.cli import ScanTable, _blowup_rays, _dump, _match_doc, _scan_contracts, main, run_match, run_scan
from flipq.config_io import RunConfig, load_run_config, parse_run_config
from flipq.errors import ConfigParse
from flipq.perturbation import verdict
from flipq.core import fiber_norms_batch
from flipq import kernels
from flipq.quotient import level_rho_batch, moment_value_batch
from flipq.sampling import (
    complex_gaussian,
    complex_gaussian_rows,
    random_domain_batch,
    random_unit_direction,
)

FIXTURES = Path(__file__).parent / "fixtures"

DEFAULT = str(FIXTURES / "default.json")
QUARTIC = str(FIXTURES / "quartic.json")
WRONG_SIGN = str(FIXTURES / "wrong_sign.json")
BAD_SYNTAX = str(FIXTURES / "bad_syntax.json")


def _run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


# -- verify -------------------------------------------------------------------


def test_verify_default_passes(tmp_path):
    code, doc = _run_json(["verify", "--config", DEFAULT], tmp_path)
    assert code == 0
    rep = doc["condition_report"]
    assert rep["p1_ok"] and rep["p2_ok"] and rep["p3_ok"]
    assert doc["pass"] is True
    assert doc["rest_bound"]["empirical_M"] == 0.0


def test_verify_wrong_sign_fails_p3(tmp_path):
    code, doc = _run_json(["verify", "--config", WRONG_SIGN], tmp_path)
    assert code == 1
    assert doc["condition_report"]["p3_ok"] is False
    assert doc["condition_report"]["worst_p3"] >= 1.0
    assert doc["condition_report"]["p1_ok"] and doc["condition_report"]["p2_ok"]


def test_verify_malformed_config(tmp_path, capsys):
    code = main(["verify", "--config", BAD_SYNTAX])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


def test_verify_missing_config(tmp_path, capsys):
    code = main(["verify", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert capsys.readouterr().err


def test_invalid_config_rejected(tmp_path, capsys):
    doc = json.loads(Path(DEFAULT).read_text())
    doc["ranks"]["r_prime"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["verify", "--config", str(bad)])
    assert code == 2
    assert "RankViolation" in capsys.readouterr().err


# -- scan ----------------------------------------------------------------------


def test_scan_fiber_types_across_wall(tmp_path):
    code, doc = _run_json(
        ["scan", "--config", DEFAULT, "--theta-steps", "2", "--t-steps", "3", "--samples", "16"],
        tmp_path,
    )
    assert code == 0
    rows = doc["scan"]
    assert len(rows) == 6
    by_theta = [r for r in rows if r["theta"] == 0.0]
    assert [r["t"] for r in by_theta] == pytest.approx([-0.1, 0.0, 0.1])
    assert [r["fiber_type"] for r in by_theta] == ["QPrime", "QZero", "QSecond"]
    assert all(r["mean_level_residual"] <= 1e-12 for r in rows)
    assert all(r["n_stable_samples"] == 16 for r in rows)


@pytest.mark.parametrize("epsilon, t_steps, types", [
    (12.9, 5, ["QPrime", "QPrime", "QZero", "QSecond", "QSecond"]),
    (1e-16, 3, ["QPrime", "QZero", "QSecond"]),
])
def test_scan_wall_row_snaps_relative_to_epsilon(epsilon, t_steps, types):
    # the middle t of the grid is roundoff of epsilon's size; it alone is the wall fiber
    run_cfg = parse_run_config(presets.quartic_config(epsilon=epsilon))
    table = run_scan(run_cfg, 1, 1, t_steps, 2)
    assert table.fiber_type == types
    assert [t == 0.0 for t in table.t] == [kind == "QZero" for kind in types]


def test_scan_zero_samples(capsys):
    # a row mean over no samples would be a vacuous pass
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--config", DEFAULT, "--theta-steps", "1", "--t-steps", "1", "--samples", "0"])
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [("scan", "--theta-steps"), ("scan", "--t-steps"), ("report", "--theta-steps"),
     ("report", "--t-steps"), ("report", "--scan-samples")],
)
def test_empty_scan_is_usage_error(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", QUARTIC, flag, "0"])
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_scan_csv_header_and_rows(tmp_path):
    csv_path = tmp_path / "scan.csv"
    code = main(["scan", "--config", DEFAULT, "--theta-steps", "2", "--t-steps", "3",
                 "--samples", "8", "--csv", str(csv_path), "--out", str(tmp_path / "o.json")])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "theta,t,fiber_type,n_stable_samples,mean_level_residual"
    assert len(lines) == 7
    assert lines[1].split(",")[2] == "QPrime"
    # the bytes csv.DictWriter gives for the JSON document's rows, the wall row's t = 0.0 included
    rows = json.loads((tmp_path / "o.json").read_text())["scan"]
    assert any(row["t"] == 0.0 for row in rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, lines[0].split(","), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    assert csv_path.read_bytes() == buf.getvalue().encode()


@pytest.mark.parametrize("residuals, ok", [
    ([1e-13, 1e-12, 0.0], True),
    ([1e-13, 2e-12, 0.0], False),
    ([1e-13, float("nan"), 0.0], False),  # a NaN residual is no pass
    ([1e-13, 0.0, float("nan")], False),
], ids=["within", "above", "nan", "nan last"])
def test_scan_ok_needs_every_residual_within_tolerance(residuals, ok):
    n = len(residuals)
    table = ScanTable(theta=[0.0] * n, t=[-0.1, 0.0, 0.1], fiber_type=["QPrime", "QZero", "QSecond"],
                      n_stable_samples=[4] * n, mean_level_residual=residuals)
    assert verdict({"scan_ok": _scan_contracts(table)}) == ({"scan_ok": ok}, ok)


@pytest.mark.parametrize("argv", [
    ["verify", "--samples", "200", "--theta-grid", "8", "--out", "{missing}/x.json"],
    ["verify", "--samples", "200", "--theta-grid", "8", "--out", "{tmp}"],  # a directory
    ["scan", "--theta-steps", "2", "--t-steps", "3", "--samples", "4", "--out", "{missing}/x.json"],
    ["scan", "--theta-steps", "2", "--t-steps", "3", "--samples", "4", "--csv", "{missing}/x.csv"],
    ["match", "--random", "2", "--out", "{missing}/x.json"],
])
def test_unwritable_output_path_is_usage_error(argv, tmp_path, capsys):
    missing = tmp_path / "missing"
    argv = [arg.format(missing=missing, tmp=tmp_path) for arg in argv]
    assert main(argv + ["--config", QUARTIC]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("cannot write output: ")
    assert not missing.exists()


# -- match ----------------------------------------------------------------------


def test_match_point_quartic(tmp_path):
    point = '{"theta": 0.0, "y_prime": [[1, 0]], "y_second": [[1, 0]]}'
    code, doc = _run_json(["match", "--config", QUARTIC, "--point", point], tmp_path)
    assert code == 0
    entry = doc["points"][0]
    assert entry["rho"] == pytest.approx(0.9513083, abs=1e-7)
    assert entry["matched"]["t"] == pytest.approx(0.1)
    assert entry["moment_residual"] <= 1e-12
    assert entry["orbit_deviation"] <= 1e-11


def test_match_degenerate_point_is_entry_not_failure(tmp_path):
    point = '{"theta": 0.0, "y_prime": [[0, 0]], "y_second": [[0, 0]]}'
    code, doc = _run_json(["match", "--config", QUARTIC, "--point", point], tmp_path)
    assert code == 0
    entry = doc["points"][0]
    assert entry["error"] == "DegenerateBranch"
    assert doc["matching_stats"]["n_errors"] == 1


LOST_DIGITS = "|y|^2 = 0 is below the smallest normal float: its digits are lost"


@pytest.mark.parametrize("point, message", [
    ('{"theta": 0, "y_prime": [1e-165], "y_second": [0]}', LOST_DIGITS),
    ('{"theta": 0, "y_prime": [0], "y_second": [1e-165]}', LOST_DIGITS),
    ('{"theta": 0, "y_prime": [0], "y_second": [0]}', "y lies on the zero section"),
])
def test_match_names_a_point_whose_digits_are_lost(point, message, tmp_path):
    # |v|^2 underflows to 0: the lane is refused for its lost digits, not for the sign of chi(v) = 0,
    # and only the exact zero section is named as such; either way the run exits 0 with one error entry
    code, doc = _run_json(["match", "--config", QUARTIC, "--point", point], tmp_path)
    assert code == 0
    entry = doc["points"][0]
    assert (entry["error"], entry["message"]) == ("DegenerateBranch", message)
    assert doc["matching_stats"]["n_errors"] == 1


def test_match_bad_point_payload(tmp_path, capsys):
    code = main(["match", "--config", QUARTIC, "--point", "{oops"])
    assert code == 2
    assert "point" in capsys.readouterr().err


def test_match_point_rank_mismatch_rejected(capsys):
    point = '{"y_prime": [[1, 0], [2, 0]], "y_second": [[1, 0]]}'
    code = main(["match", "--config", QUARTIC, "--point", point])
    assert code == 2
    assert "y_prime has length 2, expected 1" in capsys.readouterr().err


POSITIVE_COUNT_FLAGS = {("verify", "--samples"), ("scan", "--theta-steps"), ("scan", "--samples"),
                        ("report", "--t-steps"), ("report", "--scan-samples")}


@pytest.mark.parametrize(
    "command, flag",
    [
        ("match", "--random"),
        ("match", "--blowup-rays"),
        ("report", "--match-samples"),
        ("report", "--blowup-rays"),
        ("scan", "--theta-steps"),
        ("report", "--t-steps"),
        ("verify", "--samples"),
        ("scan", "--samples"),
        ("report", "--scan-samples"),
        ("verify", "--seed"),
    ],
)
def test_negative_count_flag_is_usage_error(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", QUARTIC, flag, "-1"])
    assert exc.value.code == 2
    # the rest-bound sample count and the scan grid and samples must also be nonzero
    bound = "must be >= 1" if (command, flag) in POSITIVE_COUNT_FLAGS else "must be >= 0"
    assert bound in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--samples", "0", "must be >= 1"),
        ("--theta-grid", "0", "must be >= 1"),
        ("--theta-grid", "-2", "must be >= 1"),
        ("--fd-step", "1e-6", "must lie in (1e-06, 0.01)"),
        ("--fd-step", "0.01", "must lie in (1e-06, 0.01)"),
        ("--fd-step", "-1e-3", "must lie in (1e-06, 0.01)"),
        ("--fd-step", "nan", "must lie in (1e-06, 0.01)"),
        ("--tol", "0", "must be finite and > 0"),
        ("--tol", "-1e-4", "must be finite and > 0"),
        ("--tol", "inf", "must be finite and > 0"),
        ("--tol", "nan", "must be finite and > 0"),
    ],
)
def test_verify_flag_out_of_range_is_usage_error(command, flag, value, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", QUARTIC, f"{flag}={value}"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def _set(path, value):
    """Edit of the quartic fixture: set the entry at a key path."""
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return edit


def _keep(doc):
    """The quartic fixture unchanged."""


def _add_ref_term(ref_section):
    def edit(doc):
        doc["perturbation"]["terms"].append(
            {"generators": {"ref_inner_sq": 2}, "coeff_fourier": [0.1], "ref_section": ref_section})
    return edit


def _non_pd_between_grid(doc):
    """The Fourier preset 2/1 with a harmonic that makes g' indefinite between the 64 validation thetas."""
    doc.clear()
    doc.update(presets.fourier_metric_config(2, 1))
    doc["metrics"]["g_prime"].append({"n": 32, "sin": [[[0, 0], [0, 2.5]], [[0, -2.5], [0, 0]]]})
    doc["domain_radius"] = 2


def _fourier_harmonic(n):
    """The Fourier preset 2/1 with one more (zero) g' harmonic of order n."""
    def edit(doc):
        doc.clear()
        doc.update(presets.fourier_metric_config(2, 1))
        doc["metrics"]["g_prime"].append({"n": n, "cos": [[0, 0], [0, 0]]})
    return edit


NAN, INF = float("nan"), float("inf")
TINY_REPORT = ["--theta-grid", "2", "--samples", "20", "--theta-steps", "1", "--t-steps", "1",
               "--scan-samples", "2", "--match-samples", "2", "--blowup-rays", "1"]


# Each case's id is its key: the older keys are the names pytest gave the cases by
# list position, kept so that results recorded by test id still line up.
BAD_CONFIGS = {
    # non-finite values
    "edit-argv0-2-MetricFiniteViolation":
        (_set(["metrics", "g_prime", 0, 0], NAN), ["verify"], 2, "MetricFiniteViolation"),
    "edit-argv1-2-MetricFiniteViolation":
        (_set(["metrics", "g_second", 0, 0], INF), ["report"], 2, "MetricFiniteViolation"),
    "edit-argv2-2-EpsilonViolation":
        (_set(["epsilon"], INF), ["verify"], 2, "EpsilonViolation"),
    "edit-argv3-2-DomainRadiusViolation":
        (_set(["domain_radius"], NAN), ["verify"], 2, "DomainRadiusViolation"),
    "edit-argv4-2-PerturbationCoefficientViolation":
        (_set(["perturbation", "terms", 0, "coeff_fourier"], [0.1, NAN]), ["report"], 2,
         "PerturbationCoefficientViolation"),
    "edit-argv5-2-ReferenceSectionViolation":
        (_add_ref_term([NAN]), ["verify"], 2, "ReferenceSectionViolation"),
    "edit-argv6-2-phi.coeff_prime":
        (_set(["phi"], {"kind": "quadratic", "coeff_prime": NAN}), ["verify"], 2, "phi.coeff_prime"),
    # mistyped values
    "edit-argv7-2-ranks.r_prime must be an integer":
        (_set(["ranks", "r_prime"], "two"), ["verify"], 2, "ranks.r_prime must be an integer"),
    "edit-argv8-2-ranks.r_second must be an integer":
        (_set(["ranks", "r_second"], True), ["verify"], 2, "ranks.r_second must be an integer"),
    "edit-argv9-2-ranks must be an object":
        (_set(["ranks"], [1, 1]), ["verify"], 2, "ranks must be an object"),
    "edit-argv10-2-epsilon must be a number":
        (_set(["epsilon"], "0.5"), ["verify"], 2, "epsilon must be a number"),
    "edit-argv11-2-coeff_fourier must be a list":
        (_set(["perturbation", "terms", 0, "coeff_fourier"], "abc"), ["verify"], 2,
         "coeff_fourier must be a list"),
    "edit-argv12-2-coeff_fourier entry must be a number":
        (_set(["perturbation", "terms", 0, "coeff_fourier"], ["abc"]), ["verify"], 2,
         "coeff_fourier entry must be a number"),
    "edit-argv13-2-generator mixed must be an integer":
        (_set(["perturbation", "terms", 0, "generators", "mixed"], 1.5), ["verify"], 2,
         "generator mixed must be an integer"),
    "edit-argv14-2-phi must be an object":
        (_set(["phi"], "graph"), ["verify"], 2, "phi must be an object"),
    "edit-argv15-2-seed must be >= 0":
        (_set(["seed"], -5), ["verify"], 2, "seed must be >= 0"),
    "edit-argv16-2-seed must be an integer":
        (_set(["seed"], 1.5), ["report"], 2, "seed must be an integer"),
    # a check that fails mid-run: under report, the match draws cannot land in so thin a wall
    # interval; under match, the first blowup ray's graph value leaves it
    "edit-argv17-1-OutOfDomain":
        (_set(["epsilon"], 1e-6), ["match", "--blowup-rays", "1"], 1, "OutOfDomain"),
    "edit-argv18-1-OutOfDomain":
        (_set(["epsilon"], 1e-6), ["report", *TINY_REPORT], 1, "OutOfDomain"),
    # a radius whose square overflows
    "edit-argv19-2-DomainRadiusViolation":
        (_set(["domain_radius"], 1e200), ["verify"], 2, "DomainRadiusViolation"),
    "edit-argv20-2-DomainRadiusViolation":
        (_set(["domain_radius"], 1e200), ["report", *TINY_REPORT], 2, "DomainRadiusViolation"),
    # metric matrices that are ragged, not square, or have an empty row
    "edit-argv21-2-expected a non-empty square matrix":
        (_set(["metrics", "g_prime"], [[1, 0], [0]]), ["verify"], 2, "expected a non-empty square matrix"),
    "edit-argv22-2-expected a non-empty square matrix":
        (_set(["metrics", "g_prime"], [[1, 2]]), ["verify"], 2, "expected a non-empty square matrix"),
    "edit-argv23-2-expected a non-empty square matrix":
        (_set(["metrics", "g_second"], [[]]), ["verify"], 2, "expected a non-empty square matrix"),
    # non-finite --point values
    "_keep-argv24-2-must be finite":
        (_keep, ["match", "--point", '{"theta": NaN, "y_prime": [[0.1, 0]], "y_second": [[0.2, 0]]}'], 2,
         "must be finite"),
    "_keep-argv25-2-must be finite":
        (_keep, ["match", "--point", '{"theta": 0.5, "y_prime": [[Infinity, 0]], "y_second": [[0.2, 0]]}'], 2,
         "must be finite"),
    # a --point payload that is not an object
    "_keep-argv26-2-bad --point payload":
        (_keep, ["match", "--point", "[1]"], 2, "bad --point payload"),
    # a wall interval whose width 2 epsilon overflows
    "edit-argv27-2-EpsilonViolation":
        (_set(["epsilon"], 1e308), ["verify"], 2, "EpsilonViolation"),
    "edit-argv28-2-EpsilonViolation":
        (_set(["epsilon"], 1e308), ["report", *TINY_REPORT], 2, "EpsilonViolation"),
    # a wall interval so thin that no random draw lands inside it
    "edit-argv29-1-random draws still leave the wall interval":
        (_set(["epsilon"], 1e-9), ["match", "--random", "4"], 1,
         "random draws still leave the wall interval"),
    # JSON integers past the float range
    "edit-argv30-2-epsilon is an integer outside the float range":
        (_set(["epsilon"], 10**400), ["verify"], 2, "epsilon is an integer outside the float range"),
    "edit-argv31-2-outside the float range":
        (_set(["metrics", "g_prime", 0, 0], 10**400), ["verify"], 2, "outside the float range"),
    "edit-argv32-2-coeff_fourier entry is an integer outside the float range":
        (_set(["perturbation", "terms", 0, "coeff_fourier"], [0.1, -10**400]), ["report", *TINY_REPORT], 2,
         "coeff_fourier entry is an integer outside the float range"),
    "edit-argv33-2-phi.coeff_prime is an integer outside the float range":
        (_set(["phi"], {"kind": "quadratic", "coeff_prime": 10**400}), ["verify"], 2,
         "phi.coeff_prime is an integer outside the float range"),
    "edit-argv34-2-generator mixed must fit in a signed 64-bit integer":
        (_set(["perturbation", "terms", 0, "generators", "mixed"], 10**400), ["verify"], 2,
         "generator mixed must fit in a signed 64-bit integer"),
    "edit-argv35-2-g_prime n must fit in a signed 64-bit integer":
        (_fourier_harmonic(2**63), ["verify"], 2, "g_prime n must fit in a signed 64-bit integer"),
    # a metric positive definite on the validation grid but not between its points
    "_non_pd_between_grid-argv36-2-is not positive definite":
        (_non_pd_between_grid, ["verify", "--samples", "200"], 2, "is not positive definite"),
    "_non_pd_between_grid-argv37-2-is not positive definite":
        (_non_pd_between_grid, ["report", *TINY_REPORT], 2, "is not positive definite"),
    "_non_pd_between_grid-argv38-2-is not positive definite":
        (_non_pd_between_grid, ["match", "--blowup-rays", "8"], 2, "is not positive definite"),
    # mistyped --point values: theta follows the config's number rule
    "_keep-argv39-2-bad --point payload: theta must be a number, got '1.5'":
        (_keep, ["match", "--point", '{"theta": "1.5", "y_prime": [[0.1, 0]], "y_second": [[0.2, 0]]}'], 2,
         "bad --point payload: theta must be a number, got '1.5'"),
    "_keep-argv40-2-bad --point payload: theta must be a number, got True":
        (_keep, ["match", "--point", '{"theta": true, "y_prime": [[0.1, 0]], "y_second": [[0.2, 0]]}'], 2,
         "bad --point payload: theta must be a number, got True"),
    "_keep-argv41-2-bad --point payload: theta is an integer outside the float range":
        (_keep, ["match", "--point", '{"theta": 1%s, "y_prime": [[0.1, 0]], "y_second": [[0.2, 0]]}' % ("0" * 400)],
         2, "bad --point payload: theta is an integer outside the float range"),
    "_keep-argv42-2-config parse error: bad --point payload: expected a number or [re, im] pair, got True":
        (_keep, ["match", "--point", '{"theta": 0.5, "y_prime": [true], "y_second": [[0.2, 0]]}'], 2,
         "config parse error: bad --point payload: expected a number or [re, im] pair, got True"),
    "_keep-argv43-2-config parse error: bad --point payload: expected a number or [re, im] pair, got [False, 0]":
        (_keep, ["match", "--point", '{"theta": 0.5, "y_prime": [[0.1, 0]], "y_second": [[false, 0]]}'], 2,
         "config parse error: bad --point payload: expected a number or [re, im] pair, got [False, 0]"),
    # the load-time certificate refuses the metric, whatever the scan's own grid
    "scan-metric-between-grid":
        (_non_pd_between_grid, ["scan", "--theta-steps", "128", "--t-steps", "3", "--samples", "4"], 2,
         "invalid config: config failed validation: PositivityViolation: g_prime(1.1290098598838318) is not "
         "positive definite"),
    "point-nested-past-the-recursion-limit":
        (_keep, ["match", "--point", "[" * 5000 + "]" * 5000], 2,
         "config parse error: bad --point payload: maximum recursion depth exceeded"),
}


@pytest.mark.parametrize("edit, argv, code, message", list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS))
def test_bad_config_exits_cleanly(edit, argv, code, message, tmp_path):
    doc = json.loads(Path(QUARTIC).read_text())
    edit(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "flipq.cli", *argv, "--config", str(path)],
                          capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and message in proc.stderr

    def no_constant(token):
        raise AssertionError(f"{token} in stdout")

    if proc.stdout:
        json.loads(proc.stdout, parse_constant=no_constant)


def test_integer_past_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    # json refuses to convert an integer literal of more than 4,300 digits
    text = Path(QUARTIC).read_text().replace('"epsilon": 1.5', '"epsilon": 1' + "0" * 5000)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["verify", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "is not valid JSON" in captured.err


def test_config_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(Path(QUARTIC).read_bytes().replace(b'"epsilon"', b'"\xffepsilon"'))
    assert main(["verify", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"config parse error: cannot read config {path}: 'utf-8' codec can't decode")


def test_config_nested_past_the_recursion_limit_is_a_parse_error(tmp_path, capsys):
    # the nesting sits under a key that nothing reads
    depth = sys.getrecursionlimit() + 10
    nested = "[" * depth + "]" * depth
    path = tmp_path / "cfg.json"
    path.write_text(Path(QUARTIC).read_text().replace('"epsilon": 1.5', f'"unused": {nested}, "epsilon": 1.5'))
    assert main(["verify", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert "is not valid JSON: maximum recursion depth exceeded" in captured.err


def test_config_nested_near_the_recursion_limit_loads_or_is_a_parse_error(tmp_path):
    # json decodes a few levels deeper than the digest can encode again
    template = Path(QUARTIC).read_text().replace('"epsilon": 1.5', '"unused": %s, "epsilon": 1.5')
    path = tmp_path / "cfg.json"
    outcomes = set()
    limit = sys.getrecursionlimit()
    for depth in range(limit - 200, limit + 1):
        path.write_text(template % ("[" * depth + "]" * depth))
        try:
            load_run_config(path)
            outcomes.add("loaded")
        except ConfigParse:
            outcomes.add("parse error")
    assert outcomes == {"loaded", "parse error"}


def test_seed_past_64_bits_runs(tmp_path, capsys):
    # numpy's generators take a seed of any size; only exponents and harmonics are 64-bit
    doc = json.loads(Path(QUARTIC).read_text())
    doc["seed"] = 2**64 + 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(path), "--samples", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 2**64 + 1


def _match_document(run_cfg, seed, points, random_n, blowup_rays):
    """The document `flipq match` writes for these points and draws."""
    return _match_doc(run_cfg, seed, *run_match(run_cfg, seed, points, random_n, blowup_rays))


def _assert_matches_scalar_path(cfg, entries):
    """Each entry against scalar solve_rho/matching_map; returns the error messages seen."""
    messages = set()
    for entry in entries:
        inp = entry["input"]
        p = FiberPoint(
            BasePoint(inp["theta"], 0.0),
            np.array([complex(*z) for z in inp["y_prime"]]),
            np.array([complex(*z) for z in inp["y_second"]]),
        )
        try:
            sol = solve_rho(cfg, p)
            matching_map(cfg, p)
        except FlipQError as e:
            assert (entry.get("error"), entry.get("message")) == (type(e).__name__, str(e))
            messages.add(str(e))
            continue
        assert "error" not in entry
        assert entry["rho"] == sol.rho
        assert sol.iterations == 0
    return messages


@pytest.mark.parametrize("R", [1, 100, 1000])
def test_match_has_no_errors_on_the_rescaled_fourier_preset(tmp_path, capsys, R):
    # v -> R v with t -> R^2 t: the quartic coefficients scale by R^-2 and the wall by R^2; the
    # matched points' moment residuals scale with R^2
    doc = presets.fourier_metric_config(2, 1, epsilon=R**2, domain_radius=R)
    doc["perturbation"]["terms"][0]["coeff_fourier"] = [0.1 / R**2, 0.05 / R**2]
    config = tmp_path / "rescaled.json"
    config.write_text(json.dumps(doc))
    assert main(["match", "--config", str(config), "--random", "200", "--seed", "1"]) == 0
    stats = json.loads(capsys.readouterr().out)["matching_stats"]
    assert (stats["n_points"], stats["n_errors"]) == (200, 0)
    assert stats["max_moment_residual"] <= 1e-12 * R**2


def test_batched_match_agrees_with_scalar_path():
    cfg = mixed_match_config(indefinite=False)
    rng = np.random.default_rng(42)
    # (theta, y', y'', the error the checks' order gives, None for a match)
    named = [
        (0.4, [0.3, 0.1j], [0.2], None),  # ordinary
        (1.0, [0.0, 0.0], [0.0], "DegenerateBranch"),  # zero section
        (0.0, [1.0, 0.0], [0.0], "DegenerateBranch"),  # y'' = 0 with chi >= 0
        (0.0, [0.0, 0.0], [1.0], "DegenerateBranch"),  # y' = 0 with chi <= 0
        (0.0, [2.0, 0.0], [1.0], "OutOfDomain"),  # |v| > domain_radius
        (0.0, [2.0, 0.0], [0.0], "OutOfDomain"),  # |v| > domain_radius and y'' = 0 with chi >= 0
        (0.0, [0.05, 0.0], [0.9], "OutOfDomain"),  # |chi| >= epsilon
        (0.0, [1e-170, 0.0], [1e-170], "DegenerateBranch"),  # both norms underflow to 0
    ]
    cases = [case[:3] for case in named]
    for _ in range(200):
        scale = rng.uniform(0.0, 0.25)
        cases.append((rng.uniform(0.0, 2.0 * np.pi), scale * complex_gaussian(rng, 2),
                      scale * complex_gaussian(rng, 1)))
    points = [FiberPoint(BasePoint(theta, 0.0), np.array(yp, dtype=complex), np.array(ys, dtype=complex))
              for theta, yp, ys in cases]
    run_cfg = RunConfig(model=cfg, phi_spec=None, seed=7, digest="mixed")
    doc = _match_document(run_cfg, 7, points, random_n=0, blowup_rays=0)
    assert [e.get("error") for e in doc["points"][:len(named)]] == [case[3] for case in named]
    messages = _assert_matches_scalar_path(cfg, doc["points"])
    for fragment in ("zero section", "|y''|^2 = 0", "|y'|^2 = 0", "exceeds domain_radius",
                     "leaves the wall interval", "its digits are lost"):
        assert any(fragment in m for m in messages), fragment
    assert doc["matching_stats"]["n_points"] - doc["matching_stats"]["n_errors"] >= 100
    # a metric indefinite between the validation thetas refuses the whole pass, not one lane
    run_cfg = RunConfig(model=mixed_match_config(), phi_spec=None, seed=7, digest="mixed")
    with pytest.raises(ConfigInvalid) as got:
        _match_document(run_cfg, 7, points, random_n=0, blowup_rays=0)
    assert str(got.value) == MIXED_MATCH_REFUSAL

    # seeded --random samples go through the same batch path
    run_cfg = load_run_config(DEFAULT)
    zero = FiberPoint(BasePoint(0.0, 0.0), np.zeros(1), np.zeros(1))
    doc = _match_document(run_cfg, 3, [zero], random_n=200, blowup_rays=0)
    assert len(doc["points"]) == 201 and doc["points"][0]["error"] == "DegenerateBranch"
    _assert_matches_scalar_path(run_cfg.model, doc["points"])

    # and on a dense Hermitian metric field, with a reference-pairing term
    terms = [PerturbationTerm(mixed_pow=1, coeff=(0.1,)),
             PerturbationTerm(ref_inner_pow=2, coeff=(0.05, 0.02), ref_section=np.array([1.0, 0.5j]))]
    dense = make_config(2, 2, metric_field=dense_metric(2, 2, rng), terms=terms)
    doc = _match_document(RunConfig(model=dense, phi_spec=None, seed=7, digest="dense"), 5, [], random_n=200,
                          blowup_rays=0)
    _assert_matches_scalar_path(dense, doc["points"])
    assert sum("rho" in entry for entry in doc["points"]) >= 100


@pytest.mark.filterwarnings("error")
def test_random_draws_replace_wall_rejects():
    # on this config most draws leave the wall interval and are redrawn
    run_cfg = RunConfig(model=mixed_match_config(indefinite=False), phi_spec=None, seed=7, digest="mixed")
    doc = _match_document(run_cfg, 7, [], random_n=200, blowup_rays=0)
    errors = [e.get("error") for e in doc["points"]]
    assert len(errors) == 200 and None in errors and "OutOfDomain" not in errors
    assert all(abs(e["matched"]["t"]) < 0.5 for e in doc["points"] if "matched" in e)
    # a metric the certificate refuses is refused before any draw, so no draw has a NaN norm
    run_cfg = RunConfig(model=mixed_match_config(), phi_spec=None, seed=7, digest="mixed")
    with pytest.raises(ConfigInvalid) as got:
        _match_document(run_cfg, 7, [], random_n=200, blowup_rays=0)
    assert str(got.value) == MIXED_MATCH_REFUSAL


def _refused_by_the_certificate(argv, tmp_path, capsys):
    """main(argv) on the Fourier preset made indefinite between the validation thetas: its one stderr line."""
    doc = json.loads(Path(QUARTIC).read_text())
    _non_pd_between_grid(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main([*argv, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invalid config: config failed validation: PositivityViolation: "
                            "g_prime(1.1290098598838318) is not positive definite\n")


def test_scan_on_a_grid_between_metric_faults_is_refused(tmp_path, capsys):
    # the 64 scan thetas are the validation thetas, where g' is positive definite, but the field is not
    _refused_by_the_certificate(["scan", "--theta-steps", "64", "--t-steps", "3", "--samples", "4"], tmp_path,
                                capsys)


def test_random_draws_on_an_indefinite_metric_are_refused(tmp_path, capsys):
    # refused at load: no draw lands where g' is indefinite, and no output is written
    _refused_by_the_certificate(["match", "--random", "50"], tmp_path, capsys)


def test_refused_metric_has_one_message_under_every_command(tmp_path):
    # a g' coefficient that is not Hermitian: validation writes check_metrics' message, at load
    doc = presets.fourier_metric_config(2, 1)
    doc["metrics"]["g_prime"][0]["cos"] = [[2.0, 0.5], [0.0, 2.0]]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    src = str(Path(__file__).resolve().parent.parent / "src")
    point = '{"theta": 0.5, "y_prime": [[0.1, 0], [0, 0]], "y_second": [[0.2, 0]]}'
    for argv in (["verify"], ["scan"], ["match", "--point", point], ["report"]):
        proc = subprocess.run([sys.executable, "-m", "flipq.cli", *argv, "--config", str(path)],
                              capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("invalid config: config failed validation: HermitianViolation: g_prime harmonic 0 "
                               "cos coefficient is not Hermitian (tolerance 1e-14)\n")


def test_mis_shaped_harmonic_has_one_message(tmp_path, capsys):
    # a cos-only g'' harmonic of the wrong size is one issue: the zero sin filled in beside it is not
    # reported again
    doc = presets.fourier_metric_config(2, 1)
    doc["metrics"]["g_second"][0]["cos"] = [[1.5, 0], [0, 1.5]]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "invalid config: config failed validation: MetricShapeViolation: "
                                                "g_second harmonic 0 has shape (2, 2), expected (1, 1)\n")


def test_loading_a_config_does_not_import_numpy_ma():
    # numpy.ma takes a good share of start-up to import (cli._median exists to avoid it); a fresh
    # interpreter that loads the default fixture through flipq.cli must not have imported it
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; from flipq.cli import load_run_config; load_run_config(sys.argv[1]); "
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, DEFAULT], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_metric_with_a_huge_harmonic_passes_by_the_grid_free_bound(tmp_path, capsys):
    # (2 + cos(2^62 theta)) I: the Weyl bound 2 - 1 > 0 certifies it, whatever its Lipschitz constant
    doc = presets.fourier_metric_config(2, 1)
    doc["metrics"]["g_prime"] = [{"n": 0, "cos": [[2, 0], [0, 2]]}, {"n": 2**62, "cos": [[1, 0], [0, 1]]}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--samples", "200", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_random_domain_batch_scales_every_draw_to_its_radius():
    cfg = mixed_match_config(indefinite=False)
    thetas, y_prime, y_second = random_domain_batch(np.random.default_rng(5), cfg, 4000)
    # the same stream, scaled by radius / sqrt(g1 + g2)
    rng = np.random.default_rng(5)
    ref_thetas = rng.uniform(0.0, 2.0 * np.pi, 4000)
    raw_prime, raw_second = complex_gaussian(rng, (4000, 2)), complex_gaussian(rng, (4000, 1))
    g1, g2 = fiber_norms_batch(cfg, ref_thetas, raw_prime, raw_second)
    radii = cfg.domain_radius * rng.uniform(0.0, 1.0, 4000) ** (1.0 / 6.0)
    assert np.array_equal(thetas, ref_thetas)
    scale = radii / np.sqrt(g1 + g2)
    assert np.array_equal(y_prime, raw_prime * scale[:, None])
    assert np.array_equal(y_second, raw_second * scale[:, None])
    g1, g2 = fiber_norms_batch(cfg, thetas, y_prime, y_second)
    assert np.allclose(np.sqrt(g1 + g2), radii, rtol=1e-13, atol=0.0)


def test_blowup_rays_solve_the_renormalized_quadratic(cfg_fourier_quartic):
    # rho^2 = s solves a' s^2 + 2 c s - a'' = 0 with a', a'', c taken by the
    # scalar path at v = r w and divided by r^2
    cfg = cfg_fourier_quartic
    run_cfg = RunConfig(model=cfg, phi_spec=None, seed=5, digest="rays")
    rays = _match_document(run_cfg, 5, [], random_n=0, blowup_rays=6)["blowup_rays"]
    assert len(rays) == 6
    for ray in rays:
        w_prime = np.array([complex(*z) for z in ray["w_prime"]])
        w_second = np.array([complex(*z) for z in ray["w_second"]])
        for r, deviation in zip(ray["r_grid"], ray["rho_deviation"], strict=True):
            p = FiberPoint(BasePoint(ray["theta"], 0.0), r * w_prime, r * w_second)
            chi, (g1, g2) = chi_eval(cfg, p), fiber_norms(cfg, p)
            ap, app, c = g1 / r**2, g2 / r**2, chi / r**2
            disc = np.sqrt(c * c + ap * app)
            s = app / (c + disc) if c > 0 else (disc - c) / ap
            assert abs(deviation - abs(np.sqrt(s) - 1.0)) <= 1e-15


def test_scan_blocks_match_per_row_reference(tmp_path):
    path = tmp_path / "fourier.json"
    path.write_text(json.dumps(presets.fourier_metric_config(2, 1)))
    run_cfg = load_run_config(str(path))
    cfg = run_cfg.model
    k = 1000
    rows_per_block = kernels.KERNEL_LANES // k
    table = run_scan(run_cfg, 11, 3, 3, k)
    assert len(table) % rows_per_block != 0
    # one stream, drawn row by row in grid order
    rng = np.random.default_rng(11)
    for theta, t, residual, n in zip(table.theta, table.t, table.mean_level_residual, table.n_stable_samples):
        y_prime = complex_gaussian(rng, (k, cfg.r_prime))
        y_second = complex_gaussian(rng, (k, cfg.r_second))
        thetas = np.full(k, theta)
        ts = np.full(k, t)
        rho = level_rho_batch(cfg, thetas, ts, y_prime, y_second)
        resid = np.abs(moment_value_batch(cfg, thetas, ts, y_prime * rho[:, None], y_second / rho[:, None]))
        assert residual == float(resid.mean())
        assert n == k



def test_scan_evaluates_trig_on_row_thetas(tmp_path, monkeypatch):
    # each pass's harmonic table evaluates cos/sin on its rows' thetas and repeats them per sample,
    # so _evaluate sees row-length arrays; test_scan_blocks_match_per_row_reference checks the bits
    path = tmp_path / "fourier.json"
    path.write_text(json.dumps(presets.fourier_metric_config(2, 1)))
    run_cfg = load_run_config(str(path))
    evaluated = []
    evaluate = kernels.Harmonics._evaluate

    def recorded(table, n, sine):
        evaluated.append(len(table.thetas))
        weight = evaluate(table, n, sine)
        assert len(weight) == len(table) == table.repeat * len(table.thetas)
        return weight

    monkeypatch.setattr(kernels.Harmonics, "_evaluate", recorded)
    monkeypatch.setattr(kernels, "KERNEL_LANES", 4096)  # read at call time
    k = 1000  # 4 rows per pass: 9 rows take passes of 4, 4 and 1 rows
    table = run_scan(run_cfg, 11, 3, 3, k)
    assert len(table) == 9
    # g' has cos theta, g'' sin theta: two weights per pass, each of the pass's row count
    assert evaluated == [4, 4, 4, 4, 1, 1]


def test_scan_sample_count_above_the_lane_cap(tmp_path, monkeypatch):
    # k > KERNEL_LANES: every pass holds one row, drawn in one call
    path = tmp_path / "fourier.json"
    path.write_text(json.dumps(presets.fourier_metric_config(2, 1)))
    run_cfg = load_run_config(str(path))
    cfg = run_cfg.model
    monkeypatch.setattr(kernels, "KERNEL_LANES", 64)  # read at call time
    k = kernels.KERNEL_LANES + 3
    table = run_scan(run_cfg, 13, 2, 2, k)
    rng = np.random.default_rng(13)
    for theta, t, residual, n in zip(table.theta, table.t, table.mean_level_residual, table.n_stable_samples):
        y_prime = complex_gaussian(rng, (k, cfg.r_prime))
        y_second = complex_gaussian(rng, (k, cfg.r_second))
        thetas = np.full(k, theta)
        ts = np.full(k, t)
        rho = level_rho_batch(cfg, thetas, ts, y_prime, y_second)
        resid = np.abs(moment_value_batch(cfg, thetas, ts, y_prime * rho[:, None], y_second / rho[:, None]))
        assert residual == float(resid.mean())
        assert n == k


DRAW_SEEDS = (0, 3, 7, 2**32 + 5)


@pytest.mark.parametrize("shape", [1, 3, (1, 1), (5, 2), (4, 1), (2, 3, 2)])
def test_complex_gaussian_is_two_standard_normal_draws(shape):
    for seed in DRAW_SEEDS:
        out = complex_gaussian(np.random.default_rng(seed), shape)
        rng = np.random.default_rng(seed)
        expected = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows, k, r_prime, r_second",
                         [(1, 1, 1, 1), (3, 5, 2, 1), (4, 7, 3, 3), (1, 6, 2, 1), (5, 1, 1, 1), (4, 2, 1, 2)])
def test_complex_gaussian_rows_is_the_per_row_stream(rows, k, r_prime, r_second):
    # bitwise the stream of rows successive complex_gaussian (k, r'), (k, r'') pairs
    for seed in DRAW_SEEDS:
        batched = np.random.default_rng(seed)
        y_prime, y_second = complex_gaussian_rows(batched, rows, k, r_prime, r_second)
        assert y_prime.shape == (rows * k, r_prime) and y_second.shape == (rows * k, r_second)
        rng = np.random.default_rng(seed)
        for row in range(rows):
            lanes = slice(row * k, (row + 1) * k)
            assert y_prime[lanes].tobytes() == complex_gaussian(rng, (k, r_prime)).tobytes()
            assert y_second[lanes].tobytes() == complex_gaussian(rng, (k, r_second)).tobytes()
        # both leave the generator at the same place in the stream
        assert batched.standard_normal() == rng.standard_normal()



@pytest.mark.parametrize("source", ["fourier", QUARTIC])
def test_blowup_directions_match_per_ray_unit_directions(source, tmp_path):
    # the rays normalise in one batch; each equals random_unit_direction on its own stream
    if source == "fourier":
        path = tmp_path / "fourier.json"
        path.write_text(json.dumps(presets.fourier_metric_config(2, 1)))
        source = str(path)
    cfg = load_run_config(source).model
    rays = _blowup_rays(cfg, 9, 64)
    for i, ray_seed in enumerate(np.random.SeedSequence(10).spawn(64)):
        rng = np.random.default_rng(ray_seed)
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        w_prime, w_second = random_unit_direction(rng, cfg, theta)
        assert rays.thetas[i] == theta
        assert np.array_equal(rays.w_prime[i], w_prime)
        assert np.array_equal(rays.w_second[i], w_second)
        # and both equal the raw draw divided by its one-lane norm
        rng = np.random.default_rng(ray_seed)
        rng.uniform()
        raw_prime, raw_second = complex_gaussian(rng, cfg.r_prime), complex_gaussian(rng, cfg.r_second)
        g1, g2 = fiber_norms_batch(cfg, np.array([theta]), raw_prime[None], raw_second[None])
        norm = float(np.sqrt(g1[0] + g2[0]))
        assert np.array_equal(w_prime, raw_prime / norm)
        assert np.array_equal(w_second, raw_second / norm)


def test_match_random_and_rays(tmp_path):
    code, doc = _run_json(
        ["match", "--config", QUARTIC, "--random", "32", "--blowup-rays", "4"],
        tmp_path,
    )
    assert code == 0
    stats = doc["matching_stats"]
    assert stats["n_points"] == 32 and stats["n_errors"] == 0
    assert stats["max_moment_residual"] <= 1e-12
    assert stats["max_orbit_deviation"] <= 1e-11
    assert len(doc["blowup_rays"]) == 4
    for ray in doc["blowup_rays"]:
        assert all(f >= 50.0 for f in ray["decay_factors"])
        assert ray["slope"] == pytest.approx(2.0, abs=0.2)
    assert stats["rho_boundary_slope"] == pytest.approx(2.0, abs=0.2)


def _rescaled_fourier(R: float) -> dict:
    """The Fourier 2/1 preset under v -> R v, t -> R^2 t: the same model at scale R."""
    doc = presets.fourier_metric_config(2, 1, epsilon=0.5 * R**2, domain_radius=0.8 * R)
    doc["perturbation"]["terms"][0]["coeff_fourier"] = [0.1 / R**2]
    return doc


def test_ray_documents_agree_on_every_rescaling(tmp_path):
    # the rays sit at domain_radius * BLOWUP_R_GRID, and rho is homogeneous of degree 0, so a ray's
    # direction is the same and its rho agrees to an ulp at 1 on every rescaling; the fields
    # derived from |rho - 1| agree as far as that ulp moves them
    def rays(R):
        config = tmp_path / f"rescaled_{R}.json"
        config.write_text(json.dumps(_rescaled_fourier(R)))
        code, doc = _run_json(["match", "--config", str(config), "--blowup-rays", "16", "--seed", "1"], tmp_path)
        assert code == 0
        return doc["blowup_rays"]

    ulp = 2.0**-52
    reference = rays(1)
    for R in (0.01, 1000):
        for want, got in zip(reference, rays(R), strict=True):
            assert {key: got[key] for key in ("theta", "w_prime", "w_second")} == \
                {key: want[key] for key in ("theta", "w_prime", "w_second")}
            assert got["r_grid"] == [0.8 * R * f for f in cli.BLOWUP_R_GRID]
            d, e = np.array(want["rho_deviation"]), np.array(got["rho_deviation"])
            assert np.abs(e - d).max() <= ulp
            # d_k / d_(k+1) moves by at most ulp / d_k + ulp / d_(k+1), relative, to first order
            rel = ulp / d[:-1] + ulp / d[1:]
            assert np.all(np.abs(np.array(got["decay_factors"]) / want["decay_factors"] - 1.0) <= 1.01 * rel)
            # the slope is sum_k c_k log d_k, with c_k the least-squares weights of log r
            x = np.log(want["r_grid"])
            c = (x - x.mean()) / ((x - x.mean()) ** 2).sum()
            assert abs(got["slope"] - want["slope"]) <= 1.01 * np.sum(np.abs(c) * ulp / d)


@pytest.mark.parametrize("domain_radius", [0.05, 0.09, 0.2])
def test_report_judges_a_domain_smaller_than_the_old_ray_grid(domain_radius, tmp_path):
    # with rays at absolute radii from 0.1 down, a domain below 0.1 failed its first ray
    config = tmp_path / "quartic.json"
    config.write_text(json.dumps(presets.quartic_config(domain_radius=domain_radius)))
    code, doc = _run_json(["report", "--config", str(config), "--seed", "1"], tmp_path)
    assert (code, doc["checks"]) == (0, {"conditions_ok": True, "scan_ok": True, "match_ok": True})


# -- report ----------------------------------------------------------------------


def test_report_quartic_passes(tmp_path):
    code, doc = _run_json(
        ["report", "--config", QUARTIC, "--theta-grid", "8", "--samples", "200",
         "--theta-steps", "2", "--t-steps", "3", "--scan-samples", "8",
         "--match-samples", "32", "--blowup-rays", "2"],
        tmp_path,
    )
    assert code == 0
    assert doc["pass"] is True
    assert doc["checks"] == {"conditions_ok": True, "scan_ok": True, "match_ok": True}
    assert len(doc["scan"]) == 6


@pytest.mark.parametrize("fixture, code", [(QUARTIC, 0), (DEFAULT, 0), (WRONG_SIGN, 1)])
def test_report_exit_code_on_shipped_fixtures(fixture, code, tmp_path):
    # default flags: the random match draws are the wall-admissible ones
    assert main(["report", "--config", fixture, "--out", str(tmp_path / "r.json")]) == code


def test_report_wrong_sign_fails(tmp_path):
    code, doc = _run_json(
        ["report", "--config", WRONG_SIGN, "--theta-grid", "4", "--samples", "100",
         "--theta-steps", "1", "--t-steps", "1", "--scan-samples", "4",
         "--match-samples", "8", "--blowup-rays", "1"],
        tmp_path,
    )
    assert code == 1
    assert doc["pass"] is False


# -- contracts -----------------------------------------------------------------


SMALL_REPORT = ["report", "--config", DEFAULT, "--theta-grid", "8", "--samples", "200", "--theta-steps", "2",
                "--t-steps", "3", "--scan-samples", "4", "--match-samples", "12", "--blowup-rays", "2"]
ALL_OK = {"conditions_ok": True, "scan_ok": True, "match_ok": True}


def _worst_at(monkeypatch, row: str, value: float) -> None:
    """Make the named contract row of the next CLI run read value as its worst."""
    if row in ("p1", "p2", "p3"):
        conditions = cli.verify_conditions
        monkeypatch.setattr(cli, "verify_conditions",
                            lambda *a, **k: conditions(*a, **k)._replace(**{f"worst_{row}": value}))
    elif row == "margin":
        rest = cli.rest_bound_scan
        monkeypatch.setattr(cli, "rest_bound_scan", lambda *a, **k: rest(*a, **k)._replace(margin_value=value))
    elif row == "scan_residual":
        residuals = cli._scan_residuals
        monkeypatch.setattr(cli, "_scan_residuals", lambda *a: residuals(*a)[:-1] + [value])
    else:
        key = {"match_errors": "n_errors", "moment_residual": "max_moment_residual",
               "orbit_deviation": "max_orbit_deviation"}[row]
        stats = cli.matching_stats
        monkeypatch.setattr(cli, "matching_stats", lambda *a: {**stats(*a), key: value})


# each gating row, the checks entry it belongs to, its bound, and a worst value past that bound
GATING_ROWS = [
    ("p1", "conditions_ok", 1e-4, 2e-4),
    ("p2", "conditions_ok", 1e-4, 2e-4),
    ("p3", "conditions_ok", 1e-4, 2e-4),
    ("scan_residual", "scan_ok", 1e-12, 2e-12),
    ("match_errors", "match_ok", 0, 1),
    ("moment_residual", "match_ok", 1e-12, 2e-12),
    ("orbit_deviation", "match_ok", 1e-11, 2e-11),
]


@pytest.mark.parametrize("row, check, bound, past", GATING_ROWS, ids=[r[0] for r in GATING_ROWS])
def test_each_gating_row_alone_fails_the_report(row, check, bound, past, monkeypatch, tmp_path):
    _worst_at(monkeypatch, row, past)
    code, doc = _run_json(SMALL_REPORT, tmp_path)
    assert (code, doc["pass"], doc["checks"]) == (1, False, {**ALL_OK, check: False})


@pytest.mark.parametrize("row, check, bound, past", GATING_ROWS, ids=[r[0] for r in GATING_ROWS])
def test_a_worst_value_at_its_bound_passes(row, check, bound, past, monkeypatch, tmp_path):
    _worst_at(monkeypatch, row, bound)
    code, doc = _run_json(SMALL_REPORT, tmp_path)
    assert (code, doc["pass"], doc["checks"]) == (0, True, ALL_OK)


def test_the_margin_row_does_not_gate(monkeypatch, tmp_path):
    _worst_at(monkeypatch, "margin", 1e3)
    code, doc = _run_json(SMALL_REPORT, tmp_path)
    assert (code, doc["pass"], doc["checks"]) == (0, True, ALL_OK)
    assert doc["rest_bound"]["margin_value"] == 1e3
    assert main(["verify", "--config", DEFAULT, "--theta-grid", "8", "--samples", "200", "--out",
                 str(tmp_path / "verify.json")]) == 0


@pytest.mark.parametrize("row", ["p1", "p2", "p3"])
def test_each_condition_row_alone_fails_verify(row, monkeypatch, tmp_path):
    _worst_at(monkeypatch, row, 2e-4)
    code, doc = _run_json(["verify", "--config", DEFAULT, "--theta-grid", "8", "--samples", "200"], tmp_path)
    assert (code, doc["pass"]) == (1, False)


@pytest.mark.parametrize("value, code", [(1e-12, 0), (2e-12, 1)], ids=["at bound", "past bound"])
def test_the_scan_row_sets_the_scan_exit_code(value, code, monkeypatch, tmp_path):
    _worst_at(monkeypatch, "scan_residual", value)
    argv = ["scan", "--config", DEFAULT, "--theta-steps", "2", "--t-steps", "3", "--samples", "4"]
    assert _run_json(argv, tmp_path)[0] == code


def test_report_without_match_samples_is_no_pass(tmp_path):
    # no lane matched: the moment and orbit rows have nothing to judge, which is no pass
    argv = [a if a != "12" else "0" for a in SMALL_REPORT]
    code, doc = _run_json(argv, tmp_path)
    assert doc["matching_stats"]["n_points"] == 0
    assert (code, doc["pass"], doc["checks"]) == (1, False, {**ALL_OK, "match_ok": False})


def test_wrong_sign_fails_only_its_p3_row(tmp_path):
    _, checks = cli.run_verify(load_run_config(WRONG_SIGN), 1, 200, 1e-3, 1e-4, theta_grid=8)
    assert [row.name for row in checks["conditions_ok"] if row.gates and not row.ok] == ["p3"]
    code, doc = _run_json(["report", "--config", WRONG_SIGN] + SMALL_REPORT[3:], tmp_path)
    assert (code, doc["checks"]) == (1, {**ALL_OK, "conditions_ok": False})


def test_output_refuses_non_finite_values(tmp_path):
    # a NaN fails the run (exit 1, one stderr line), never reaching the JSON as a NaN token
    with pytest.raises(FlipQError, match="non-finite"):
        _dump({"value": float("nan")}, str(tmp_path / "out.json"))
    assert not (tmp_path / "out.json").exists()



def _stats_from_match_doc(doc):
    """matching_stats recomputed from match's per-point entries and ray documents."""
    ok = [e for e in doc["points"] if "error" not in e]
    slopes = []
    for ray in doc["blowup_rays"]:
        deviation = ray["rho_deviation"]
        expected = None
        if all(x > 0 for x in deviation):
            expected = float(np.polyfit(np.log(ray["r_grid"]), np.log(deviation), 1)[0])
        assert ray["slope"] == expected
        if expected is not None:
            slopes.append(expected)
    return {
        "max_moment_residual": max((e["moment_residual"] for e in ok), default=None),
        "max_orbit_deviation": max((e["orbit_deviation"] for e in ok), default=None),
        "rho_boundary_slope": float(np.median(slopes)) if slopes else None,
        "n_points": len(doc["points"]),
        "n_errors": len(doc["points"]) - len(ok),
    }


@pytest.mark.parametrize("source, seed, match_samples, rays", [
    ("fourier", 3, 300, 16),
    (DEFAULT, 1, 200, 8),  # draws rejected and redrawn; rho = 1 on every ray, so no slope
    ("mixed", 7, 200, 0),  # most draws redrawn; no rays, so no slope
    (QUARTIC, 2, 0, 4),  # no lane at all, so no residual maximum
])
def test_report_stats_equal_stats_of_match_entries(source, seed, match_samples, rays, tmp_path):
    if source == "fourier":
        path = tmp_path / "fourier.json"
        path.write_text(json.dumps(presets.fourier_metric_config(2, 1)))
        run_cfg = load_run_config(str(path))
    elif source == "mixed":
        run_cfg = RunConfig(model=mixed_match_config(indefinite=False), phi_spec=None, seed=7, digest="mixed")
    else:
        run_cfg = load_run_config(source)
    args = cli.build_parser().parse_args(
        ["report", "--config", "unused", "--theta-grid", "4", "--samples", "50", "--theta-steps", "2",
         "--t-steps", "1", "--scan-samples", "4", "--match-samples", str(match_samples),
         "--blowup-rays", str(rays)])
    stats = cli.run_report(run_cfg, seed, args)[0]["matching_stats"]
    match_doc = _match_document(run_cfg, seed, [], match_samples, rays)
    assert stats == match_doc["matching_stats"] == _stats_from_match_doc(match_doc)
    if source == DEFAULT:
        assert stats["rho_boundary_slope"] is None and stats["max_moment_residual"] is not None
    if source == "mixed":
        assert stats["n_points"] == 200 and stats["rho_boundary_slope"] is None
        # with the metric made indefinite between the validation thetas, report refuses the config
        refused = RunConfig(model=mixed_match_config(), phi_spec=None, seed=7, digest="mixed")
        with pytest.raises(ConfigInvalid) as got:
            cli.run_report(refused, seed, args)
        assert str(got.value) == MIXED_MATCH_REFUSAL
    if source == QUARTIC:
        assert stats["max_moment_residual"] is None and stats["max_orbit_deviation"] is None
        assert stats["n_points"] == 0 and stats["rho_boundary_slope"] is not None


# -- determinism ------------------------------------------------------------------


def _bytes_of(args, tmp_path, name):
    out = tmp_path / name
    assert main(args + ["--out", str(out)]) in (0, 1)
    return out.read_bytes()


def test_verify_deterministic(tmp_path):
    args = ["verify", "--config", QUARTIC, "--seed", "5", "--theta-grid", "8", "--samples", "100"]
    assert _bytes_of(args, tmp_path, "a.json") == _bytes_of(args, tmp_path, "b.json")


def test_scan_deterministic_and_thread_independent(tmp_path):
    base = ["scan", "--config", QUARTIC, "--seed", "5", "--theta-steps", "3",
            "--t-steps", "3", "--samples", "16"]
    a = _bytes_of(base, tmp_path, "a.json")
    b = _bytes_of(base, tmp_path, "b.json")
    c = _bytes_of(base + ["--threads", "4"], tmp_path, "c.json")
    assert a == b == c
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    main(base + ["--csv", str(csv1), "--out", str(tmp_path / "x.json")])
    main(base + ["--csv", str(csv2), "--out", str(tmp_path / "y.json")])
    assert csv1.read_bytes() == csv2.read_bytes()


def test_match_deterministic(tmp_path):
    args = ["match", "--config", QUARTIC, "--seed", "5", "--random", "16", "--blowup-rays", "2"]
    assert _bytes_of(args, tmp_path, "a.json") == _bytes_of(args, tmp_path, "b.json")


def test_seed_changes_output(tmp_path):
    a = _bytes_of(["match", "--config", QUARTIC, "--seed", "1", "--random", "8"], tmp_path, "a.json")
    b = _bytes_of(["match", "--config", QUARTIC, "--seed", "2", "--random", "8"], tmp_path, "b.json")
    assert a != b

"""CLI contract: outputs, determinism, and the 0/1/2 exit-code scheme."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import mixed_match_config
from flipq import (
    BasePoint,
    FiberPoint,
    FlipQError,
    chi_eval,
    fiber_norms,
    matching_map,
    presets,
    solve_rho,
)
from flipq.cli import _dump, main, run_match, run_scan
from flipq.config_io import RunConfig, load_run_config
from flipq.kernels import BLOCK_LANES
from flipq.quotient import level_rho_batch, moment_value_batch
from flipq.sampling import complex_gaussian

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


@pytest.mark.parametrize(
    "edit, argv, code, message",
    [
        # non-finite values
        (_set(["metrics", "g_prime", 0, 0], NAN), ["verify"], 2, "MetricFiniteViolation"),
        (_set(["metrics", "g_second", 0, 0], INF), ["report"], 2, "MetricFiniteViolation"),
        (_set(["epsilon"], INF), ["verify"], 2, "EpsilonViolation"),
        (_set(["domain_radius"], NAN), ["verify"], 2, "DomainRadiusViolation"),
        (_set(["perturbation", "terms", 0, "coeff_fourier"], [0.1, NAN]), ["report"], 2,
         "PerturbationCoefficientViolation"),
        (_add_ref_term([NAN]), ["verify"], 2, "ReferenceSectionViolation"),
        (_set(["phi"], {"kind": "quadratic", "coeff_prime": NAN}), ["verify"], 2, "phi.coeff_prime"),
        # mistyped values
        (_set(["ranks", "r_prime"], "two"), ["verify"], 2, "ranks.r_prime must be an integer"),
        (_set(["ranks", "r_second"], True), ["verify"], 2, "ranks.r_second must be an integer"),
        (_set(["ranks"], [1, 1]), ["verify"], 2, "ranks must be an object"),
        (_set(["epsilon"], "0.5"), ["verify"], 2, "epsilon must be a number"),
        (_set(["perturbation", "terms", 0, "coeff_fourier"], "abc"), ["verify"], 2,
         "coeff_fourier must be a list"),
        (_set(["perturbation", "terms", 0, "coeff_fourier"], ["abc"]), ["verify"], 2,
         "coeff_fourier entry must be a number"),
        (_set(["perturbation", "terms", 0, "generators", "mixed"], 1.5), ["verify"], 2,
         "generator mixed must be an integer"),
        (_set(["phi"], "graph"), ["verify"], 2, "phi must be an object"),
        (_set(["seed"], -5), ["verify"], 2, "seed must be >= 0"),
        (_set(["seed"], 1.5), ["report"], 2, "seed must be an integer"),
        # a check that fails mid-run: the blowup rays start at r = 0.1
        (_set(["domain_radius"], 0.05), ["match", "--blowup-rays", "1"], 1, "OutOfDomain"),
        (_set(["domain_radius"], 0.05), ["report", *TINY_REPORT], 1, "OutOfDomain"),
        # a radius whose square overflows
        (_set(["domain_radius"], 1e200), ["verify"], 2, "DomainRadiusViolation"),
        (_set(["domain_radius"], 1e200), ["report", *TINY_REPORT], 2, "DomainRadiusViolation"),
        # metric matrices that are ragged, not square, or have an empty row
        (_set(["metrics", "g_prime"], [[1, 0], [0]]), ["verify"], 2, "expected a non-empty square matrix"),
        (_set(["metrics", "g_prime"], [[1, 2]]), ["verify"], 2, "expected a non-empty square matrix"),
        (_set(["metrics", "g_second"], [[]]), ["verify"], 2, "expected a non-empty square matrix"),
        # non-finite --point values
        (_keep, ["match", "--point", '{"theta": NaN, "y_prime": [[0.1, 0]], "y_second": [[0.2, 0]]}'], 2,
         "must be finite"),
        (_keep, ["match", "--point", '{"theta": 0.5, "y_prime": [[Infinity, 0]], "y_second": [[0.2, 0]]}'], 2,
         "must be finite"),
        # a --point payload that is not an object
        (_keep, ["match", "--point", "[1]"], 2, "bad --point payload"),
        # a wall interval whose width 2 epsilon overflows
        (_set(["epsilon"], 1e308), ["verify"], 2, "EpsilonViolation"),
        (_set(["epsilon"], 1e308), ["report", *TINY_REPORT], 2, "EpsilonViolation"),
        # a wall interval so thin that no random draw lands inside it
        (_set(["epsilon"], 1e-9), ["match", "--random", "4"], 1,
         "random draws still leave the wall interval"),
        # JSON integers past the float range
        (_set(["epsilon"], 10**400), ["verify"], 2, "epsilon is an integer outside the float range"),
        (_set(["metrics", "g_prime", 0, 0], 10**400), ["verify"], 2, "outside the float range"),
        (_set(["perturbation", "terms", 0, "coeff_fourier"], [0.1, -10**400]), ["report", *TINY_REPORT], 2,
         "coeff_fourier entry is an integer outside the float range"),
        (_set(["phi"], {"kind": "quadratic", "coeff_prime": 10**400}), ["verify"], 2,
         "phi.coeff_prime is an integer outside the float range"),
        (_set(["perturbation", "terms", 0, "generators", "mixed"], 10**400), ["verify"], 2,
         "generator mixed must fit in a signed 64-bit integer"),
        (_fourier_harmonic(2**63), ["verify"], 2, "g_prime n must fit in a signed 64-bit integer"),
        # a metric positive definite on the validation grid but not between its points
        (_non_pd_between_grid, ["verify", "--samples", "200"], 2, "is not positive definite"),
        (_non_pd_between_grid, ["report", *TINY_REPORT], 2, "is not positive definite"),
        (_non_pd_between_grid, ["match", "--blowup-rays", "8"], 2, "is not positive definite"),
    ],
)
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


def test_seed_past_64_bits_runs(tmp_path, capsys):
    # numpy's generators take a seed of any size; only exponents and harmonics are 64-bit
    doc = json.loads(Path(QUARTIC).read_text())
    doc["seed"] = 2**64 + 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(path), "--samples", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 2**64 + 1


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
        assert entry["rho"] == pytest.approx(sol.rho, rel=1e-14, abs=0.0)
        assert entry["newton_iterations"] == sol.iterations
    return messages


def test_batched_match_agrees_with_scalar_path():
    cfg = mixed_match_config()
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
        (31.5 * np.pi / 32, [0.3, 0.0], [0.2], "ConfigInvalid"),  # metric not positive definite
    ]
    cases = [case[:3] for case in named]
    for _ in range(200):
        scale = rng.uniform(0.0, 0.25)
        cases.append((rng.uniform(0.0, 2.0 * np.pi), scale * complex_gaussian(rng, 2),
                      scale * complex_gaussian(rng, 1)))
    points = [FiberPoint(BasePoint(theta, 0.0), np.array(yp, dtype=complex), np.array(ys, dtype=complex))
              for theta, yp, ys in cases]
    run_cfg = RunConfig(model=cfg, phi_spec=None, seed=7, digest="mixed", raw={})
    doc = run_match(run_cfg, 7, points, random_n=0, blowup_rays=0)
    assert [e.get("error") for e in doc["points"][:8]] == [case[3] for case in named]
    messages = _assert_matches_scalar_path(cfg, doc["points"])
    for fragment in ("zero section", "y'' = 0", "y' = 0", "exceeds domain_radius",
                     "leaves the wall interval", "not positive definite"):
        assert any(fragment in m for m in messages), fragment
    assert doc["matching_stats"]["n_points"] - doc["matching_stats"]["n_errors"] >= 100

    # seeded --random samples go through the same batch path
    run_cfg = load_run_config(DEFAULT)
    zero = FiberPoint(BasePoint(0.0, 0.0), np.zeros(1), np.zeros(1))
    doc = run_match(run_cfg, 3, [zero], random_n=200, blowup_rays=0)
    assert len(doc["points"]) == 201 and doc["points"][0]["error"] == "DegenerateBranch"
    _assert_matches_scalar_path(run_cfg.model, doc["points"])


# a draw at such a theta has a NaN norm: no floating-point warning may escape
@pytest.mark.filterwarnings("error")
def test_random_draws_replace_wall_rejects_and_keep_metric_faults():
    # on this config most draws leave the wall interval and are redrawn; draws
    # at a theta where g' is not positive definite stay, as ConfigInvalid entries
    run_cfg = RunConfig(model=mixed_match_config(), phi_spec=None, seed=7, digest="mixed", raw={})
    doc = run_match(run_cfg, 7, [], random_n=200, blowup_rays=0)
    errors = [e.get("error") for e in doc["points"]]
    assert len(errors) == 200
    assert "ConfigInvalid" in errors and None in errors and "OutOfDomain" not in errors


def test_blowup_rays_solve_the_renormalized_quadratic(cfg_fourier_quartic):
    # rho^2 = s solves a' s^2 + 2 c s - a'' = 0 with a', a'', c taken by the
    # scalar path at v = r w and divided by r^2
    cfg = cfg_fourier_quartic
    run_cfg = RunConfig(model=cfg, phi_spec=None, seed=5, digest="rays", raw={})
    rays = run_match(run_cfg, 5, [], random_n=0, blowup_rays=6)["blowup_rays"]
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
    rows_per_block = BLOCK_LANES // k
    rows = run_scan(run_cfg, 11, 3, 3, k)
    assert len(rows) % rows_per_block != 0
    # one stream, drawn row by row in grid order
    rng = np.random.default_rng(11)
    for row in rows:
        y_prime = complex_gaussian(rng, (k, cfg.r_prime))
        y_second = complex_gaussian(rng, (k, cfg.r_second))
        thetas = np.full(k, row.theta)
        ts = np.full(k, row.t)
        rho = level_rho_batch(cfg, thetas, ts, y_prime, y_second)
        resid = np.abs(moment_value_batch(cfg, thetas, ts, y_prime * rho[:, None], y_second / rho[:, None]))
        assert row.mean_level_residual == float(resid.mean())
        assert row.n_stable_samples == k


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


def test_output_refuses_non_finite_values(tmp_path):
    # a NaN fails the run (exit 1, one stderr line), never reaching the JSON as a NaN token
    with pytest.raises(FlipQError, match="non-finite"):
        _dump({"value": float("nan")}, str(tmp_path / "out.json"))
    assert not (tmp_path / "out.json").exists()


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

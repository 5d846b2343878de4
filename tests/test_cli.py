"""CLI contract: outputs, determinism, and the 0/1/2 exit-code scheme."""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import make_config
from flipq import (
    BasePoint,
    FiberPoint,
    FlipQError,
    MetricFieldSpec,
    PerturbationTerm,
    matching_map,
    presets,
    solve_rho,
)
from flipq.cli import SCAN_BLOCK_LANES, main, run_match, run_scan
from flipq.config_io import RunConfig, load_run_config
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


def test_scan_zero_samples(tmp_path):
    code, doc = _run_json(
        ["scan", "--config", DEFAULT, "--theta-steps", "1", "--t-steps", "1", "--samples", "0"],
        tmp_path,
    )
    assert code == 0
    assert doc["scan"][0]["n_stable_samples"] == 0
    assert doc["scan"][0]["mean_level_residual"] == 0.0


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
    ],
)
def test_negative_count_flag_is_usage_error(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", QUARTIC, flag, "-1"])
    assert exc.value.code == 2
    # the rest-bound sample count must also be nonzero
    bound = "must be >= 1" if flag == "--samples" and command == "verify" else "must be >= 0"
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


def _mixed_match_config():
    # g'(theta) = (2 + cos theta + 2.5 sin 32 theta) I is positive definite on
    # the 64-point validation grid (where sin 32 theta = 0) but not between it
    metric = MetricFieldSpec.fourier(
        [(0, 2.0 * np.eye(2)), (1, np.eye(2)), (32, np.zeros((2, 2)), 2.5 * np.eye(2))],
        [(0, 1.5 * np.eye(1)), (1, np.zeros((1, 1)), 0.5 * np.eye(1))],
    )
    terms = [
        PerturbationTerm(mixed_pow=1, coeff=(0.1,)),
        PerturbationTerm(norm_prime_pow=2, coeff=(1.0,)),
        PerturbationTerm(norm_second_pow=2, coeff=(-1.0,)),
    ]
    return make_config(2, 1, epsilon=0.5, domain_radius=2.0, metric_field=metric, terms=terms)


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
    cfg = _mixed_match_config()
    rng = np.random.default_rng(42)
    cases = [
        (0.4, [0.3, 0.1j], [0.2]),  # ordinary
        (1.0, [0.0, 0.0], [0.0]),  # zero section
        (0.0, [1.0, 0.0], [0.0]),  # y'' = 0 with chi >= 0
        (0.0, [0.0, 0.0], [1.0]),  # y' = 0 with chi <= 0
        (0.0, [2.0, 0.0], [1.0]),  # |v| > domain_radius
        (0.0, [2.0, 0.0], [0.0]),  # |v| > domain_radius and y'' = 0 with chi >= 0
        (0.0, [0.05, 0.0], [0.9]),  # |chi| >= epsilon
        (31.5 * np.pi / 32, [0.3, 0.0], [0.2]),  # metric not positive definite
    ]
    for _ in range(200):
        scale = rng.uniform(0.0, 0.25)
        cases.append((rng.uniform(0.0, 2.0 * np.pi), scale * complex_gaussian(rng, 2),
                      scale * complex_gaussian(rng, 1)))
    points = [FiberPoint(BasePoint(theta, 0.0), np.array(yp, dtype=complex), np.array(ys, dtype=complex))
              for theta, yp, ys in cases]
    run_cfg = RunConfig(model=cfg, phi_spec=None, seed=7, digest="mixed", raw={})
    doc = run_match(run_cfg, 7, points, random_n=0, blowup_rays=0)
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


def test_scan_blocks_match_per_row_reference(tmp_path):
    path = tmp_path / "fourier.json"
    path.write_text(json.dumps(presets.fourier_metric_config(2, 1)))
    run_cfg = load_run_config(str(path))
    cfg = run_cfg.model
    k = 1000
    rows_per_block = SCAN_BLOCK_LANES // k
    rows = run_scan(run_cfg, 11, 3, 3, k)
    assert len(rows) % rows_per_block != 0
    seeds = np.random.SeedSequence(11).spawn(len(rows))
    for row, row_seed in zip(rows, seeds):
        rng = np.random.default_rng(row_seed)
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


def test_report_wrong_sign_fails(tmp_path):
    code, doc = _run_json(
        ["report", "--config", WRONG_SIGN, "--theta-grid", "4", "--samples", "100",
         "--theta-steps", "1", "--t-steps", "1", "--scan-samples", "4",
         "--match-samples", "8", "--blowup-rays", "1"],
        tmp_path,
    )
    assert code == 1
    assert doc["pass"] is False


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

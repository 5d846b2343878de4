"""Command line interface: verify | scan | match | report.

Outputs are machine readable (JSON reports, CSV scan tables) and byte
deterministic for a fixed config and seed: scan rows draw their samples from
one seeded stream, row by row in grid order, and rows are emitted in that
order.
Match and scan run as batch passes; --threads is accepted and ignored.
Exit codes: 0 pass, 1 check failure (also any other flipq error mid-run,
reported on one stderr line), 2 config or usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import kernels
from .config_io import RunConfig, load_run_config, parse_vector, phi_from_config
from .core import BasePoint, FiberPoint
from .errors import ConfigInvalid, ConfigParse, FlipQError, OutOfDomain
from .perturbation import (
    FD_STEP_RANGE,
    match_lanes,
    matching_errors,
    rescale_lanes,
    rest_bound_scan,
    verify_conditions,
    wall_error,
)
from .quotient import fiber_type, level_rho_batch, moment_value_batch
from .sampling import complex_gaussian, random_domain_batch, random_unit_direction

SCAN_RESIDUAL_TOL = 1e-12
MOMENT_RESIDUAL_TOL = 1e-12
ORBIT_DEVIATION_TOL = 1e-11
BLOWUP_R_GRID = (1e-1, 1e-2, 1e-3, 1e-4)
# Rounds of --random draws: each round redraws, from the same stream, the
# draws whose graph value left the wall interval.
MATCH_DRAW_ROUNDS = 100


@dataclass(frozen=True)
class ScanRow:
    theta: float
    t: float
    fiber_type: str
    n_stable_samples: int
    mean_level_residual: float


def _v2j(v):
    """Complex array (..., r) as nested lists of [re, im] floats."""
    v = np.asarray(v, dtype=complex)
    return np.stack([v.real, v.imag], axis=-1).tolist()


def _point_json(theta, t, y_prime_json, y_second_json) -> dict:
    return {"theta": float(theta), "t": float(t), "y_prime": y_prime_json, "y_second": y_second_json}


def _fiber_to_json(p: FiberPoint) -> dict:
    return _point_json(p.base.theta, p.base.t, _v2j(p.y_prime), _v2j(p.y_second))


def _dump(doc, out_path: str | None) -> None:
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as e:  # a non-finite value: fail the run, never write a NaN token
        raise FlipQError(f"output holds a non-finite value ({e})") from e
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def run_verify(run_cfg: RunConfig, seed: int, samples: int, fd_step: float, tol: float,
               theta_grid: int = 64) -> tuple[dict, bool]:
    cfg = run_cfg.model
    phi = phi_from_config(run_cfg)
    report = verify_conditions(cfg, phi, n_theta=theta_grid, fd_step=fd_step, tol=tol)
    rest = rest_bound_scan(cfg, n_samples=samples, seed=seed)
    doc = {
        "config_digest": run_cfg.digest,
        "seed": seed,
        "condition_report": {
            "p1_ok": report.p1_ok,
            "p2_ok": report.p2_ok,
            "p3_ok": report.p3_ok,
            "worst_p1": report.worst_p1,
            "worst_p2": report.worst_p2,
            "worst_p3": report.worst_p3,
            "samples": report.samples,
        },
        "rest_bound": {
            "empirical_M": rest.empirical_M,
            "max_ratio_point": _fiber_to_json(rest.max_ratio_point),
            "samples": rest.samples,
            "margin_value": rest.margin_value,
            "margin_bound": rest.margin_bound,
            "margin_ok": rest.margin_ok,
        },
        "pass": report.all_ok,
    }
    return doc, report.all_ok


def _scan_residuals(cfg, grid: list[tuple[float, float]], k: int, seed: int) -> list[float]:
    """Mean level residual per grid row over k samples; rows draw from one stream in grid order."""
    rng = np.random.default_rng(seed)
    rows_per_block = max(1, kernels.BLOCK_LANES // k)
    means: list[float] = []
    for start in range(0, len(grid), rows_per_block):
        block = range(start, min(start + rows_per_block, len(grid)))
        prime, second = [], []
        for _ in block:
            prime.append(complex_gaussian(rng, (k, cfg.r_prime)))
            second.append(complex_gaussian(rng, (k, cfg.r_second)))
        y_prime = np.concatenate(prime)
        y_second = np.concatenate(second)
        thetas = np.repeat([grid[i][0] for i in block], k)
        ts = np.repeat([grid[i][1] for i in block], k)
        rho = level_rho_batch(cfg, thetas, ts, y_prime, y_second)
        resid = np.abs(moment_value_batch(cfg, thetas, ts, y_prime * rho[:, None],
                                          y_second / rho[:, None]))
        means.extend(resid.reshape(len(block), k).mean(axis=1).tolist())
    return means


def run_scan(run_cfg: RunConfig, seed: int, theta_steps: int, t_steps: int,
             samples: int) -> list[ScanRow]:
    cfg = run_cfg.model
    thetas = np.linspace(0.0, 2.0 * np.pi, theta_steps, endpoint=False)
    ts = np.linspace(-cfg.epsilon, cfg.epsilon, t_steps + 2)[1:-1]
    # a symmetric grid is meant to hit the wall exactly
    ts[np.abs(ts) < 1e-15] = 0.0
    grid = [(float(th), float(t)) for th in thetas for t in ts]
    residuals = _scan_residuals(cfg, grid, samples, seed)
    return [
        ScanRow(th, t, fiber_type(BasePoint(th, t)).value, samples, resid)
        for (th, t), resid in zip(grid, residuals)
    ]


def _scan_csv(rows: list[ScanRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theta", "t", "fiber_type", "n_stable_samples", "mean_level_residual"])
    for r in rows:
        writer.writerow([r.theta, r.t, r.fiber_type, r.n_stable_samples, r.mean_level_residual])
    return buf.getvalue()


def _match_entries(cfg, thetas, y_prime, y_second) -> tuple[list[dict], np.ndarray]:
    """One match entry per lane (the matched point and its checks, or the error), and the graph values."""
    if len(thetas) == 0:
        return [], np.empty(0)
    m = match_lanes(cfg, thetas, y_prime, y_second, check_domain=False)
    errors = matching_errors(cfg, thetas, y_prime, y_second, m)
    resid = np.abs(moment_value_batch(cfg, thetas, m.t, m.out_prime, m.out_second))
    segre_in = y_prime[:, :, None] * y_second[:, None, :]
    segre_out = m.out_prime[:, :, None] * m.out_second[:, None, :]
    deviation = np.abs(segre_in - segre_out).max(axis=(1, 2))
    in_prime, in_second = _v2j(y_prime), _v2j(y_second)
    out_prime, out_second = _v2j(m.out_prime), _v2j(m.out_second)
    entries = []
    for i, err in enumerate(errors):
        err = err or wall_error(cfg, m.t[i])
        entry = {"input": _point_json(thetas[i], 0.0, in_prime[i], in_second[i])}
        if err is not None:
            entry.update(error=type(err).__name__, message=str(err))
        else:
            entry.update(
                rho=float(m.rho[i]),
                newton_iterations=int(m.iterations[i]),
                matched=_point_json(thetas[i], m.t[i], out_prime[i], out_second[i]),
                moment_residual=float(resid[i]),
                orbit_deviation=float(deviation[i]),
            )
        entries.append(entry)
    return entries, m.t


def _match_entries_with_draws(cfg, seed: int, lanes, random_n: int) -> list[dict]:
    """Match entries of the given lanes, then of random_n draws whose graph value lies in the wall interval.

    The first round matches the given lanes and random_n draws in one batch
    pass.  Each later round replaces the rejected draws from the same stream.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    entries: list[dict] = []
    fixed, wanted = len(lanes[0]), random_n
    for _ in range(MATCH_DRAW_ROUNDS):
        if wanted:
            lanes = [np.concatenate(pair) for pair in zip(lanes, random_domain_batch(rng, cfg, wanted))]
        batch, t = _match_entries(cfg, *lanes)
        # a NaN graph value (the metric fails at the draw's theta) is kept, as an error entry
        kept = ~(np.abs(t[fixed:]) >= cfg.epsilon)
        entries += batch[:fixed] + [e for e, keep in zip(batch[fixed:], kept) if keep]
        wanted -= int(kept.sum())
        if not wanted:
            return entries
        lanes, fixed = [lane[:0] for lane in lanes], 0
    raise OutOfDomain(f"{wanted} of {random_n} random draws still leave the wall interval "
                      f"(+-{cfg.epsilon}) after {MATCH_DRAW_ROUNDS} rounds")


def _blowup_rays(cfg, seed: int, n: int) -> list[dict]:
    """n rays, each drawn from its own spawned stream, solved at every BLOWUP_R_GRID radius in
    one batch pass; the first failing lane raises, in ray-major order."""
    draws = []
    for ray_seed in np.random.SeedSequence(seed + 1).spawn(n):
        rng = np.random.default_rng(ray_seed)
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        draws.append((theta, *random_unit_direction(rng, cfg, theta)))
    radii = np.array(BLOWUP_R_GRID)
    w_prime = np.array([d[1] for d in draws]).reshape(n, 1, cfg.r_prime)
    w_second = np.array([d[2] for d in draws]).reshape(n, 1, cfg.r_second)
    m = rescale_lanes(cfg, np.repeat([d[0] for d in draws], len(radii)),
                      (radii[:, None] * w_prime).reshape(-1, cfg.r_prime),
                      (radii[:, None] * w_second).reshape(-1, cfg.r_second), r2=np.tile(radii**2, n))
    deviations = np.abs(m.rho - 1.0).reshape(n, len(radii)).tolist()
    return [_ray_doc(*draw, residuals) for draw, residuals in zip(draws, deviations)]


def _ray_doc(theta, w_prime, w_second, residuals) -> dict:
    factors = [
        residuals[i] / residuals[i + 1] if residuals[i + 1] > 0 else None
        for i in range(len(residuals) - 1)
    ]
    finite = [x for x in residuals if x > 0]
    slope = None
    if len(finite) == len(residuals):
        slope = float(np.polyfit(np.log(BLOWUP_R_GRID), np.log(residuals), 1)[0])
    return {
        "theta": theta,
        "w_prime": _v2j(w_prime),
        "w_second": _v2j(w_second),
        "r_grid": list(BLOWUP_R_GRID),
        "rho_deviation": residuals,
        "decay_factors": factors,
        "slope": slope,
    }


def run_match(run_cfg: RunConfig, seed: int, points: list[FiberPoint],
              random_n: int, blowup_rays: int) -> dict:
    cfg = run_cfg.model
    lanes = (np.array([p.base.theta for p in points], dtype=float),
             np.array([p.y_prime for p in points], dtype=complex).reshape(len(points), cfg.r_prime),
             np.array([p.y_second for p in points], dtype=complex).reshape(len(points), cfg.r_second))
    entries = _match_entries_with_draws(cfg, seed, lanes, random_n)
    rays = _blowup_rays(cfg, seed, blowup_rays)
    ok_entries = [e for e in entries if "error" not in e]
    stats = {
        "max_moment_residual": max((e["moment_residual"] for e in ok_entries), default=None),
        "max_orbit_deviation": max((e["orbit_deviation"] for e in ok_entries), default=None),
        "rho_boundary_slope": _median_slope(rays),
        "n_points": len(entries),
        "n_errors": len(entries) - len(ok_entries),
    }
    return {
        "config_digest": run_cfg.digest,
        "seed": seed,
        "points": entries,
        "blowup_rays": rays,
        "matching_stats": stats,
    }


def _median_slope(rays: list[dict]):
    slopes = [r["slope"] for r in rays if r.get("slope") is not None]
    return float(np.median(slopes)) if slopes else None


def run_report(run_cfg: RunConfig, seed: int, args) -> tuple[dict, bool]:
    verify_doc, conditions_ok = run_verify(
        run_cfg, seed, args.samples, args.fd_step, args.tol, theta_grid=args.theta_grid
    )
    rows = run_scan(run_cfg, seed, args.theta_steps, args.t_steps, args.scan_samples)
    match_doc = run_match(run_cfg, seed, [], args.match_samples, args.blowup_rays)
    stats = match_doc["matching_stats"]
    scan_ok = all(r.mean_level_residual <= SCAN_RESIDUAL_TOL for r in rows)
    match_ok = (
        stats["n_errors"] == 0
        and stats["max_moment_residual"] is not None
        and stats["max_moment_residual"] <= MOMENT_RESIDUAL_TOL
        and stats["max_orbit_deviation"] <= ORBIT_DEVIATION_TOL
    )
    passed = bool(conditions_ok and scan_ok and match_ok)
    doc = {
        "config_digest": run_cfg.digest,
        "seed": seed,
        "condition_report": verify_doc["condition_report"],
        "rest_bound": verify_doc["rest_bound"],
        "scan": [vars(r) for r in rows],
        "matching_stats": stats,
        "checks": {
            "conditions_ok": bool(conditions_ok),
            "scan_ok": bool(scan_ok),
            "match_ok": bool(match_ok),
        },
        "pass": passed,
    }
    return doc, passed


def _parse_point(text: str, cfg) -> FiberPoint:
    try:
        doc = json.loads(text)
        theta = float(doc.get("theta", 0.0))
        y_prime = parse_vector(doc["y_prime"])
        y_second = parse_vector(doc["y_second"])
    except (json.JSONDecodeError, AttributeError, KeyError, TypeError, ValueError) as e:
        raise ConfigParse(f"bad --point payload: {e}") from e
    if not (np.isfinite(theta) and np.isfinite(y_prime).all() and np.isfinite(y_second).all()):
        raise ConfigParse("bad --point payload: theta and the vector entries must be finite")
    for name, v, rank in (("y_prime", y_prime, cfg.r_prime), ("y_second", y_second, cfg.r_second)):
        if v.shape[0] != rank:
            raise ConfigParse(f"bad --point payload: {name} has length {v.shape[0]}, expected {rank}")
    return FiberPoint(base=BasePoint(theta, 0.0), y_prime=y_prime, y_second=y_second)


def _non_negative_int(text: str) -> int:
    """argparse type for sample and step counts: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts that must not be empty: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for tolerances: a finite float > 0."""
    value = float(text)
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def _fd_step(text: str) -> float:
    """argparse type for --fd-step: a float inside FD_STEP_RANGE."""
    value = float(text)
    lo, hi = FD_STEP_RANGE
    if not (lo < value < hi):
        raise argparse.ArgumentTypeError(f"must lie in ({lo:g}, {hi:g}), got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flipq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")
        p.add_argument("--seed", type=_non_negative_int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=1, help="accepted and ignored")

    def verify_flags(p):
        p.add_argument("--samples", type=_positive_int, default=2000, help="rest-bound scan sample count")
        p.add_argument("--fd-step", type=_fd_step, default=1e-3, dest="fd_step")
        p.add_argument("--tol", type=_positive_float, default=1e-4)
        p.add_argument("--theta-grid", type=_positive_int, default=64, dest="theta_grid")

    p = sub.add_parser("verify", help="check the normalization conditions and the rest bound")
    common(p)
    verify_flags(p)

    p = sub.add_parser("scan", help="tabulate fiber types and level residuals over the base")
    common(p)
    p.add_argument("--theta-steps", type=_positive_int, default=8, dest="theta_steps")
    p.add_argument("--t-steps", type=_positive_int, default=5, dest="t_steps")
    p.add_argument("--samples", type=_positive_int, default=32)
    p.add_argument("--csv", default=None, help="also write the table as CSV here")

    p = sub.add_parser("match", help="rescale points onto the moment level set")
    common(p)
    p.add_argument("--point", action="append", default=[],
                   help='JSON fiber vector {"theta": .., "y_prime": [..], "y_second": [..]}')
    p.add_argument("--random", type=_non_negative_int, default=0, help="additionally match N seeded random points")
    p.add_argument("--blowup-rays", type=_non_negative_int, default=0, dest="blowup_rays",
                   help="sample R boundary directions and tabulate rho decay")

    p = sub.add_parser("report", help="full run: verify + scan + match statistics")
    common(p)
    verify_flags(p)
    p.add_argument("--theta-steps", type=_positive_int, default=8, dest="theta_steps")
    p.add_argument("--t-steps", type=_positive_int, default=5, dest="t_steps")
    p.add_argument("--scan-samples", type=_positive_int, default=32, dest="scan_samples")
    p.add_argument("--match-samples", type=_non_negative_int, default=200, dest="match_samples")
    p.add_argument("--blowup-rays", type=_non_negative_int, default=8, dest="blowup_rays")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run_cfg = load_run_config(args.config)
        seed = args.seed if args.seed is not None else run_cfg.seed

        if args.command == "verify":
            doc, ok = run_verify(run_cfg, seed, args.samples, args.fd_step, args.tol,
                                 theta_grid=args.theta_grid)
            _dump(doc, args.out)
            return 0 if ok else 1

        if args.command == "scan":
            rows = run_scan(run_cfg, seed, args.theta_steps, args.t_steps, args.samples)
            doc = {
                "config_digest": run_cfg.digest,
                "seed": seed,
                "scan": [vars(r) for r in rows],
            }
            if args.csv:
                with open(args.csv, "w") as f:
                    f.write(_scan_csv(rows))
            _dump(doc, args.out)
            ok = all(r.mean_level_residual <= SCAN_RESIDUAL_TOL for r in rows)
            return 0 if ok else 1

        if args.command == "match":
            points = [_parse_point(text, run_cfg.model) for text in args.point]
            doc = run_match(run_cfg, seed, points, args.random, args.blowup_rays)
            _dump(doc, args.out)
            return 0

        doc, ok = run_report(run_cfg, seed, args)
        _dump(doc, args.out)
        return 0 if ok else 1

    except ConfigParse as e:
        print(f"config parse error: {e}", file=sys.stderr)
        return 2
    except ConfigInvalid as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2
    except FlipQError as e:
        # a check that fails mid-run, e.g. a blowup ray leaving the fiber domain
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()

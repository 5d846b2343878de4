"""Command line interface: verify | scan | match | report.

Outputs are machine readable (JSON reports, CSV scan tables) and byte
deterministic for a fixed config and seed: scan rows draw their samples from
one seeded stream, row by row in grid order (each batch pass of rows takes
its samples in one draw of that stream), and rows are emitted in that order.
Match and scan run as batch passes; match and report compute matching_stats
from the lane arrays of one match pass and one ray pass, and only match
renders the per-point entries and ray documents; --random draws are kept
only if their graph value lies in the wall interval, before that one match
pass.  A scan is a ScanTable, one list per SCAN_COLUMNS name, from the
residual passes to the written bytes; --csv writes its columns to the file
through csv.writer, after the JSON document is formatted and before it is
written.  A document is written as pieces whose concatenation is
json.dumps(indent=2, sort_keys=True, allow_nan=False) of it, byte for byte:
json.dumps writes every value except a ScanTable under the top-level "scan"
key, whose rows one %-template writes lazily.  Every text that can raise is
formatted before the first byte is written, so a non-finite value fails the
run with nothing written.  --threads is accepted and ignored.
Exit codes: 0 pass, 1 check failure (also any other flipq error mid-run,
reported on one stderr line), 2 config or usage error (also an --out or --csv
path that cannot be written).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, fields
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import kernels
from .blowup import to_blowup_batch
from .config_io import RunConfig, _number, load_run_config, parse_vector, phi_from_config
from .core import BasePoint, FiberPoint
from .errors import ConfigInvalid, ConfigParse, DimensionMismatch, FlipQError, OutOfDomain
from .perturbation import (
    FD_STEP_RANGE,
    Contract,
    chi_parts_batch,
    condition_contracts,
    match_lanes,
    matching_errors,
    rescale_lanes,
    rest_bound_scan,
    verdict,
    verify_conditions,
)
from .quotient import fiber_type, level_rho_batch, moment_value_batch
from .sampling import complex_gaussian, complex_gaussian_rows, random_domain_batch

BLOWUP_R_GRID = (1e-1, 1e-2, 1e-3, 1e-4)  # the blowup rays' radii, as fractions of domain_radius
# Rounds of --random draws: each round redraws, from the same stream, the
# draws whose graph value left the wall interval.
MATCH_DRAW_ROUNDS = 100


@dataclass(frozen=True)
class ScanTable:
    """run_scan's grid rows as columns, one list per SCAN_COLUMNS name, in grid order.

    The float columns hold Python floats, so the JSON and CSV texts are those
    json.dumps and csv.writer give the row dicts; len() is the row count.
    """

    theta: list[float]
    t: list[float]
    fiber_type: list[str]
    n_stable_samples: list[int]
    mean_level_residual: list[float]

    def __len__(self) -> int:
        return len(self.theta)


SCAN_COLUMNS = tuple(field.name for field in fields(ScanTable))


def _v2j(v):
    """Complex array (..., r) as nested lists of [re, im] floats."""
    v = np.asarray(v, dtype=complex)
    return np.stack([v.real, v.imag], axis=-1).tolist()


def _point_json(theta, t, y_prime_json, y_second_json) -> dict:
    return {"theta": float(theta), "t": float(t), "y_prime": y_prime_json, "y_second": y_second_json}


def _fiber_to_json(p: FiberPoint) -> dict:
    return _point_json(p.base.theta, p.base.t, _v2j(p.y_prime), _v2j(p.y_second))


_JSON = {"indent": 2, "sort_keys": True, "allow_nan": False}
_escape = json.encoder.encode_basestring_ascii


# a row of the "scan" value, its separator from the previous row first
_SCAN_ROW = "%s{\n" + ",\n".join(f"      {_escape(key)}: %s" for key in sorted(SCAN_COLUMNS)) + "\n    }"


def _float_texts(column: list[float]) -> Iterator[str]:
    """The column's texts, lazily; each distinct nonzero float is formatted here, once.

    Zero is never memoized, because -0.0 == 0.0 and the two print apart.
    """
    texts = {x: float.__repr__(x) for x in set(column) - {0.0}}
    return (texts.get(x) or float.__repr__(x) for x in column)


def _memo_texts(column: list, text) -> Iterator[str]:
    """The column's texts, lazily; text runs here, once per distinct value."""
    texts = {x: text(x) for x in set(column)}
    return map(texts.__getitem__, column)


def _scan_rows(table: ScanTable) -> Iterator[str]:
    """The table's rows as json.dumps writes the "scan" value of an indent=2 document, lazily.

    Every text that can raise is formatted, and every float checked, before this
    returns; the rows are then produced one at a time, each after its separator.
    """
    columns, floats = [], []
    for key in sorted(SCAN_COLUMNS):
        column = getattr(table, key)
        if key == "fiber_type":
            columns.append(_memo_texts(column, _escape))
        elif key == "n_stable_samples":
            columns.append(_memo_texts(column, int.__repr__))
        else:
            floats.append(column)
            columns.append(_float_texts(column))
    if not all(map(math.isfinite, chain.from_iterable(floats))):
        # json.dumps meets the floats row by row, in key order: name the first non-finite one it meets
        refused = next(x for x in chain.from_iterable(zip(*floats)) if not math.isfinite(x))
        raise ValueError(f"Out of range float values are not JSON compliant: {float.__repr__(refused)}")
    separators = chain(("\n    ",), repeat(",\n    "))
    return map(_SCAN_ROW.__mod__, zip(separators, *columns))


def _json_pieces(doc) -> Iterable[str]:
    """Pieces whose concatenation is json.dumps(doc, indent=2, sort_keys=True, allow_nan=False).

    json.dumps writes each top-level value, re-indented one level (JSON text
    holds no raw newline), except a ScanTable under the top-level "scan" key,
    whose rows _scan_rows writes.  Everything that can raise runs before this
    returns.
    """
    if type(doc) is not dict or type(doc.get("scan")) is not ScanTable:
        return (json.dumps(doc, **_JSON),)

    def item(key) -> str:
        return _escape(key) + ": " + json.dumps(doc[key], **_JSON).replace("\n", "\n  ")

    # in key order, as json.dumps meets the values: the first refused value is the one it names
    keys = sorted(doc)
    at = keys.index("scan")
    head = "{\n  " + "".join(item(key) + ",\n  " for key in keys[:at]) + '"scan": ['
    rows = _scan_rows(doc["scan"])
    tail = ("\n  ]" if doc["scan"] else "]") + "".join(",\n  " + item(key) for key in keys[at + 1:]) + "\n}"
    return chain((head,), rows, (tail,))


def _write(pieces: Iterable[str], path: str | None) -> None:
    """pieces to path, or to stdout without one: the one place the CLI writes a document."""
    if not path:
        sys.stdout.writelines(pieces)
        return
    with open(path, "w") as f:
        f.writelines(pieces)


def _dump(doc, out_path: str | None, csv_path: str | None = None) -> None:
    """doc to out_path (stdout without one) and, with csv_path, its scan table to csv_path as CSV,
    both after every text of the document is formatted: a refused value writes neither."""
    try:
        pieces = _json_pieces(doc)
    except ValueError as e:  # a non-finite value: fail the run, never write a NaN token
        raise FlipQError(f"output holds a non-finite value ({e})") from e
    if csv_path:
        _write_scan_csv(doc["scan"], csv_path)
    _write(chain(pieces, ("\n",)), out_path)


def run_verify(run_cfg: RunConfig, seed: int, samples: int, fd_step: float, tol: float,
               theta_grid: int = 64) -> tuple[dict, dict[str, list[Contract]]]:
    cfg = run_cfg.model
    phi = phi_from_config(run_cfg)
    report = verify_conditions(cfg, phi, n_theta=theta_grid, fd_step=fd_step, tol=tol)
    rest = rest_bound_scan(cfg, n_samples=samples, seed=seed)
    # P1-P3 gate; the rest-bound margin is carried as a row that does not
    checks = {"conditions_ok": [*condition_contracts((report.worst_p1, report.worst_p2, report.worst_p3), tol),
                                Contract("margin", rest.margin_value, rest.margin_bound, gates=False)]}
    doc = {
        "config_digest": run_cfg.digest,
        "seed": seed,
        "condition_report": report._asdict(),
        "rest_bound": {**rest._asdict(), "max_ratio_point": _fiber_to_json(rest.max_ratio_point)},
        "pass": verdict(checks)[1],
    }
    return doc, checks


def _scan_residuals(cfg, thetas, ts, k: int, seed: int) -> list[float]:
    """Mean level residual per grid row (thetas[i], ts[i]) over k samples; rows draw from one
    stream in grid order."""
    rng = np.random.default_rng(seed)
    means: list[float] = []
    for block in kernels.lane_blocks(len(thetas), k):
        rows = len(thetas[block])
        y_prime, y_second = complex_gaussian_rows(rng, rows, k, cfg.r_prime, cfg.r_second)
        # both calls take one lane thetas array: the second reads the first one's table from kernels.harmonics' slot
        lane_thetas, lane_ts = np.repeat(thetas[block], k), np.repeat(ts[block], k)
        rho = level_rho_batch(cfg, lane_thetas, lane_ts, y_prime, y_second)
        resid = np.abs(moment_value_batch(cfg, lane_thetas, lane_ts, y_prime * rho[:, None],
                                          y_second / rho[:, None]))
        means.extend(resid.reshape(rows, k).mean(axis=1).tolist())
    return means


def run_scan(run_cfg: RunConfig, seed: int, theta_steps: int, t_steps: int,
             samples: int) -> ScanTable:
    cfg = run_cfg.model
    thetas = np.linspace(0.0, 2.0 * np.pi, theta_steps, endpoint=False)
    ts = np.linspace(-cfg.epsilon, cfg.epsilon, t_steps + 2)[1:-1]
    # a symmetric grid is meant to hit the wall exactly: snap its roundoff, relative to epsilon
    ts[np.abs(ts) < 1e-15 * cfg.epsilon] = 0.0
    grid_thetas, grid_ts = np.repeat(thetas, len(ts)), np.tile(ts, len(thetas))
    residuals = _scan_residuals(cfg, grid_thetas, grid_ts, samples, seed)
    t_list = ts.tolist()
    types = [fiber_type(BasePoint(0.0, t)).value for t in t_list]
    # the rows of one theta share its float, and the rows of one t share theirs
    return ScanTable(theta=[theta for theta in thetas.tolist() for _ in t_list], t=t_list * theta_steps,
                     fiber_type=types * theta_steps, n_stable_samples=[samples] * len(residuals),
                     mean_level_residual=residuals)


def _scan_contracts(table: ScanTable) -> list[Contract]:
    """scan's row: the worst mean level residual of its rows (a NaN one included), at 1e-12."""
    return [Contract("scan_residual", float(np.max(table.mean_level_residual)), 1e-12)]


def _write_scan_csv(table: ScanTable, path: str) -> None:
    """The table to path as CSV, row by row from its columns."""
    with open(path, "w") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(SCAN_COLUMNS)
        writer.writerows(zip(*(getattr(table, key) for key in SCAN_COLUMNS)))


class MatchPass(NamedTuple):
    """Lane arrays of the matched points: the inputs, the matching and its checks."""

    thetas: np.ndarray
    y_prime: np.ndarray
    y_second: np.ndarray
    t: np.ndarray
    rho: np.ndarray
    out_prime: np.ndarray
    out_second: np.ndarray
    errors: np.ndarray  # object: the lane's FlipQError from matching_errors, or None
    moment_residual: np.ndarray
    orbit_deviation: np.ndarray


def _match_pass(cfg, thetas, y_prime, y_second) -> MatchPass:
    """Match every lane in one batch pass and check it."""
    m = match_lanes(cfg, thetas, y_prime, y_second)
    errors = np.empty(len(thetas), dtype=object)
    errors[:] = matching_errors(cfg, m)
    resid = np.abs(moment_value_batch(cfg, thetas, m.t, m.out_prime, m.out_second))
    segre_in = y_prime[:, :, None] * y_second[:, None, :]
    segre_out = m.out_prime[:, :, None] * m.out_second[:, None, :]
    deviation = np.abs(segre_in - segre_out).max(axis=(1, 2))
    return MatchPass(thetas, y_prime, y_second, m.t, m.rho, m.out_prime, m.out_second,
                     errors, resid, deviation)


def _match_with_draws(cfg, seed: int, lanes, random_n: int) -> MatchPass:
    """The given lanes, then random_n draws whose graph value lies in the wall interval, matched.

    Each round draws the missing count from the same stream and keeps the
    draws whose graph value lies in the wall interval (a draw outside the
    fiber domain is kept, and its match reports the error); then one batch
    pass matches the given lanes and the kept draws.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    parts, wanted = [lanes], random_n
    for _ in range(MATCH_DRAW_ROUNDS):
        if not wanted:
            break
        draws = random_domain_batch(rng, cfg, wanted)
        kept = cfg.in_wall(chi_parts_batch(cfg, *draws)[0])
        parts.append([lane[kept] for lane in draws])
        wanted -= int(kept.sum())
    if wanted:
        raise OutOfDomain(f"{wanted} of {random_n} random draws still leave the wall interval "
                          f"(+-{cfg.epsilon}) after {MATCH_DRAW_ROUNDS} rounds")
    return _match_pass(cfg, *map(np.concatenate, zip(*parts)))


def _match_entries(p: MatchPass) -> list[dict]:
    """One match entry per lane: the matched point and its checks, or the error."""
    in_prime, in_second = _v2j(p.y_prime), _v2j(p.y_second)
    out_prime, out_second = _v2j(p.out_prime), _v2j(p.out_second)
    entries = []
    for i, err in enumerate(p.errors):
        entry = {"input": _point_json(p.thetas[i], 0.0, in_prime[i], in_second[i])}
        if err is not None:
            entry.update(error=type(err).__name__, message=str(err))
        else:
            entry.update(
                rho=float(p.rho[i]),
                matched=_point_json(p.thetas[i], p.t[i], out_prime[i], out_second[i]),
                moment_residual=float(p.moment_residual[i]),
                orbit_deviation=float(p.orbit_deviation[i]),
            )
        entries.append(entry)
    return entries


class RayPass(NamedTuple):
    """Lane arrays of the blowup rays: (n,) thetas, unit directions, and per radius |rho - 1|."""

    thetas: np.ndarray
    w_prime: np.ndarray
    w_second: np.ndarray
    radii: np.ndarray  # domain_radius * BLOWUP_R_GRID
    deviation: np.ndarray  # (n, len(radii))
    slope: list  # log-log slope of the deviation over the radii, None unless every deviation is > 0


def _blowup_rays(cfg, seed: int, n: int) -> RayPass:
    """n rays, each drawn from its own spawned stream, solved at every radius domain_radius *
    BLOWUP_R_GRID in one batch pass; the first failing lane raises, in ray-major order."""
    thetas = np.empty(n)
    w_prime = np.empty((n, cfg.r_prime), dtype=complex)
    w_second = np.empty((n, cfg.r_second), dtype=complex)
    for i, ray_seed in enumerate(np.random.SeedSequence(seed + 1).spawn(n)):
        rng = np.random.default_rng(ray_seed)
        thetas[i] = rng.uniform(0.0, 2.0 * np.pi)
        w_prime[i] = complex_gaussian(rng, cfg.r_prime)
        w_second[i] = complex_gaussian(rng, cfg.r_second)
    _, w_prime, w_second, _, _ = to_blowup_batch(cfg, thetas, w_prime, w_second)
    radii = cfg.domain_radius * np.array(BLOWUP_R_GRID)
    m = rescale_lanes(cfg, np.repeat(thetas, len(radii)),
                      (radii[:, None] * w_prime[:, None, :]).reshape(-1, cfg.r_prime),
                      (radii[:, None] * w_second[:, None, :]).reshape(-1, cfg.r_second))
    deviation = np.abs(m.rho - 1.0).reshape(n, len(radii))
    slope = [None] * n
    complete = np.flatnonzero((deviation > 0).all(axis=1))
    if len(complete):
        fit = np.polyfit(np.log(radii), np.log(deviation[complete]).T, 1)[0]
        for i, value in zip(complete.tolist(), fit.tolist()):
            slope[i] = value
    return RayPass(thetas, w_prime, w_second, radii, deviation, slope)


def _ray_docs(rays: RayPass) -> list[dict]:
    docs = []
    for i, residuals in enumerate(rays.deviation.tolist()):
        docs.append({
            "theta": float(rays.thetas[i]),
            "w_prime": _v2j(rays.w_prime[i]),
            "w_second": _v2j(rays.w_second[i]),
            "r_grid": rays.radii.tolist(),
            "rho_deviation": residuals,
            "decay_factors": [a / b if b > 0 else None for a, b in zip(residuals, residuals[1:])],
            "slope": rays.slope[i],
        })
    return docs


def _median(values: list[float]) -> float:
    """np.median of a non-empty list of floats, bit for bit; np.median would import numpy.ma,
    about 20 ms of a fresh interpreter."""
    ordered = sorted(values)
    half = len(ordered) // 2
    return ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2


def matching_stats(match: MatchPass, rays: RayPass) -> dict:
    """The matching_stats of match and report, from the lane arrays of the match and ray passes."""
    ok = np.array([e is None for e in match.errors], dtype=bool)
    slopes = [s for s in rays.slope if s is not None]
    return {
        "max_moment_residual": max(match.moment_residual[ok].tolist(), default=None),
        "max_orbit_deviation": max(match.orbit_deviation[ok].tolist(), default=None),
        "rho_boundary_slope": _median(slopes) if slopes else None,
        "n_points": len(ok),
        "n_errors": int(len(ok) - ok.sum()),
    }


def run_match(run_cfg: RunConfig, seed: int, points: list[FiberPoint], random_n: int,
              blowup_rays: int) -> tuple[MatchPass, RayPass]:
    """The match stage of match and report: the given points and random_n draws, then the rays."""
    cfg = run_cfg.model
    lanes = (np.array([p.base.theta for p in points], dtype=float),
             np.array([p.y_prime for p in points], dtype=complex).reshape(len(points), cfg.r_prime),
             np.array([p.y_second for p in points], dtype=complex).reshape(len(points), cfg.r_second))
    return _match_with_draws(cfg, seed, lanes, random_n), _blowup_rays(cfg, seed, blowup_rays)


def _match_doc(run_cfg: RunConfig, seed: int, match: MatchPass, rays: RayPass) -> dict:
    return {
        "config_digest": run_cfg.digest,
        "seed": seed,
        "points": _match_entries(match),
        "blowup_rays": _ray_docs(rays),
        "matching_stats": matching_stats(match, rays),
    }


def _match_contracts(stats: dict) -> list[Contract]:
    """report's match rows: no refused lane, then the matched lanes' worst residuals (None for no lane)."""
    return [Contract("match_errors", stats["n_errors"], 0),
            Contract("moment_residual", stats["max_moment_residual"], 1e-12),
            Contract("orbit_deviation", stats["max_orbit_deviation"], 1e-11)]


def run_report(run_cfg: RunConfig, seed: int, args) -> tuple[dict, dict[str, list[Contract]]]:
    doc, checks = run_verify(run_cfg, seed, args.samples, args.fd_step, args.tol, theta_grid=args.theta_grid)
    table = run_scan(run_cfg, seed, args.theta_steps, args.t_steps, args.scan_samples)
    stats = matching_stats(*run_match(run_cfg, seed, [], args.match_samples, args.blowup_rays))
    checks.update(scan_ok=_scan_contracts(table), match_ok=_match_contracts(stats))
    ok, passed = verdict(checks)
    doc.update({"scan": table, "matching_stats": stats, "pass": passed, "checks": ok})
    return doc, checks


def _parse_point(text: str, cfg) -> FiberPoint:
    try:
        doc = json.loads(text)
        theta = _number(doc.get("theta", 0.0), "theta")
        y_prime = parse_vector(doc["y_prime"])
        y_second = parse_vector(doc["y_second"])
        if not (np.isfinite(theta) and np.isfinite(y_prime).all() and np.isfinite(y_second).all()):
            raise ConfigInvalid("theta and the vector entries must be finite")
        return cfg.fiber_point(theta, 0.0, y_prime, y_second)
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError, ConfigInvalid, DimensionMismatch) as e:
        raise ConfigParse(f"bad --point payload: {e}") from e


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
    # a floating-point fault in a command ends in a non-finite value, which the
    # checks and _dump reject; numpy's RuntimeWarnings would only repeat it on stderr
    with np.errstate(all="ignore"):
        try:
            run_cfg = load_run_config(args.config)
            seed = args.seed if args.seed is not None else run_cfg.seed

            if args.command == "verify":
                doc, checks = run_verify(run_cfg, seed, args.samples, args.fd_step, args.tol,
                                         theta_grid=args.theta_grid)
            elif args.command == "scan":
                table = run_scan(run_cfg, seed, args.theta_steps, args.t_steps, args.samples)
                doc = {"config_digest": run_cfg.digest, "seed": seed, "scan": table}
                checks = {"scan_ok": _scan_contracts(table)}
            elif args.command == "match":
                points = [_parse_point(text, run_cfg.model) for text in args.point]
                match, rays = run_match(run_cfg, seed, points, args.random, args.blowup_rays)
                doc, checks = _match_doc(run_cfg, seed, match, rays), {}
            else:
                doc, checks = run_report(run_cfg, seed, args)
            _dump(doc, args.out, getattr(args, "csv", None))  # only scan has --csv
            return 0 if verdict(checks)[1] else 1

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
        except OSError as e:  # an --out or --csv path that cannot be written: a usage error
            print(f"cannot write output: {e}", file=sys.stderr)
            return 2


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Moment-map level sets, stability, and quotient coordinates.

Fiberwise moment value: m(y', y'') = (|y'|^2 - |y''|^2)/2 + t, metric norms
taken at the point's theta.  A point is stable when its scaling orbit meets
the zero level: where the closed-form root of a' s^2 + 2 t s - a'' = 0 in
s = rho^2 exists, which also gives the level representative.  Invariant
coordinates: per-point projective charts (pivot-normalized), the rank-one
tensor y' (x) y'', and tensor-scale coordinates over P(V') x P(V'').
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import BasePoint, FiberPoint, ModelConfig, cstar_act, fiber_norms_batch, lane_values, one_lane, refusal
from .errors import OnExceptionalLocus


class FiberType(enum.Enum):
    QPrime = "QPrime"
    QZero = "QZero"
    QSecond = "QSecond"


class StabilityClass(enum.Enum):
    Stable = "Stable"
    Unstable = "Unstable"


@dataclass(frozen=True, eq=False)
class ChartCoords:
    """Per-orbit chart: pivot slot, affine part, and invariant line fiber."""

    block: str  # "prime" or "second"
    index: int
    affine: np.ndarray
    line_fiber: np.ndarray
    base: BasePoint


@dataclass(frozen=True, eq=False)
class TildeCoords:
    """Projective classes of both blocks plus the tensor-scale coordinate."""

    class_prime: np.ndarray
    class_second: np.ndarray
    lambda_: complex
    base: BasePoint


def moment_value(cfg: ModelConfig, p: FiberPoint) -> float:
    thetas, y_prime, y_second = one_lane(p.base.theta, p.y_prime, p.y_second)
    return float(moment_value_batch(cfg, thetas, [p.base.t], y_prime, y_second)[0])


def moment_value_batch(cfg: ModelConfig, thetas, ts, y_prime, y_second):
    ap, app = fiber_norms_batch(cfg, thetas, y_prime, y_second)
    return 0.5 * (ap - app) + lane_values("ts", ts, len(ap))


def fiber_type(base: BasePoint) -> FiberType:
    if base.t < 0:
        return FiberType.QPrime
    if base.t > 0:
        return FiberType.QSecond
    return FiberType.QZero


def _is_zero(v: np.ndarray) -> bool:
    # the exceptional locus is set membership on the given data: exact zero test
    return not np.any(v)


def classify(cfg: ModelConfig, p: FiberPoint) -> StabilityClass:
    # stable exactly where the level lane's root status is STATUS_OK, so not where its digits are lost
    return StabilityClass.Stable if _level_lane(cfg, p)[0] == kernels.STATUS_OK else StabilityClass.Unstable


def _level_lane(cfg: ModelConfig, p: FiberPoint):
    """(status, a', a'', rho) of p as one lane of level_rho_batch, its status from kernels.root_status."""
    ap, app, rho = _level_lanes(cfg, *one_lane(p.base.theta, p.y_prime, p.y_second), [p.base.t])
    return kernels.root_status(ap, app, rho)[0], ap[0], app[0], float(rho[0])


def normalize_to_level(cfg: ModelConfig, p: FiberPoint) -> tuple[float, FiberPoint]:
    """Rescale a stable point onto the moment zero level.

    Returns (rho, p0) with p0 = rho . p and moment_value(p0) = 0 up to
    roundoff.  The scaling is the closed-form positive root of
    level_rho_batch.  A lane that kernels.root_status refuses (lost digits,
    then no root: every unstable point) raises its core.REFUSALS error under
    the level rule, NotStable, with the text that matching gives it.
    """
    status, ap, app, rho = _level_lane(cfg, p)
    if status != kernels.STATUS_OK:
        raise refusal(status, "level", y_prime=p.y_prime, y_second=p.y_second, g1=ap, g2=app, t=p.base.t)
    return rho, cstar_act(rho, p)


def level_rho_batch(cfg: ModelConfig, thetas, ts, y_prime, y_second):
    """Closed-form level rescaling per point: the square root of kernels.scale_root, so NaN
    wherever it gives no root, a lane where kernels.lost_digits holds included."""
    return _level_lanes(cfg, thetas, y_prime, y_second, ts)[2]


def _level_lanes(cfg: ModelConfig, thetas, y_prime, y_second, ts):
    """level_rho_batch's (a', a'', rho) per lane."""
    ap, app = fiber_norms_batch(cfg, thetas, y_prime, y_second)
    return ap, app, np.sqrt(kernels.scale_root(ap, app, lane_values("ts", ts, len(ap))))


def segre_point(p: FiberPoint) -> np.ndarray:
    """Rank-<=1 tensor y' (x) y''; invariant under the scaling action."""
    return np.outer(p.y_prime, p.y_second)


def _pivot(v: np.ndarray) -> int:
    # largest modulus wins, ties broken by lowest index (np.argmax order)
    return int(np.argmax(np.abs(v)))


def quotient_chart(cfg: ModelConfig, p: FiberPoint) -> ChartCoords:
    """Chart of the quotient at a stable point.

    The pivot block is y'' over the QSecond fibers (t > 0) and y' over the
    others (t <= 0), as fiber_type sorts the base.  The affine part is
    the pivot block divided by its largest-modulus coordinate (pivot slot
    dropped); the line fiber is pivot coordinate times the other block.
    Both are invariant under the scaling action.
    """
    normalize_to_level(cfg, p)  # charts exist over the stable locus: it raises the refusal of any other point
    if fiber_type(p.base) is FiberType.QSecond:
        block, pivot_vec, other = "second", p.y_second, p.y_prime
    else:
        block, pivot_vec, other = "prime", p.y_prime, p.y_second
    k = _pivot(pivot_vec)
    pivot_coord = pivot_vec[k]
    affine = np.delete(pivot_vec, k) / pivot_coord
    line_fiber = pivot_coord * other
    return ChartCoords(block=block, index=k, affine=affine, line_fiber=line_fiber, base=p.base)


def tilde_coords(cfg: ModelConfig, p: FiberPoint) -> TildeCoords:
    """Tensor-scale coordinates ([y'], [y''], lambda) off both axes.

    The classes are pivot-normalized representatives and lambda is the
    product of the two pivot coordinates, so class' (x) class'' scaled by
    lambda reproduces the tensor y' (x) y''.
    """
    if _is_zero(p.y_prime) or _is_zero(p.y_second):
        raise OnExceptionalLocus("both fiber blocks must be nonzero")
    kp = _pivot(p.y_prime)
    ks = _pivot(p.y_second)
    cp = p.y_prime[kp]
    cs = p.y_second[ks]
    return TildeCoords(
        class_prime=p.y_prime / cp,
        class_second=p.y_second / cs,
        lambda_=complex(cp * cs),
        base=p.base,
    )

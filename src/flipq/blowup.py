"""Spherical-blowup coordinates (r, w) at the zero section.

Off the zero section a fiber vector y factors as y = r w with r its metric
norm and w on the unit sphere of the fiber metric at theta.  The scaling
action extends to these coordinates and preserves the boundary r = 0; over
the wall t = 0 the boundary carries projective coordinates [w' : conj(w'')],
conjugation making both blocks weight +1 under the residual circle action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import (BasePoint, FiberPoint, ModelConfig, _cstar_scalar, _frozen_complex_vector, fiber_norms,
                   fiber_norms_batch, one_lane, refusal)
from .errors import ConfigInvalid, NotOnBoundary, OnCenter
from .quotient import _pivot

UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class BlowupPoint:
    """Polar fiber coordinates (r, w', w''): r finite and >= 0 and w finite, else ConfigInvalid, and w
    nonzero, else OnCenter.  make_blowup_point also checks that w is a unit direction."""

    r: float
    w_prime: np.ndarray
    w_second: np.ndarray
    base: BasePoint

    def __post_init__(self):
        object.__setattr__(self, "r", float(self.r))
        if not 0.0 <= self.r < np.inf:
            raise ConfigInvalid(f"blowup radius must be finite and >= 0, got {self.r}")
        object.__setattr__(self, "w_prime", _frozen_complex_vector(self.w_prime))
        object.__setattr__(self, "w_second", _frozen_complex_vector(self.w_second))
        if not (np.isfinite(self.w_prime).all() and np.isfinite(self.w_second).all()):
            raise ConfigInvalid(f"blowup direction must be finite, got w' = {self.w_prime}, w'' = {self.w_second}")
        if not (self.w_prime.any() or self.w_second.any()):
            raise OnCenter("blowup direction must be nonzero")


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """Pivot-normalized representative of [w' : conj(w'')] over the wall."""

    homog: np.ndarray
    base: BasePoint

    def __post_init__(self):
        object.__setattr__(self, "homog", _frozen_complex_vector(self.homog))


def _check_unit_norm(norms):
    """norms(), whose first two entries |w'|^2 + |w''|^2 must sum to 1 to UNIT_NORM_TOL, else ConfigInvalid: the
    unit-sphere rule of a blowup direction w.  A huge w's norms overflow under one np.errstate, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = norms()
    norm_sq = float(np.sum(out[0] + out[1]))
    if not abs(norm_sq - 1.0) <= UNIT_NORM_TOL:
        raise ConfigInvalid(f"direction norm^2 = {norm_sq} is not 1 to {UNIT_NORM_TOL}")
    return out


def make_blowup_point(cfg, r, w_prime, w_second, base) -> BlowupPoint:
    """Construct with the unit-sphere invariant checked at base theta."""
    bp = BlowupPoint(r=r, w_prime=w_prime, w_second=w_second, base=base)
    _check_unit_norm(lambda: fiber_norms(cfg, FiberPoint(base=base, y_prime=bp.w_prime, y_second=bp.w_second)))
    return bp


def to_blowup_batch(cfg: ModelConfig, thetas, y_prime, y_second):
    """The one polar rule: (r, w', w'', g1, g2) per lane, with y = r w and r^2 = g1 + g2 = |y'|^2 + |y''|^2 from
    fiber_norms_batch.  A lane where kernels.lost_digits holds (scale_root's rule too) is the zero section or
    has lost its digits: it gets r = 0 and a NaN direction, with no numpy warning."""
    g1, g2 = fiber_norms_batch(cfg, thetas, y_prime, y_second)
    r = np.where(kernels.lost_digits(g1, g2), 0.0, np.sqrt(g1 + g2))
    w_prime, w_second = (np.divide(y, r[:, None], out=np.full(np.shape(y), complex(np.nan, np.nan)),
                                   where=r[:, None] > 0.0, dtype=complex) for y in (y_prime, y_second))
    return r, w_prime, w_second, g1, g2


def _polar_lane(cfg: ModelConfig, base: BasePoint, y_prime, y_second):
    """to_blowup_batch's (r, w', w'', g1, g2) of one lane, r, g1 and g2 as floats; r = 0 raises its polar refusal."""
    r, w_prime, w_second, g1, g2 = to_blowup_batch(cfg, *one_lane(base.theta, y_prime, y_second))
    if r[0] == 0.0:
        raise refusal(kernels.STATUS_LOST_DIGITS, "polar", y_prime=y_prime, y_second=y_second, g1=g1[0], g2=g2[0])
    return float(r[0]), w_prime[0], w_second[0], float(g1[0]), float(g2[0])


def to_blowup(cfg: ModelConfig, p: FiberPoint) -> BlowupPoint:
    """Polar decomposition y = r w off the zero section: one lane of to_blowup_batch."""
    r, w_prime, w_second, _, _ = _polar_lane(cfg, p.base, p.y_prime, p.y_second)
    return BlowupPoint(r=r, w_prime=w_prime, w_second=w_second, base=p.base)


def from_blowup(bp: BlowupPoint) -> FiberPoint:
    """Inverse parameterization y = r w; r = 0 blows down to the zero section."""
    return FiberPoint(base=bp.base, y_prime=bp.r * bp.w_prime, y_second=bp.r * bp.w_second)


def cstar_act_blowup(cfg: ModelConfig, zeta: complex, bp: BlowupPoint) -> BlowupPoint:
    """Extended scaling action on polar coordinates.

    zeta . (r, w) = (r u, (zeta w', zeta^-1 w'') / u)  with
    u = (|zeta|^2 |w'|^2 + |zeta|^-2 |w''|^2)^(1/2); keeps |w| = 1 and
    preserves the boundary r = 0.  Where |zeta|^2 or its inverse leaves the
    normal floats, u is taken without squaring |zeta|, and w is divided by u
    before zeta acts, so no intermediate over- or underflows; a subnormal |zeta|
    acts as 2^-537, then 2^537 zeta.  The norms of w come from the polar rule,
    so a w whose |w|^2 has lost its digits raises its OnCenter.
    """
    zeta = _cstar_scalar(zeta)
    m = abs(zeta)
    if m < kernels.NORM_SQ_MIN:
        return cstar_act_blowup(cfg, 2.0**537 * zeta, cstar_act_blowup(cfg, 2.0**-537, bp))
    *_, ap, app = _polar_lane(cfg, bp.base, bp.w_prime, bp.w_second)
    if kernels.NORM_SQ_MIN <= m * m <= 1.0 / kernels.NORM_SQ_MIN:
        m2 = m**2
        u = np.sqrt(m2 * ap + app / m2)
    else:
        u = np.hypot(m * np.sqrt(ap), np.sqrt(app) / m)
    return BlowupPoint(
        r=bp.r * float(u),  # a float product: a radius beyond the floats is inf, refused without a warning
        w_prime=zeta * (bp.w_prime / u),
        w_second=(bp.w_second / u) / zeta,
        base=bp.base,
    )


def boundary_coords(cfg: ModelConfig, bp: BlowupPoint) -> BoundaryPoint:
    """Projective boundary coordinates [w' : conj(w'')] at r = 0, t = 0."""
    if bp.r != 0.0 or bp.base.t != 0.0:
        raise NotOnBoundary(f"needs r = 0 and t = 0, got r = {bp.r}, t = {bp.base.t}")
    homog = np.concatenate([bp.w_prime, bp.w_second.conj()])
    k = _pivot(homog)
    return BoundaryPoint(homog=homog / homog[k], base=bp.base)

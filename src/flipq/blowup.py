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
from .core import BasePoint, FiberPoint, ModelConfig, _frozen_complex_vector, fiber_norms, _cstar_scalar
from .errors import ConfigInvalid, NotOnBoundary, OnCenter
from .quotient import _pivot

UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class BlowupPoint:
    """Polar fiber coordinates: radius r >= 0 and unit direction (w', w''), all finite, else ConfigInvalid."""

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


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """Pivot-normalized representative of [w' : conj(w'')] over the wall."""

    homog: np.ndarray
    base: BasePoint

    def __post_init__(self):
        object.__setattr__(self, "homog", _frozen_complex_vector(self.homog))


def make_blowup_point(cfg, r, w_prime, w_second, base) -> BlowupPoint:
    """Construct with the unit-sphere invariant checked at base theta."""
    bp = BlowupPoint(r=r, w_prime=w_prime, w_second=w_second, base=base)
    total = sum(fiber_norms(cfg, FiberPoint(base=base, y_prime=bp.w_prime, y_second=bp.w_second)))
    if not abs(total - 1.0) <= UNIT_NORM_TOL:
        raise ConfigInvalid(f"direction norm^2 = {total} is not 1 to {UNIT_NORM_TOL}")
    return bp


def to_blowup(cfg: ModelConfig, p: FiberPoint) -> BlowupPoint:
    """Polar decomposition y = r w off the zero section.

    A nonzero y whose r^2 = |y'|^2 + |y''|^2 is below kernels.NORM_SQ_MIN, the
    threshold kernels.scale_root reads, has lost its digits and gets no unit
    direction: OnCenter, as on the zero section itself.
    """
    ap, app = fiber_norms(cfg, p)
    if ap + app < kernels.NORM_SQ_MIN:
        if not (p.y_prime.any() or p.y_second.any()):
            raise OnCenter("polar coordinates are undefined on the zero section")
        raise OnCenter(f"|y|^2 = {ap + app:.3g} is below the smallest normal float: its digits are lost")
    r = float(np.sqrt(ap + app))
    return BlowupPoint(r=r, w_prime=p.y_prime / r, w_second=p.y_second / r, base=p.base)


def from_blowup(bp: BlowupPoint) -> FiberPoint:
    """Inverse parameterization y = r w; r = 0 blows down to the zero section."""
    return FiberPoint(base=bp.base, y_prime=bp.r * bp.w_prime, y_second=bp.r * bp.w_second)


def cstar_act_blowup(cfg: ModelConfig, zeta: complex, bp: BlowupPoint) -> BlowupPoint:
    """Extended scaling action on polar coordinates.

    zeta . (r, w) = (r u, (zeta w', zeta^-1 w'') / u)  with
    u = (|zeta|^2 |w'|^2 + |zeta|^-2 |w''|^2)^(1/2); keeps |w| = 1 and
    preserves the boundary r = 0.
    """
    zeta = _cstar_scalar(zeta)
    ap, app = fiber_norms(cfg, FiberPoint(base=bp.base, y_prime=bp.w_prime, y_second=bp.w_second))
    m2 = abs(zeta) ** 2
    u = np.sqrt(m2 * ap + app / m2)
    if u == 0.0:
        raise OnCenter("the scaling action needs a nonzero direction")
    return BlowupPoint(
        r=bp.r * u,
        w_prime=(zeta / u) * bp.w_prime,
        w_second=bp.w_second / (zeta * u),
        base=bp.base,
    )


def boundary_coords(cfg: ModelConfig, bp: BlowupPoint) -> BoundaryPoint:
    """Projective boundary coordinates [w' : conj(w'')] at r = 0, t = 0."""
    if bp.r != 0.0 or bp.base.t != 0.0:
        raise NotOnBoundary(f"needs r = 0 and t = 0, got r = {bp.r}, t = {bp.base.t}")
    homog = np.concatenate([bp.w_prime, bp.w_second.conj()])
    k = _pivot(homog)
    if homog[k] == 0:
        raise OnCenter("boundary coordinates need a nonzero direction")
    return BoundaryPoint(homog=homog / homog[k], base=bp.base)

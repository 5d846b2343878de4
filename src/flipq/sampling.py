"""Seeded random samplers used by scans, the CLI, and the test harness."""

from __future__ import annotations

import numpy as np

from .core import FiberPoint, ModelConfig, fiber_norms_batch


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_zeta(rng: np.random.Generator, max_log_mod: float = 2.0) -> complex:
    """Nonzero scalar with |log|zeta|| <= max_log_mod and uniform phase."""
    mod = np.exp(rng.uniform(-max_log_mod, max_log_mod))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return complex(mod * np.exp(1j * phase))


def random_stable_fiber(
    rng: np.random.Generator, cfg: ModelConfig, theta: float, t: float, scale: float = 1.0
) -> FiberPoint:
    """Gaussian fiber point; nonzero blocks hold almost surely, so the
    stability condition at sign(t) is met."""
    return FiberPoint(
        base=cfg.base_point(theta, t),
        y_prime=scale * complex_gaussian(rng, cfg.r_prime),
        y_second=scale * complex_gaussian(rng, cfg.r_second),
    )


def random_domain_batch(rng: np.random.Generator, cfg: ModelConfig, n: int):
    """Batch of fiber vectors with metric norm uniformly in (0, domain_radius]."""
    thetas = rng.uniform(0.0, 2.0 * np.pi, n)
    y_prime = complex_gaussian(rng, (n, cfg.r_prime))
    y_second = complex_gaussian(rng, (n, cfg.r_second))
    g1, g2 = fiber_norms_batch(cfg, thetas, y_prime, y_second)
    # a theta whose metric is not positive definite gives a NaN lane, which callers check
    with np.errstate(invalid="ignore"):
        norm = np.sqrt(g1 + g2)
    radii = cfg.domain_radius * rng.uniform(0.0, 1.0, n) ** (1.0 / (2.0 * (cfg.r_prime + cfg.r_second)))
    factor = radii / norm
    return thetas, y_prime * factor[:, None], y_second * factor[:, None]


def random_unit_direction(rng: np.random.Generator, cfg: ModelConfig, theta: float):
    """Fiber direction of unit metric norm at theta."""
    w_prime = complex_gaussian(rng, cfg.r_prime)
    w_second = complex_gaussian(rng, cfg.r_second)
    g1, g2 = fiber_norms_batch(
        cfg, np.array([theta]), w_prime[None, :], w_second[None, :]
    )
    with np.errstate(invalid="ignore"):  # NaN at a theta whose metric is not positive definite
        norm = float(np.sqrt(g1[0] + g2[0]))
        return w_prime / norm, w_second / norm

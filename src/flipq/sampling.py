"""Seeded random samplers used by scans, the CLI, and the test harness."""

from __future__ import annotations

import numpy as np

from .blowup import to_blowup_batch
from .core import ModelConfig, fiber_norms_batch, one_lane


def _complex(real, imag) -> np.ndarray:
    """The complex array with these real and imaginary parts, written in place:
    the value of real + 1j * imag without its temporaries."""
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = imag
    return out


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return _complex(rng.standard_normal(shape), rng.standard_normal(shape))


def random_zeta(rng: np.random.Generator, max_log_mod: float = 2.0) -> complex:
    """Nonzero scalar with |log|zeta|| <= max_log_mod and uniform phase."""
    mod = np.exp(rng.uniform(-max_log_mod, max_log_mod))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return complex(mod * np.exp(1j * phase))


def complex_gaussian_rows(rng: np.random.Generator, rows: int, k: int, r_prime: int, r_second: int):
    """rows x k Gaussian fiber vectors, (rows * k, r') and (rows * k, r''), from one draw.

    The stream is that of rows successive pairs complex_gaussian(rng, (k, r')),
    complex_gaussian(rng, (k, r'')): standard_normal fills its array in order.
    """
    draws = rng.standard_normal((rows, 2 * k * (r_prime + r_second)))
    prime = draws[:, : 2 * k * r_prime].reshape(rows, 2, k * r_prime)
    second = draws[:, 2 * k * r_prime :].reshape(rows, 2, k * r_second)
    return (_complex(prime[:, 0], prime[:, 1]).reshape(rows * k, r_prime),
            _complex(second[:, 0], second[:, 1]).reshape(rows * k, r_second))


def random_domain_batch(rng: np.random.Generator, cfg: ModelConfig, n: int):
    """Batch of fiber vectors with metric norm uniformly in (0, domain_radius].

    fiber_norms_batch refuses a field the metric certificate refuses, so the metric is
    positive definite at every theta and each draw has a positive norm.
    """
    thetas = rng.uniform(0.0, 2.0 * np.pi, n)
    y_prime = complex_gaussian(rng, (n, cfg.r_prime))
    y_second = complex_gaussian(rng, (n, cfg.r_second))
    g1, g2 = fiber_norms_batch(cfg, thetas, y_prime, y_second)
    radii = cfg.domain_radius * rng.uniform(0.0, 1.0, n) ** (1.0 / (2.0 * (cfg.r_prime + cfg.r_second)))
    factor = radii / np.sqrt(g1 + g2)
    return thetas, y_prime * factor[:, None], y_second * factor[:, None]


def random_unit_direction(rng: np.random.Generator, cfg: ModelConfig, theta: float):
    """Fiber direction of unit metric norm at theta: to_blowup_batch's direction of one Gaussian lane."""
    w_prime = complex_gaussian(rng, cfg.r_prime)
    w_second = complex_gaussian(rng, cfg.r_second)
    _, w_prime, w_second, _, _ = to_blowup_batch(cfg, *one_lane(theta, w_prime, w_second))
    return w_prime[0], w_second[0]

"""Shared config builders and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from flipq import FiberPoint, MetricFieldSpec, ModelConfig, PerturbationSpec, PerturbationTerm
from flipq.sampling import complex_gaussian


def make_config(
    r_prime=1,
    r_second=1,
    epsilon=0.5,
    domain_radius=0.8,
    metric_field=None,
    terms=(),
) -> ModelConfig:
    return ModelConfig(
        r_prime=r_prime,
        r_second=r_second,
        epsilon=epsilon,
        metric_field=metric_field or MetricFieldSpec.identity(r_prime, r_second),
        perturbation=PerturbationSpec(terms=tuple(terms)),
        domain_radius=domain_radius,
    )


def gaussian_point(rng, cfg: ModelConfig, theta, t) -> FiberPoint:
    """A fiber point over (theta, t) with Gaussian blocks, y' drawn first: both are nonzero almost surely, so
    the point is stable at every t."""
    return cfg.fiber_point(theta, t, complex_gaussian(rng, cfg.r_prime), complex_gaussian(rng, cfg.r_second))


def mixed_quartic_term(coeff=0.1) -> PerturbationTerm:
    return PerturbationTerm(mixed_pow=1, coeff=(coeff,))


def mixed_match_config(indefinite=True) -> ModelConfig:
    """Ranks 2/1, three quartic terms and g' = (2 + cos theta + 2.5 sin 32 theta) I.

    That g' is positive definite on the 64 validation thetas (where
    sin 32 theta = 0) but not at 23 pi / 64, so check_metrics refuses it.
    Without indefinite, g' = (2 + cos theta) I, which it certifies.
    """
    g_prime = [(0, 2.0 * np.eye(2)), (1, np.eye(2))]
    if indefinite:
        g_prime.append((32, np.zeros((2, 2)), 2.5 * np.eye(2)))
    metric = MetricFieldSpec.fourier(g_prime, [(0, 1.5 * np.eye(1)), (1, np.zeros((1, 1)), 0.5 * np.eye(1))])
    terms = [
        PerturbationTerm(mixed_pow=1, coeff=(0.1,)),
        PerturbationTerm(norm_prime_pow=2, coeff=(1.0,)),
        PerturbationTerm(norm_second_pow=2, coeff=(-1.0,)),
    ]
    return make_config(2, 1, epsilon=0.5, domain_radius=2.0, metric_field=metric, terms=terms)


# the message check_metrics raises on mixed_match_config(): the first theta of the 128-point grid
# where g' has an eigenvalue <= 0
MIXED_MATCH_REFUSAL = "g_prime(1.1290098598838318) is not positive definite"


def fourier_metric(r_prime, r_second) -> MetricFieldSpec:
    """g' = (2 + cos theta) I, g'' = (1.5 + 0.5 sin theta) I."""
    return MetricFieldSpec.fourier(
        [(0, 2.0 * np.eye(r_prime)), (1, np.eye(r_prime))],
        [(0, 1.5 * np.eye(r_second)), (1, np.zeros((r_second, r_second)), 0.5 * np.eye(r_second))],
    )


def random_hermitian(rng, rank, scale=1.0):
    a = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
    return scale * (a + a.conj().T) / 2.0


def dense_metric(r_prime, r_second, rng) -> MetricFieldSpec:
    """Dense complex Hermitian g', g'' that the certificate accepts: cos and sin
    terms at n = 0, 1, 2 around 2 I, with a nonzero sine at n = 0 (which
    contributes nothing) and an all-zero cosine at n = 2."""

    def field(rank):
        return [(0, 2.0 * np.eye(rank) + random_hermitian(rng, rank, 0.1), random_hermitian(rng, rank)),
                (1, random_hermitian(rng, rank, 0.1), random_hermitian(rng, rank, 0.1)),
                (2, np.zeros((rank, rank)), random_hermitian(rng, rank, 0.1))]

    return MetricFieldSpec.fourier(field(r_prime), field(r_second))


@pytest.fixture
def cfg_identity():
    return make_config()


@pytest.fixture
def cfg_wide():
    """Identity metrics with a roomy domain for hand-computed examples."""
    return make_config(epsilon=2.0, domain_radius=3.0)


@pytest.fixture
def cfg_quartic():
    return make_config(epsilon=0.5, domain_radius=0.8, terms=[mixed_quartic_term(0.1)])


@pytest.fixture
def cfg_quartic_wide():
    return make_config(epsilon=2.0, domain_radius=3.0, terms=[mixed_quartic_term(0.1)])


@pytest.fixture
def cfg_fourier_quartic():
    return make_config(
        r_prime=2,
        r_second=1,
        metric_field=fourier_metric(2, 1),
        terms=[mixed_quartic_term(0.1)],
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)

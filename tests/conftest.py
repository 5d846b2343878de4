"""Shared config builders and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from flipq import MetricFieldSpec, ModelConfig, PerturbationSpec, PerturbationTerm


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


def mixed_quartic_term(coeff=0.1) -> PerturbationTerm:
    return PerturbationTerm(mixed_pow=1, coeff=(coeff,))


def mixed_match_config() -> ModelConfig:
    """Ranks 2/1, three quartic terms, and a g' that is not positive definite at 31.5 pi / 32."""
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


def fourier_metric(r_prime, r_second) -> MetricFieldSpec:
    """g' = (2 + cos theta) I, g'' = (1.5 + 0.5 sin theta) I."""
    return MetricFieldSpec.fourier(
        [(0, 2.0 * np.eye(r_prime)), (1, np.eye(r_prime))],
        [(0, 1.5 * np.eye(r_second)), (1, np.zeros((r_second, r_second)), 0.5 * np.eye(r_second))],
    )


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

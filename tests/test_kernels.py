"""Batch kernels against per-lane numpy references."""

import numpy as np
import pytest

from conftest import make_config
from flipq import MetricFieldSpec, PerturbationTerm, kernels
from flipq.perturbation import _chi_parts, chi_parts_batch
from flipq.sampling import random_domain_batch


def _random_hermitian(rng, rank, scale=1.0):
    a = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
    return scale * (a + a.conj().T) / 2.0


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_fourier_norm_sq_matches_per_lane_reference(rank):
    rng = np.random.default_rng(100 + rank)
    # complex off-diagonal Hermitian terms; a nonzero sine at n = 0 (which
    # must contribute nothing) and an all-zero cosine at n = 2
    terms = (
        (0, _random_hermitian(rng, rank), _random_hermitian(rng, rank)),
        (1, _random_hermitian(rng, rank), _random_hermitian(rng, rank)),
        (2, np.zeros((rank, rank), dtype=complex), _random_hermitian(rng, rank)),
    )
    spec = MetricFieldSpec.fourier(terms, [(0, np.eye(1))])
    ns, cos_mats, sin_mats = spec.packed_prime
    n = 300
    thetas = rng.uniform(0.0, 2.0 * np.pi, n)
    y = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    got = kernels.fourier_norm_sq(thetas, y, ns, cos_mats, sin_mats)
    expected = np.array([
        (y[i].conj() @ MetricFieldSpec._eval_terms(spec.g_prime_terms, thetas[i]) @ y[i]).real
        for i in range(n)
    ])
    scale = np.abs(expected).max()
    assert np.abs(got - expected).max() <= 1e-13 * scale


def test_fourier_pairing_matches_per_lane_reference():
    rng = np.random.default_rng(7)
    terms = (
        (0, 3.0 * np.eye(3), _random_hermitian(rng, 3)),
        (1, _random_hermitian(rng, 3), _random_hermitian(rng, 3)),
        (2, np.zeros((3, 3)), _random_hermitian(rng, 3)),
    )
    spec = MetricFieldSpec.fourier(terms, [(0, np.eye(1))])
    n = 200
    thetas = rng.uniform(0.0, 2.0 * np.pi, n)
    y = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    got = kernels.fourier_pairing(thetas, y, a, *spec.packed_prime)
    expected = np.array([
        y[i].conj() @ MetricFieldSpec._eval_terms(spec.g_prime_terms, thetas[i]) @ a for i in range(n)
    ])
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_chi_parts_batch_matches_scalar_path():
    rng = np.random.default_rng(11)
    # g' carries complex off-diagonal sine terms; small enough to stay positive definite
    metric = MetricFieldSpec.fourier(
        [
            (0, 3.0 * np.eye(3)),
            (1, _random_hermitian(rng, 3, 0.3), _random_hermitian(rng, 3, 0.3)),
            (2, np.zeros((3, 3)), _random_hermitian(rng, 3, 0.3)),
        ],
        [(0, 2.0 * np.eye(2)), (1, np.zeros((2, 2)), _random_hermitian(rng, 2, 0.3))],
    )
    terms = [
        PerturbationTerm(ref_inner_pow=2, coeff=(0.05, 0.02, -0.03),
                         ref_section=np.array([1.0, 0.5j, -0.25 + 0.5j])),
        PerturbationTerm(ref_inner_pow=1, norm_second_pow=1, coeff=(0.1,),
                         ref_section=np.array([0.0, 1.0, 1.0j])),
        PerturbationTerm(mixed_pow=1, coeff=(0.1, 0.0, 0.05)),
    ]
    cfg = make_config(3, 2, epsilon=0.5, domain_radius=0.8, metric_field=metric, terms=terms)
    thetas, y_prime, y_second = random_domain_batch(rng, cfg, 400)
    chi, g1, g2 = chi_parts_batch(cfg, thetas, y_prime, y_second)
    expected = np.array([
        _chi_parts(cfg, float(thetas[i]), y_prime[i], y_second[i]) for i in range(len(thetas))
    ])
    for got, ref in zip((chi, g1, g2), expected.T):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_status_semantics():
    # no positive root: a' = 0 with c <= 0, a'' = 0 with c >= 0, zero vector
    ap = np.array([0.0, 1.0, 0.0])
    app = np.array([1.0, 0.0, 0.0])
    c = np.array([-0.2, 0.2, 0.0])
    rho, resid, iters, status = kernels.newton_rescale(ap, app, c)
    assert (status == kernels.STATUS_NO_POSITIVE_ROOT).all()
    assert np.isnan(rho).all()


def test_closed_form_branches():
    # a' = 0 with c > 0: s = a'' / (2 c)
    s = kernels.scale_root(np.array([0.0]), np.array([1.0]), np.array([0.25]))
    assert s[0] == pytest.approx(2.0)
    # a'' = 0 with c < 0: s = -2 c / a'
    s = kernels.scale_root(np.array([2.0]), np.array([0.0]), np.array([-0.25]))
    assert s[0] == pytest.approx(0.25)
    # generic: both blocks present
    s = kernels.scale_root(np.array([4.0]), np.array([1.0]), np.array([0.0]))
    assert s[0] == pytest.approx(0.5)


def test_newton_converges_from_far_seed():
    ap = np.array([1.0])
    app = np.array([1.0])
    c = np.array([0.1])
    seed = np.array([25.0])
    rho, resid, iters, status = kernels.newton_rescale(ap, app, c, seed=seed)
    assert status[0] == kernels.STATUS_OK
    assert resid[0] <= 1e-12
    expected = np.sqrt(-0.1 + np.sqrt(0.1**2 + 1.0))
    assert rho[0] == pytest.approx(expected, abs=1e-10)


def test_newton_iteration_cap():
    # the far seed needs more than two steps, the exact root (rho = 1 at
    # c = 0) none; a lane still above tol is reported
    ap = np.array([1.0, 1.0, 1.0])
    app = np.array([1.0, 1.0, 1.0])
    c = np.array([0.1, 0.0, 0.1])
    seed = np.array([25.0, 1.0, np.nan])
    rho, resid, iters, status = kernels.newton_rescale(ap, app, c, seed=seed, max_iter=2)
    assert status.tolist() == [
        kernels.STATUS_NO_CONVERGENCE, kernels.STATUS_OK, kernels.STATUS_NO_POSITIVE_ROOT,
    ]
    assert iters.tolist() == [2, 0, 0]
    assert resid[0] > kernels.NEWTON_TOL and resid[1] == 0.0 and np.isnan(resid[2])

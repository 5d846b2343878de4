"""Batch kernels against per-lane numpy references."""

import itertools

import numpy as np
import pytest

from conftest import make_config
from flipq import DegenerateBranch, MetricFieldSpec, PerturbationTerm, StabilityClass, classify, kernels
from flipq.core import fiber_norms
from flipq.core import metric_at
from flipq.perturbation import _branch_check, chi_parts_batch
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
    n = 300
    thetas = rng.uniform(0.0, 2.0 * np.pi, n)
    y = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    got = kernels.fourier_norm_sq(thetas, y, *spec.norm_forms_prime)
    expected = np.array([
        (y[i].conj() @ spec.g_prime_at(thetas[i]) @ y[i]).real
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
        y[i].conj() @ spec.g_prime_at(thetas[i]) @ a for i in range(n)
    ])
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_fourier_values_matches_per_theta_sum():
    rng = np.random.default_rng(5)
    # complex Hermitian cos and sin terms, a nonzero sine at n = 0 (which
    # contributes nothing) and an all-zero cosine at n = 3
    terms = (
        (0, _random_hermitian(rng, 3), _random_hermitian(rng, 3)),
        (1, _random_hermitian(rng, 3), _random_hermitian(rng, 3)),
        (3, np.zeros((3, 3)), _random_hermitian(rng, 3)),
    )
    spec = MetricFieldSpec.fourier(terms, [(0, np.eye(1))])
    thetas = rng.uniform(0.0, 2.0 * np.pi, 50)
    got = kernels.fourier_values(thetas, *spec.packed_prime)
    assert got.shape == (50, 3, 3)
    for theta, G in zip(thetas, got):
        expected = sum(np.cos(n * theta) * c + np.sin(n * theta) * s for n, c, s in spec.g_prime_terms)
        assert np.abs(G - expected).max() <= 1e-14 * np.abs(expected).max()
    assert kernels.fourier_values(np.zeros(0), *spec.packed_prime).shape == (0, 3, 3)


def _fourier_scalar_loop(coeffs, theta):
    """[a0, a1, b1, a2, b2, ...] at theta as a0 + sum a_n cos(n theta) + b_n sin(n theta), summed term by term."""
    theta = np.asarray(theta, dtype=float)
    value = np.full(theta.shape, float(coeffs[0]))
    n = 1
    i = 1
    while i < len(coeffs):
        value = value + float(coeffs[i]) * np.cos(n * theta)
        if i + 1 < len(coeffs):
            value = value + float(coeffs[i + 1]) * np.sin(n * theta)
        i += 2
        n += 1
    return value


@pytest.mark.parametrize("coeff", [
    (0.3,), (0.0,), (0.1, -0.4), (0.0, 0.0, 0.7), (0.2, 0.0, -1.5, 0.25),
    (-0.05, 0.3, 0.0, 0.0, 2.0), (1.0, 2.0, 3.0, 4.0, 5.0),
])
def test_fourier_values_coefficient_layout_bitwise(coeff):
    # a perturbation coefficient series, lengths 1-5 with zero entries, is
    # bitwise the term-by-term sum
    thetas = np.random.default_rng(len(coeff)).uniform(0.0, 2.0 * np.pi, 257)
    got = kernels.fourier_values(thetas, *PerturbationTerm(mixed_pow=1, coeff=coeff).series)
    assert got.shape == thetas.shape
    assert np.array_equal(got, _fourier_scalar_loop(coeff, thetas))


def _chi_per_lane(cfg, theta, y_prime, y_second):
    """(chi, g1, g2) at one fiber vector from the metric matrices at theta, term by term."""
    G1, G2 = metric_at(cfg, theta)
    g1 = (y_prime.conj() @ G1 @ y_prime).real
    g2 = (y_second.conj() @ G2 @ y_second).real
    rest = 0.0
    for term in cfg.perturbation.terms:
        value = _fourier_scalar_loop(term.coeff, theta) * g1**term.norm_prime_pow * g2**term.norm_second_pow
        value *= (g1 * g2) ** term.mixed_pow
        if term.ref_inner_pow:
            value *= abs(y_prime.conj() @ G1 @ term.ref_section) ** (2 * term.ref_inner_pow)
        rest += value
    return -0.5 * (g1 - g2) + rest, g1, g2


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
        _chi_per_lane(cfg, float(thetas[i]), y_prime[i], y_second[i]) for i in range(len(thetas))
    ])
    for got, ref in zip((chi, g1, g2), expected.T):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("c", [-0.1, 0.0, 0.1])
@pytest.mark.parametrize("prime_zero, second_zero", itertools.product([False, True], repeat=2))
def test_has_positive_root_decides_classify_and_branch_check(prime_zero, second_zero, c):
    # the rule, by zero pattern: both blocks present always have a root;
    # y'' = 0 needs c < 0, y' = 0 needs c > 0, the zero section none
    expected = {(False, False): True, (False, True): c < 0,
                (True, False): c > 0, (True, True): False}[prime_zero, second_zero]
    cfg = make_config(2, 1)
    y_prime = np.zeros(2) if prime_zero else np.array([0.3, 0.1j])
    y_second = np.zeros(1) if second_zero else np.array([0.2])
    p = cfg.fiber_point(0.0, c, y_prime, y_second)
    ap, app = fiber_norms(cfg, p)
    assert kernels.has_positive_root(ap, app, c) == expected
    assert kernels.has_positive_root(np.array([ap]), np.array([app]), np.array([c]))[0] == expected
    assert (classify(cfg, p) is StabilityClass.Stable) == expected
    try:
        _branch_check(prime_zero, second_zero, c)
        raised = False
    except DegenerateBranch:
        raised = True
    assert raised != expected
    status = kernels.newton_rescale(np.array([ap]), np.array([app]), np.array([c]))[3][0]
    assert (status == kernels.STATUS_OK) == expected


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


@pytest.mark.filterwarnings("error")
def test_scale_root_overflow_is_silent():
    # c * c overflows; no floating-point warning reaches stderr, and a lane
    # gives either its root (about 1 / 2c for c > 0, -2c for c < 0) or NaN
    s = kernels.scale_root(np.ones(2), np.ones(2), np.array([1e200, -1e200]))
    for got, root in zip(s, (5e-201, 2e200)):
        assert np.isnan(got) or got == pytest.approx(root, rel=1e-12)

"""Metric fields, the Hermitian pairing, the scaling action, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipq import (
    BasePoint,
    ConfigInvalid,
    DimensionMismatch,
    FiberPoint,
    MetricFieldSpec,
    ZeroScalar,
    cstar_act,
    fiber_norms,
    herm_inner,
    metric_at,
    norm_sq,
    validate_config,
)
from flipq.core import fiber_norms_batch, min_metric_eigenvalue

from conftest import make_config


# -- metric_at ---------------------------------------------------------------


def test_metric_at_identity(cfg_identity):
    G1, G2 = metric_at(cfg_identity, 1.3)
    assert np.allclose(G1, np.eye(1)) and np.allclose(G2, np.eye(1))


def test_metric_at_constant_fourier_mode():
    field = MetricFieldSpec.fourier([(0, 2.0 * np.eye(2))], [(0, 2.0 * np.eye(2))])
    cfg = make_config(r_prime=2, r_second=2, metric_field=field)
    G1, G2 = metric_at(cfg, 0.7)
    assert np.allclose(G1, 2.0 * np.eye(2))
    assert np.allclose(G2, 2.0 * np.eye(2))


def test_metric_at_cosine_series():
    # g'(theta) = (2 + cos theta) I evaluates to I at theta = pi
    field = MetricFieldSpec.fourier(
        [(0, 2.0 * np.eye(2)), (1, np.eye(2))], [(0, np.eye(1))]
    )
    cfg = make_config(r_prime=2, r_second=1, metric_field=field)
    G1, _ = metric_at(cfg, np.pi)
    assert np.allclose(G1, np.eye(2), atol=1e-15)


def test_metric_at_rejects_nonpositive():
    field = MetricFieldSpec.fourier([(1, np.eye(1))], [(0, np.eye(1))])  # cos(pi) < 0
    cfg = make_config(metric_field=field)
    with pytest.raises(ConfigInvalid):
        metric_at(cfg, np.pi)


def test_metric_at_rejects_non_finite():
    # metric_at does not rely on validate_config having run
    cfg = make_config(metric_field=MetricFieldSpec.constant([[np.nan]], [[1.0]]))
    with pytest.raises(ConfigInvalid):
        metric_at(cfg, 0.0)


def test_min_metric_eigenvalue_matches_per_theta_loop():
    # complex off-diagonal Hermitian cos and sin terms, positive definite throughout
    c1 = np.array([[0.0, 0.3 + 0.4j], [0.3 - 0.4j, 0.2]])
    s1 = np.array([[0.1, -0.2j], [0.2j, 0.0]])
    s2 = np.array([[0.0, 0.25 - 0.1j], [0.25 + 0.1j, -0.3]])
    field = MetricFieldSpec.fourier(
        [(0, np.diag([1.4, 1.2])), (1, c1, s1), (2, np.zeros((2, 2)), s2)],
        [(0, np.eye(1)), (3, np.zeros((1, 1)), np.array([[0.2]]))],
    )
    cfg = make_config(r_prime=2, r_second=1, metric_field=field)
    expected = np.inf
    for theta in np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False):
        for terms in (field.g_prime_terms, field.g_second_terms):
            G = sum(np.cos(n * theta) * c + np.sin(n * theta) * s for n, c, s in terms)
            expected = min(expected, np.linalg.eigvalsh(G).min())
    assert 0.0 < expected < 0.8  # set by the complex g' block
    assert min_metric_eigenvalue(cfg) == pytest.approx(expected, rel=1e-13)


# -- herm_inner --------------------------------------------------------------


def test_herm_inner_norm():
    assert herm_inner(np.eye(2), np.array([1, 1j]), np.array([1, 1j])) == pytest.approx(2.0)


def test_herm_inner_orthogonal():
    assert herm_inner(np.eye(2), np.array([1, 0]), np.array([0, 1])) == 0


def test_herm_inner_diagonal_weights():
    G = np.diag([2.0, 3.0])
    assert herm_inner(G, np.array([1.0, 1.0]), np.array([1.0, 1.0])) == pytest.approx(5.0)


def test_herm_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        herm_inner(np.eye(2), np.array([1.0]), np.array([1.0, 2.0]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    data=st.lists(
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        min_size=6,
        max_size=6,
    )
)
def test_herm_inner_conjugate_symmetry(data):
    G = np.diag([1.0, 2.0, 0.5]) + 0j
    u = np.array(data[:3])
    v = np.array(data[3:])
    a = herm_inner(G, u, v)
    b = herm_inner(G, v, u)
    assert abs(a - np.conj(b)) <= 1e-14 * max(1.0, abs(a))


def test_herm_inner_positive_on_nonzero(rng):
    G = np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.0]])
    for _ in range(100):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        if np.any(u):
            assert herm_inner(G, u, u).real > 0


# -- cstar_act ---------------------------------------------------------------


def _point(yp, ys, theta=0.3, t=0.0):
    return FiberPoint(base=BasePoint(theta, t), y_prime=np.array(yp, dtype=complex),
                      y_second=np.array(ys, dtype=complex))


def test_cstar_act_identity():
    p = _point([1.0, 2.0], [3.0])
    q = cstar_act(1.0, p)
    assert np.array_equal(q.y_prime, p.y_prime) and np.array_equal(q.y_second, p.y_second)


def test_cstar_act_scaling():
    q = cstar_act(2.0, _point([1.0, 0.0], [4.0]))
    assert np.allclose(q.y_prime, [2.0, 0.0])
    assert np.allclose(q.y_second, [2.0])


def test_cstar_act_imaginary_unit():
    q = cstar_act(1j, _point([1.0], [1.0]))
    assert np.allclose(q.y_prime, [1j])
    assert np.allclose(q.y_second, [-1j])  # 1/i = -i


def test_cstar_act_zero_scalar():
    with pytest.raises(ZeroScalar):
        cstar_act(0.0, _point([1.0], [1.0]))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    z1=st.complex_numbers(min_magnitude=np.exp(-2), max_magnitude=np.exp(2),
                          allow_nan=False, allow_infinity=False),
    z2=st.complex_numbers(min_magnitude=np.exp(-2), max_magnitude=np.exp(2),
                          allow_nan=False, allow_infinity=False),
)
def test_cstar_act_group_law(z1, z2):
    p = _point([0.7, -1.2 + 0.4j], [0.9j, 1.1])
    lhs = cstar_act(z1 * z2, p)
    rhs = cstar_act(z1, cstar_act(z2, p))
    scale = max(1.0, np.abs(lhs.y_prime).max(), np.abs(lhs.y_second).max())
    assert np.abs(lhs.y_prime - rhs.y_prime).max() <= 1e-12 * scale
    assert np.abs(lhs.y_second - rhs.y_second).max() <= 1e-12 * scale


def test_group_law_seeded_sweep(rng):
    p = _point([0.5, 0.25], [1.5])
    for _ in range(1000):
        z1 = np.exp(rng.uniform(-2, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        z2 = np.exp(rng.uniform(-2, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        lhs = cstar_act(z1 * z2, p)
        rhs = cstar_act(z1, cstar_act(z2, p))
        scale = max(1.0, np.abs(lhs.y_prime).max(), np.abs(lhs.y_second).max())
        assert np.abs(lhs.y_prime - rhs.y_prime).max() <= 1e-12 * scale
        assert np.abs(lhs.y_second - rhs.y_second).max() <= 1e-12 * scale


# -- validation --------------------------------------------------------------


def test_validate_default_config_clean(cfg_identity):
    assert validate_config(cfg_identity).ok


def test_validate_rank_violation():
    cfg = make_config(r_prime=0)
    assert "RankViolation" in validate_config(cfg).codes()


def test_validate_positivity_violation():
    field = MetricFieldSpec.fourier([(1, np.eye(1))], [(0, np.eye(1))])
    cfg = make_config(metric_field=field)
    assert "PositivityViolation" in validate_config(cfg).codes()


def test_validate_perturbation_order():
    from flipq import PerturbationTerm

    cfg = make_config(terms=[PerturbationTerm(norm_prime_pow=1, coeff=(0.1,))])  # degree 2
    assert "PerturbationOrderViolation" in validate_config(cfg).codes()


def test_validate_reference_section():
    from flipq import PerturbationTerm

    cfg = make_config(
        r_prime=2,
        terms=[PerturbationTerm(ref_inner_pow=2, coeff=(0.1,), ref_section=np.array([1.0]))],
    )
    assert "ReferenceSectionViolation" in validate_config(cfg).codes()


def test_base_point_window():
    cfg = make_config(epsilon=0.5)
    with pytest.raises(ConfigInvalid):
        cfg.base_point(0.0, 0.5)
    assert cfg.base_point(0.0, 0.49).t == pytest.approx(0.49)


def test_fiber_point_rank_check():
    cfg = make_config(r_prime=2, r_second=1)
    with pytest.raises(DimensionMismatch):
        cfg.fiber_point(0.0, 0.0, [1.0], [1.0])


# -- batch norm consistency --------------------------------------------------


def test_fiber_norms_batch_matches_pointwise(rng, cfg_fourier_quartic):
    cfg = cfg_fourier_quartic
    n = 64
    thetas = rng.uniform(0, 2 * np.pi, n)
    yp = rng.standard_normal((n, cfg.r_prime)) + 1j * rng.standard_normal((n, cfg.r_prime))
    ys = rng.standard_normal((n, cfg.r_second)) + 1j * rng.standard_normal((n, cfg.r_second))
    g1, g2 = fiber_norms_batch(cfg, thetas, yp, ys)
    for i in range(n):
        p = FiberPoint(base=BasePoint(thetas[i], 0.0), y_prime=yp[i], y_second=ys[i])
        a, b = fiber_norms(cfg, p)
        assert g1[i] == pytest.approx(a, rel=1e-12)
        assert g2[i] == pytest.approx(b, rel=1e-12)


def test_norm_sq_zero_iff_zero():
    G = np.array([[2.0, 0.0], [0.0, 3.0]])
    assert norm_sq(G, np.zeros(2)) == 0.0
    assert norm_sq(G, np.array([1e-8, 0])) > 0.0

"""Metric fields, the metric norms, the scaling action, validation."""

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
    chi_eval,
    chi_eval_batch,
    cstar_act,
    cstar_act_blowup,
    extract_graph,
    fiber_norms,
    level_rho_batch,
    make_blowup_point,
    metric_at,
    moment_value,
    moment_value_batch,
    normalize_to_level,
    parse_run_config,
    phi_graph,
    presets,
    renorm_eval,
    taylor_rest,
    to_blowup,
    validate_config,
)
from flipq import kernels
from flipq.core import _metrics_cached, check_metrics, fiber_norms_batch, metric_faults_batch, min_metric_eigenvalue
from flipq.perturbation import chi_parts_batch
from flipq.sampling import random_domain_batch

from conftest import make_config, mixed_match_config


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


# -- the metric gate ---------------------------------------------------------


def _gate_thetas(rng):
    # the odd multiples of pi/64, where g' of mixed_match_config is not
    # positive definite for some, the validation grid and uniform draws;
    # each theta twice, shuffled
    thetas = np.concatenate([np.arange(1, 128, 2) * np.pi / 64, np.arange(64) * np.pi / 32,
                             rng.uniform(0.0, 2.0 * np.pi, 32)])
    return rng.permutation(np.repeat(thetas, 2))


def _metric_at_faults(cfg, thetas):
    faults = []
    for theta in thetas:
        try:
            metric_at(cfg, float(theta))
            faults.append(False)
        except ConfigInvalid:
            faults.append(True)
    return np.array(faults)


def test_metric_faults_batch_is_metric_at_per_lane(rng):
    cfg = mixed_match_config()
    thetas = _gate_thetas(rng)
    expected = _metric_at_faults(cfg, thetas)
    assert 0 < expected.sum() < len(expected)
    assert np.array_equal(metric_faults_batch(cfg, thetas), expected)
    # a batch on one theta goes through the scalar lookup
    for theta, fault in zip(thetas[:24], expected[:24]):
        assert np.array_equal(metric_faults_batch(cfg, np.full(3, theta)), np.full(3, fault))
    # a metric of the wrong size fails every lane, as metric_at raises there
    wrong = make_config(r_prime=2, r_second=1, metric_field=MetricFieldSpec.identity(1, 1))
    assert metric_faults_batch(wrong, thetas[:5]).all() and metric_faults_batch(wrong, [0.5]).all()


def test_check_metrics_raises_metric_at_error_of_first_failing_lane(rng):
    cfg = mixed_match_config()
    thetas = _gate_thetas(rng)
    faults = _metric_at_faults(cfg, thetas)
    with pytest.raises(ConfigInvalid) as want:
        metric_at(cfg, float(thetas[np.argmax(faults)]))
    with pytest.raises(ConfigInvalid) as got:
        check_metrics(cfg, thetas)
    assert str(got.value) == str(want.value)
    check_metrics(cfg, thetas[~faults])


def test_metric_gate_on_one_theta_is_one_cache_lookup():
    cfg = mixed_match_config()
    for _ in range(2):
        before = _metrics_cached.cache_info()
        metric_faults_batch(cfg, np.full(5, 0.123))
        after = _metrics_cached.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + 1
    assert after.hits == before.hits + 1


def test_metric_gate_on_empty_batch():
    cfg = mixed_match_config()
    faults = metric_faults_batch(cfg, np.zeros(0))
    assert faults.shape == (0,) and faults.dtype == bool
    check_metrics(cfg, np.zeros(0))


# -- the Hermitian pairing and norm of a constant metric ---------------------
# conj(u) G v through kernels.fourier_pairing (the reference pairing of chi)
# and |y|^2 through fiber_norms / fiber_norms_batch, on G' = G.


def _constant_cfg(G):
    G = np.asarray(G, dtype=complex)
    return make_config(r_prime=G.shape[0], metric_field=MetricFieldSpec.constant(G, np.eye(1)))


def _pairing(G, u, v):
    cfg = _constant_cfg(G)
    return complex(kernels.fourier_pairing([0.3], np.asarray(u, dtype=complex)[None],
                                           np.asarray(v, dtype=complex), *cfg.metric_field.packed_prime)[0])


def _norm(G, y):
    cfg = _constant_cfg(G)
    return fiber_norms(cfg, FiberPoint(base=BasePoint(0.3, 0.0), y_prime=y, y_second=[1.0]))[0]


def test_herm_inner_norm():
    assert _pairing(np.eye(2), [1, 1j], [1, 1j]) == pytest.approx(2.0)
    assert _norm(np.eye(2), [1, 1j]) == pytest.approx(2.0)


def test_herm_inner_orthogonal():
    assert _pairing(np.eye(2), [1, 0], [0, 1]) == 0


def test_herm_inner_diagonal_weights():
    G = np.diag([2.0, 3.0])
    assert _pairing(G, [1.0, 1.0], [1.0, 1.0]) == pytest.approx(5.0)
    assert _norm(G, [1.0, 1.0]) == pytest.approx(5.0)


def test_herm_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        _norm(np.eye(2), [1.0])


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
    a = _pairing(G, u, v)
    b = _pairing(G, v, u)
    assert abs(a - np.conj(b)) <= 1e-14 * max(1.0, abs(a))


def test_herm_inner_positive_on_nonzero(rng):
    G = np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.0]])
    cfg = _constant_cfg(G)
    u = rng.standard_normal((100, 2)) + 1j * rng.standard_normal((100, 2))
    assert np.all(np.any(u, axis=1))
    g1, _ = fiber_norms_batch(cfg, np.full(100, 0.3), u, np.ones((100, 1), dtype=complex))
    assert np.all(g1 > 0)
    for i in range(10):
        assert _pairing(G, u[i], u[i]).real > 0


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
    # reference: conj(y) G y per lane over the metric matrices of metric_at
    cfg = cfg_fourier_quartic
    n = 64
    thetas = rng.uniform(0, 2 * np.pi, n)
    yp = rng.standard_normal((n, cfg.r_prime)) + 1j * rng.standard_normal((n, cfg.r_prime))
    ys = rng.standard_normal((n, cfg.r_second)) + 1j * rng.standard_normal((n, cfg.r_second))
    g1, g2 = fiber_norms_batch(cfg, thetas, yp, ys)
    for i in range(n):
        G1, G2 = metric_at(cfg, thetas[i])
        assert g1[i] == pytest.approx((yp[i].conj() @ G1 @ yp[i]).real, rel=1e-12)
        assert g2[i] == pytest.approx((ys[i].conj() @ G2 @ ys[i]).real, rel=1e-12)


def test_norm_sq_zero_iff_zero():
    G = np.array([[2.0, 0.0], [0.0, 3.0]])
    assert _norm(G, np.zeros(2)) == 0.0
    assert _norm(G, np.array([1e-8, 0])) > 0.0


# -- scalar entry points as one-lane batches ---------------------------------


def _lane(p):
    return [p.base.theta], p.y_prime[None], p.y_second[None]


def _lane_norms(cfg, p):
    g1, g2 = fiber_norms_batch(cfg, *_lane(p))
    return np.array([g1[0], g2[0]])


def _blowup_radius(cfg, p, zeta):
    # zeta . (r, w) has radius r |(zeta w', w'' / zeta)|, w = y / r
    r = np.sqrt(_lane_norms(cfg, p).sum())
    a, b = _lane_norms(cfg, FiberPoint(p.base, p.y_prime / r, p.y_second / r))
    return r * np.sqrt(abs(zeta) ** 2 * a + b / abs(zeta) ** 2)


def _same(expected):
    return expected, np.abs(expected)


def _rest(cfg, p):
    # the rest is chi minus its quadratic part; their difference carries the
    # roundoff of the quadratic part, so compare at its scale
    chi, g1, g2 = chi_parts_batch(cfg, *_lane(p))
    return chi[0] + 0.5 * (g1[0] - g2[0]), g1[0] + g2[0]


ZETA = 1.7 * np.exp(0.3j)

# name -> (the scalar call, its batch counterpart); the counterpart returns the
# lane's value and the scale the gap is measured at, or is None where there is none
ONE_LANE_CASES = {
    "fiber_norms": (lambda cfg, p: np.array(fiber_norms(cfg, p)), lambda cfg, p: _same(_lane_norms(cfg, p))),
    "moment_value": (moment_value, lambda cfg, p: _same(
        moment_value_batch(cfg, [p.base.theta], [p.base.t], p.y_prime[None], p.y_second[None])[0])),
    "normalize_to_level": (lambda cfg, p: normalize_to_level(cfg, p)[0], lambda cfg, p: _same(
        level_rho_batch(cfg, [p.base.theta], [p.base.t], p.y_prime[None], p.y_second[None])[0])),
    "chi_eval": (chi_eval, lambda cfg, p: _same(chi_eval_batch(cfg, *_lane(p))[0])),
    "taylor_rest": (taylor_rest, _rest),
    "to_blowup": (lambda cfg, p: to_blowup(cfg, p).r,
                  lambda cfg, p: _same(np.sqrt(_lane_norms(cfg, p).sum()))),
    "cstar_act_blowup": (lambda cfg, p: cstar_act_blowup(cfg, ZETA, to_blowup(cfg, p)).r,
                         lambda cfg, p: _same(_blowup_radius(cfg, p, ZETA))),
    "make_blowup_point": (lambda cfg, p: make_blowup_point(cfg, 0.5, p.y_prime, p.y_second, p.base), None),
    "extract_graph": (lambda cfg, p: extract_graph(cfg, phi_graph(cfg), p), None),
    "renorm_eval": (lambda cfg, p: renorm_eval(cfg, cfg.perturbation, 4, 0.0, p.y_prime, p.y_second,
                                               theta=p.base.theta), None),
}


@pytest.mark.parametrize("name", sorted(ONE_LANE_CASES))
def test_scalar_entry_point_is_one_batch_lane(name, rng):
    scalar, batch = ONE_LANE_CASES[name]
    # the Fourier preset, with a reference-pairing term so every generator runs
    doc = presets.fourier_metric_config(2, 2)
    doc["perturbation"]["terms"].append({"generators": {"ref_inner_sq": 2}, "coeff_fourier": [0.05, 0.02],
                                          "ref_section": [[1.0, 0.0], [0.0, 0.0]]})
    cfg = parse_run_config(doc).model
    if batch is not None:
        thetas, y_prime, y_second = random_domain_batch(rng, cfg, 16)
        for theta, t, yp, ys in zip(thetas, rng.uniform(-0.4, 0.4, 16), y_prime, y_second):
            p = FiberPoint(BasePoint(theta, t), yp, ys)
            expected, scale = batch(cfg, p)
            assert np.all(np.abs(scalar(cfg, p) - expected) <= 1e-15 * scale)
    # metric_at's check at a theta between the validation grid's samples
    bad = mixed_match_config()
    theta = 31.5 * np.pi / 32
    with pytest.raises(ConfigInvalid) as want:
        metric_at(bad, theta)
    p = FiberPoint(BasePoint(theta, 0.1), np.array([0.3, 0.0]), np.array([0.2]))
    with pytest.raises(ConfigInvalid) as got:
        scalar(bad, p)
    assert str(got.value) == str(want.value) == f"g_prime({theta}) is not positive definite"

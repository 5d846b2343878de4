"""Moment values, stability, level normalization, and invariant coordinates."""

import numpy as np
import pytest

from flipq import (
    BasePoint,
    FiberPoint,
    FiberType,
    NotStable,
    OnExceptionalLocus,
    StabilityClass,
    classify,
    cstar_act,
    fiber_type,
    moment_value,
    normalize_to_level,
    quotient_chart,
    segre_point,
    tilde_coords,
    tilde_reconstruct,
)
from flipq.quotient import level_rho_batch, moment_value_batch
from flipq.sampling import random_stable_fiber

from conftest import fourier_metric, make_config


def _point(yp, ys, theta=0.0, t=0.0):
    return FiberPoint(base=BasePoint(theta, t), y_prime=np.array(yp, dtype=complex),
                      y_second=np.array(ys, dtype=complex))


# -- moment_value ------------------------------------------------------------


def test_moment_zero_section_gives_t(cfg_wide):
    p = _point([0.0], [0.0], t=0.3)
    assert moment_value(cfg_wide, p) == pytest.approx(0.3)


def test_moment_balanced(cfg_wide):
    cfg = make_config(r_prime=2, r_second=1, epsilon=2.0, domain_radius=3.0)
    p = _point([1.0, 1.0], [np.sqrt(2.0)])
    assert moment_value(cfg, p) == pytest.approx(0.0, abs=1e-15)


def test_moment_unbalanced(cfg_wide):
    p = _point([2.0], [1.0])
    assert moment_value(cfg_wide, p) == pytest.approx(1.5)


# -- classify / fiber_type ---------------------------------------------------


def test_classify_negative_side(cfg_identity):
    assert classify(cfg_identity, _point([1.0], [0.0], t=-0.1)) is StabilityClass.Stable


def test_classify_positive_side_needs_second_block(cfg_identity):
    assert classify(cfg_identity, _point([1.0], [0.0], t=0.1)) is StabilityClass.Unstable


def test_classify_wall_needs_both(cfg_identity):
    assert classify(cfg_identity, _point([1.0], [1.0], t=0.0)) is StabilityClass.Stable
    assert classify(cfg_identity, _point([1.0], [0.0], t=0.0)) is StabilityClass.Unstable


def test_fiber_types():
    assert fiber_type(BasePoint(0.0, -0.2)) is FiberType.QPrime
    assert fiber_type(BasePoint(0.0, 0.0)) is FiberType.QZero
    assert fiber_type(BasePoint(0.0, 0.2)) is FiberType.QSecond


# -- normalize_to_level ------------------------------------------------------


def test_normalize_wall_example(cfg_wide):
    # a' = 4, a'' = 1, t = 0: s = (0 + sqrt(0 + 4)) / 4 = 1/2
    rho, p0 = normalize_to_level(cfg_wide, _point([2.0], [1.0]))
    assert rho == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-14)
    assert np.allclose(p0.y_prime, [np.sqrt(2.0)])
    assert np.allclose(p0.y_second, [np.sqrt(2.0)])
    # oracle: substitute back into the moment value
    assert abs(moment_value(cfg_wide, p0)) <= 1e-12


def test_normalize_already_on_level(cfg_identity):
    rho, p0 = normalize_to_level(cfg_identity, _point([1.0], [0.0], t=-0.5))
    assert rho == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(p0.y_prime, [1.0])


def test_normalize_rejects_unstable(cfg_identity):
    with pytest.raises(NotStable):
        normalize_to_level(cfg_identity, _point([1.0], [0.0], t=0.3))


@pytest.mark.parametrize("t", [-0.3, 0.0, 0.3])
@pytest.mark.parametrize("y_prime, y_second", [([1.0], [0.0]), ([0.0], [1.0]), ([0.0], [0.0]), ([1.0], [1.0])],
                         ids=["prime", "second", "zero", "both"])
def test_normalize_refuses_each_unstable_point_with_one_message(cfg_identity, y_prime, y_second, t):
    # every point classify calls unstable, each zero pattern on each side, gets the level root's one refusal
    p = _point(y_prime, y_second, t=t)
    if classify(cfg_identity, p) is StabilityClass.Stable:
        assert moment_value(cfg_identity, normalize_to_level(cfg_identity, p)[1]) == pytest.approx(0.0, abs=1e-15)
        return
    with pytest.raises(NotStable, match="^no positive rescaling reaches the zero level$"):
        normalize_to_level(cfg_identity, p)


def test_normalize_unique_across_orbit(rng, cfg_identity):
    for _ in range(50):
        p = random_stable_fiber(rng, cfg_identity, rng.uniform(0, 2 * np.pi), rng.uniform(-0.4, 0.4))
        _, p0a = normalize_to_level(cfg_identity, p)
        _, p0b = normalize_to_level(cfg_identity, cstar_act(np.exp(rng.uniform(-2, 2)), p))
        assert np.abs(p0a.y_prime - p0b.y_prime).max() <= 1e-10
        assert np.abs(p0a.y_second - p0b.y_second).max() <= 1e-10


def test_level_identity_sweep(rng):
    # strict level residual across metric kinds and ranks
    configs = [
        make_config(r_prime=1, r_second=2),
        make_config(r_prime=3, r_second=1, metric_field=fourier_metric(3, 1)),
    ]
    for cfg in configs:
        n = 2000
        thetas = rng.uniform(0, 2 * np.pi, n)
        ts = rng.uniform(-0.4, 0.4, n)
        yp = rng.standard_normal((n, cfg.r_prime)) + 1j * rng.standard_normal((n, cfg.r_prime))
        ys = rng.standard_normal((n, cfg.r_second)) + 1j * rng.standard_normal((n, cfg.r_second))
        rho = level_rho_batch(cfg, thetas, ts, yp, ys)
        assert np.isfinite(rho).all()
        resid = moment_value_batch(cfg, thetas, ts, yp * rho[:, None], ys / rho[:, None])
        assert np.abs(resid).max() <= 1e-12


# -- segre_point -------------------------------------------------------------


def test_segre_vertex():
    assert not np.any(segre_point(_point([1.0, 2.0], [0.0])))


def test_segre_outer_product():
    m = segre_point(_point([1.0, 2.0], [3.0]))
    assert np.allclose(m, [[3.0], [6.0]])


def test_segre_scaling_invariance():
    p = _point([1.0, 2.0], [3.0, -1.0j])
    q = cstar_act(3 + 4j, p)
    assert np.abs(segre_point(p) - segre_point(q)).max() <= 1e-14 * 6


def test_segre_rank_one(rng, cfg_identity):
    cfg = make_config(r_prime=3, r_second=2)
    for _ in range(50):
        p = random_stable_fiber(rng, cfg, 0.1, 0.0)
        sv = np.linalg.svd(segre_point(p), compute_uv=False)
        assert sv[1] <= 1e-12 * sv[0]


# -- quotient_chart ----------------------------------------------------------


def test_chart_example(cfg_identity):
    cfg = make_config(r_prime=2, r_second=1)
    p = _point([2.0, 0.0], [5.0], t=-0.1)
    chart = quotient_chart(cfg, p)
    assert (chart.block, chart.index) == ("prime", 0)
    assert np.allclose(chart.affine, [0.0])
    assert np.allclose(chart.line_fiber, [10.0])
    # oracle: recompute for the rescaled representative, must agree
    chart2 = quotient_chart(cfg, cstar_act(2.0, p))
    assert (chart2.block, chart2.index) == (chart.block, chart.index)
    assert np.abs(chart2.affine - chart.affine).max() <= 1e-12
    assert np.abs(chart2.line_fiber - chart.line_fiber).max() <= 1e-12


def test_chart_zero_line_fiber(cfg_identity):
    chart = quotient_chart(cfg_identity, _point([1.0], [0.0], t=-0.1))
    assert chart.affine.shape == (0,)
    assert np.allclose(chart.line_fiber, [0.0])


def test_chart_invariance_complex_scalar(cfg_identity):
    cfg = make_config(r_prime=2, r_second=2)
    p = _point([1.0, 0.5j], [0.25, 1.0], t=0.0)
    a = quotient_chart(cfg, p)
    b = quotient_chart(cfg, cstar_act(1 + 1j, p))
    assert (a.block, a.index) == ("prime", 0)
    assert (a.block, a.index) == (b.block, b.index)
    assert np.abs(a.affine - b.affine).max() <= 1e-12
    assert np.abs(a.line_fiber - b.line_fiber).max() <= 1e-12


def test_chart_positive_side_pivots_second(cfg_identity):
    cfg = make_config(r_prime=1, r_second=2)
    chart = quotient_chart(cfg, _point([1.0], [0.0, 3.0], t=0.2))
    assert (chart.block, chart.index) == ("second", 1)
    assert np.allclose(chart.line_fiber, [3.0])


def test_chart_requires_stability(cfg_identity):
    with pytest.raises(NotStable):
        quotient_chart(cfg_identity, _point([0.0], [1.0], t=-0.1))


def test_pivot_tie_breaks_low_index():
    cfg = make_config(r_prime=3, r_second=1)
    chart = quotient_chart(cfg, _point([1.0, 1.0, 1.0], [2.0], t=-0.1))
    assert (chart.block, chart.index) == ("prime", 0)
    # equal moduli across a phase still pick the first slot
    tc = tilde_coords(cfg, _point([1.0j, 1.0, -1.0], [2.0], t=0.0))
    assert np.allclose(tc.class_prime, [1.0, -1.0j, 1.0j])


def test_chart_dimension_audit():
    # complex chart coordinates count r' + r'' - 1 in every fiber type
    for rp, rs, t in [(1, 1, -0.1), (2, 3, 0.0), (3, 2, 0.2)]:
        cfg = make_config(r_prime=rp, r_second=rs)
        rng = np.random.default_rng(7)
        p = random_stable_fiber(rng, cfg, 0.4, t)
        chart = quotient_chart(cfg, p)
        assert chart.affine.shape[0] + chart.line_fiber.shape[0] == rp + rs - 1


def test_chart_separates_orbits(rng):
    cfg = make_config(r_prime=2, r_second=2)
    distinct = 0
    for _ in range(200):
        p = random_stable_fiber(rng, cfg, 1.0, 0.0)
        q = random_stable_fiber(rng, cfg, 1.0, 0.0)
        d = np.abs(segre_point(p) - segre_point(q)).max()
        if d > 1e-6:
            distinct += 1
    assert distinct == 200


# -- tilde_coords ------------------------------------------------------------


def test_tilde_example(cfg_identity):
    cfg = make_config(r_prime=2, r_second=1)
    tc = tilde_coords(cfg, _point([2.0, 0.0], [5.0]))
    assert np.allclose(tc.class_prime, [1.0, 0.0])
    assert np.allclose(tc.class_second, [1.0])
    assert tc.lambda_ == pytest.approx(10.0)


def test_tilde_invariance(cfg_identity):
    cfg = make_config(r_prime=2, r_second=2)
    p = _point([1.0, -0.3j], [0.7, 0.2])
    a = tilde_coords(cfg, p)
    b = tilde_coords(cfg, cstar_act(0.5j, p))
    assert np.abs(a.class_prime - b.class_prime).max() <= 1e-12
    assert np.abs(a.class_second - b.class_second).max() <= 1e-12
    assert abs(a.lambda_ - b.lambda_) <= 1e-12 * max(1.0, abs(a.lambda_))


def test_tilde_exceptional_locus(cfg_identity):
    cfg = make_config(r_prime=2, r_second=1)
    with pytest.raises(OnExceptionalLocus):
        tilde_coords(cfg, _point([1.0, 1.0], [0.0]))


def test_tilde_reconstruction(rng):
    cfg = make_config(r_prime=3, r_second=2)
    for _ in range(100):
        p = random_stable_fiber(rng, cfg, 0.2, 0.0)
        tc = tilde_coords(cfg, p)
        tensor = segre_point(p)
        assert np.abs(tilde_reconstruct(tc) - tensor).max() <= 1e-12 * max(1.0, np.abs(tensor).max())

"""Polar fiber coordinates, the extended action, boundary projectivization."""

import re
import warnings

import numpy as np
import pytest

from flipq import (
    BasePoint,
    BlowupPoint,
    ConfigInvalid,
    DegenerateBranch,
    DimensionMismatch,
    FiberPoint,
    NotOnBoundary,
    OnCenter,
    ZeroScalar,
    boundary_coords,
    cstar_act,
    cstar_act_blowup,
    from_blowup,
    make_blowup_point,
    solve_rho_blowup,
    to_blowup,
)
from flipq.core import fiber_norms
from flipq.sampling import random_stable_fiber, random_unit_direction, random_zeta

from conftest import fourier_metric, make_config


def _point(yp, ys, theta=0.0, t=0.0):
    return FiberPoint(base=BasePoint(theta, t), y_prime=np.array(yp, dtype=complex),
                      y_second=np.array(ys, dtype=complex))


def _bp(r, wp, ws, theta=0.0, t=0.0):
    return BlowupPoint(r=r, w_prime=np.array(wp, dtype=complex),
                       w_second=np.array(ws, dtype=complex), base=BasePoint(theta, t))


def test_to_blowup_345(cfg_wide):
    bp = to_blowup(cfg_wide, _point([3.0], [4.0]))
    assert bp.r == pytest.approx(5.0)
    assert np.allclose(bp.w_prime, [0.6])
    assert np.allclose(bp.w_second, [0.8])


def test_to_blowup_unit(cfg_identity):
    bp = to_blowup(cfg_identity, _point([1.0], [0.0]))
    assert bp.r == pytest.approx(1.0)
    assert np.allclose(bp.w_prime, [1.0]) and np.allclose(bp.w_second, [0.0])


def test_to_blowup_on_center(cfg_identity):
    with pytest.raises(OnCenter):
        to_blowup(cfg_identity, _point([0.0], [0.0]))


def test_blowup_point_rejects_a_non_vector_direction():
    with pytest.raises(DimensionMismatch):
        _bp(0.0, [[1.0]], [0.0])


def test_from_blowup_boundary_blows_down(cfg_identity):
    p = from_blowup(_bp(0.0, [1.0], [0.0]))
    assert not np.any(p.y_prime) and not np.any(p.y_second)


def test_from_blowup_inverse_example(cfg_wide):
    p = from_blowup(_bp(5.0, [0.6], [0.8]))
    assert np.allclose(p.y_prime, [3.0]) and np.allclose(p.y_second, [4.0])


def test_blowup_round_trip(rng):
    cfg = make_config(r_prime=2, r_second=2, metric_field=fourier_metric(2, 2))
    for _ in range(200):
        p = random_stable_fiber(rng, cfg, rng.uniform(0, 2 * np.pi), 0.0)
        bp = to_blowup(cfg, p)
        q = from_blowup(bp)
        assert np.abs(q.y_prime - p.y_prime).max() <= 1e-13 * max(1.0, bp.r)
        assert np.abs(q.y_second - p.y_second).max() <= 1e-13 * max(1.0, bp.r)
        bp2 = to_blowup(cfg, q)
        assert bp2.r == pytest.approx(bp.r, rel=1e-13)


def test_blowup_action_unit_modulus(cfg_identity):
    cfg = make_config(r_prime=1, r_second=1)
    bp = _bp(2.0, [0.6], [0.8])
    zeta = np.exp(0.7j)
    out = cstar_act_blowup(cfg, zeta, bp)
    assert out.r == pytest.approx(2.0)
    assert np.allclose(out.w_prime, zeta * np.array([0.6]))
    assert np.allclose(out.w_second, np.array([0.8]) / zeta)


def test_blowup_action_pure_prime_direction(cfg_identity):
    # |zeta| = 2 on a direction with w'' = 0: the factor is exactly 2
    out = cstar_act_blowup(cfg_identity, 2.0, _bp(1.0, [1.0], [0.0]))
    assert out.r == pytest.approx(2.0)
    assert np.allclose(out.w_prime, [1.0])


def test_blowup_action_zero_scalar(cfg_identity):
    with pytest.raises(ZeroScalar):
        cstar_act_blowup(cfg_identity, 0.0, _bp(1.0, [1.0], [0.0]))


@pytest.mark.parametrize("zeta", [0.0, np.nan, np.inf, complex(np.inf, 0.0), complex(0.0, np.nan)],
                         ids=["0", "nan", "inf", "inf+0j", "0+nanj"])
@pytest.mark.parametrize("action", [
    lambda cfg, zeta: cstar_act(zeta, _point([0.6], [0.8])),
    lambda cfg, zeta: cstar_act_blowup(cfg, zeta, _bp(1.0, [0.6], [0.8])),
], ids=["cstar_act", "cstar_act_blowup"])
def test_scaling_actions_refuse_zero_and_non_finite_scalars(cfg_identity, action, zeta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroScalar, match="requires a finite zeta != 0"):
            action(cfg_identity, zeta)


def test_blowup_action_refuses_a_zero_direction(cfg_identity):
    # u = 0 on a zero direction, as boundary_coords refuses one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (0.0, 0.1):
            with pytest.raises(OnCenter, match="the scaling action needs a nonzero direction"):
                cstar_act_blowup(cfg_identity, 2.0, _bp(r, [0.0], [0.0]))


def test_blowup_action_equivariance(rng):
    # oracle: compose to_blowup after the linear action independently
    cfg = make_config(r_prime=2, r_second=1, metric_field=fourier_metric(2, 1))
    for _ in range(300):
        p = random_stable_fiber(rng, cfg, rng.uniform(0, 2 * np.pi), 0.0)
        zeta = random_zeta(rng)
        via_fiber = to_blowup(cfg, cstar_act(zeta, p))
        via_blowup = cstar_act_blowup(cfg, zeta, to_blowup(cfg, p))
        assert abs(via_fiber.r - via_blowup.r) <= 1e-11 * max(1.0, via_fiber.r)
        assert np.abs(via_fiber.w_prime - via_blowup.w_prime).max() <= 1e-11
        assert np.abs(via_fiber.w_second - via_blowup.w_second).max() <= 1e-11


def test_blowup_action_preserves_sphere(rng):
    cfg = make_config(r_prime=2, r_second=2, metric_field=fourier_metric(2, 2))
    for _ in range(200):
        theta = rng.uniform(0, 2 * np.pi)
        wp, ws = random_unit_direction(rng, cfg, theta)
        bp = _bp(rng.uniform(0, 2), wp, ws, theta=theta)
        out = cstar_act_blowup(cfg, random_zeta(rng), bp)
        p = FiberPoint(base=out.base, y_prime=out.w_prime, y_second=out.w_second)
        g1, g2 = fiber_norms(cfg, p)
        assert abs(g1 + g2 - 1.0) <= 1e-12


def test_blowup_action_fixes_boundary(rng, cfg_identity):
    for _ in range(50):
        wp, ws = random_unit_direction(rng, cfg_identity, 0.0)
        out = cstar_act_blowup(cfg_identity, random_zeta(rng), _bp(0.0, wp, ws))
        assert out.r == 0.0


def test_blowup_action_group_law(rng):
    cfg = make_config(r_prime=2, r_second=1)
    for r in [0.0, 0.5, 1.7]:
        for _ in range(100):
            theta = rng.uniform(0, 2 * np.pi)
            wp, ws = random_unit_direction(rng, cfg, theta)
            bp = _bp(r, wp, ws, theta=theta)
            z1, z2 = random_zeta(rng), random_zeta(rng)
            lhs = cstar_act_blowup(cfg, z1, cstar_act_blowup(cfg, z2, bp))
            rhs = cstar_act_blowup(cfg, z1 * z2, bp)
            assert abs(lhs.r - rhs.r) <= 1e-11 * max(1.0, rhs.r)
            assert np.abs(lhs.w_prime - rhs.w_prime).max() <= 1e-11
            assert np.abs(lhs.w_second - rhs.w_second).max() <= 1e-11


def test_boundary_coords_basis_direction(cfg_identity):
    b = boundary_coords(cfg_identity, _bp(0.0, [1.0], [0.0]))
    assert np.allclose(b.homog, [1.0, 0.0])


def test_boundary_coords_conjugates_second_block(cfg_identity):
    s = 1.0 / np.sqrt(2.0)
    b = boundary_coords(cfg_identity, _bp(0.0, [s], [1j * s]))
    assert np.allclose(b.homog, [1.0, -1j])


def test_boundary_coords_circle_invariance(cfg_identity):
    cfg = make_config(r_prime=2, r_second=1)
    w = np.array([0.5, 0.5j]), np.array([1.0 / np.sqrt(2.0)])
    bp = _bp(0.0, w[0], w[1])
    theta = 1.234
    # oracle: substitute the circle action directly
    acted = _bp(0.0, np.exp(1j * theta) * w[0], np.exp(-1j * theta) * w[1])
    a = boundary_coords(cfg, bp)
    b = boundary_coords(cfg, acted)
    assert np.abs(a.homog - b.homog).max() <= 1e-12


def test_boundary_coords_requires_boundary(cfg_identity):
    with pytest.raises(NotOnBoundary):
        boundary_coords(cfg_identity, _bp(0.5, [1.0], [0.0]))
    with pytest.raises(NotOnBoundary):
        boundary_coords(cfg_identity, _bp(0.0, [1.0], [0.0], t=0.1))


def test_boundary_coords_refuses_a_zero_direction(cfg_identity):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OnCenter, match="boundary coordinates need a nonzero direction"):
            boundary_coords(cfg_identity, _bp(0.0, [0.0], [0.0]))


def test_boundary_coords_keep_the_largest_modulus_pivot(rng):
    # oracle: the pivot rule written out, largest modulus, lowest index on a tie
    cfg = make_config(r_prime=2, r_second=2, metric_field=fourier_metric(2, 2))
    for _ in range(100):
        theta = rng.uniform(0, 2 * np.pi)
        wp, ws = random_unit_direction(rng, cfg, theta)
        homog = np.concatenate([wp, ws.conj()])
        expected = homog / homog[int(np.argmax(np.abs(homog)))]
        assert np.array_equal(boundary_coords(cfg, _bp(0.0, wp, ws, theta=theta)).homog, expected)


def test_make_blowup_point_checks_unit(cfg_identity):
    with pytest.raises(ConfigInvalid, match="is not 1 to"):
        make_blowup_point(cfg_identity, 1.0, [2.0], [0.0], BasePoint(0.0, 0.0))
    # a NaN entry is refused by BlowupPoint before the norm check
    for w_prime, w_second in (([np.nan], [0.0]), ([1.0], [np.nan])):
        with pytest.raises(ConfigInvalid, match="blowup direction must be finite"):
            make_blowup_point(cfg_identity, 1.0, w_prime, w_second, BasePoint(0.0, 0.0))
    bp = make_blowup_point(cfg_identity, 1.0, [1.0], [0.0], BasePoint(0.0, 0.0))
    assert bp.r == 1.0


@pytest.mark.parametrize("r", [-0.1, np.nan, np.inf])
def test_make_blowup_point_refuses_a_negative_or_non_finite_radius(cfg_identity, r):
    with pytest.raises(ConfigInvalid, match="blowup radius must be finite and >= 0"):
        make_blowup_point(cfg_identity, r, [1.0], [0.0], BasePoint(0.0, 0.0))
    # the rule is BlowupPoint's own: every blowup point obeys it
    with pytest.raises(ConfigInvalid, match="blowup radius must be finite and >= 0"):
        _bp(r, [1.0], [0.0])


BLOWUP_CALLS = {
    "solve_rho_blowup": solve_rho_blowup,
    "boundary_coords": boundary_coords,
    "cstar_act_blowup": lambda cfg, bp: cstar_act_blowup(cfg, 2.0, bp),
}

# (call, r) -> the error a zero direction raises
ZERO_DIRECTION_ERRORS = {
    ("solve_rho_blowup", 0.0): (OnCenter, "the boundary rescaling needs a nonzero direction"),
    ("solve_rho_blowup", 0.1): (DegenerateBranch, "the rescaling equation is undefined on the zero section"),
    ("boundary_coords", 0.0): (OnCenter, "boundary coordinates need a nonzero direction"),
    ("boundary_coords", 0.1): (NotOnBoundary, "needs r = 0 and t = 0"),
    ("cstar_act_blowup", 0.0): (OnCenter, "the scaling action needs a nonzero direction"),
    ("cstar_act_blowup", 0.1): (OnCenter, "the scaling action needs a nonzero direction"),
}


@pytest.mark.parametrize("direction", ["zero", "nan", "inf"])
@pytest.mark.parametrize("r", [0.0, 0.1])
@pytest.mark.parametrize("name", sorted(BLOWUP_CALLS))
def test_blowup_calls_refuse_an_unusable_direction(cfg_identity, name, r, direction):
    # a zero direction raises the call's own error, the boundary rescaling's too; a non-finite entry
    # is refused with the point, before numpy can warn (RuntimeWarning is an error here)
    w_prime, w_second = {"zero": ([0.0], [0.0]), "nan": ([np.nan], [0.0]), "inf": ([0.6], [np.inf])}[direction]
    error, message = (ZERO_DIRECTION_ERRORS[name, r] if direction == "zero"
                      else (ConfigInvalid, "blowup direction must be finite"))
    with pytest.raises(error, match=re.escape(message)):
        BLOWUP_CALLS[name](cfg_identity, _bp(r, w_prime, w_second))

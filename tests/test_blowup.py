"""Polar fiber coordinates, the extended action, boundary projectivization."""

import re
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from flipq import (
    BasePoint,
    BlowupPoint,
    ConfigInvalid,
    DimensionMismatch,
    FiberPoint,
    FlipQError,
    NotOnBoundary,
    OnCenter,
    PerturbationSpec,
    ZeroScalar,
    boundary_coords,
    cstar_act,
    cstar_act_blowup,
    from_blowup,
    make_blowup_point,
    renorm_eval,
    solve_rho_blowup,
    to_blowup,
    to_blowup_batch,
)
from flipq import kernels, presets
from flipq.config_io import build_model
from flipq.core import fiber_norms
from flipq.sampling import random_unit_direction, random_zeta

from conftest import fourier_metric, gaussian_point, make_config


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


@pytest.mark.parametrize("r", [1e-150, 1e-155, 1e-161, 1e-163])
def test_to_blowup_refuses_a_vector_whose_norm_lost_its_digits(cfg_identity, r):
    # |v|^2 = r^2 is a normal float at 1e-150 and w is a unit direction; below the smallest normal
    # float (kernels.NORM_SQ_MIN, scale_root's threshold too) it is subnormal or 0 for this nonzero v
    p = _point([0.6 * r], [0.8 * r])
    if r == 1e-150:
        bp = to_blowup(cfg_identity, p)
        assert abs(abs(bp.w_prime[0]) ** 2 + abs(bp.w_second[0]) ** 2 - 1.0) <= 1e-15
        return
    with pytest.raises(OnCenter, match="below the smallest normal float: its digits are lost"):
        to_blowup(cfg_identity, p)


def test_to_blowup_batch_gives_no_direction_exactly_below_the_normal_floats():
    # the one polar rule: r = 0 and a NaN direction exactly where r^2 < kernels.NORM_SQ_MIN (the zero
    # section included), with no numpy warning (RuntimeWarning is an error here); the other lane is
    # to_blowup's, bit for bit
    cfg = build_model(presets.quartic_config())
    radii = np.array([0.0, 1e-150, 1e-155, 1e-160, 1e-162, 1e-170])
    y_prime, y_second = 0.6 * radii[:, None] + 0j, 0.8 * radii[:, None] + 0j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r, w_prime, w_second, g1, g2 = to_blowup_batch(cfg, np.zeros(len(radii)), y_prime, y_second)
    lost = g1 + g2 < kernels.NORM_SQ_MIN
    assert lost.tolist() == [True, False, True, True, True, True]
    directions = np.concatenate([w_prime, w_second], axis=1)
    assert np.isnan(directions).all(axis=1).tolist() == lost.tolist()
    assert (r == 0.0).tolist() == lost.tolist()
    bp = to_blowup(cfg, _point(y_prime[1], y_second[1]))
    assert np.array([bp.r, *bp.w_prime, *bp.w_second]).tobytes() == np.array([r[1], *directions[1]]).tobytes()


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
        p = gaussian_point(rng, cfg, rng.uniform(0, 2 * np.pi), 0.0)
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


@pytest.mark.parametrize("modulus", [1e-300, 1e-200, 1e-160, 1e-155, 1e-100, 1.0, 1e100, 1e155, 1e160, 1e200,
                                     1e300])
def test_blowup_action_takes_a_zeta_of_any_finite_modulus(modulus):
    # the image of (0.5, (0.6, 0.8)) is finite at every modulus (r about 4e199 at 1e-200), though |zeta|^2
    # over- or underflows beyond about 1e154 and 1e-154.  Oracle: u = (|zeta|^2 a' + |zeta|^-2 a'')^(1/2)
    # to 50 digits at the same a', a''
    cfg = build_model(presets.quartic_config())
    bp = _bp(0.5, [0.6], [0.8])
    ap, app = fiber_norms(cfg, FiberPoint(base=bp.base, y_prime=bp.w_prime, y_second=bp.w_second))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for zeta in (modulus, modulus * np.exp(0.7j)):
            out = cstar_act_blowup(cfg, zeta, bp)
            with localcontext(prec=50):
                m2 = Decimal(abs(zeta)) ** 2
                u = (m2 * Decimal(ap) + Decimal(app) / m2).sqrt()
                assert abs(Decimal(out.r) / (Decimal(bp.r) * u) - 1) <= Decimal(2.0**-52)
            g1, g2 = fiber_norms(cfg, FiberPoint(base=out.base, y_prime=out.w_prime, y_second=out.w_second))
            assert abs(g1 + g2 - 1.0) <= 1e-15


def test_blowup_action_refuses_a_zero_direction(cfg_identity):
    # the point itself refuses a zero direction, before the action could divide by u = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (0.0, 0.1):
            with pytest.raises(OnCenter, match="blowup direction must be nonzero"):
                cstar_act_blowup(cfg_identity, 2.0, _bp(r, [0.0], [0.0]))


def test_blowup_action_refuses_a_direction_whose_norm_lost_its_digits():
    # a BlowupPoint checks only that its direction is nonzero; the action reads |w|^2 from the polar
    # rule, which refuses this one before u = 0 could divide
    cfg = build_model(presets.quartic_config())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OnCenter, match="below the smallest normal float: its digits are lost"):
            cstar_act_blowup(cfg, 2.0, _bp(0.5, [1e-170], [0.0]))


@pytest.mark.parametrize("modulus", [1e-310, 5e-324])
def test_blowup_action_takes_a_subnormal_zeta(modulus):
    # 1 / |zeta| overflows: on the boundary the image is (0, (0, w'' / phase)), of unit norm; off it the
    # image radius is beyond the floats and refused, with no numpy warning either way
    cfg = build_model(presets.quartic_config())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for zeta in (modulus, modulus * np.exp(0.7j), modulus * 1j):
            out = cstar_act_blowup(cfg, zeta, _bp(0.0, [0.6], [0.8]))
            assert out.r == 0.0 and out.w_prime.tolist() == [0j]
            # oracle: 1 / phase of zeta as stored (its subnormal parts keep fewer digits than e^0.7j), read
            # after an exact scaling by 2^600, since |zeta| itself is subnormal
            scaled = complex(zeta) * 2.0**600
            assert abs(out.w_second[0] - scaled.conjugate() / abs(scaled)) <= 1e-15
            g1, g2 = fiber_norms(cfg, FiberPoint(base=out.base, y_prime=out.w_prime, y_second=out.w_second))
            assert abs(g1 + g2 - 1.0) <= 1e-15
            with pytest.raises(ConfigInvalid, match=re.escape("blowup radius must be finite and >= 0, got inf")):
                cstar_act_blowup(cfg, zeta, _bp(0.5, [0.6], [0.8]))


def test_blowup_action_equivariance(rng):
    # oracle: compose to_blowup after the linear action independently
    cfg = make_config(r_prime=2, r_second=1, metric_field=fourier_metric(2, 1))
    for _ in range(300):
        p = gaussian_point(rng, cfg, rng.uniform(0, 2 * np.pi), 0.0)
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
        with pytest.raises(OnCenter, match="blowup direction must be nonzero"):
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


@pytest.mark.parametrize("w_prime", [1e100, 1e160])
def test_a_huge_direction_is_refused_without_a_warning(w_prime):
    # |w|^2 = 1e200 is finite; at 1e160 it overflows to inf, and the unit-norm rule refuses both alike
    cfg = build_model(presets.quartic_config())
    message = f"direction norm^2 = {'inf' if w_prime == 1e160 else '1e+200'} is not 1 to 1e-12"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: renorm_eval(cfg, cfg.perturbation, 4, 0.1, [w_prime], [0.0]),
                     lambda: make_blowup_point(cfg, 0.1, [w_prime], [0.0], BasePoint(0.0, 0.0))):
            with pytest.raises(ConfigInvalid) as got:
                call()
            assert str(got.value) == message


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

@pytest.mark.parametrize("direction", ["zero", "nan", "inf"])
@pytest.mark.parametrize("r", [0.0, 0.1])
@pytest.mark.parametrize("name", sorted(BLOWUP_CALLS))
def test_blowup_calls_refuse_an_unusable_direction(cfg_identity, name, r, direction):
    # the point refuses an unusable direction, whatever r is, before any call sees it and before numpy
    # can warn (RuntimeWarning is an error here): a zero one with OnCenter, a non-finite entry with
    # ConfigInvalid
    w_prime, w_second = {"zero": ([0.0], [0.0]), "nan": ([np.nan], [0.0]), "inf": ([0.6], [np.inf])}[direction]
    error, message = ((OnCenter, "blowup direction must be nonzero") if direction == "zero"
                      else (ConfigInvalid, "blowup direction must be finite"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=re.escape(message)):
            BLOWUP_CALLS[name](cfg_identity, _bp(r, w_prime, w_second))


# name -> (a valid r, the call on (r, w', w'')): each call that takes a blowup point builds it over theta = 0,
# t = 0; solve_rho_blowup has a boundary branch at r = 0 and a solve at r > 0, and invalid inputs reach either
POINT_CALLS = {
    "BlowupPoint": (0.0, lambda cfg, r, wp, ws: _bp(r, wp, ws)),
    "make_blowup_point": (0.0, lambda cfg, r, wp, ws: make_blowup_point(cfg, r, wp, ws, BasePoint(0.0, 0.0))),
    "solve_rho_blowup-r0": (0.0, lambda cfg, r, wp, ws: solve_rho_blowup(cfg, _bp(r, wp, ws))),
    "solve_rho_blowup-r0.1": (0.1, lambda cfg, r, wp, ws: solve_rho_blowup(cfg, _bp(r, wp, ws))),
    "cstar_act_blowup": (0.1, lambda cfg, r, wp, ws: cstar_act_blowup(cfg, 2.0, _bp(r, wp, ws))),
    "boundary_coords": (0.0, lambda cfg, r, wp, ws: boundary_coords(cfg, _bp(r, wp, ws))),
    "renorm_eval": (0.1, lambda cfg, r, wp, ws: renorm_eval(cfg, PerturbationSpec(), 4, r, wp, ws)),
}

# invalid input -> (r, or None for the call's valid r; w'; w''; the error and message of the rule that owns
# the invariant).  |w|^2 = 1 + 5e-10 is refused at make_blowup_point's one tolerance.
INVALID_POINTS = {
    "negative-r": (-0.1, [0.6], [0.8], ConfigInvalid, "blowup radius must be finite and >= 0, got -0.1"),
    "nan-r": (np.nan, [0.6], [0.8], ConfigInvalid, "blowup radius must be finite and >= 0, got nan"),
    "inf-r": (np.inf, [0.6], [0.8], ConfigInvalid, "blowup radius must be finite and >= 0, got inf"),
    "nan-entry": (None, [np.nan], [0.8], ConfigInvalid, "blowup direction must be finite"),
    "inf-entry": (None, [0.6], [np.inf], ConfigInvalid, "blowup direction must be finite"),
    "zero-direction": (None, [0.0], [0.0], OnCenter, "blowup direction must be nonzero"),
    "non-unit": (None, [np.sqrt(1.0 + 5e-10)], [0.0], ConfigInvalid,
                 "direction norm^2 = 1.0000000005 is not 1 to 1e-12"),
}
# only make_blowup_point and renorm_eval apply the unit-norm rule; the rest take any nonzero direction
ONE_OWNER_CASES = [(name, case) for name in POINT_CALLS for case in INVALID_POINTS
                   if case != "non-unit" or name in ("make_blowup_point", "renorm_eval")]


@pytest.mark.parametrize("name, case", ONE_OWNER_CASES, ids=[f"{n}-{c}" for n, c in ONE_OWNER_CASES])
def test_each_blowup_invariant_has_one_owner(cfg_identity, name, case):
    r, w_prime, w_second, error, message = INVALID_POINTS[case]
    valid_r, call = POINT_CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FlipQError) as got:
            call(cfg_identity, valid_r if r is None else r, np.array(w_prime), np.array(w_second))
    assert type(got.value) is error
    assert str(got.value).startswith(message)

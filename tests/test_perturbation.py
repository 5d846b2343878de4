"""Graph functions, condition checks, the rescaling solve, and matching."""

import numpy as np
import pytest

from flipq import (
    BasePoint,
    BlowupPoint,
    BoundViolated,
    DegenerateBranch,
    DegenerateDerivative,
    FiberPoint,
    NoRoot,
    OutOfDomain,
    PerturbationSpec,
    PerturbationTerm,
    chi_eval,
    cstar_act,
    extract_graph,
    matching_map,
    matching_map_batch,
    moment_value,
    phi_graph,
    phi_moment,
    phi_quadratic,
    renorm_eval,
    rescale_alpha_beta,
    rest_bound_scan,
    solve_rho,
    solve_rho_batch,
    solve_rho_blowup,
    taylor_rest,
    tilde_coords,
    verify_conditions,
)
from flipq.kernels import realify
from flipq.quotient import moment_value_batch
from flipq.sampling import random_domain_batch, random_unit_direction

from conftest import fourier_metric, make_config, mixed_quartic_term


def _point(yp, ys, theta=0.0, t=0.0):
    return FiberPoint(base=BasePoint(theta, t), y_prime=np.array(yp, dtype=complex),
                      y_second=np.array(ys, dtype=complex))


def _quadratic_root(g1, g2, c):
    """Independent closed-form reduction: positive root of g1 s^2 + 2 c s - g2 = 0."""
    if g1 == 0.0:
        return np.sqrt(g2 / (2.0 * c))
    s = (-c + np.sqrt(c * c + g1 * g2)) / g1
    return np.sqrt(s)


# -- chi_eval ----------------------------------------------------------------


def test_chi_symmetric_point(cfg_wide):
    assert chi_eval(cfg_wide, _point([1.0], [1.0])) == pytest.approx(0.0, abs=1e-15)


def test_chi_pure_prime(cfg_wide):
    assert chi_eval(cfg_wide, _point([2.0], [0.0])) == pytest.approx(-2.0)


def test_chi_quartic_term(cfg_quartic_wide):
    assert chi_eval(cfg_quartic_wide, _point([1.0], [1.0])) == pytest.approx(0.1)


def test_chi_out_of_domain(cfg_quartic):
    with pytest.raises(OutOfDomain):
        chi_eval(cfg_quartic, _point([5.0], [0.0]))


def test_chi_circle_invariance(rng, cfg_fourier_quartic):
    cfg = cfg_fourier_quartic
    for _ in range(200):
        thetas, yp, ys = random_domain_batch(rng, cfg, 1)
        p = _point(yp[0], ys[0], theta=float(thetas[0]))
        q = cstar_act(np.exp(1j * rng.uniform(0, 2 * np.pi)), p)
        assert abs(chi_eval(cfg, p) - chi_eval(cfg, q)) <= 1e-12


def test_chi_quadratic_part_hessian(cfg_fourier_quartic):
    # FD Hessian of chi at the zero section is -(G' (+) -G'') realified
    cfg = cfg_fourier_quartic
    rp, rs = cfg.r_prime, cfg.r_second
    dim = 2 * (rp + rs)
    h = 1e-3
    from flipq.perturbation import _chi_parts, _fiber_from_real

    for theta in (0.0, 1.1, np.pi):
        def q(z):
            yp, ys = _fiber_from_real(z, rp, rs)
            return _chi_parts(cfg, theta, yp, ys)[0]

        H = np.empty((dim, dim))
        f0 = q(np.zeros(dim))
        for i in range(dim):
            ei = np.zeros(dim)
            ei[i] = h
            H[i, i] = (q(ei) - 2 * f0 + q(-ei)) / h**2
            for j in range(i + 1, dim):
                ej = np.zeros(dim)
                ej[j] = h
                H[i, j] = H[j, i] = (q(ei + ej) - q(ei - ej) - q(-ei + ej) + q(-ei - ej)) / (4 * h**2)
        G1 = cfg.metric_field.g_prime_at(theta)
        G2 = cfg.metric_field.g_second_at(theta)
        expected = np.block([
            [-realify(G1), np.zeros((2 * rp, 2 * rs))],
            [np.zeros((2 * rs, 2 * rp)), realify(G2)],
        ])
        assert np.abs(H - expected).max() <= 1e-4


# -- extract_graph -----------------------------------------------------------


def test_extract_graph_moment(cfg_wide):
    t = extract_graph(cfg_wide, phi_moment(cfg_wide), _point([2.0], [1.0]))
    assert t == pytest.approx(-1.5, abs=1e-12)


def test_extract_graph_zero_section(cfg_wide):
    t = extract_graph(cfg_wide, phi_moment(cfg_wide), _point([0.0], [0.0]))
    assert t == pytest.approx(0.0, abs=1e-12)


def test_extract_graph_quartic(cfg_quartic_wide):
    t = extract_graph(cfg_quartic_wide, phi_graph(cfg_quartic_wide), _point([1.0], [1.0]))
    assert t == pytest.approx(0.1, abs=1e-12)


def test_extract_graph_degenerate_derivative(cfg_wide):
    with pytest.raises(DegenerateDerivative):
        extract_graph(cfg_wide, lambda theta, yp, ys, t: 1.0, _point([1.0], [1.0]))


def test_extract_graph_no_root_in_window(cfg_identity):
    with pytest.raises(NoRoot):
        extract_graph(cfg_identity, lambda theta, yp, ys, t: t - 10.0, _point([0.1], [0.1]))


# -- verify_conditions -------------------------------------------------------


def test_conditions_moment_map(cfg_identity):
    report = verify_conditions(cfg_identity, phi_moment(cfg_identity), n_theta=16)
    assert report.all_ok
    assert report.worst_p3 <= 1e-4


def test_conditions_quartic_graph(cfg_quartic):
    report = verify_conditions(cfg_quartic, phi_graph(cfg_quartic), n_theta=16)
    assert report.all_ok


def test_conditions_fourier_metrics(cfg_fourier_quartic):
    report = verify_conditions(cfg_fourier_quartic, phi_graph(cfg_fourier_quartic), n_theta=16)
    assert report.all_ok


def test_conditions_wrong_sign_block(cfg_identity):
    phi = phi_quadratic(cfg_identity, 1.0, 1.0)
    report = verify_conditions(cfg_identity, phi, n_theta=16)
    assert report.p1_ok and report.p2_ok and not report.p3_ok
    assert report.worst_p3 >= 1.0


def test_conditions_fd_step_window(cfg_identity):
    with pytest.raises(ValueError):
        verify_conditions(cfg_identity, phi_moment(cfg_identity), fd_step=0.5)


# -- taylor_rest / rest_bound_scan -------------------------------------------


def test_rest_vanishes_without_terms(cfg_wide):
    assert taylor_rest(cfg_wide, _point([0.7], [0.3])) == 0.0
    report = rest_bound_scan(cfg_wide, 500, seed=3)
    assert report.empirical_M == 0.0
    assert report.margin_ok


def test_rest_mixed_term(cfg_quartic_wide):
    assert taylor_rest(cfg_quartic_wide, _point([1.0], [1.0])) == pytest.approx(0.1)


def test_rest_bound_quartic(cfg_quartic):
    report = rest_bound_scan(cfg_quartic, 2000, seed=5)
    # |c| g1 g2 / |u|^3 <= |c| |u| / 4 over the domain
    assert 0.0 < report.empirical_M <= 0.1 * cfg_quartic.domain_radius
    assert report.margin_ok
    assert report.samples == 2000


def test_rest_margin_flagging():
    cfg = make_config(epsilon=2.0, domain_radius=3.0,
                      terms=[PerturbationTerm(norm_second_pow=2, coeff=(-10.0,))])
    report = rest_bound_scan(cfg, 1000, seed=7)
    assert not report.margin_ok


# -- solve_rho ---------------------------------------------------------------


def test_solve_rho_unperturbed_is_identity(rng, cfg_identity):
    for _ in range(50):
        thetas, yp, ys = random_domain_batch(rng, cfg_identity, 1)
        sol = solve_rho(cfg_identity, _point(yp[0], ys[0], theta=float(thetas[0])))
        assert sol.rho == pytest.approx(1.0, abs=1e-12)
        assert sol.converged


def test_solve_rho_quartic_matches_closed_form(cfg_quartic_wide):
    sol = solve_rho(cfg_quartic_wide, _point([1.0], [1.0]))
    # independent reduction: chi(v) = 0.1 folded into the constant term
    expected = _quadratic_root(1.0, 1.0, 0.1)
    assert sol.rho == pytest.approx(expected, abs=1e-10)
    assert sol.rho == pytest.approx(0.9513083, abs=1e-7)
    assert sol.residual <= 1e-12


def test_solve_rho_newton_from_far_seed(cfg_quartic_wide):
    # exercising the iteration itself rather than the closed-form seed
    polished = solve_rho(cfg_quartic_wide, _point([1.0], [1.0]))
    iterated = solve_rho(cfg_quartic_wide, _point([1.0], [1.0]), seed=1.0)
    assert iterated.iterations >= 1
    assert iterated.rho == pytest.approx(polished.rho, abs=1e-10)
    far = solve_rho(cfg_quartic_wide, _point([1.0], [1.0]), seed=7.0)
    assert far.rho == pytest.approx(polished.rho, abs=1e-10)


def test_solve_rho_degenerate_branches():
    cfg_neg = make_config(epsilon=2.0, domain_radius=3.0,
                          terms=[PerturbationTerm(norm_second_pow=2, coeff=(-10.0,))])
    with pytest.raises(DegenerateBranch):
        solve_rho(cfg_neg, _point([0.0], [1.0]))  # v' = 0 with chi < 0
    cfg_pos = make_config(epsilon=2.0, domain_radius=3.0,
                          terms=[PerturbationTerm(norm_prime_pow=2, coeff=(10.0,))])
    with pytest.raises(DegenerateBranch):
        solve_rho(cfg_pos, _point([1.0], [0.0]))  # v'' = 0 with chi > 0
    with pytest.raises(DegenerateBranch):
        solve_rho(cfg_neg, _point([0.0], [0.0]))  # zero section


def test_solve_rho_sign_certificate(rng, cfg_fourier_quartic):
    # alpha at the root is tiny and the derivative is strictly negative
    from flipq.perturbation import _chi_parts

    cfg = cfg_fourier_quartic
    thetas, yp, ys = random_domain_batch(rng, cfg, 100)
    for i in range(100):
        p = _point(yp[i], ys[i], theta=float(thetas[i]))
        sol = solve_rho(cfg, p)
        c, g1, g2 = _chi_parts(cfg, p.base.theta, p.y_prime, p.y_second)
        alpha, beta = rescale_alpha_beta(g1, g2, c, sol.rho)
        assert abs(alpha) <= 1e-12
        assert beta < 0.0


def test_solve_rho_batch_matches_pointwise(rng, cfg_quartic):
    thetas, yp, ys = random_domain_batch(rng, cfg_quartic, 64)
    rho, resid, iters, status = solve_rho_batch(cfg_quartic, thetas, yp, ys)
    assert (status == 0).all()
    for i in range(64):
        sol = solve_rho(cfg_quartic, _point(yp[i], ys[i], theta=float(thetas[i])))
        assert rho[i] == pytest.approx(sol.rho, abs=1e-13)


# -- solve_rho_blowup --------------------------------------------------------


def test_blowup_solve_boundary_exact(rng, cfg_quartic):
    for _ in range(100):
        theta = rng.uniform(0, 2 * np.pi)
        wp, ws = random_unit_direction(rng, cfg_quartic, theta)
        bp = BlowupPoint(r=0.0, w_prime=wp, w_second=ws, base=BasePoint(theta, 0.0))
        sol = solve_rho_blowup(cfg_quartic, bp)
        assert sol.rho == 1.0
        assert sol.residual == 0.0


def test_blowup_solve_consistent_with_direct(rng, cfg_quartic_wide):
    cfg = cfg_quartic_wide
    for _ in range(50):
        theta = rng.uniform(0, 2 * np.pi)
        wp, ws = random_unit_direction(rng, cfg, theta)
        bp = BlowupPoint(r=1.0, w_prime=wp, w_second=ws, base=BasePoint(theta, 0.0))
        direct = solve_rho(cfg, _point(wp, ws, theta=theta))
        renorm = solve_rho_blowup(cfg, bp)
        assert renorm.rho == pytest.approx(direct.rho, abs=1e-12)


def test_blowup_solve_decay(rng, cfg_quartic):
    # the renormalized perturbation is O(r^2): two orders per decade
    r_grid = [1e-1, 1e-2, 1e-3, 1e-4]
    for _ in range(8):
        theta = rng.uniform(0, 2 * np.pi)
        wp, ws = random_unit_direction(rng, cfg_quartic, theta)
        devs = []
        for r in r_grid:
            bp = BlowupPoint(r=r, w_prime=wp, w_second=ws, base=BasePoint(theta, 0.0))
            devs.append(abs(solve_rho_blowup(cfg_quartic, bp).rho - 1.0))
        for a, b in zip(devs, devs[1:]):
            assert a / b >= 50.0


# -- renorm_eval -------------------------------------------------------------


def _norm4_spec():
    # |v|^4 = (g1 + g2)^2 over identity metrics
    return PerturbationSpec(terms=(
        PerturbationTerm(norm_prime_pow=2, coeff=(1.0,)),
        PerturbationTerm(norm_second_pow=2, coeff=(1.0,)),
        PerturbationTerm(mixed_pow=1, coeff=(2.0,)),
    ))


def test_renorm_norm4_order4(cfg_identity):
    w = np.array([0.6]), np.array([0.8])
    for r in (0.0, 0.01, 0.3):
        val = renorm_eval(cfg_identity, _norm4_spec(), 4, r, w[0], w[1])
        assert val == pytest.approx(1.0, abs=1e-12)


def test_renorm_norm4_order3(cfg_identity):
    w = np.array([0.6]), np.array([0.8])
    assert renorm_eval(cfg_identity, _norm4_spec(), 3, 0.25, w[0], w[1]) == pytest.approx(0.25)
    assert renorm_eval(cfg_identity, _norm4_spec(), 3, 0.0, w[0], w[1]) == pytest.approx(0.0)


def test_renorm_mixed_term(cfg_identity):
    c = 0.7
    spec = PerturbationSpec(terms=(PerturbationTerm(mixed_pow=1, coeff=(c,)),))
    s = 1.0 / np.sqrt(2.0)
    w = np.array([s]), np.array([s])
    for r in (0.4, 0.05):
        assert renorm_eval(cfg_identity, spec, 3, r, w[0], w[1]) == pytest.approx(c * r / 4.0)
    assert renorm_eval(cfg_identity, spec, 3, 0.0, w[0], w[1]) == 0.0
    assert renorm_eval(cfg_identity, spec, 4, 0.0, w[0], w[1]) == pytest.approx(c / 4.0)


def test_renorm_callable_boundary_matches_analytic(cfg_identity):
    def tau(theta, yp, ys):
        return float((np.abs(yp) ** 2).sum() + (np.abs(ys) ** 2).sum()) ** 2

    w = np.array([0.6]), np.array([0.8])
    val = renorm_eval(cfg_identity, tau, 4, 0.0, w[0], w[1])
    assert val == pytest.approx(1.0, abs=1e-8)
    val3 = renorm_eval(cfg_identity, tau, 3, 0.0, w[0], w[1])
    assert val3 == pytest.approx(0.0, abs=1e-8)


def test_renorm_bound_violated_poly(cfg_identity):
    spec = PerturbationSpec(terms=(PerturbationTerm(norm_prime_pow=1, coeff=(1.0,)),))
    with pytest.raises(BoundViolated):
        renorm_eval(cfg_identity, spec, 3, 0.1, np.array([1.0]), np.array([0.0]))


def test_renorm_bound_violated_callable(cfg_identity):
    def tau(theta, yp, ys):
        return float((np.abs(yp) ** 2).sum() + (np.abs(ys) ** 2).sum())

    with pytest.raises(BoundViolated):
        renorm_eval(cfg_identity, tau, 3, 0.1, np.array([0.6]), np.array([0.8]))


def test_renorm_requires_unit_direction(cfg_identity):
    with pytest.raises(ValueError):
        renorm_eval(cfg_identity, _norm4_spec(), 4, 0.1, np.array([2.0]), np.array([0.0]))


# -- matching ---------------------------------------------------------------


def test_matching_identity_without_perturbation(rng, cfg_identity):
    thetas, yp, ys = random_domain_batch(rng, cfg_identity, 20)
    for i in range(20):
        p = _point(yp[i], ys[i], theta=float(thetas[i]))
        out = matching_map(cfg_identity, p)
        assert np.abs(out.y_prime - p.y_prime).max() <= 1e-13
        assert np.abs(out.y_second - p.y_second).max() <= 1e-13
        assert out.base.t == pytest.approx(chi_eval(cfg_identity, p), abs=1e-15)


def test_matching_quartic_example(cfg_quartic_wide):
    p = _point([1.0], [1.0])
    out = matching_map(cfg_quartic_wide, p)
    rho = _quadratic_root(1.0, 1.0, 0.1)
    assert out.y_prime[0] == pytest.approx(rho, abs=1e-10)
    assert out.y_second[0] == pytest.approx(1.0 / rho, abs=1e-10)
    assert out.base.t == pytest.approx(0.1)
    # same orbit: the product of the two coordinates is preserved
    assert (out.y_prime[0] * out.y_second[0]).real == pytest.approx(1.0, abs=1e-12)
    assert abs(moment_value(cfg_quartic_wide, out)) <= 1e-12


def test_matching_moment_exact_and_orbit_preserving(rng, cfg_fourier_quartic):
    cfg = cfg_fourier_quartic
    n = 2000
    thetas, yp, ys = random_domain_batch(rng, cfg, n)
    rho, t_out, op, os_, status = matching_map_batch(cfg, thetas, yp, ys)
    assert (status == 0).all()
    resid = np.abs(moment_value_batch(cfg, thetas, t_out, op, os_))
    assert resid.max() <= 1e-12
    segre_in = np.einsum("ni,nj->nij", yp, ys)
    segre_out = np.einsum("ni,nj->nij", op, os_)
    assert np.abs(segre_in - segre_out).max() <= 1e-11


def test_matching_preserves_tilde_coords(rng, cfg_quartic):
    thetas, yp, ys = random_domain_batch(rng, cfg_quartic, 50)
    for i in range(50):
        p = _point(yp[i], ys[i], theta=float(thetas[i]))
        out = matching_map(cfg_quartic, p)
        a = tilde_coords(cfg_quartic, p)
        b = tilde_coords(cfg_quartic, out)
        assert np.abs(a.class_prime - b.class_prime).max() <= 1e-11
        assert np.abs(a.class_second - b.class_second).max() <= 1e-11
        assert abs(a.lambda_ - b.lambda_) <= 1e-11 * max(1.0, abs(a.lambda_))


def test_matching_out_of_window():
    cfg = make_config(epsilon=0.1, domain_radius=3.0)
    with pytest.raises(OutOfDomain):
        matching_map(cfg, _point([2.0], [0.0]))  # chi = -2 leaves (-0.1, 0.1)


# -- sign separation ---------------------------------------------------------


@pytest.mark.parametrize("case", ["identity_quartic", "fourier_quartic", "ref_section"])
def test_axis_sign_separation(rng, case):
    if case == "identity_quartic":
        cfg = make_config(terms=[mixed_quartic_term(0.1)])
    elif case == "fourier_quartic":
        cfg = make_config(r_prime=2, r_second=1, metric_field=fourier_metric(2, 1),
                          terms=[mixed_quartic_term(0.1)])
    else:
        cfg = make_config(
            r_prime=2, r_second=2,
            terms=[PerturbationTerm(ref_inner_pow=2, coeff=(0.05, 0.02),
                                    ref_section=np.array([1.0, 0.0]))],
        )
    assert rest_bound_scan(cfg, 1000, seed=11).margin_ok
    for _ in range(300):
        theta = rng.uniform(0, 2 * np.pi)
        scale = cfg.domain_radius * rng.uniform(0.05, 0.99)
        wp, _ = random_unit_direction(rng, cfg, theta)
        zp = np.zeros(cfg.r_second, dtype=complex)
        value = chi_eval(cfg, _point(scale * wp, zp, theta=theta))
        assert value < 0.0
        _, ws = random_unit_direction(rng, cfg, theta)
        zs = np.zeros(cfg.r_prime, dtype=complex)
        value = chi_eval(cfg, _point(zs, scale * ws, theta=theta))
        assert value > 0.0

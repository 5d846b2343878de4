"""Graph functions, condition checks, the rescaling solve, and matching."""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from flipq import (
    BasePoint,
    BlowupPoint,
    BoundViolated,
    ConfigInvalid,
    DegenerateBranch,
    DegenerateDerivative,
    DimensionMismatch,
    FiberPoint,
    MetricFieldSpec,
    NoConvergence,
    NoRoot,
    NotStable,
    OnCenter,
    OutOfDomain,
    PerturbationSpec,
    PerturbationTerm,
    chi_eval,
    chi_eval_batch,
    cstar_act,
    extract_graph,
    fiber_norms,
    level_rho_batch,
    matching_map,
    matching_map_batch,
    metric_at,
    moment_value,
    normalize_to_level,
    phi_graph,
    phi_moment,
    phi_quadratic,
    quotient_chart,
    renorm_eval,
    rest_bound_scan,
    solve_rho,
    solve_rho_blowup,
    taylor_rest,
    presets,
    tilde_coords,
    to_blowup,
    to_blowup_batch,
    verify_conditions,
)
from flipq import kernels
from flipq.cli import BLOWUP_R_GRID, _blowup_rays, main
from flipq.config_io import build_model, parse_run_config, phi_from_config
from flipq.core import fiber_norms_batch, one_lane
from flipq.kernels import realify
from flipq.perturbation import (
    Contract,
    _tau_lanes,
    chi_parts_batch,
    condition_contracts,
    match_lanes,
    matching_errors,
    rescale_lanes,
    verdict,
)
from flipq.quotient import moment_value_batch
from flipq.sampling import random_domain_batch, random_unit_direction

from conftest import MIXED_MATCH_REFUSAL, fourier_metric, make_config, mixed_match_config, mixed_quartic_term

FIXTURES = Path(__file__).parent / "fixtures"


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

    for theta in (0.0, 1.1, np.pi):
        def q(z):
            return chi_eval(cfg, _point(z[:rp] + 1j * z[rp:2 * rp], z[2 * rp:2 * rp + rs] + 1j * z[2 * rp + rs:],
                                        theta=theta))

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
        G1, G2 = metric_at(cfg, theta)
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
        extract_graph(cfg_wide, lambda thetas, yp, ys, t: t * 0 + 1.0, _point([1.0], [1.0]))


def test_extract_graph_degenerate_derivative_at_a_root_seed(cfg_wide):
    # the seed t = 0 at the zero section is already a root of t^2, a double one
    with pytest.raises(DegenerateDerivative):
        extract_graph(cfg_wide, lambda thetas, yp, ys, t: t**2, _point([0.0], [0.0]))


def test_extract_graph_no_root_in_window(cfg_identity):
    with pytest.raises(NoRoot):
        extract_graph(cfg_identity, lambda thetas, yp, ys, t: t - 10.0, _point([0.1], [0.1]))


# -- verify_conditions -------------------------------------------------------


def test_conditions_moment_map(cfg_identity):
    report = verify_conditions(cfg_identity, phi_moment(cfg_identity), n_theta=16)
    assert report.p1_ok and report.p2_ok and report.p3_ok
    assert report.worst_p3 <= 1e-4


def test_conditions_quartic_graph(cfg_quartic):
    report = verify_conditions(cfg_quartic, phi_graph(cfg_quartic), n_theta=16)
    assert report.p1_ok and report.p2_ok and report.p3_ok


def test_conditions_fourier_metrics(cfg_fourier_quartic):
    report = verify_conditions(cfg_fourier_quartic, phi_graph(cfg_fourier_quartic), n_theta=16)
    assert report.p1_ok and report.p2_ok and report.p3_ok


# -- contract rows -------------------------------------------------------------


@pytest.mark.parametrize("worst, ok", [
    (0.0, True), (1e-12, True), (float(np.nextafter(1e-12, 1.0)), False), (np.inf, False),
    (np.nan, False), (None, False),
], ids=["zero", "at bound", "an ulp past", "inf", "nan", "nothing checked"])
def test_a_row_is_ok_exactly_when_its_worst_is_at_most_its_bound(worst, ok):
    assert Contract("row", worst, 1e-12).ok is ok
    assert Contract("row", worst, 1e-12, gates=False).ok is ok


def test_verdict_reads_every_gating_row_and_no_other():
    good, bad = Contract("good", 0.5, 1.0), Contract("bad", 2.0, 1.0)
    informational = Contract("informational", np.nan, 1.0, gates=False)
    assert verdict({"a": [good, informational], "b": [good]}) == ({"a": True, "b": True}, True)
    assert verdict({"a": [good, bad], "b": [good]}) == ({"a": False, "b": True}, False)
    assert verdict({"a": [good], "b": [bad, good]}) == ({"a": True, "b": False}, False)


def test_condition_and_margin_fields_come_from_their_rows(cfg_identity, cfg_quartic):
    report = verify_conditions(cfg_identity, phi_quadratic(cfg_identity, 1.0, 1.0), n_theta=16, tol=1e-4)
    rows = condition_contracts((report.worst_p1, report.worst_p2, report.worst_p3), 1e-4)
    assert [row.name for row in rows] == ["p1", "p2", "p3"]
    assert (report.p1_ok, report.p2_ok, report.p3_ok) == tuple(row.ok for row in rows) == (True, True, False)
    # a tol exactly at the worst P3 residual passes it
    at = verify_conditions(cfg_identity, phi_quadratic(cfg_identity, 1.0, 1.0), n_theta=16, tol=report.worst_p3)
    assert at.p3_ok
    for seed in (3, 4):
        rest = rest_bound_scan(cfg_quartic, 200, seed=seed)
        assert rest.margin_ok == Contract("margin", rest.margin_value, rest.margin_bound).ok


def test_conditions_wrong_sign_block(cfg_identity):
    phi = phi_quadratic(cfg_identity, 1.0, 1.0)
    report = verify_conditions(cfg_identity, phi, n_theta=16)
    assert report.p1_ok and report.p2_ok and not report.p3_ok
    assert report.worst_p3 >= 1.0


def test_conditions_fd_step_window(cfg_identity):
    with pytest.raises(ValueError):
        verify_conditions(cfg_identity, phi_moment(cfg_identity), fd_step=0.5)


@pytest.mark.parametrize("n_theta", [0, -3])
def test_conditions_need_a_theta(cfg_identity, n_theta):
    # an empty grid would report a vacuous pass
    with pytest.raises(ValueError, match="n_theta"):
        verify_conditions(cfg_identity, phi_moment(cfg_identity), n_theta=n_theta)


def _scalar_phi(cfg, coeffs=None):
    """The defining function at one fiber vector: t - chi_eval, or the quadratic with coeffs (a, b)."""

    def phi(theta, y_prime, y_second, t):
        p = FiberPoint(BasePoint(theta, 0.0), y_prime, y_second)
        if coeffs is None:
            return t - chi_eval(cfg, p)
        g1, g2 = fiber_norms(cfg, p)
        return t + 0.5 * (coeffs[0] * g1 + coeffs[1] * g2)

    return phi


def _scalar_stencil(cfg, phi, n_theta, h=1e-3):
    """(worst_p1, worst_p2, worst_p3) from the per-theta loop of one-point phi calls."""
    rp, rs = cfg.r_prime, cfg.r_second
    dim = 2 * (rp + rs)
    worst = [0.0, 0.0, 0.0]

    def phi_z(theta, z, t):
        return phi(theta, z[:rp] + 1j * z[rp:2 * rp], z[2 * rp:2 * rp + rs] + 1j * z[2 * rp + rs:], t)

    for theta in np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False):
        z0 = np.zeros(dim)
        f0 = phi_z(theta, z0, 0.0)
        dt = (phi_z(theta, z0, h) - phi_z(theta, z0, -h)) / (2.0 * h)
        worst[0] = max(worst[0], abs(f0), abs(dt - 1.0))
        H = np.empty((dim, dim))
        for i in range(dim):
            ei = np.zeros(dim)
            ei[i] = h
            worst[1] = max(worst[1], abs((phi_z(theta, ei, 0.0) - phi_z(theta, -ei, 0.0)) / (2.0 * h)))
            H[i, i] = (phi_z(theta, ei, 0.0) - 2.0 * f0 + phi_z(theta, -ei, 0.0)) / h**2
            for j in range(i + 1, dim):
                ej = np.zeros(dim)
                ej[j] = h
                H[i, j] = H[j, i] = (phi_z(theta, ei + ej, 0.0) - phi_z(theta, ei - ej, 0.0)
                                     - phi_z(theta, -ei + ej, 0.0) + phi_z(theta, -ei - ej, 0.0)) / (4.0 * h**2)
        G1, G2 = metric_at(cfg, float(theta))
        expected = np.block([[realify(G1), np.zeros((2 * rp, 2 * rs))],
                             [np.zeros((2 * rs, 2 * rp)), -realify(G2)]])
        worst[2] = max(worst[2], float(np.abs(H - expected).max()))
    return tuple(worst)


def _ranks_33_doc():
    """The 3/3 Fourier preset with a reference-pairing term, as the benchmark builds it."""
    doc = presets.fourier_metric_config(3, 3)
    doc["perturbation"]["terms"].append({"generators": {"ref_inner_sq": 2}, "coeff_fourier": [0.05, 0.02],
                                         "ref_section": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]})
    return doc


def _off_diagonal_doc():
    """Ranks 2/2, constant metrics with complex off-diagonal entries: the Hessian has off-diagonal blocks."""
    doc = presets.quartic_config(2, 2)
    doc["metrics"]["g_prime"] = [[2.0, [0.5, 0.3]], [[0.5, -0.3], 1.5]]
    doc["metrics"]["g_second"] = [[1.5, [0.0, 0.4]], [[0.0, -0.4], 1.0]]
    return doc


@pytest.mark.parametrize("doc, n_theta", [
    (presets.fourier_metric_config(2, 1), 16),
    (_off_diagonal_doc(), 4),
    (_ranks_33_doc(), 3),
    (json.loads((FIXTURES / "quartic.json").read_text()), 16),
    (json.loads((FIXTURES / "wrong_sign.json").read_text()), 16),
], ids=["fourier_21", "off_diagonal_22", "fourier_33_ref", "quartic", "wrong_sign"])
def test_verify_conditions_matches_scalar_stencil(doc, n_theta):
    # the batch stencil (one phi call over every point) against the per-theta
    # loop of one-point calls; the worst values agree bitwise
    run_cfg = parse_run_config(doc)
    cfg, spec = run_cfg.model, run_cfg.phi_spec
    coeffs = None if spec is None else (spec["coeff_prime"], spec["coeff_second"])
    report = verify_conditions(cfg, phi_from_config(run_cfg), n_theta=n_theta)
    expected = _scalar_stencil(cfg, _scalar_phi(cfg, coeffs), n_theta)
    assert (report.worst_p1, report.worst_p2, report.worst_p3) == expected
    assert report.samples == n_theta
    assert report.p3_ok == (coeffs is None)


def test_verify_conditions_blocks_agree(cfg_fourier_quartic, monkeypatch):
    # capping the lanes per phi call splits the grid into blocks, not the result
    cfg = cfg_fourier_quartic
    phi = phi_graph(cfg)
    whole = verify_conditions(cfg, phi, n_theta=7)
    calls = []

    def counted(*lanes):
        calls.append(len(lanes[0]))
        return phi(*lanes)

    monkeypatch.setattr(kernels, "KERNEL_LANES", 160)  # two thetas of 75 stencil points
    assert verify_conditions(cfg, counted, n_theta=7) == whole
    assert calls == [150, 150, 150, 75]


def test_verify_conditions_stencil_leaves_the_domain():
    # the stencil steps of size fd_step reach past a smaller domain_radius
    cfg = make_config(domain_radius=5e-4, terms=[mixed_quartic_term(0.1)])
    with pytest.raises(OutOfDomain, match="exceeds domain_radius = 0.0005"):
        verify_conditions(cfg, phi_graph(cfg), n_theta=4)


@pytest.mark.parametrize("make_phi", [phi_graph, phi_moment])
def test_verify_conditions_checks_the_metric_on_its_grid(make_phi):
    # g' is positive definite on the 64 validation thetas but not between them: the certificate
    # refuses it whatever verify's grid, also on the validation grid itself, and phi refuses every batch
    cfg = mixed_match_config()
    grid = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    for G in kernels.fourier_values(grid, *cfg.metric_field.packed_prime):
        assert np.linalg.eigvalsh(G).min() > 0.0
    for n_theta in (64, 128):
        with pytest.raises(ConfigInvalid) as exc:
            verify_conditions(cfg, make_phi(cfg), n_theta=n_theta)
        assert str(exc.value) == MIXED_MATCH_REFUSAL
    with pytest.raises(ConfigInvalid, match=re.escape(MIXED_MATCH_REFUSAL)):
        make_phi(cfg)(grid[:2], np.zeros((2, 2)), np.zeros((2, 1)), np.zeros(2))
    # the certified field passes
    cfg = mixed_match_config(indefinite=False)
    assert verify_conditions(cfg, make_phi(cfg), n_theta=8).p3_ok


# -- taylor_rest / rest_bound_scan -------------------------------------------


def test_rest_vanishes_without_terms(cfg_wide):
    assert taylor_rest(cfg_wide, _point([0.7], [0.3])) == 0.0
    report = rest_bound_scan(cfg_wide, 500, seed=3)
    assert report.empirical_M == 0.0
    assert report.margin_ok


def test_rest_mixed_term(cfg_quartic_wide):
    assert taylor_rest(cfg_quartic_wide, _point([1.0], [1.0])) == pytest.approx(0.1)


def test_rest_keeps_its_precision_near_the_zero_section(cfg_fourier_quartic):
    # the rest 0.1 |v'|^2 |v''|^2 is r^2 below the quadratic part; taking it
    # as chi minus that part would lose it to cancellation at small r
    cfg = cfg_fourier_quartic
    theta, w_prime, w_second = 1.1, np.array([0.6, 0.3j]), np.array([0.5 + 0.2j])
    G1, G2 = metric_at(cfg, theta)
    for r in (1e-1, 1e-3, 1e-5):
        g1 = (r * w_prime).conj() @ G1 @ (r * w_prime)
        g2 = (r * w_second).conj() @ G2 @ (r * w_second)
        rest = taylor_rest(cfg, _point(r * w_prime, r * w_second, theta=theta))
        assert rest == pytest.approx(0.1 * g1.real * g2.real, rel=1e-13, abs=0.0)


def test_rest_bound_quartic(cfg_quartic):
    report = rest_bound_scan(cfg_quartic, 2000, seed=5)
    # |c| g1 g2 / |u|^3 <= |c| |u| / 4 over the domain
    assert 0.0 < report.empirical_M <= 0.1 * cfg_quartic.domain_radius
    assert report.margin_ok
    assert report.samples == 2000


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("doc", [
    presets.ref_section_config(2, 2),
    presets.fourier_metric_config(2, 1),
    presets.quartic_config(1, 1),
], ids=["ref_section_2_2", "fourier_2_1", "quartic_1_1"])
def test_rest_bound_is_the_largest_taylor_rest_ratio(doc, seed):
    # the scan reads each lane's rest as taylor_rest does, summed apart from chi,
    # so its empirical_M is bitwise the largest |taylor_rest(v)| / |v|^3 over its draws
    cfg = build_model(doc)
    n = 500
    thetas, y_prime, y_second = random_domain_batch(np.random.default_rng(seed), cfg, n)
    g1, g2 = fiber_norms_batch(cfg, thetas, y_prime, y_second)
    rest = np.array([taylor_rest(cfg, _point(yp, ys, theta=theta))
                     for theta, yp, ys in zip(thetas, y_prime, y_second)])
    expected = float(np.max(np.abs(rest) / (g1 + g2) ** 1.5))
    assert rest_bound_scan(cfg, n, seed=seed).empirical_M.hex() == expected.hex()


@pytest.mark.parametrize("n", [0, -1])
def test_rest_bound_scan_refuses_an_empty_sample(cfg_quartic, n):
    with pytest.raises(ValueError, match=f"n_samples = {n} must be >= 1"):
        rest_bound_scan(cfg_quartic, n)


def test_rest_margin_flagging():
    cfg = make_config(epsilon=2.0, domain_radius=3.0,
                      terms=[PerturbationTerm(norm_second_pow=2, coeff=(-10.0,))])
    report = rest_bound_scan(cfg, 1000, seed=7)
    assert not report.margin_ok


def test_margin_bound_is_a_quarter_of_the_smallest_metric_eigenvalue():
    # constant metrics 2 I: lambda_min = 2, so the bound is 0.5 (lambda_min = 1 would hide the factor)
    cfg = make_config(metric_field=MetricFieldSpec.constant(2.0 * np.eye(1), 2.0 * np.eye(1)),
                      terms=[mixed_quartic_term(0.1)])
    report = rest_bound_scan(cfg, 100, seed=1)
    assert report.margin_bound == 0.5
    assert report.margin_ok == (report.margin_value <= 0.5)


# -- solve_rho ---------------------------------------------------------------


def test_solve_rho_unperturbed_is_identity(rng, cfg_identity):
    for _ in range(50):
        thetas, yp, ys = random_domain_batch(rng, cfg_identity, 1)
        sol = solve_rho(cfg_identity, _point(yp[0], ys[0], theta=float(thetas[0])))
        assert sol.rho == pytest.approx(1.0, abs=1e-12)


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


def test_solve_rho_step_to_nan_does_not_converge(cfg_quartic_wide):
    # from rho = 1e-300, rho^2 underflows and the first step is NaN: a NaN residual never converges
    with pytest.raises(NoConvergence, match="residual nan after 1 iterations"):
        solve_rho(cfg_quartic_wide, _point([1.0], [1.0]), seed=1e-300)


@pytest.mark.parametrize("seed", [-1.0, 0.0, np.nan, np.inf])
def test_solve_rho_refuses_a_seed_that_is_not_finite_and_positive(cfg_quartic_wide, seed):
    # the root exists; the seed is the caller's error
    with pytest.raises(ValueError, match=re.escape(f"seed must be finite and > 0, got {seed}")):
        solve_rho(cfg_quartic_wide, _point([1.0], [1.0]), seed=seed)


@pytest.mark.parametrize("seed", [-1.0, np.nan])
def test_solve_rho_refuses_a_bad_seed_before_a_lane_error(cfg_quartic_wide, seed):
    # a point outside the fiber domain, and the zero section, raise the seed's error too
    for p in (_point([10.0], [10.0]), _point([0.0], [0.0])):
        with pytest.raises(ValueError, match=re.escape(f"seed must be finite and > 0, got {seed}")):
            solve_rho(cfg_quartic_wide, p, seed=seed)


@pytest.mark.parametrize("seed", [None, -1.0])
def test_solve_rho_refuses_a_refused_config_before_a_bad_seed(seed):
    # the one config rule comes first, as for every call that reads the config
    with pytest.raises(ConfigInvalid) as got:
        solve_rho(mixed_match_config(), _point([0.6, 0.0], [0.8], theta=0.4), seed=seed)
    assert str(got.value) == MIXED_MATCH_REFUSAL


# every preset and every shipped fixture that builds a model
NAMED_CONFIGS = ["identity", "quartic", "fourier_metric", "ref_section",
                 "default.json", "quartic.json", "wrong_sign.json"]


def _named_config(name):
    doc = (json.loads((FIXTURES / name).read_text()) if name.endswith(".json")
           else getattr(presets, f"{name}_config")())
    return build_model(doc)


@pytest.mark.parametrize("name", NAMED_CONFIGS)
def test_unseeded_match_is_the_closed_form_root(name):
    cfg = _named_config(name)
    rng = np.random.default_rng(26)
    thetas, yp, ys = random_domain_batch(rng, cfg, 512)
    c, g1, g2 = chi_parts_batch(cfg, thetas, yp, ys)
    rho = np.sqrt(kernels.scale_root(g1, g2, c))
    m = match_lanes(cfg, thetas, yp, ys)
    # every draw lies in the fiber domain and has a root; a graph value off the wall is refused
    ok = cfg.in_wall(c)
    assert m.status.tolist() == np.where(ok, kernels.STATUS_OK, kernels.STATUS_OFF_WALL).tolist()
    assert m.rho[ok].tobytes() == rho[ok].tobytes() and np.isnan(m.rho[~ok]).all()
    residual = np.abs(kernels.rescale_alpha(rho, g1, g2, c))
    for i in np.flatnonzero(ok)[:16]:
        assert solve_rho(cfg, _point(yp[i], ys[i], theta=float(thetas[i]))).residual == residual[i]


def test_unseeded_matching_never_runs_newton(monkeypatch, capsys, rng, cfg_quartic):
    def refuse(*args, **kwargs):
        raise AssertionError("newton_rescale ran without a seed")

    monkeypatch.setattr(kernels, "newton_rescale", refuse)
    thetas, yp, ys = random_domain_batch(rng, cfg_quartic, 64)
    rho, t, _, _, status = matching_map_batch(cfg_quartic, thetas, yp, ys)
    assert (status == kernels.STATUS_OK).all()
    for i in range(4):
        p = _point(yp[i], ys[i], theta=float(thetas[i]))
        assert solve_rho(cfg_quartic, p).rho == rho[i]
        assert matching_map(cfg_quartic, p).base.t == t[i]
        wp, ws = random_unit_direction(rng, cfg_quartic, float(thetas[i]))
        bp = BlowupPoint(r=0.1, w_prime=wp, w_second=ws, base=BasePoint(float(thetas[i]), 0.0))
        assert abs(solve_rho_blowup(cfg_quartic, bp).rho - 1.0) < 1e-2
    assert main(["report", "--config", str(FIXTURES / "quartic.json"), "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]


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
    cfg = cfg_fourier_quartic
    thetas, yp, ys = random_domain_batch(rng, cfg, 100)
    for i in range(100):
        p = _point(yp[i], ys[i], theta=float(thetas[i]))
        sol = solve_rho(cfg, p)
        c, (g1, g2) = chi_eval(cfg, p), fiber_norms(cfg, p)
        alpha, beta = kernels.rescale_alpha(sol.rho, g1, g2, c), kernels.rescale_beta(sol.rho, g1, g2)
        assert abs(alpha) <= 1e-12
        assert beta < 0.0


def test_solve_rho_batch_matches_pointwise(rng, cfg_quartic):
    thetas, yp, ys = random_domain_batch(rng, cfg_quartic, 64)
    m = match_lanes(cfg_quartic, thetas, yp, ys)
    assert (m.status == 0).all()
    for i in range(64):
        sol = solve_rho(cfg_quartic, _point(yp[i], ys[i], theta=float(thetas[i])))
        assert m.rho[i] == pytest.approx(sol.rho, abs=1e-13)


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


def test_renorm_refuses_a_callable_tau_on_the_boundary(cfg_identity):
    def tau(theta, yp, ys):
        return float((np.abs(yp) ** 2).sum() + (np.abs(ys) ** 2).sum()) ** 2

    w = np.array([0.6]), np.array([0.8])
    with pytest.raises(TypeError, match="tau must be a PerturbationSpec, got function"):
        renorm_eval(cfg_identity, tau, 4, 0.0, w[0], w[1])


def _degree_coefficient(cfg, spec, k, theta, wp, ws):
    # a_k at w: the degree-k terms' values, summed in term order
    _, _, values = _tau_lanes(cfg, spec.terms, *one_lane(theta, wp, ws))
    return sum(float(value[0]) for term, value in zip(spec.terms, values) if term.degree == k)


def _degrees_4_and_6():
    return PerturbationSpec(terms=(
        PerturbationTerm(norm_second_pow=3, coeff=(0.04, 0.0, 0.01)),
        PerturbationTerm(mixed_pow=1, coeff=(0.1, 0.03)),
        PerturbationTerm(norm_prime_pow=1, mixed_pow=1, coeff=(-0.02,)),
        PerturbationTerm(norm_prime_pow=2, coeff=(0.05,)),
    ))


@pytest.mark.parametrize("doc, spec", [
    (presets.fourier_metric_config(2, 1), None),
    (presets.ref_section_config(2, 2), None),
    (presets.fourier_metric_config(2, 1), _degrees_4_and_6()),
], ids=["fourier_2_1", "ref_section_2_2", "degrees_4_and_6"])
def test_renorm_boundary_value_is_the_degree_k_coefficient(doc, spec):
    cfg = build_model(doc)
    spec = cfg.perturbation if spec is None else spec
    k = min(term.degree for term in spec.terms)  # higher degrees add +-0.0 at r = 0
    rng = np.random.default_rng(21)
    for _ in range(20):
        theta = float(rng.uniform(0, 2 * np.pi))
        wp, ws = random_unit_direction(rng, cfg, theta)
        expected = _degree_coefficient(cfg, spec, k, theta, wp, ws)
        assert expected != 0.0
        assert renorm_eval(cfg, spec, k, 0.0, wp, ws, theta).hex() == expected.hex()
        # no term has degree 3: the boundary value is exactly 0.0
        assert renorm_eval(cfg, spec, 3, 0.0, wp, ws, theta).hex() == (0.0).hex()


def test_renorm_bound_violated_poly(cfg_identity):
    spec = PerturbationSpec(terms=(PerturbationTerm(norm_prime_pow=1, coeff=(1.0,)),))
    with pytest.raises(BoundViolated):
        renorm_eval(cfg_identity, spec, 3, 0.1, np.array([1.0]), np.array([0.0]))


def test_renorm_refuses_a_callable_tau_off_the_boundary(cfg_identity):
    def tau(theta, yp, ys):
        return float((np.abs(yp) ** 2).sum() + (np.abs(ys) ** 2).sum())

    with pytest.raises(TypeError, match="tau must be a PerturbationSpec, got function"):
        renorm_eval(cfg_identity, tau, 3, 0.1, np.array([0.6]), np.array([0.8]))


def test_renorm_requires_unit_direction(cfg_identity):
    # make_blowup_point's rules: the one unit-norm rule at its tolerance, and a finite direction, checked first
    with pytest.raises(ConfigInvalid, match="direction norm\\^2 = 4.0 is not 1 to 1e-12"):
        renorm_eval(cfg_identity, _norm4_spec(), 4, 0.1, np.array([2.0]), np.array([0.0]))
    for w_prime, w_second in (([np.nan], [0.8]), ([0.6], [np.nan])):
        with pytest.raises(ConfigInvalid, match="blowup direction must be finite"):
            renorm_eval(cfg_identity, _norm4_spec(), 4, 0.1, np.array(w_prime), np.array(w_second))


@pytest.mark.parametrize("r", [-0.1, np.nan, np.inf])
def test_renorm_refuses_a_negative_or_non_finite_radius(cfg_identity, r):
    with pytest.raises(ConfigInvalid, match="blowup radius must be finite and >= 0"):
        renorm_eval(cfg_identity, _norm4_spec(), 4, r, np.array([0.6]), np.array([0.8]))


def test_renorm_refuses_a_ray_point_outside_the_fiber_domain(cfg_identity):
    # the ray point v = r w meets taylor_rest's domain rule (domain_radius 0.8), with its message; at
    # r = 1e200, r ** (d - k) would overflow
    w_prime, w_second = np.array([0.6]), np.array([0.8])
    assert renorm_eval(cfg_identity, _norm4_spec(), 2, 0.8, w_prime, w_second) == pytest.approx(0.64)
    with pytest.raises(OutOfDomain) as rest:
        taylor_rest(cfg_identity, _point(0.81 * w_prime, 0.81 * w_second))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r, message in ((0.81, str(rest.value)), (1e200, "|v| = 1e+200 exceeds domain_radius = 0.8")):
            with pytest.raises(OutOfDomain, match=re.escape(message)):
                renorm_eval(cfg_identity, _norm4_spec(), 2, r, w_prime, w_second)


def test_renorm_names_the_ray_point_whose_square_overflows():
    # |v| = r |w| is finite though r^2 overflows; the domain rule decides as for any ray point
    cfg = build_model(presets.quartic_config())
    w_prime, w_second = np.array([0.6]), np.array([0.8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r, shown in ((1e200, "1e+200"), (1e160, "1e+160"), (0.8 * (1.0 + 1e-11), "0.8")):
            with pytest.raises(OutOfDomain, match=re.escape(f"|v| = {shown} exceeds domain_radius = 0.8")):
                renorm_eval(cfg, cfg.perturbation, 4, r, w_prime, w_second)
        renorm_eval(cfg, cfg.perturbation, 4, 0.8 * (1.0 + 1e-13), w_prime, w_second)


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


def _domain_lanes(cfg):
    """Five lanes at 0.5, 0, 1.5, 1.2 and 0.7 times the fiber-domain radius: the second is the zero
    section, the third and fourth lie outside the domain."""
    thetas = np.array([0.2, 1.3, 2.1, 3.4, 5.0])
    _, w_prime, w_second, _, _ = to_blowup_batch(cfg, thetas, np.tile([0.3 + 0.1j, -0.2j], (5, 1)),
                                                 np.full((5, 1), 0.4 + 0j))
    radii = cfg.domain_radius * np.array([[0.5], [0.0], [1.5], [1.2], [0.7]])
    return thetas, radii * w_prime, radii * w_second


DOMAIN_REFUSERS = {
    "chi_eval_batch": chi_eval_batch,
    # chi_eval on the first lane outside the domain alone
    "chi_eval": lambda cfg, thetas, yp, ys: chi_eval(cfg, _point(yp[2], ys[2], theta=float(thetas[2]))),
    "phi_graph": lambda cfg, thetas, yp, ys: phi_graph(cfg)(thetas, yp, ys, np.zeros(len(thetas))),
}


@pytest.mark.parametrize("call", list(DOMAIN_REFUSERS))
def test_first_out_of_domain_lane_fails_the_whole_batch(call, cfg_fourier_quartic):
    lanes = _domain_lanes(cfg_fourier_quartic)
    with pytest.raises(OutOfDomain) as got:
        DOMAIN_REFUSERS[call](cfg_fourier_quartic, *lanes)
    assert str(got.value) == "|v| = 1.2 exceeds domain_radius = 0.8"
    # chi_parts_batch refuses no lane: it evaluates those outside the domain too
    assert np.isfinite(chi_parts_batch(cfg_fourier_quartic, *lanes)).all()


def test_match_lanes_leaves_the_domain_to_matching_errors(cfg_fourier_quartic):
    cfg = cfg_fourier_quartic
    m = match_lanes(cfg, *_domain_lanes(cfg))  # raises for no lane
    assert m.status.tolist() == [kernels.STATUS_OK, kernels.STATUS_LOST_DIGITS, kernels.STATUS_OUT_OF_DOMAIN,
                                 kernels.STATUS_OUT_OF_DOMAIN, kernels.STATUS_OK]
    errors = matching_errors(cfg, m)
    assert [type(e).__name__ if e else None for e in errors] == [None, "DegenerateBranch", "OutOfDomain",
                                                                  "OutOfDomain", None]
    assert [str(e) for e in errors[1:4]] == ["y lies on the zero section",
                                             "|v| = 1.2 exceeds domain_radius = 0.8",
                                             "|v| = 0.96 exceeds domain_radius = 0.8"]
    # rescale_lanes raises the first lane error, here the zero section's
    with pytest.raises(DegenerateBranch, match="^y lies on the zero section$"):
        rescale_lanes(cfg, *_domain_lanes(cfg))


def test_matching_errors_refuse_in_the_order_domain_branch_wall():
    # chi = -(g1 - g2)/2 + g1^2 - g2^2: lanes that match; |v| > R with chi = 0; the zero section;
    # y'' = 0 with chi = 0.5 >= 0, also off the wall (|t| < epsilon fails at t = epsilon); chi = 1.372
    # off the wall; |v| > R with chi = 36 off the wall
    cfg = make_config(epsilon=0.5, domain_radius=2.0, terms=[PerturbationTerm(norm_prime_pow=2, coeff=(1.0,)),
                                                             PerturbationTerm(norm_second_pow=2, coeff=(-1.0,))])
    thetas = np.linspace(0.1, 2.0, 6)
    yp = np.array([[0.4], [1.5], [0.0], [1.0], [1.2], [2.5]], dtype=complex)
    ys = np.array([[0.3], [1.5], [0.0], [0.0], [0.2], [0.5]], dtype=complex)
    errors = matching_errors(cfg, match_lanes(cfg, thetas, yp, ys))
    assert [type(e).__name__ if e else None for e in errors] == [
        None, "OutOfDomain", "DegenerateBranch", "DegenerateBranch", "OutOfDomain", "OutOfDomain"]
    assert [str(e) for e in errors[1:]] == ["|v| = 2.12132 exceeds domain_radius = 2.0",
                                            "y lies on the zero section",
                                            "no positive rescaling reaches the zero level: "
                                            "|y''|^2 = 0 and t = 0.5 >= 0",
                                            "graph value t = 1.372 leaves the wall interval (+-0.5)",
                                            "|v| = 2.54951 exceeds domain_radius = 2.0"]
    # every raising matcher raises its lane's entry; rescale_lanes on the batch raises the first
    with pytest.raises(OutOfDomain, match=re.escape(str(errors[1]))):
        rescale_lanes(cfg, thetas, yp, ys)
    for i, error in enumerate(errors):
        p = _point(yp[i], ys[i], theta=float(thetas[i]))
        matchers = (lambda: rescale_lanes(cfg, *one_lane(p.base.theta, p.y_prime, p.y_second)),
                    lambda: solve_rho(cfg, p), lambda: matching_map(cfg, p))
        for matcher in matchers:
            if error is None:
                matcher()
                continue
            with pytest.raises(type(error)) as got:
                matcher()
            assert str(got.value) == str(error)


def test_every_matching_entry_point_reads_the_one_lane_status():
    # quartic_config(epsilon=0.05) with a g1^2 term whose coefficient 1 - cos(theta) vanishes at theta = 0,
    # so that a lane at theta = pi can have y'' = 0 with chi >= 0; one lane per outcome, each with its
    # status and the error that status names
    doc = presets.quartic_config(epsilon=0.05)
    doc["perturbation"]["terms"].append({"generators": {"norm_prime_sq": 2}, "coeff_fourier": [1.0, -1.0]})
    cfg = build_model(doc)
    lanes = [  # theta, y', y'', status, error type, message
        (0.0, 0.1, 0.1, kernels.STATUS_OK, None, None),
        # |v| = 1.2 R, its graph value off the wall too: the domain comes first
        (0.0, 0.576, 0.768, kernels.STATUS_OUT_OF_DOMAIN, OutOfDomain, "|v| = 0.96 exceeds domain_radius = 0.8"),
        # outside the domain, with no root and off the wall: the domain comes first
        (np.pi, 0.9, 0.0, kernels.STATUS_OUT_OF_DOMAIN, OutOfDomain, "|v| = 0.9 exceeds domain_radius = 0.8"),
        (0.0, 0.0, 0.0, kernels.STATUS_LOST_DIGITS, DegenerateBranch, "y lies on the zero section"),
        (np.pi, 0.52, 0.0, kernels.STATUS_NO_POSITIVE_ROOT, DegenerateBranch,
         "no positive rescaling reaches the zero level: |y''|^2 = 0 and t = 0.0110323 >= 0"),
        # no root and off the wall: the branch comes first
        (np.pi, 0.7, 0.0, kernels.STATUS_NO_POSITIVE_ROOT, DegenerateBranch,
         "no positive rescaling reaches the zero level: |y''|^2 = 0 and t = 0.2352 >= 0"),
        # |v|^2 below the smallest normal float: its digits are lost, whatever the sign of chi(v).  With one
        # zero block, chi(v) = -|y'|^2/2 < 0 and +|y''|^2/2 > 0 are each the sign with a root
        (0.0, 0.6e-160, 0.8e-160, kernels.STATUS_LOST_DIGITS, DegenerateBranch,
         "|y|^2 = 1e-320 is below the smallest normal float: its digits are lost"),
        (0.0, 1e-165, 0.0, kernels.STATUS_LOST_DIGITS, DegenerateBranch,
         "|y|^2 = 0 is below the smallest normal float: its digits are lost"),
        (0.0, 0.0, 1e-165, kernels.STATUS_LOST_DIGITS, DegenerateBranch,
         "|y|^2 = 0 is below the smallest normal float: its digits are lost"),
        (0.0, 0.6, 0.1, kernels.STATUS_OFF_WALL, OutOfDomain,
         "graph value t = -0.17464 leaves the wall interval (+-0.05)"),
    ]
    thetas = np.array([lane[0] for lane in lanes])
    yp = np.array([[lane[1]] for lane in lanes], dtype=complex)
    ys = np.array([[lane[2]] for lane in lanes], dtype=complex)
    status = [lane[3] for lane in lanes]
    m = match_lanes(cfg, thetas, yp, ys)
    rho, t, out_prime, out_second, batch_status = matching_map_batch(cfg, thetas, yp, ys)
    assert m.status.tolist() == batch_status.tolist() == status
    assert m.rho.tobytes() == rho.tobytes() and t.tobytes() == m.t.tobytes()
    refused = m.status != kernels.STATUS_OK
    assert np.isnan(rho[refused]).all() and np.isfinite(rho[~refused]).all()
    for got_prime, got_second in ((m.out_prime, m.out_second), (out_prime, out_second)):
        assert (got_prime[refused] == yp[refused]).all() and (got_second[refused] == ys[refused]).all()
    errors = matching_errors(cfg, m)
    assert [type(e) if e else None for e in errors] == [lane[4] for lane in lanes]
    assert [str(e) if e else None for e in errors] == [lane[5] for lane in lanes]
    for i, error in enumerate(errors):
        p = _point(yp[i], ys[i], theta=float(thetas[i]))
        for matcher in (matching_map, solve_rho):
            if error is None:
                matcher(cfg, p)
                continue
            with pytest.raises(type(error)) as got:
                matcher(cfg, p)
            assert str(got.value) == str(error)


@pytest.mark.parametrize("r", [1e-150, 1e-155, 1e-158, 1e-161])
def test_a_lane_below_the_normal_floats_is_refused(r):
    # at r = 1e-150, |v|^2 = r^2 is a normal float and rho is 1; below about 1.5e-154 it is subnormal,
    # its digits are lost, and the lane is refused rather than given a wrong rho.  Matching is the
    # level normalization at t = chi(v), so the level root refuses exactly the same lanes
    cfg = make_config()
    bp = BlowupPoint(r, [0.6], [0.8], BasePoint(0.0, 0.0))
    m = match_lanes(cfg, np.zeros(1), [[0.6 * r]], [[0.8 * r]])
    level_rho = level_rho_batch(cfg, np.zeros(1), m.t, [[0.6 * r]], [[0.8 * r]])
    p = FiberPoint(base=BasePoint(0.0, float(m.t[0])), y_prime=[0.6 * r], y_second=[0.8 * r])
    if r == 1e-150:
        assert solve_rho_blowup(cfg, bp).rho - 1.0 == 0.0
        assert m.status[0] == kernels.STATUS_OK
        assert level_rho[0] == m.rho[0] and normalize_to_level(cfg, p)[0] == m.rho[0]
        return
    assert m.status[0] == kernels.STATUS_LOST_DIGITS and np.isnan(m.rho[0])
    # matching, the polar rule and the level rule name the lost digits in one text
    norm_sq = {1e-155: "1e-310", 1e-158: "1e-316", 1e-161: "9.88e-323"}[r]
    message = f"|y|^2 = {norm_sq} is below the smallest normal float: its digits are lost"
    assert str(matching_errors(cfg, m)[0]) == message
    with pytest.raises(DegenerateBranch) as got:
        solve_rho_blowup(cfg, bp)
    assert str(got.value) == message
    with pytest.raises(OnCenter) as got:
        to_blowup(cfg, p)
    assert str(got.value) == message
    assert np.isnan(level_rho[0])
    for wrapper in (normalize_to_level, quotient_chart):
        with pytest.raises(NotStable) as got:
            wrapper(cfg, p)
        assert str(got.value) == message


SCALAR_SOLVERS = {
    "solve_rho": solve_rho,
    "solve_rho_blowup": lambda cfg, p: solve_rho_blowup(cfg, BlowupPoint(1.0, p.y_prime, p.y_second, p.base)),
    "matching_map": matching_map,
    # on the boundary r = 0, where rho = 1 without a solve
    "solve_rho_blowup-boundary": lambda cfg, p: solve_rho_blowup(cfg, BlowupPoint(0.0, p.y_prime, p.y_second,
                                                                                 p.base)),
}


@pytest.mark.parametrize("name", sorted(SCALAR_SOLVERS))
def test_scalar_solver_has_the_length_rule_of_fiber_norms(name, cfg_fourier_quartic):
    # ranks 2/1: y' too long, y' too short, y'' too long
    for y_prime, y_second in (([0.1, 0.2, 0.3], [0.2]), ([0.1], [0.2]), ([0.1, 0.2], [0.2, 0.1])):
        p = _point(y_prime, y_second, theta=0.4)
        with pytest.raises(DimensionMismatch) as want:
            fiber_norms(cfg_fourier_quartic, p)
        with pytest.raises(DimensionMismatch) as got:
            SCALAR_SOLVERS[name](cfg_fourier_quartic, p)
        assert str(got.value) == str(want.value)


def test_solve_rho_blowup_refuses_a_refused_metric_on_the_boundary():
    # the boundary lane passes the metric gate too: at r = 0 as at r > 0
    p = _point([0.6, 0.0], [0.8], theta=0.4)
    for r in (0.0, 0.1):
        with pytest.raises(ConfigInvalid) as got:
            solve_rho_blowup(mixed_match_config(), BlowupPoint(r, p.y_prime, p.y_second, p.base))
        assert str(got.value) == MIXED_MATCH_REFUSAL
    assert solve_rho_blowup(mixed_match_config(indefinite=False),
                            BlowupPoint(0.0, p.y_prime, p.y_second, p.base)) == (1.0, 0.0, 0)


@pytest.mark.parametrize("name", NAMED_CONFIGS)
def test_ray_rho_matches_an_independent_reference(name):
    # the CLI's blowup rays are matched as plain lanes v = r w, at the radii domain_radius *
    # BLOWUP_R_GRID.  Reference: with e = tau(r w)/r^2,
    # A = |w'|^2 and B = |w''|^2, rho^2 = 1 + delta solves A delta^2 + (A + B + 2e) delta + 2e = 0,
    # taken here in forms without cancellation, so rho - 1 keeps its digits as r -> 0
    cfg = _named_config(name)
    rays = _blowup_rays(cfg, 26, 64)
    k = len(BLOWUP_R_GRID)
    thetas = np.repeat(rays.thetas, k)
    wp, ws = np.repeat(rays.w_prime, k, axis=0), np.repeat(rays.w_second, k, axis=0)
    assert rays.radii.tolist() == [cfg.domain_radius * f for f in BLOWUP_R_GRID]
    r = np.tile(rays.radii, len(rays.thetas))
    rho = rescale_lanes(cfg, thetas, r[:, None] * wp, r[:, None] * ws).rho
    assert rays.deviation.tobytes() == np.abs(rho - 1.0).tobytes()
    a, b = fiber_norms_batch(cfg, thetas, wp, ws)
    e = np.array([renorm_eval(cfg, cfg.perturbation, 2, *lane) for lane in zip(r, wp, ws, thetas)])
    delta = -4.0 * e / (a + b + 2.0 * e + np.sqrt((a - b - 2.0 * e) ** 2 + 4.0 * a * b))
    reference = 1.0 + delta / (1.0 + np.sqrt(1.0 + delta))
    assert np.abs(rho - reference).max() <= 2.3e-16
    if not cfg.perturbation.terms:
        assert (reference == 1.0).all()


@pytest.mark.parametrize("terms", [[], [mixed_quartic_term(0.1)]], ids=["tau0", "quartic"])
@pytest.mark.parametrize("r", [1e-90, 1e-150])
def test_solve_rho_blowup_is_one_on_a_tiny_ray(terms, r):
    # |v|^2 ~ r^2 is still a normal float, but (r^2)^2 underflows: rho - 1 = O(r^2) stays
    # within an ulp of 0 only if the closed form is scaled free of the underflow
    cfg = make_config(terms=terms)
    for angle in np.linspace(0.05, 1.5, 7):
        bp = BlowupPoint(r, [np.cos(angle)], [np.sin(angle)], BasePoint(0.0, 0.0))
        assert abs(solve_rho_blowup(cfg, bp).rho - 1.0) <= 2.3e-16
    assert solve_rho_blowup(cfg, BlowupPoint(r, [0.6], [0.8], BasePoint(0.0, 0.0))).rho == 1.0


@pytest.mark.parametrize("r", [-0.1, np.nan])
def test_solve_rho_blowup_meets_the_radius_rule(cfg_quartic, r):
    # no blowup point has a negative or NaN radius, so the solver never sees one
    with pytest.raises(ConfigInvalid, match="blowup radius must be finite and >= 0"):
        solve_rho_blowup(cfg_quartic, BlowupPoint(r, [0.6], [0.8], BasePoint(0.0, 0.0)))


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

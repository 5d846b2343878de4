"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines inline.
Sample counts follow the documented defaults; everything is seeded.
"""

from pathlib import Path

import numpy as np

from flipq import (
    BasePoint,
    BlowupPoint,
    DegenerateBranch,
    FiberPoint,
    PerturbationSpec,
    PerturbationTerm,
    cstar_act,
    cstar_act_blowup,
    matching_map_batch,
    phi_graph,
    phi_moment,
    phi_quadratic,
    quotient_chart,
    renorm_eval,
    rest_bound_scan,
    segre_point,
    solve_rho,
    solve_rho_blowup,
    tilde_coords,
    to_blowup,
    verify_conditions,
)
from flipq.cli import main
from flipq.config_io import build_perturbation
from flipq.core import MetricFieldSpec, fiber_norms
from flipq.perturbation import chi_parts_batch
from flipq.presets import builtin_perturbation_terms
from flipq.quotient import level_rho_batch, moment_value_batch
from flipq.sampling import complex_gaussian, random_domain_batch, random_unit_direction, random_zeta

from conftest import fourier_metric, make_config, mixed_quartic_term

FIXTURES = Path(__file__).parent / "fixtures"


def _check(cid: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _stable_batch(rng, cfg, n):
    thetas = rng.uniform(0.0, 2.0 * np.pi, n)
    ts = rng.uniform(-0.8 * cfg.epsilon, 0.8 * cfg.epsilon, n)
    yp = complex_gaussian(rng, (n, cfg.r_prime))
    ys = complex_gaussian(rng, (n, cfg.r_second))
    return thetas, ts, yp, ys


def test_criterion_1_level_set_exactness():
    hermitian = np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.5]])
    configs = [
        make_config(1, 1),
        make_config(1, 2),
        make_config(2, 2, metric_field=MetricFieldSpec.constant(hermitian, np.eye(2))),
        make_config(3, 3),
        make_config(1, 1, metric_field=fourier_metric(1, 1)),
        make_config(2, 1, metric_field=fourier_metric(2, 1)),
        make_config(2, 3, metric_field=fourier_metric(2, 3)),
        make_config(3, 2, metric_field=fourier_metric(3, 2)),
    ]
    seeds = np.random.SeedSequence(0xACC1).spawn(len(configs))
    worst = 0.0
    for cfg, seed in zip(configs, seeds):
        rng = np.random.default_rng(seed)
        thetas, ts, yp, ys = _stable_batch(rng, cfg, 1250)
        rho = level_rho_batch(cfg, thetas, ts, yp, ys)
        assert np.isfinite(rho).all()
        resid = moment_value_batch(cfg, thetas, ts, yp * rho[:, None], ys / rho[:, None])
        worst = max(worst, float(np.abs(resid).max()))
    _check("1 level-set exactness", worst <= 1e-12, f"max |m| = {worst:.3e} over 10^4 points / 8 configs")


def test_criterion_2_orbit_invariance():
    cfg = make_config(2, 2)
    rng = np.random.default_rng(0xACC2)
    tol = 1e-11
    worst = 0.0
    for _ in range(1000):
        p = FiberPoint(base=BasePoint(rng.uniform(0, 2 * np.pi), 0.0),
                       y_prime=complex_gaussian(rng, 2), y_second=complex_gaussian(rng, 2))
        q = cstar_act(random_zeta(rng), p)
        a, b = quotient_chart(cfg, p), quotient_chart(cfg, q)
        assert (a.block, a.index) == (b.block, b.index)
        worst = max(worst, float(np.abs(a.affine - b.affine).max(initial=0.0)))
        worst = max(worst, float(np.abs(a.line_fiber - b.line_fiber).max(initial=0.0)))
        worst = max(worst, float(np.abs(segre_point(p) - segre_point(q)).max()))
        ta, tb = tilde_coords(cfg, p), tilde_coords(cfg, q)
        worst = max(worst, float(np.abs(ta.class_prime - tb.class_prime).max()))
        worst = max(worst, float(np.abs(ta.class_second - tb.class_second).max()))
        worst = max(worst, abs(ta.lambda_ - tb.lambda_))
    same_ok = worst <= tol

    collisions = 0
    for _ in range(1000):
        p = FiberPoint(base=BasePoint(0.0, 0.0), y_prime=complex_gaussian(rng, 2),
                       y_second=complex_gaussian(rng, 2))
        q = FiberPoint(base=BasePoint(0.0, 0.0), y_prime=complex_gaussian(rng, 2),
                       y_second=complex_gaussian(rng, 2))
        if np.abs(segre_point(p) - segre_point(q)).max() <= 1e-6:
            collisions += 1
    distinct_ok = collisions <= 1  # >= 99.9 percent of 10^3 draws
    _check("2 orbit invariance", same_ok and distinct_ok,
           f"same-orbit dev = {worst:.3e}, collisions = {collisions}/1000")


def test_criterion_3_blowup_equivariance():
    cfg = make_config(2, 1, metric_field=fourier_metric(2, 1))
    rng = np.random.default_rng(0xACC3)
    worst_square = 0.0
    worst_law = 0.0
    boundary_ok = True
    for _ in range(1000):
        theta = rng.uniform(0, 2 * np.pi)
        p = FiberPoint(base=BasePoint(theta, 0.0), y_prime=complex_gaussian(rng, 2),
                       y_second=complex_gaussian(rng, 1))
        zeta = random_zeta(rng)
        via_fiber = to_blowup(cfg, cstar_act(zeta, p))
        via_blowup = cstar_act_blowup(cfg, zeta, to_blowup(cfg, p))
        worst_square = max(
            worst_square,
            abs(via_fiber.r - via_blowup.r) / max(1.0, via_fiber.r),
            float(np.abs(via_fiber.w_prime - via_blowup.w_prime).max()),
            float(np.abs(via_fiber.w_second - via_blowup.w_second).max()),
        )
        # action law on polar coordinates, the boundary included
        r = 0.0 if rng.uniform() < 0.3 else rng.uniform(0.1, 2.0)
        wp, ws = random_unit_direction(rng, cfg, theta)
        bp = BlowupPoint(r=r, w_prime=wp, w_second=ws, base=BasePoint(theta, 0.0))
        z1, z2 = random_zeta(rng), random_zeta(rng)
        lhs = cstar_act_blowup(cfg, z1, cstar_act_blowup(cfg, z2, bp))
        rhs = cstar_act_blowup(cfg, z1 * z2, bp)
        if r == 0.0:
            boundary_ok = boundary_ok and lhs.r == 0.0 and rhs.r == 0.0
        worst_law = max(
            worst_law,
            abs(lhs.r - rhs.r) / max(1.0, rhs.r),
            float(np.abs(lhs.w_prime - rhs.w_prime).max()),
            float(np.abs(lhs.w_second - rhs.w_second).max()),
        )
    ok = worst_square <= 1e-11 and worst_law <= 1e-11 and boundary_ok
    _check("3 blowup-action equivariance", ok,
           f"square = {worst_square:.3e}, law = {worst_law:.3e}, boundary exact = {boundary_ok}")


def test_criterion_4_condition_verification():
    cfg = make_config(1, 1, epsilon=0.5, domain_radius=0.8)
    worst_pass = 0.0
    all_ok = True
    report = verify_conditions(cfg, phi_moment(cfg), n_theta=64, fd_step=1e-3, tol=1e-4)
    all_ok = all_ok and report.p1_ok and report.p2_ok and report.p3_ok
    worst_pass = max(worst_pass, report.worst_p3)
    for term_doc in builtin_perturbation_terms():
        spec = build_perturbation({"terms": [term_doc]})
        pcfg = make_config(1, 1, epsilon=0.5, domain_radius=0.8, terms=spec.terms)
        report = verify_conditions(pcfg, phi_graph(pcfg), n_theta=64, fd_step=1e-3, tol=1e-4)
        all_ok = all_ok and report.p1_ok and report.p2_ok and report.p3_ok
        worst_pass = max(worst_pass, report.worst_p3)
    bad = verify_conditions(cfg, phi_quadratic(cfg, 1.0, 1.0), n_theta=64, fd_step=1e-3, tol=1e-4)
    counterexample_ok = (not bad.p3_ok) and bad.worst_p3 >= 1.0
    ok = all_ok and worst_pass <= 1e-4 and counterexample_ok
    _check("4 P1-P3 verification", ok,
           f"worst passing deviation = {worst_pass:.3e}, wrong-sign deviation = {bad.worst_p3:.3f}")


def test_criterion_5_boundary_rescaling():
    cfg = make_config(1, 1, terms=[mixed_quartic_term(0.1)])
    rng = np.random.default_rng(0xACC5)
    exact = True
    for _ in range(1000):
        theta = rng.uniform(0, 2 * np.pi)
        wp, ws = random_unit_direction(rng, cfg, theta)
        sol = solve_rho_blowup(cfg, BlowupPoint(r=0.0, w_prime=wp, w_second=ws,
                                                base=BasePoint(theta, 0.0)))
        exact = exact and sol.rho == 1.0 and sol.residual == 0.0
    r_grid = [1e-1, 1e-2, 1e-3, 1e-4]
    min_factor = np.inf
    for _ in range(32):
        theta = rng.uniform(0, 2 * np.pi)
        wp, ws = random_unit_direction(rng, cfg, theta)
        devs = [abs(solve_rho_blowup(cfg, BlowupPoint(r=r, w_prime=wp, w_second=ws,
                                                      base=BasePoint(theta, 0.0))).rho - 1.0)
                for r in r_grid]
        for a, b in zip(devs, devs[1:]):
            min_factor = min(min_factor, a / b)
    ok = exact and min_factor >= 50.0
    _check("5 boundary rescaling", ok,
           f"rho = 1 exactly on 10^3 directions = {exact}, min decay factor = {min_factor:.1f}")


def test_criterion_6_newton_against_closed_form():
    cfg = make_config(1, 1, epsilon=1.5, domain_radius=1.5, terms=[mixed_quartic_term(0.1)])
    rng = np.random.default_rng(0xACC6)
    worst = 0.0
    for _ in range(1000):
        thetas, yp, ys = random_domain_batch(rng, cfg, 1)
        p = FiberPoint(base=BasePoint(float(thetas[0]), 0.0), y_prime=yp[0], y_second=ys[0])
        g1, g2 = fiber_norms(cfg, p)
        c = -0.5 * (g1 - g2) + 0.1 * g1 * g2  # quartic value folded into the constant
        s = (-c + np.sqrt(c * c + g1 * g2)) / g1
        oracle = np.sqrt(s)
        polished = solve_rho(cfg, p)
        iterated = solve_rho(cfg, p, seed=1.0)
        worst = max(worst, abs(polished.rho - oracle), abs(iterated.rho - oracle))
    branch_ok = True
    cfg_neg = make_config(epsilon=2.0, domain_radius=3.0,
                          terms=[PerturbationTerm(norm_second_pow=2, coeff=(-10.0,))])
    try:
        solve_rho(cfg_neg, FiberPoint(base=BasePoint(0.0, 0.0),
                                      y_prime=np.zeros(1, complex), y_second=np.ones(1, complex)))
        branch_ok = False
    except DegenerateBranch:
        pass
    cfg_pos = make_config(epsilon=2.0, domain_radius=3.0,
                          terms=[PerturbationTerm(norm_prime_pow=2, coeff=(10.0,))])
    try:
        solve_rho(cfg_pos, FiberPoint(base=BasePoint(0.0, 0.0),
                                      y_prime=np.ones(1, complex), y_second=np.zeros(1, complex)))
        branch_ok = False
    except DegenerateBranch:
        pass
    ok = worst <= 1e-10 and branch_ok
    _check("6 Newton vs closed form", ok,
           f"max |rho - oracle| = {worst:.3e}, degenerate branches raise = {branch_ok}")


def test_criterion_7_matching_contract():
    rng = np.random.default_rng(0xACC7)
    worst_moment = 0.0
    worst_orbit = 0.0
    for cfg in (
        make_config(1, 1, terms=[mixed_quartic_term(0.1)]),
        make_config(2, 1, metric_field=fourier_metric(2, 1), terms=[mixed_quartic_term(0.1)]),
    ):
        thetas, yp, ys = random_domain_batch(rng, cfg, 5000)
        rho, t_out, op, os_, status = matching_map_batch(cfg, thetas, yp, ys)
        assert (status == 0).all()
        assert (np.abs(t_out) < cfg.epsilon).all()
        resid = np.abs(moment_value_batch(cfg, thetas, t_out, op, os_))
        worst_moment = max(worst_moment, float(resid.max()))
        segre_in = np.einsum("ni,nj->nij", yp, ys)
        segre_out = np.einsum("ni,nj->nij", op, os_)
        worst_orbit = max(worst_orbit, float(np.abs(segre_in - segre_out).max()))
    # boundary points are fixed exactly: the solved rho is 1 with zero
    # residual, r stays 0, and the direction moves only by renormalization
    # roundoff (the projective boundary class is unchanged)
    from flipq import boundary_coords

    cfg = make_config(1, 1, terms=[mixed_quartic_term(0.1)])
    boundary_ok = True
    for _ in range(100):
        theta = rng.uniform(0, 2 * np.pi)
        wp, ws = random_unit_direction(rng, cfg, theta)
        bp = BlowupPoint(r=0.0, w_prime=wp, w_second=ws, base=BasePoint(theta, 0.0))
        sol = solve_rho_blowup(cfg, bp)
        out = cstar_act_blowup(cfg, sol.rho, bp)
        boundary_ok = (
            boundary_ok and sol.rho == 1.0 and sol.residual == 0.0 and out.r == 0.0
            and np.abs(out.w_prime - wp).max() <= 1e-15
            and np.abs(out.w_second - ws).max() <= 1e-15
            and np.abs(boundary_coords(cfg, out).homog - boundary_coords(cfg, bp).homog).max() <= 1e-14
        )
    ok = worst_moment <= 1e-12 and worst_orbit <= 1e-11 and boundary_ok
    _check("7 matching contract", ok,
           f"max moment = {worst_moment:.3e}, max orbit dev = {worst_orbit:.3e}, boundary fixed = {boundary_ok}")


def test_criterion_8_renormalized_limits():
    cfg = make_config(1, 1, epsilon=2.0, domain_radius=3.0)
    norm4 = PerturbationSpec(terms=(
        PerturbationTerm(norm_prime_pow=2, coeff=(1.0,)),
        PerturbationTerm(norm_second_pow=2, coeff=(1.0,)),
        PerturbationTerm(mixed_pow=1, coeff=(2.0,)),
    ))
    c = 0.7
    mixed = PerturbationSpec(terms=(PerturbationTerm(mixed_pow=1, coeff=(c,)),))
    s = 1.0 / np.sqrt(2.0)
    w = (np.array([0.6 + 0.0j]), np.array([0.8 + 0.0j]))
    wm = (np.array([s + 0.0j]), np.array([s + 0.0j]))
    g1m = g2m = 0.5  # mixed direction norms
    cases = [
        ("norm4", norm4, w, 4, 1.0),
        ("norm4", norm4, w, 3, 0.0),
        ("mixed", mixed, wm, 4, c * g1m * g2m),
        ("mixed", mixed, wm, 3, 0.0),
    ]
    r_grid = np.logspace(-2.5, -0.5, 9)  # two decades
    worst_boundary = 0.0
    slopes_ok = True
    for name, tau, (wp, ws), k, analytic in cases:
        boundary = renorm_eval(cfg, tau, k, 0.0, wp, ws)
        worst_boundary = max(worst_boundary, abs(boundary - analytic))
        cs = []
        for r in r_grid:
            val = renorm_eval(cfg, tau, k, float(r), wp, ws)
            cs.append(abs(val - boundary) / r)
        cs = np.array(cs)
        if cs.max() > 1e-12:  # a genuinely linear approach: fitted C must be stable
            slopes_ok = slopes_ok and cs.max() <= 2.0 * max(cs.min(), 1e-12)
    ok = worst_boundary <= 1e-8 and slopes_ok
    _check("8 renormalized limits", ok,
           f"max boundary error = {worst_boundary:.3e}, linear-rate stability = {slopes_ok}")


def test_criterion_9_sign_separation():
    rng = np.random.default_rng(0xACC9)
    configs = [
        make_config(1, 1, terms=[mixed_quartic_term(0.1)]),
        make_config(2, 1, metric_field=fourier_metric(2, 1), terms=[mixed_quartic_term(0.1)]),
        make_config(2, 2, terms=[PerturbationTerm(ref_inner_pow=2, coeff=(0.05, 0.02),
                                                  ref_section=np.array([1.0, 0.0]))]),
    ]
    worst_prime = -np.inf
    worst_second = np.inf
    for cfg in configs:
        assert rest_bound_scan(cfg, 1000, seed=13).margin_ok
        n = 1000
        thetas = rng.uniform(0, 2 * np.pi, n)
        yp = complex_gaussian(rng, (n, cfg.r_prime))
        g1, _ = chi_parts_batch(cfg, thetas, yp, np.zeros((n, cfg.r_second)))[1:]
        scale = cfg.domain_radius * rng.uniform(0.05, 0.999, n) / np.sqrt(g1)
        chi_prime = chi_parts_batch(cfg, thetas, yp * scale[:, None], np.zeros((n, cfg.r_second)))[0]
        worst_prime = max(worst_prime, float(chi_prime.max()))
        ys = complex_gaussian(rng, (n, cfg.r_second))
        _, g2 = chi_parts_batch(cfg, thetas, np.zeros((n, cfg.r_prime)), ys)[1:]
        scale = cfg.domain_radius * rng.uniform(0.05, 0.999, n) / np.sqrt(g2)
        chi_second = chi_parts_batch(cfg, thetas, np.zeros((n, cfg.r_prime)), ys * scale[:, None])[0]
        worst_second = min(worst_second, float(chi_second.min()))
    ok = worst_prime < 0.0 and worst_second > 0.0
    _check("9 sign separation", ok,
           f"max chi(v',0) = {worst_prime:.3e} < 0, min chi(0,v'') = {worst_second:.3e} > 0")


def test_criterion_10_cli_determinism(tmp_path):
    quartic = str(FIXTURES / "quartic.json")

    def run_bytes(args, name):
        out = tmp_path / name
        code = main(args + ["--out", str(out)])
        return code, out.read_bytes()

    codes = []
    pairs_equal = []
    for cmd, extra in (
        ("verify", ["--theta-grid", "8", "--samples", "100"]),
        ("scan", ["--theta-steps", "2", "--t-steps", "3", "--samples", "8"]),
        ("match", ["--random", "16", "--blowup-rays", "2"]),
    ):
        args = [cmd, "--config", quartic, "--seed", "42"] + extra
        c1, b1 = run_bytes(args, f"{cmd}_1.json")
        c2, b2 = run_bytes(args, f"{cmd}_2.json")
        codes.append(c1)
        pairs_equal.append(b1 == b2 and c1 == c2)
    deterministic = all(pairs_equal) and all(c == 0 for c in codes)

    fail_code = main(["verify", "--config", str(FIXTURES / "wrong_sign.json"),
                      "--theta-grid", "4", "--samples", "50", "--out", str(tmp_path / "f.json")])
    parse_code = main(["verify", "--config", str(FIXTURES / "bad_syntax.json")])
    contract = fail_code == 1 and parse_code == 2
    ok = deterministic and contract
    _check("10 CLI determinism and exit codes", ok,
           f"byte-identical = {all(pairs_equal)}, exit codes pass/fail/parse = 0/{fail_code}/{parse_code}")

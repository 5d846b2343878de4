"""The mutation gate's table: known-wrong edits of flipq, and the tests that must fail on each.

Each Mutant names a file (relative to the repository root), an old text that
must occur in it exactly once, the text that replaces it, and the pytest node
ids that must kill the mutant: fail on a copy of the tree with it applied.
The node ids are chosen so that the whole gate runs in under a minute.

One known survivor is left out of the table: the scan replacing a NaN rho
(an unstable lane) by 1 before its residual.  It survives because the scan
never draws an unstable lane, so no test can see it until the scan tests the
flip across the wall (ROADMAP item 7).
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # the boundary's projective coordinates are [w' : conj(w'')]
    Mutant(
        "boundary-coords-without-conjugate",
        "src/flipq/blowup.py",
        "homog = np.concatenate([bp.w_prime, bp.w_second.conj()])",
        "homog = np.concatenate([bp.w_prime, bp.w_second])",
        ("tests/test_blowup.py::test_boundary_coords_conjugates_second_block",),
    ),
    # the chart's line fiber is the pivot coordinate, with its phase, times the other block
    Mutant(
        "chart-line-fiber-abs-pivot",
        "src/flipq/quotient.py",
        "line_fiber = pivot_coord * other",
        "line_fiber = abs(pivot_coord) * other",
        ("tests/test_quotient.py::test_chart_invariance_complex_scalar",),
    ),
    # lambda is the product of the two pivot coordinates, neither conjugated
    Mutant(
        "tilde-lambda-conjugate-pivot",
        "src/flipq/quotient.py",
        "lambda_=complex(cp * cs)",
        "lambda_=complex(np.conj(cp) * cs)",
        ("tests/test_quotient.py::test_tilde_reconstruction",),
    ),
    # t = 0 is the wall fiber QZero
    Mutant(
        "fiber-type-zero-as-qprime",
        "src/flipq/quotient.py",
        "    if base.t < 0:\n        return FiberType.QPrime",
        "    if base.t <= 0:\n        return FiberType.QPrime",
        ("tests/test_quotient.py::test_fiber_types",),
    ),
    # the rest bound is |rest| / |v|^3
    Mutant(
        "rest-bound-cube-as-square",
        "src/flipq/perturbation.py",
        "norm3 = (g1 + g2) ** 1.5",
        "norm3 = (g1 + g2) ** 1.0",
        ("tests/test_perturbation.py::test_rest_bound_is_the_largest_taylor_rest_ratio[quartic_1_1-1]",),
    ),
    # ROADMAP mutant (a): the margin bound is a quarter of the smallest metric eigenvalue
    Mutant(
        "margin-bound-half-eigenvalue",
        "src/flipq/perturbation.py",
        "bound = min_metric_eigenvalue(cfg) / 4.0",
        "bound = min_metric_eigenvalue(cfg) / 2.0",
        ("tests/test_perturbation.py::test_margin_bound_is_a_quarter_of_the_smallest_metric_eigenvalue",),
    ),
    # ROADMAP mutant (d): the chart pivots on y' at t = 0
    Mutant(
        "chart-pivot-on-second-at-zero",
        "src/flipq/quotient.py",
        "if fiber_type(p.base) is FiberType.QSecond:",
        "if fiber_type(p.base) is not FiberType.QPrime:",
        ("tests/test_quotient.py::test_chart_invariance_complex_scalar",),
    ),
    # for c > 0 the root is a'' / (c + disc): -c + disc cancels where c^2 >> a' a''
    Mutant(
        "scale-root-unrationalized",
        "src/flipq/kernels.py",
        "s = np.where(c > 0.0, app / (c + disc), (-c + disc) / ap)",
        "s = (-c + disc) / ap",
        ("tests/test_kernels.py::test_scale_root_is_accurate_where_c_squared_dominates",),
    ),
    # a lane of tiny coefficients is scaled by a power of two before c * c and a' a'' underflow
    Mutant(
        "scale-root-unscaled",
        "src/flipq/kernels.py",
        "far = (big < 2.0**-500) | (big >= 2.0**500)",
        "far = np.zeros(len(big), dtype=bool)",
        ("tests/test_kernels.py::test_scale_root_is_invariant_under_a_power_of_two",
         "tests/test_perturbation.py::test_solve_rho_blowup_is_one_on_a_tiny_ray"),
    ),
    # a refused config is refused before a bad seed, as by every call that reads the config
    Mutant(
        "seeded-solve-checks-seed-before-config",
        "src/flipq/perturbation.py",
        "    check_metrics(cfg)\n    if seed is not None",
        "    if seed is not None",
        ("tests/test_perturbation.py::test_solve_rho_refuses_a_refused_config_before_a_bad_seed",),
    ),
    # on the blowup boundary r = 0, rho is exactly 1: v = 0 itself has no rescaling
    Mutant(
        "blowup-solve-without-boundary-branch",
        "src/flipq/perturbation.py",
        "    if bp.r > 0.0:\n        return solve_rho(cfg, p)\n",
        "    return solve_rho(cfg, p)\n",
        ("tests/test_acceptance.py::test_criterion_5_boundary_rescaling",),
    ),
    # a seeded solve that does not converge raises NoConvergence
    Mutant(
        "seeded-solve-ignores-newton-status",
        "src/flipq/perturbation.py",
        "    if status[0] != kernels.STATUS_OK:\n        raise NoConvergence",
        "    if False:\n        raise NoConvergence",
        ("tests/test_perturbation.py::test_solve_rho_step_to_nan_does_not_converge",),
    ),
    # a matched lane's graph value must lie in the wall interval: the third refusal, after domain and branch
    Mutant(
        "matching-errors-without-wall-rule",
        "src/flipq/perturbation.py",
        "for i in np.flatnonzero(outside | failed | ~cfg.in_wall(m.t)):",
        "for i in np.flatnonzero(outside | failed):",
        ("tests/test_perturbation.py::test_matching_errors_refuse_in_the_order_domain_branch_wall",),
    ),
    # chi_eval_batch, and so chi_eval and phi_graph, refuse a lane outside the fiber domain
    Mutant(
        "chi-eval-batch-without-domain-check",
        "src/flipq/perturbation.py",
        "    chi, g1, g2 = chi_parts_batch(cfg, thetas, y_prime, y_second)\n    _check_domain(cfg, g1, g2)\n",
        "    chi, g1, g2 = chi_parts_batch(cfg, thetas, y_prime, y_second)\n",
        ("tests/test_perturbation.py::test_first_out_of_domain_lane_fails_the_whole_batch[chi_eval_batch]",
         "tests/test_perturbation.py::test_first_out_of_domain_lane_fails_the_whole_batch[chi_eval]",
         "tests/test_perturbation.py::test_first_out_of_domain_lane_fails_the_whole_batch[phi_graph]"),
    ),
    # a lane whose |v|^2 is below the smallest normal float has lost its digits and is refused
    Mutant(
        "match-lanes-without-tiny-norm-rule",
        "src/flipq/perturbation.py",
        "ok = np.isfinite(rho) & (g1 + g2 >= np.finfo(float).tiny)",
        "ok = np.isfinite(rho)",
        ("tests/test_perturbation.py::test_a_lane_below_the_normal_floats_is_refused[1e-155]",),
    ),
    # every scan float is formatted before the first byte is written, so a NaN writes nothing
    Mutant(
        "scan-floats-formatted-while-writing",
        "src/flipq/cli.py",
        "    texts = {x: _float_text(x) for x in set(column) - {0.0}}\n"
        "    return (texts.get(x) or float.__repr__(x) for x in column)\n",
        "    return (_float_text(x) for x in column)\n",
        ("tests/test_json_writer.py::test_non_finite_values_fail_the_run[<lambda>9-nan0]",
         "tests/test_json_writer.py::test_non_finite_values_fail_the_run[<lambda>10-inf]",
         "tests/test_json_writer.py::test_non_finite_values_fail_the_run[<lambda>11--inf]"),
    ),
    # a NaN scan residual is no pass
    Mutant(
        "scan-ok-passes-nan",
        "src/flipq/cli.py",
        "return all(r <= SCAN_RESIDUAL_TOL for r in table.mean_level_residual)",
        "return all(not r > SCAN_RESIDUAL_TOL for r in table.mean_level_residual)",
        ("tests/test_cli.py::test_scan_ok_needs_every_residual_within_tolerance[nan]",),
    ),
    # len() of a scan table is its row count, which the traced benchmark reads as cli.scan_rows
    Mutant(
        "scan-table-len-is-column-count",
        "src/flipq/cli.py",
        "        return len(self.theta)\n",
        "        return len(SCAN_COLUMNS)\n",
        ("tests/test_trace_bindings.py::test_run_scan_returns_a_sized_sequence_of_rows",),
    ),
)

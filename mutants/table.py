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
    # a lane whose |v|^2 is below the smallest normal float has lost its digits: kernels.scale_root
    # gives it no root, so matching and the level normalization both refuse it
    Mutant(
        "match-lanes-without-tiny-norm-rule",
        "src/flipq/kernels.py",
        "lost = ap + app < NORM_SQ_MIN",
        "lost = ap + app < 0.0",
        ("tests/test_perturbation.py::test_a_lane_below_the_normal_floats_is_refused[1e-155]",
         "tests/test_perturbation.py::test_a_lane_below_the_normal_floats_is_refused[1e-161]",
         "tests/test_kernels.py::test_scale_root_refuses_a_subnormal_norm_sum_and_no_other_lane"),
    ),
    # to_blowup gives a nonzero vector whose |v|^2 is below the smallest normal float no direction
    Mutant(
        "to-blowup-without-lost-digits-rule",
        "src/flipq/blowup.py",
        "if ap + app < kernels.NORM_SQ_MIN:",
        "if ap + app == 0.0:",
        ("tests/test_blowup.py::test_to_blowup_refuses_a_vector_whose_norm_lost_its_digits[1e-155]",),
    ),
    # every blowup point has a nonzero direction: the one check, which the boundary calls rely on
    Mutant(
        "blowup-point-without-nonzero-rule",
        "src/flipq/blowup.py",
        ('        if not (self.w_prime.any() or self.w_second.any()):\n'
         '            raise OnCenter("blowup direction must be nonzero")\n'),
        "",
        ("tests/test_blowup.py::test_each_blowup_invariant_has_one_owner[BlowupPoint-zero-direction]",
         "tests/test_blowup.py::test_blowup_calls_refuse_an_unusable_direction[boundary_coords-0.0-zero]"),
    ),
    # renorm_eval's direction meets make_blowup_point's unit-norm rule, not a bare BlowupPoint's
    Mutant(
        "renorm-bare-blowup-point",
        "src/flipq/perturbation.py",
        "    bp = make_blowup_point(cfg, r, w_prime, w_second, BasePoint(theta, 0.0))\n",
        "    from .blowup import BlowupPoint\n    bp = BlowupPoint(r, w_prime, w_second, BasePoint(theta, 0.0))\n",
        ("tests/test_blowup.py::test_each_blowup_invariant_has_one_owner[renorm_eval-non-unit]",
         "tests/test_perturbation.py::test_renorm_requires_unit_direction"),
    ),
    # the action takes any finite zeta != 0: |zeta|^2 over- or underflows beyond about 1e154 and 1e-154
    Mutant(
        "blowup-action-squares-any-zeta",
        "src/flipq/blowup.py",
        "    if kernels.NORM_SQ_MIN <= m * m <= 1.0 / kernels.NORM_SQ_MIN:\n",
        "    if True:\n",
        ("tests/test_blowup.py::test_blowup_action_takes_a_zeta_of_any_finite_modulus[1e-200]",
         "tests/test_blowup.py::test_blowup_action_takes_a_zeta_of_any_finite_modulus[1e+200]"),
    ),
    # renorm_eval's ray point v = r w meets the fiber domain rule, as taylor_rest's point does
    Mutant(
        "renorm-without-domain-rule",
        "src/flipq/perturbation.py",
        "    _check_domain(cfg, bp.r * bp.r * g1, bp.r * bp.r * g2)\n",
        "",
        ("tests/test_perturbation.py::test_renorm_refuses_a_ray_point_outside_the_fiber_domain",),
    ),
    # every scan float is checked before the first byte is written, so a NaN writes nothing
    Mutant(
        "scan-floats-unchecked",
        "src/flipq/cli.py",
        "    if not all(map(math.isfinite, chain.from_iterable(floats))):\n",
        "    if False:\n",
        ("tests/test_json_writer.py::test_non_finite_values_fail_the_run[<lambda>9-nan0]",
         "tests/test_json_writer.py::test_non_finite_values_fail_the_run[<lambda>10-inf]",
         "tests/test_json_writer.py::test_non_finite_values_fail_the_run[<lambda>11--inf]"),
    ),
    # json.dumps meets the scan's floats row by row, so the refused value named is the first in that order
    Mutant(
        "scan-refuses-in-column-order",
        "src/flipq/cli.py",
        "refused = next(x for x in chain.from_iterable(zip(*floats)) if not math.isfinite(x))",
        "refused = next(x for x in chain.from_iterable(floats) if not math.isfinite(x))",
        ("tests/test_json_writer.py::test_the_refused_value_is_the_first_json_dumps_meets[t then a later residual]",),
    ),
    # the document is formatted before --csv writes the scan, so a refused scan writes no CSV either
    Mutant(
        "scan-csv-before-document-check",
        "src/flipq/cli.py",
        "    try:\n        pieces = _json_pieces(doc)\n",
        "    if csv_path:\n        _write_scan_csv(doc[\"scan\"], csv_path)\n    try:\n        pieces = _json_pieces(doc)\n",
        ("tests/test_json_writer.py::test_nan_scan_residual_writes_no_csv",),
    ),
    # a NaN scan residual is no pass: the scan row's worst is NaN if any residual is (max skips one)
    Mutant(
        "scan-ok-passes-nan",
        "src/flipq/cli.py",
        "float(np.max(table.mean_level_residual))",
        "max(table.mean_level_residual)",
        ("tests/test_cli.py::test_scan_ok_needs_every_residual_within_tolerance[nan]",),
    ),
    # a worst value exactly at its bound passes its row
    Mutant(
        "contract-ok-strict",
        "src/flipq/perturbation.py",
        "return self.worst is not None and self.worst <= self.bound",
        "return self.worst is not None and self.worst < self.bound",
        ("tests/test_perturbation.py::test_a_row_is_ok_exactly_when_its_worst_is_at_most_its_bound[at bound]",
         "tests/test_cli.py::test_a_worst_value_at_its_bound_passes[moment_residual]"),
    ),
    # every gating row is read by pass: here the orbit deviation row is dropped
    Mutant(
        "match-row-dropped-from-pass",
        "src/flipq/cli.py",
        ',\n            Contract("orbit_deviation", stats["max_orbit_deviation"], 1e-11)]',
        "]",
        ("tests/test_cli.py::test_each_gating_row_alone_fails_the_report[orbit_deviation]",),
    ),
    # match_ok without its residual rows: before the verdict table, deleting the moment, orbit and
    # empty-run clauses of the inline match_ok passed every test, and --match-samples 0 passed
    Mutant(
        "match-ok-only-counts-errors",
        "src/flipq/cli.py",
        'return [Contract("match_errors", stats["n_errors"], 0),',
        'return [Contract("match_errors", stats["n_errors"], 0)]\n    return [',
        ("tests/test_cli.py::test_report_without_match_samples_is_no_pass",
         "tests/test_cli.py::test_each_gating_row_alone_fails_the_report[moment_residual]"),
    ),
    # a row that does not gate (the rest-bound margin) is read by no checks entry and no pass
    Mutant(
        "verdict-gates-every-row",
        "src/flipq/perturbation.py",
        "ok = {key: all(row.ok for row in rows if row.gates) for key, rows in checks.items()}",
        "ok = {key: all(row.ok for row in rows) for key, rows in checks.items()}",
        ("tests/test_cli.py::test_the_margin_row_does_not_gate",),
    ),
    # the blowup rays sit inside every domain: their radii are fractions of domain_radius
    Mutant(
        "blowup-rays-absolute-grid",
        "src/flipq/cli.py",
        "radii = cfg.domain_radius * np.array(BLOWUP_R_GRID)",
        "radii = np.array(BLOWUP_R_GRID)",
        ("tests/test_cli.py::test_report_judges_a_domain_smaller_than_the_old_ray_grid[0.05]",),
    ),
    # the reference pairing is conj(y) G a: without the conjugate it is not invariant under a unitary frame
    # change (test_core's herm_inner tests and test_kernels' pairing references kill this row too)
    Mutant(
        "fourier-pairing-without-conjugate",
        "src/flipq/kernels.py",
        "weights = np.concatenate([np.stack([b.real, b.imag], axis=-1), np.stack([b.imag, -b.real], axis=-1)])",
        "weights = np.concatenate([np.stack([b.real, -b.imag], axis=-1), np.stack([b.imag, b.real], axis=-1)])",
        ("tests/test_symmetry.py::test_a_unitary_frame_change_maps_every_lane_result",),
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

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
        "s = np.where(c > 0.0, app / (c + disc), (disc - c) / ap)",
        "s = (disc - c) / ap",
        ("tests/test_kernels.py::test_scale_root_is_accurate_where_c_squared_dominates",
         "tests/test_kernels.py::test_scale_root_is_within_two_epsilons_of_a_50_digit_root"),
    ),
    # a lane of tiny coefficients is scaled by a power of two before c * c and a' a'' underflow
    Mutant(
        "scale-root-unscaled",
        "src/flipq/kernels.py",
        "far = ~((2.0**-1000 <= q) & (q < 2.0**1000))",
        "far = np.zeros(len(q), dtype=bool)",
        ("tests/test_kernels.py::test_scale_root_is_invariant_under_a_power_of_two",
         "tests/test_perturbation.py::test_solve_rho_blowup_is_one_on_a_tiny_ray",
         "tests/test_kernels.py::test_scale_root_is_within_two_epsilons_of_a_50_digit_root"),
    ),
    # a lane is scaled by the size of c^2 + a' a'', not by its largest coefficient: with a' = 1e-149,
    # a'' = 1e-161, c = -4e-156 that leaves c^2 and a' a'' subnormal
    Mutant(
        "scale-root-scales-by-the-largest-coefficient",
        "src/flipq/kernels.py",
        "size = np.maximum(np.abs(c), np.sqrt(ap) * np.sqrt(app))",
        "size = np.maximum(np.maximum(ap, app), np.abs(c))",
        ("tests/test_kernels.py::test_scale_root_is_within_two_epsilons_of_a_50_digit_root",),
    ),
    # Newton's guard is the one root rule, not the zero pattern: a lane whose digits are lost gets no run
    Mutant(
        "newton-guard-on-the-zero-pattern",
        "src/flipq/kernels.py",
        "ok = np.isfinite(seed) & (seed > 0.0) & np.isfinite(scale_root(ap, app, c))",
        ("ok = np.isfinite(seed) & (seed > 0.0) & (((ap > 0.0) & ((app > 0.0) | (c < 0.0)))\n"
         "                                           | ((ap == 0.0) & (app > 0.0) & (c > 0.0)))"),
        ("tests/test_kernels.py::test_newton_runs_exactly_where_scale_root_finds_a_root",),
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
        "match-lanes-without-wall-rule",
        "src/flipq/perturbation.py",
        "root != kernels.STATUS_OK, ~cfg.in_wall(c)]",
        "root != kernels.STATUS_OK, np.isnan(c)]",
        ("tests/test_perturbation.py::test_matching_errors_refuse_in_the_order_domain_branch_wall",
         "tests/test_perturbation.py::test_every_matching_entry_point_reads_the_one_lane_status"),
    ),
    # the lane status refuses a lane outside the fiber domain first, before its branch
    Mutant(
        "match-lanes-branch-before-domain",
        "src/flipq/perturbation.py",
        ("[_outside_domain(cfg, g1, g2), root != kernels.STATUS_OK, ~cfg.in_wall(c)],\n"
         "                       [kernels.STATUS_OUT_OF_DOMAIN, root, kernels.STATUS_OFF_WALL]"),
        ("[root != kernels.STATUS_OK, _outside_domain(cfg, g1, g2), ~cfg.in_wall(c)],\n"
         "                       [root, kernels.STATUS_OUT_OF_DOMAIN, kernels.STATUS_OFF_WALL]"),
        ("tests/test_perturbation.py::test_every_matching_entry_point_reads_the_one_lane_status",),
    ),
    # a lane whose digits are lost has no root either: its lost-digits status comes before the branch in
    # kernels.root_status, or the branch's sign rule names it (y' = 1e-165, y'' = 0 read "|y''|^2 = 0 and t = 0")
    Mutant(
        "match-lanes-lost-digits-after-branch",
        "src/flipq/kernels.py",
        "np.select([lost_digits(ap, app), np.isnan(root)], [STATUS_LOST_DIGITS, STATUS_NO_POSITIVE_ROOT], STATUS_OK)",
        "np.select([np.isnan(root), lost_digits(ap, app)], [STATUS_NO_POSITIVE_ROOT, STATUS_LOST_DIGITS], STATUS_OK)",
        ("tests/test_perturbation.py::test_every_matching_entry_point_reads_the_one_lane_status",
         "tests/test_cli.py::test_match_names_a_point_whose_digits_are_lost"),
    ),
    # match_lanes, and so matching_map_batch, give a lane outside the fiber domain its own status
    Mutant(
        "match-lanes-without-domain-status",
        "src/flipq/perturbation.py",
        "[_outside_domain(cfg, g1, g2), root != kernels.STATUS_OK,",
        "[np.isnan(g1), root != kernels.STATUS_OK,",
        ("tests/test_perturbation.py::test_every_matching_entry_point_reads_the_one_lane_status",
         "tests/test_perturbation.py::test_match_lanes_leaves_the_domain_to_matching_errors"),
    ),
    # classify reads the level root: a zero-pattern rule calls a point whose |y|^2 lost its digits stable
    Mutant(
        "classify-on-the-zero-pattern",
        "src/flipq/quotient.py",
        "    return StabilityClass.Stable if _level_lane(cfg, p)[0] == kernels.STATUS_OK else StabilityClass.Unstable\n",
        ("    stable = ((p.y_prime.any() and (p.y_second.any() or p.base.t < 0))\n"
         "              or (p.y_second.any() and p.base.t > 0))\n"
         "    return StabilityClass.Stable if stable else StabilityClass.Unstable\n"),
        ("tests/test_quotient.py::test_classify_is_stable_exactly_where_the_level_root_is_found[False-False-0.0-1e-155]",),
    ),
    # classify reads the level lane's status, not its root: with the status given, NaN is no longer the decider
    Mutant(
        "classify-on-isfinite",
        "src/flipq/quotient.py",
        "    return StabilityClass.Stable if _level_lane(cfg, p)[0] == kernels.STATUS_OK else StabilityClass.Unstable\n",
        "    return StabilityClass.Stable if np.isfinite(_level_lane(cfg, p)[3]) else StabilityClass.Unstable\n",
        ("tests/test_refusals.py::test_the_level_wrappers_decide_from_the_root_status_alone[5]",),
    ),
    # each refused lane is named from its own row of the one table: two rows swapped give a level lane whose
    # digits are lost matching's DegenerateBranch, and a matched one the level rule's NotStable
    Mutant(
        "refusal-table-rows-swapped",
        "src/flipq/core.py",
        ("    (kernels.STATUS_LOST_DIGITS, \"level\"): NotStable,\n"
         "    (kernels.STATUS_LOST_DIGITS, \"rescaling\"): DegenerateBranch,\n"),
        ("    (kernels.STATUS_LOST_DIGITS, \"level\"): DegenerateBranch,\n"
         "    (kernels.STATUS_LOST_DIGITS, \"rescaling\"): NotStable,\n"),
        ("tests/test_refusals.py::test_each_scalar_wrapper_raises_the_table_error_of_each_status"
         "[normalize_to_level-lost digits]",
         "tests/test_refusals.py::test_each_scalar_wrapper_raises_the_table_error_of_each_status"
         "[matching_map-lost digits]"),
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
    # a lane whose |v|^2 is below the smallest normal float has lost its digits: kernels.lost_digits, the one
    # predicate, gives it STATUS_LOST_DIGITS in matching, no root in kernels.scale_root and no polar direction
    Mutant(
        "match-lanes-without-tiny-norm-rule",
        "src/flipq/kernels.py",
        "    return ap + app < NORM_SQ_MIN\n",
        "    return ap + app < 0.0\n",
        ("tests/test_perturbation.py::test_a_lane_below_the_normal_floats_is_refused[1e-155]",
         "tests/test_perturbation.py::test_a_lane_below_the_normal_floats_is_refused[1e-161]",
         "tests/test_kernels.py::test_scale_root_refuses_a_subnormal_norm_sum_and_no_other_lane",
         "tests/test_kernels.py::test_scale_root_gives_no_root_exactly_where_the_digits_are_lost",
         "tests/test_blowup.py::test_to_blowup_refuses_a_vector_whose_norm_lost_its_digits[1e-155]"),
    ),
    # the polar rule reads the predicate: it gives a nonzero vector whose |v|^2 is below the smallest normal
    # float no direction, so to_blowup refuses it
    Mutant(
        "to-blowup-without-lost-digits-rule",
        "src/flipq/blowup.py",
        "r = np.where(kernels.lost_digits(g1, g2), 0.0, np.sqrt(g1 + g2))",
        "r = np.sqrt(g1 + g2)",
        ("tests/test_blowup.py::test_to_blowup_refuses_a_vector_whose_norm_lost_its_digits[1e-155]",),
    ),
    # a lost lane's direction is NaN, not y divided by its raw norm (a junk direction, or 0 / 0 with a warning)
    Mutant(
        "polar-rule-divides-by-raw-norm",
        "src/flipq/blowup.py",
        ("np.divide(y, r[:, None], out=np.full(np.shape(y), complex(np.nan, np.nan)),\n"
         "                                   where=r[:, None] > 0.0, dtype=complex)"),
        "np.divide(y, np.sqrt(g1 + g2)[:, None], dtype=complex)",
        ("tests/test_blowup.py::test_to_blowup_batch_gives_no_direction_exactly_below_the_normal_floats",),
    ),
    # a subnormal |zeta| acts in two normal steps: directly, 1 / |zeta| overflows and r = 0 becomes 0 * inf = NaN
    Mutant(
        "blowup-action-nan-at-subnormal-zeta",
        "src/flipq/blowup.py",
        "    if m < kernels.NORM_SQ_MIN:\n",
        "    if False:\n",
        ("tests/test_blowup.py::test_blowup_action_takes_a_subnormal_zeta[1e-310]",),
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
    # renorm_eval's direction meets make_blowup_point's unit-norm rule, not only a bare BlowupPoint's
    Mutant(
        "renorm-bare-blowup-point",
        "src/flipq/perturbation.py",
        "_check_unit_norm(lambda: _tau_lanes(cfg, tau.terms,",
        "(lambda norms: norms())(lambda: _tau_lanes(cfg, tau.terms,",
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
        "    _check_domain(cfg, g1, g2, bp.r)\n",
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
    # flipq's one lane-block loop covers every lane: here it leaves out the last block of lanes
    Mutant(
        "kernel-blocks-drop-the-tail",
        "src/flipq/kernels.py",
        "for start in range(0, n, step)]",
        "for start in range(0, n - step, step)]",
        ("tests/test_kernels.py::test_scale_root_gives_each_lane_alone_its_batch_bits",
         "tests/test_kernels.py::test_newton_rescale_gives_each_lane_alone_its_batch_bits",
         "tests/test_kernels.py::test_fourier_norm_sq_matches_per_lane_reference[3]",
         "tests/test_perturbation.py::test_verify_conditions_blocks_agree"),
    ),
    # an item of more than KERNEL_LANES lanes is a block of its own: without the floor of 1 the step is 0
    Mutant(
        "lane-blocks-without-one-item-floor",
        "src/flipq/kernels.py",
        "    step = max(1, KERNEL_LANES // lanes_each)\n",
        "    step = KERNEL_LANES // lanes_each\n",
        ("tests/test_kernels.py::test_lane_blocks_cover_every_item_once_in_order[1-8195]",
         "tests/test_cli.py::test_scan_sample_count_above_the_lane_cap"),
    ),
    # a block holds KERNEL_LANES lanes, not KERNEL_LANES items of lanes_each lanes each
    Mutant(
        "lane-blocks-ignore-lanes-each",
        "src/flipq/kernels.py",
        "    step = max(1, KERNEL_LANES // lanes_each)\n",
        "    step = max(1, KERNEL_LANES)\n",
        ("tests/test_kernels.py::test_lane_blocks_cover_every_item_once_in_order[24581-75]",
         "tests/test_perturbation.py::test_verify_conditions_blocks_agree",
         "tests/test_cli.py::test_scan_evaluates_each_weight_once_per_pass"),
    ),
    # each Newton block steps until its own lanes converge: here a block stops where the block before it did
    Mutant(
        "newton-blocks-share-the-early-exit",
        "src/flipq/kernels.py",
        "                ap[lanes], app[lanes], c[lanes], seed[lanes], ok[lanes], tol, max_iter)\n",
        ("                ap[lanes], app[lanes], c[lanes], seed[lanes], ok[lanes], tol, max_iter)\n"
         "            max_iter = int(iters[lanes].max())\n"),
        ("tests/test_kernels.py::test_newton_rescale_gives_each_lane_alone_its_batch_bits",),
    ),
    # harmonics' kept table serves an array only while its bits equal the table's copy: an in-place write misses
    Mutant(
        "harmonics-reuse-on-identity-alone",
        "src/flipq/kernels.py",
        ("    if slot is not None and slot[0]() is thetas and np.array_equal(slot[1].thetas.view(np.uint64),\n"
         "                                                                   thetas.view(np.uint64)):\n"),
        "    if slot is not None and slot[0]() is thetas:\n",
        ("tests/test_kernels.py::test_an_in_place_write_to_the_thetas_evaluates_again[one lane]",),
    ),
    # the kept table is built over a private copy of the thetas: over the caller's array, an in-place write
    # changes its key too, so the next call reads weights of the old bits
    Mutant(
        "harmonics-table-over-caller-array",
        "src/flipq/kernels.py",
        "    table = Harmonics(thetas.copy())\n",
        "    table = Harmonics(thetas)\n",
        ("tests/test_kernels.py::test_an_in_place_write_to_the_thetas_evaluates_again[one lane]",
         "tests/test_kernels.py::test_chi_parts_and_level_rho_are_within_a_few_epsilons_of_50_digit_references"),
    ),
    # the slot holds the caller's thetas weakly: a strong reference keeps its O(n) table after the array is freed
    Mutant(
        "harmonics-slot-outlives-thetas",
        "src/flipq/kernels.py",
        "    _slot = (weakref.ref(thetas, _forget), table)\n",
        "    _slot = ((lambda: thetas), table)\n",
        ("tests/test_kernels.py::test_the_kept_table_goes_with_the_callers_thetas",),
    ),
    # len() of a scan table is its row count, which the traced benchmark reads as cli.scan_rows
    Mutant(
        "scan-table-len-is-column-count",
        "src/flipq/cli.py",
        "        return len(self.theta)\n",
        "        return len(SCAN_COLUMNS)\n",
        ("tests/test_trace_bindings.py::test_run_scan_returns_a_sized_sequence_of_rows",),
    ),
    # the scan's two calls of a pass share one lane thetas array, so the second reads the first one's table from
    # kernels.harmonics' slot: a fresh copy evaluates every weight again
    Mutant(
        "scan-moment-value-on-a-copy-of-the-lane-thetas",
        "src/flipq/cli.py",
        "resid = np.abs(moment_value_batch(cfg, lane_thetas, lane_ts,",
        "resid = np.abs(moment_value_batch(cfg, lane_thetas.copy(), lane_ts,",
        ("tests/test_cli.py::test_scan_evaluates_each_weight_once_per_pass",),
    ),
    # a complex product or quotient by a refused lane's scale 1 turns an infinite coordinate's partner into NaN
    Mutant(
        "match-lanes-complex-scale",
        "src/flipq/perturbation.py",
        "    return LaneMatch(c, g1, g2, rho, status, out_prime, out_second)\n",
        "    return LaneMatch(c, g1, g2, rho, status, y_prime * scale, y_second / scale)\n",
        ("tests/test_perturbation.py::test_a_refused_lane_keeps_its_infinite_coordinates_bitwise",),
    ),
    # the reach gate: scale_root inlines _lane_arrays, which the pipeline then no longer enters (only Newton
    # calls it), though every output is unchanged
    Mutant(
        "scale-root-stops-entering-lane-arrays",
        "src/flipq/kernels.py",
        "    ap, app, c = _lane_arrays(ap, app, c)\n    s = np.empty(ap.shape)\n",
        "    ap, app, c = np.broadcast_arrays(*(np.ascontiguousarray(a, dtype=np.float64) for a in (ap, app, c)))\n"
        "    s = np.empty(ap.shape)\n",
        ("tests/test_reach.py::test_the_pipeline_enters_every_function_off_the_allowlist",),
    ),
)

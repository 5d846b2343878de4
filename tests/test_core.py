"""Metric fields, the metric certificate, the metric norms, the scaling action, validation."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipq import (
    BasePoint,
    ConfigInvalid,
    DimensionMismatch,
    FiberPoint,
    FlipQError,
    MetricFieldSpec,
    StabilityClass,
    ZeroScalar,
    chi_eval,
    chi_eval_batch,
    classify,
    cstar_act,
    cstar_act_blowup,
    extract_graph,
    fiber_norms,
    level_rho_batch,
    make_blowup_point,
    matching_map_batch,
    moment_value,
    moment_value_batch,
    normalize_to_level,
    parse_run_config,
    phi_graph,
    phi_quadratic,
    presets,
    renorm_eval,
    taylor_rest,
    to_blowup,
    to_blowup_batch,
    validate_config,
)
from flipq import kernels
from flipq import core
from flipq.core import _metrics_cached, check_metrics, fiber_norms_batch, min_metric_eigenvalue
from flipq.perturbation import (PerturbationTerm, _tau_lanes, chi_parts_batch, match_lanes, matching_errors,
                                rest_bound_scan, verify_conditions)
from flipq.sampling import random_domain_batch

from conftest import MIXED_MATCH_REFUSAL, dense_metric, make_config, metric_pair, mixed_match_config


# -- the metric at a theta --------------------------------------------------


def test_metric_at_identity(cfg_identity):
    G1, G2 = metric_pair(cfg_identity, 1.3)
    assert np.allclose(G1, np.eye(1)) and np.allclose(G2, np.eye(1))


def test_metric_at_constant_fourier_mode():
    field = MetricFieldSpec.fourier([(0, 2.0 * np.eye(2))], [(0, 2.0 * np.eye(2))])
    cfg = make_config(r_prime=2, r_second=2, metric_field=field)
    G1, G2 = metric_pair(cfg, 0.7)
    assert np.allclose(G1, 2.0 * np.eye(2))
    assert np.allclose(G2, 2.0 * np.eye(2))


def test_metric_at_cosine_series():
    # g'(theta) = (2 + cos theta) I evaluates to I at theta = pi
    field = MetricFieldSpec.fourier(
        [(0, 2.0 * np.eye(2)), (1, np.eye(2))], [(0, np.eye(1))]
    )
    cfg = make_config(r_prime=2, r_second=1, metric_field=field)
    G1, _ = metric_pair(cfg, np.pi)
    assert np.allclose(G1, np.eye(2), atol=1e-15)


def test_metric_at_rejects_nonpositive():
    field = MetricFieldSpec.fourier([(1, np.eye(1))], [(0, np.eye(1))])  # cos(pi) < 0
    cfg = make_config(metric_field=field)
    with pytest.raises(ConfigInvalid):
        check_metrics(cfg)


def test_metric_at_rejects_non_finite():
    # check_metrics does not rely on validate_config having run
    cfg = make_config(metric_field=MetricFieldSpec.constant([[np.nan]], [[1.0]]))
    with pytest.raises(ConfigInvalid):
        check_metrics(cfg)


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


# -- the metric certificate -------------------------------------------------


def _scalar_field(g_prime):
    """A 1/1 config whose g' is the (n, cos[, sin]) series of scalars g_prime, with g'' = 1."""
    terms = [(n, *(np.array([[c]]) for c in coeffs)) for n, *coeffs in g_prime]
    return make_config(metric_field=MetricFieldSpec.fourier(terms, [(0, np.eye(1))]))


def _grid_sizes(monkeypatch):
    """The number of thetas of each grid pass the certificate makes, recorded as it makes them."""
    sizes = []
    passes = core._min_eigenvalues
    monkeypatch.setattr(core, "_min_eigenvalues", lambda packed, thetas: sizes.append(len(thetas)) or
                        passes(packed, thetas))
    return sizes


def _refusal(cfg):
    with pytest.raises(ConfigInvalid) as got:
        check_metrics(cfg)
    return str(got.value)


def _first_grid_fault(cfg, m):
    """The first theta of the m-point grid where g' has an eigenvalue <= 0, by one eigvalsh per theta."""
    for theta in np.linspace(0.0, 2.0 * np.pi, m, endpoint=False):
        G = sum(np.cos(n * theta) * c + np.sin(n * theta) * s for n, c, s in cfg.metric_field.g_prime_terms)
        if np.linalg.eigvalsh(G).min() <= 0.0:
            return float(theta)
    return None


def _shipped_configs():
    docs = [presets.fourier_metric_config(2, 1), presets.fourier_metric_config(3, 3),
            presets.ref_section_config(2, 2), presets.quartic_config(2, 2)]
    fixtures = Path(__file__).parent / "fixtures"
    docs += [json.loads((fixtures / name).read_text()) for name in ("default.json", "quartic.json", "wrong_sign.json")]
    return docs


def test_certificate_passes_every_shipped_config_on_the_validation_grid(monkeypatch):
    sizes = _grid_sizes(monkeypatch)
    for doc in _shipped_configs():
        sizes.clear()
        cfg = parse_run_config(doc).model
        assert check_metrics(cfg)[0] == ()
        assert sizes == [64, 64]  # one pass of the 64 validation thetas per block


def test_certificate_refines_the_grid_where_the_weyl_bound_fails(monkeypatch):
    sizes = _grid_sizes(monkeypatch)
    # 1.001 + cos theta: the grid-free bound 1.001 - 1 > 0 decides it
    check_metrics(_scalar_field([(0, 1.001), (1, 1.0)]))
    assert sizes == [64, 64]
    # 1.126 + cos theta + cos 2 theta has minimum 0.001 but Weyl bound 1.126 - 2 < 0; with L = 3 the
    # grid minimum exceeds L pi / M only at M = 16,384
    sizes.clear()
    check_metrics(_scalar_field([(0, 1.126), (1, 1.0), (2, 1.0)]))
    assert sizes == [64, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 64]


def test_certificate_rejects_a_grid_zero_naming_its_theta():
    assert _refusal(_scalar_field([(0, 1.0), (1, 1.0)])) == f"g_prime({np.pi}) is not positive definite"
    cfg = mixed_match_config()
    assert _refusal(cfg) == MIXED_MATCH_REFUSAL
    assert MIXED_MATCH_REFUSAL == f"g_prime({_first_grid_fault(cfg, 128)}) is not positive definite"


@pytest.mark.parametrize("g_prime, m", [
    # 0.8 + cos 64 theta is 1.8 on the 64 validation thetas and -0.2 between them; L pi / 64 = pi
    # keeps it undecided there, half of that or no margin at all would pass it
    ([(0, 0.8), (64, 1.0)], 128),
    # 1.2 + cos 64 theta + sin 64 theta dips to 1.2 - sqrt 2 < 0: a bound with max(|C|, |S|) in place
    # of sqrt(|C|^2 + |S|^2) would pass it without a grid
    ([(0, 1.2), (64, 1.0, 1.0)], 512),
])
def test_certificate_refuses_a_field_indefinite_between_grid_points(g_prime, m):
    cfg = _scalar_field(g_prime)
    theta = _first_grid_fault(cfg, m)
    assert theta is not None and _first_grid_fault(cfg, m // 2) is None
    assert _refusal(cfg) == f"g_prime({theta}) is not positive definite"


def test_certificate_names_the_margin_when_the_cap_is_reached():
    # minimum 1e-4 < L pi / 16,384 = 5.8e-4: positive definite, but not provably so under the cap
    cfg = _scalar_field([(0, 1.1251), (1, 1.0), (2, 1.0)])
    message = _refusal(cfg)
    assert message.startswith("g_prime is not certified positive definite: its smallest eigenvalue on "
                              f"{core.CERTIFY_MAX_THETAS} grid thetas, 0.0001")
    assert message.endswith(f"does not exceed the Lipschitz margin {3 * np.pi / core.CERTIFY_MAX_THETAS:.6g}")


def test_certificate_of_negative_harmonics():
    # cos(-theta) = cos theta and sin(-theta) = -sin theta: n = -1 certifies as n = 1
    for g_prime, mirror in (([(0, 1.5), (-1, 1.0, 0.3)], [(0, 1.5), (1, 1.0, -0.3)]),
                            ([(0, 1.0), (-1, 1.0)], [(0, 1.0), (1, 1.0)])):
        got, want = _metrics_cached(_scalar_field(g_prime)), _metrics_cached(_scalar_field(mirror))
        assert got == want
    assert got[0] == (core.ValidationIssue("PositivityViolation", f"g_prime({np.pi}) is not positive definite"),)
    doc = presets.fourier_metric_config(2, 1)
    doc["metrics"]["g_prime"][1]["n"] = -1
    assert check_metrics(parse_run_config(doc).model)[1] == 1.0


def test_certificate_checks_each_kept_coefficient_is_hermitian():
    skew = [[2.0, 0.5], [0.0, 2.0]]
    cfg = make_config(2, 1, metric_field=MetricFieldSpec.fourier([(0, np.eye(2)), (3, np.eye(2), skew)],
                                                                 [(0, np.eye(1))]))
    assert _refusal(cfg) == "g_prime harmonic 3 sin coefficient is not Hermitian (tolerance 1e-14)"
    # a sine at n = 0 has no effect: kernels.pack_field drops it, so it stays unchecked
    cfg = make_config(2, 1, metric_field=MetricFieldSpec.fourier([(0, np.eye(2), skew)], [(0, np.eye(1))]))
    assert check_metrics(cfg)[1] == 1.0


def _gate_thetas(rng):
    # the odd multiples of pi/64, where g' of mixed_match_config is not
    # positive definite for some, the validation grid and uniform draws;
    # each theta twice, shuffled
    thetas = np.concatenate([np.arange(1, 128, 2) * np.pi / 64, np.arange(64) * np.pi / 32,
                             rng.uniform(0.0, 2.0 * np.pi, 32)])
    return rng.permutation(np.repeat(thetas, 2))


def test_metric_faults_batch_is_metric_at_per_lane(rng):
    # the refusal does not depend on the theta: a one-lane batch raises it at every lane's theta, also on
    # the validation grid, and match_lanes raises it for the whole batch
    cfg = mixed_match_config()
    thetas = _gate_thetas(rng)
    y_prime = np.full((len(thetas), 2), 0.1 + 0j)
    y_second = np.full((len(thetas), 1), 0.1 + 0j)
    for i in range(len(thetas)):
        with pytest.raises(ConfigInvalid, match=re.escape(MIXED_MATCH_REFUSAL)):
            fiber_norms_batch(cfg, thetas[i:i + 1], y_prime[i:i + 1], y_second[i:i + 1])
    with pytest.raises(ConfigInvalid, match=re.escape(MIXED_MATCH_REFUSAL)):
        match_lanes(cfg, thetas, y_prime, y_second)
    # a metric of the wrong size fails at every theta
    wrong = make_config(r_prime=2, r_second=1, metric_field=MetricFieldSpec.identity(1, 1))
    for i in range(5):
        with pytest.raises(DimensionMismatch):
            fiber_norms_batch(wrong, thetas[i:i + 1], y_prime[i:i + 1], y_second[i:i + 1])


def test_check_metrics_raises_metric_at_error_of_first_failing_lane(rng):
    # check_metrics raises the error of the metric at any theta, which names the first theta of the
    # certificate's grid where an eigenvalue is <= 0; the same field without that harmonic passes
    cfg = mixed_match_config()
    theta = rng.uniform(0.0, 2.0 * np.pi, 1)
    with pytest.raises(ConfigInvalid) as want:
        fiber_norms_batch(cfg, theta, np.full((1, 2), 0.1 + 0j), np.full((1, 1), 0.1 + 0j))
    with pytest.raises(ConfigInvalid) as got:
        check_metrics(cfg)
    assert str(got.value) == str(want.value) == MIXED_MATCH_REFUSAL
    check_metrics(mixed_match_config(indefinite=False))


def test_metric_gate_on_one_theta_is_one_cache_lookup():
    # the first lookup of a field computes its certificate, every later one reads it
    cfg = mixed_match_config(indefinite=False)
    p = FiberPoint(BasePoint(0.123, 0.0), np.array([0.1, 0.0]), np.array([0.2]))
    for i, call in enumerate((lambda: check_metrics(cfg), lambda: min_metric_eigenvalue(cfg),
                              lambda: fiber_norms(cfg, p))):
        before = _metrics_cached.cache_info()
        call()
        after = _metrics_cached.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == ((1, 0) if i == 0 else (0, 1))


def test_metric_gate_on_empty_batch():
    # the gate is one config-level check: a batch of no lanes is refused too
    empty = (np.zeros(0), np.zeros((0, 2)), np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(ConfigInvalid, match=re.escape(MIXED_MATCH_REFUSAL)):
        phi_graph(mixed_match_config())(*empty)
    assert phi_graph(mixed_match_config(indefinite=False))(*empty).shape == (0,)


def _one_fault_configs():
    """(config, error type, message, validation code) per validation fault, each failing only that check."""
    skew = [[1.0, 0.5], [0.0, 1.0]]  # not Hermitian
    indefinite = [[1.0, 0.0], [0.0, -1.0]]

    def perturbed(term):
        return make_config(2, 2, terms=[term])

    return [
        (make_config(2, 2, metric_field=MetricFieldSpec.constant(skew, np.eye(2))), ConfigInvalid,
         "g_prime harmonic 0 cos coefficient is not Hermitian (tolerance 1e-14)", "HermitianViolation"),
        (make_config(2, 2, metric_field=MetricFieldSpec.constant(indefinite, np.eye(2))), ConfigInvalid,
         "g_prime(0.0) is not positive definite", "PositivityViolation"),
        (make_config(2, 2, metric_field=MetricFieldSpec.constant(np.eye(2), skew)), ConfigInvalid,
         "g_second harmonic 0 cos coefficient is not Hermitian (tolerance 1e-14)", "HermitianViolation"),
        (make_config(2, 2, metric_field=MetricFieldSpec.constant(np.eye(2), indefinite)), ConfigInvalid,
         "g_second(0.0) is not positive definite", "PositivityViolation"),
        # a cos-only harmonic of the wrong size is one issue, not one for its cos and one for its zero sin
        (make_config(2, 2, metric_field=MetricFieldSpec.identity(2, 1)), DimensionMismatch,
         "g_second harmonic 0 has shape (1, 1), expected (2, 2)", "MetricShapeViolation"),
        # harmonics of two sizes in one block, which no packing can stack
        (make_config(2, 2, metric_field=MetricFieldSpec.fourier([(0, 2.0 * np.eye(2)), (1, np.eye(3))],
                                                                [(0, np.eye(2))])), DimensionMismatch,
         "g_prime harmonic 1 has shape (3, 3), expected (2, 2)", "MetricShapeViolation"),
        # the non-finite entry, not the Hermitian test it also fails
        (make_config(2, 2, metric_field=MetricFieldSpec.constant([[np.nan, 0.0], [0.0, 1.0]], np.eye(2))),
         ConfigInvalid, "g_prime harmonic 0 has a non-finite entry", "MetricFiniteViolation"),
        (make_config(0, 2), ConfigInvalid, "r_prime = 0 must be >= 1", "RankViolation"),
        (make_config(2, 2, epsilon=np.nan), ConfigInvalid, "epsilon = nan must be > 0 with a finite 2*epsilon",
         "EpsilonViolation"),
        (make_config(2, 2, domain_radius=np.nan), ConfigInvalid,
         "domain_radius = nan must be > 0 with a finite square", "DomainRadiusViolation"),
        (perturbed(PerturbationTerm(norm_prime_pow=1, coeff=(0.1,))), ConfigInvalid,
         "term 0 has degree 2; terms must have degree >= 4 so they vanish to order >= 3 at the zero section",
         "PerturbationOrderViolation"),
        (perturbed(PerturbationTerm(mixed_pow=1, coeff=())), ConfigInvalid,
         "term 0 has an empty coefficient series", "PerturbationOrderViolation"),
        (perturbed(PerturbationTerm(norm_prime_pow=-1, mixed_pow=2, coeff=(0.1,))), ConfigInvalid,
         "term 0 has a negative exponent", "PerturbationOrderViolation"),
        (perturbed(PerturbationTerm(norm_prime_pow=1.5, norm_second_pow=1, coeff=(0.1,))), ConfigInvalid,
         "term 0 has a non-integral exponent", "PerturbationOrderViolation"),
        (perturbed(PerturbationTerm(mixed_pow=1, coeff=(np.nan,))), ConfigInvalid,
         "term 0 has a non-finite coefficient", "PerturbationCoefficientViolation"),
        (perturbed(PerturbationTerm(ref_inner_pow=2, coeff=(0.1,))), ConfigInvalid,
         "term 0 uses the reference pairing but has no section", "ReferenceSectionViolation"),
        (perturbed(PerturbationTerm(ref_inner_pow=2, coeff=(0.1,), ref_section=[1.0])), ConfigInvalid,
         "term 0 reference section has length 1, expected 2", "ReferenceSectionViolation"),
    ]


@pytest.mark.parametrize("case", range(len(_one_fault_configs())))
def test_each_metric_code_has_one_message_on_every_path(case):
    # every call that reads the config raises validation's one issue, with validation's message,
    # also on a config built without build_model
    cfg, error, message, code = _one_fault_configs()[case]
    thetas = np.array([0.5, 1.5])
    y_prime, y_second = np.full((2, 2), 0.1 + 0j), np.full((2, 2), 0.1 + 0j)
    for path in (lambda: check_metrics(cfg), lambda: min_metric_eigenvalue(cfg),
                 lambda: fiber_norms(cfg, FiberPoint(BasePoint(0.5, 0.0), y_prime[0], y_second[0])),
                 lambda: fiber_norms_batch(cfg, thetas, y_prime, y_second),
                 lambda: chi_eval_batch(cfg, thetas, y_prime, y_second),
                 lambda: match_lanes(cfg, thetas, y_prime, y_second),
                 lambda: random_domain_batch(np.random.default_rng(5), cfg, 2),
                 lambda: rest_bound_scan(cfg, 10),
                 lambda: verify_conditions(cfg, phi_quadratic(cfg, 1.0, -1.0), n_theta=2)):
        with pytest.raises(error) as got:
            path()
        assert type(got.value) is error and str(got.value) == message
    issues = validate_config(cfg).issues
    assert [(i.code, i.message) for i in issues] == [(code, message)]


def test_faulty_theta_is_cached_once(monkeypatch):
    # a refused field's certificate, and so its faulty theta, is computed once per block
    cfg = mixed_match_config()
    blocks = []
    certify = core._certify_block
    monkeypatch.setattr(core, "_certify_block", lambda *args: blocks.append(args[0]) or certify(*args))
    before = _metrics_cached.cache_info()
    for _ in range(2):
        with pytest.raises(ConfigInvalid, match=re.escape(MIXED_MATCH_REFUSAL)):
            check_metrics(cfg)
    after = _metrics_cached.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    assert blocks == ["g_prime", "g_second"]


def test_match_lanes_runs_the_metric_rule_once_per_batch(rng):
    # one certificate lookup per batch, whatever its lanes, at the door (fiber_norms_batch);
    # matching_errors reads no metric, and no lane error is a metric error
    cfg = mixed_match_config(indefinite=False)
    thetas = _gate_thetas(rng)
    y_prime = np.full((len(thetas), 2), 0.1 + 0j)
    y_second = np.full((len(thetas), 1), 0.1 + 0j)
    check_metrics(cfg)
    before = _metrics_cached.cache_info()
    m = match_lanes(cfg, thetas, y_prime, y_second)
    between = _metrics_cached.cache_info()
    errors = matching_errors(cfg, m)
    after = _metrics_cached.cache_info()
    assert (between.misses - before.misses, between.hits - before.hits) == (0, 1)
    assert (after.misses, after.hits) == (between.misses, between.hits)
    assert errors == [None] * len(thetas)


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
    assert "RankViolation" in [i.code for i in validate_config(cfg).issues]


def test_validate_positivity_violation():
    field = MetricFieldSpec.fourier([(1, np.eye(1))], [(0, np.eye(1))])
    cfg = make_config(metric_field=field)
    assert "PositivityViolation" in [i.code for i in validate_config(cfg).issues]


def test_validate_perturbation_order():
    from flipq import PerturbationTerm

    cfg = make_config(terms=[PerturbationTerm(norm_prime_pow=1, coeff=(0.1,))])  # degree 2
    assert "PerturbationOrderViolation" in [i.code for i in validate_config(cfg).issues]


def test_validate_reference_section():
    from flipq import PerturbationTerm

    cfg = make_config(
        r_prime=2,
        terms=[PerturbationTerm(ref_inner_pow=2, coeff=(0.1,), ref_section=np.array([1.0]))],
    )
    assert "ReferenceSectionViolation" in [i.code for i in validate_config(cfg).issues]


# metric coefficient matrices of size k, by kind: certified as an n = 0 term, certified next to it,
# not Hermitian (for k > 1), negative definite, non-finite
_MATRICES = {
    "two": lambda k: 2.0 * np.eye(k),
    "quarter": lambda k: 0.25 * np.eye(k),
    "skew": lambda k: np.eye(k) + 0.5 * np.triu(np.ones((k, k)), 1),
    "negative": lambda k: -np.eye(k),
    "nan": lambda k: np.full((k, k), np.nan),
}


@st.composite
def _library_configs(draw):
    """ModelConfigs built in the library: each field takes a valid value, or one of its refused ones."""

    def pick(good, *bad):  # good three times in four
        return draw(st.sampled_from([good] * (3 * len(bad)) + list(bad)))

    r_prime, r_second = pick(2, 0, 1), pick(1, 0, 2)

    def block(rank):
        k = max(pick(rank, rank + 1), 1)
        terms = [(0, *(_MATRICES[pick("two", "skew", "negative", "nan")](k) for _ in range(draw(st.integers(1, 2)))))]
        if draw(st.booleans()):
            terms.append((draw(st.sampled_from([1, -1, 2])), _MATRICES[pick("quarter", "two", "nan")](k)))
        return terms

    def term():
        return PerturbationTerm(norm_prime_pow=pick(0, 1, -1, 1.5), norm_second_pow=pick(0, 2), mixed_pow=pick(1, 0),
                                ref_inner_pow=pick(0, 1), coeff=pick((0.1,), (), (np.nan,), (0.05, 0.02, -0.01)),
                                ref_section=pick(np.ones(r_prime), None, np.ones(r_prime + 1)))

    return make_config(r_prime, r_second, epsilon=pick(0.5, 0.0, -1.0, np.nan, np.inf),
                       domain_radius=pick(0.8, 0.0, np.nan, 1e200),
                       metric_field=MetricFieldSpec.fourier(block(r_prime), block(r_second)),
                       terms=[term() for _ in range(draw(st.integers(0, 2)))])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cfg=_library_configs())
def test_every_call_refuses_exactly_what_validation_refuses(cfg):
    # a batch call returns exactly when validate_config passes the config, and otherwise raises its
    # first issue's message; nothing but a FlipQError escapes
    issues = validate_config(cfg).issues
    thetas = np.array([0.5, 1.5])
    y_prime, y_second = np.full((2, cfg.r_prime), 1e-3 + 0j), np.full((2, cfg.r_second), 1e-3 + 0j)
    for call in (fiber_norms_batch, chi_eval_batch, match_lanes):
        if not issues:
            call(cfg, thetas, y_prime, y_second)
            continue
        with pytest.raises(FlipQError) as got:
            call(cfg, thetas, y_prime, y_second)
        assert str(got.value) == issues[0].message


@pytest.mark.parametrize("g_prime, message", [
    ([(0, 2.0 * np.eye(1)), (0.5, np.eye(1))], "harmonic n = 0.5 must be an integer"),
    ([(0, 2.0 * np.eye(1)), (np.nan, np.eye(1))], "harmonic n = nan must be an integer"),
    ([], "a metric block needs at least one harmonic"),
], ids=["half", "nan", "empty"])
def test_metric_field_refuses_what_it_cannot_represent(g_prime, message):
    # a half harmonic was kept as n = 0 (g' = 3 I), and an empty block failed validation with numpy's error
    with pytest.raises(ConfigInvalid) as got:
        MetricFieldSpec.fourier(g_prime, [(0, np.eye(1))])
    assert str(got.value) == message
    field = MetricFieldSpec.fourier([(np.int64(0), 2.0 * np.eye(1)), (1.0, np.eye(1))], [(0, np.eye(1))])
    assert [n for n, _, _ in field.g_prime_terms] == [0, 1]
    # the constructor normalizes its terms too: plain lists made validate_config raise AttributeError
    field = MetricFieldSpec(g_prime_terms=[(0, [[1.0]])], g_second_terms=[(0, [[1.0]], [[0.0]])])
    assert validate_config(make_config(metric_field=field)).ok
    with pytest.raises(ConfigInvalid) as got:
        MetricFieldSpec(g_prime_terms=g_prime, g_second_terms=[(0, np.eye(1))])
    assert str(got.value) == message


def test_reference_section_is_a_vector():
    # a 0-d section made validate_config raise IndexError
    with pytest.raises(DimensionMismatch, match=re.escape("expected a vector, got shape ()")):
        PerturbationTerm(ref_inner_pow=2, coeff=(0.1,), ref_section=1.0)


def test_base_point_window():
    cfg = make_config(epsilon=0.5)
    with pytest.raises(ConfigInvalid):
        cfg.base_point(0.0, 0.5)
    assert cfg.base_point(0.0, 0.49).t == pytest.approx(0.49)


def test_fiber_point_rank_check():
    cfg = make_config(r_prime=2, r_second=1)
    with pytest.raises(DimensionMismatch):
        cfg.fiber_point(0.0, 0.0, [1.0], [1.0])


def test_in_wall_is_the_open_wall_interval():
    cfg = make_config(epsilon=0.5)
    t = np.array([-0.5, -0.49, -0.0, 0.49, 0.5, np.nan, np.inf])
    assert cfg.in_wall(t).tolist() == [False, True, True, True, False, False, False]
    assert cfg.in_wall(0.49) and not cfg.in_wall(float("nan"))
    with pytest.raises(ConfigInvalid, match=re.escape("|t| = nan must be below the wall half-width 0.5")):
        cfg.base_point(0.0, float("nan"))


# -- the batch shape rule ----------------------------------------------------

# every batch entry point as f(cfg, thetas, y', y''), the t or ts lanes zero
BATCH_ENTRY_POINTS = {
    "fiber_norms_batch": fiber_norms_batch,
    "chi_parts_batch": chi_parts_batch,
    "chi_eval_batch": chi_eval_batch,
    "match_lanes": match_lanes,
    "matching_map_batch": matching_map_batch,
    "level_rho_batch": lambda cfg, thetas, yp, ys: level_rho_batch(cfg, thetas, np.zeros(len(thetas)), yp, ys),
    "moment_value_batch": lambda cfg, thetas, yp, ys: moment_value_batch(cfg, thetas, np.zeros(len(thetas)),
                                                                         yp, ys),
    "phi_graph": lambda cfg, thetas, yp, ys: phi_graph(cfg)(thetas, yp, ys, np.zeros(len(thetas))),
    "phi_quadratic": lambda cfg, thetas, yp, ys: phi_quadratic(cfg, 1.0, -1.0)(thetas, yp, ys,
                                                                               np.zeros(len(thetas))),
    "to_blowup_batch": to_blowup_batch,
}

# (thetas, y', y'') shapes against ranks 2/1, each breaking the rule once, and the message
BAD_SHAPES = {
    "prime-too-wide": ((3,), (3, 3), (3, 1), "y_prime has length 3, expected 2"),
    "second-too-wide": ((3,), (3, 2), (3, 2), "y_second has length 2, expected 1"),
    "prime-too-narrow": ((3,), (3, 1), (3, 1), "y_prime has length 1, expected 2"),
    "second-too-narrow": ((3,), (3, 2), (3, 0), "y_second has length 0, expected 1"),
    "prime-1d": ((1,), (2,), (1, 1), "y_prime has shape (2,), expected (1, 2)"),
    "second-1d": ((3,), (3, 2), (3,), "y_second has shape (3,), expected (3, 1)"),
    "lanes-not-thetas": ((3,), (2, 2), (2, 1), "y_prime has shape (2, 2), expected (3, 2)"),
    "one-lane-two-thetas": ((2,), (1, 2), (1, 1), "y_prime has shape (1, 2), expected (2, 2)"),
    "lane-counts-differ": ((3,), (3, 2), (2, 1), "y_second has shape (2, 1), expected (3, 1)"),
    "thetas-2d": ((3, 1), (3, 2), (3, 1), "thetas has shape (3, 1), expected a vector"),
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
@pytest.mark.parametrize("name", sorted(BATCH_ENTRY_POINTS))
def test_batch_entry_point_refuses_a_bad_lane_shape(name, case, cfg_fourier_quartic):
    theta_shape, prime_shape, second_shape, message = BAD_SHAPES[case]
    thetas = np.linspace(0.1, 1.0, int(np.prod(theta_shape))).reshape(theta_shape)
    y_prime, y_second = np.full(prime_shape, 0.1 + 0.05j), np.full(second_shape, 0.2 - 0.1j)
    with pytest.raises(DimensionMismatch) as got:
        BATCH_ENTRY_POINTS[name](cfg_fourier_quartic, thetas, y_prime, y_second)
    assert str(got.value) == message
    # the same lanes of the right shape pass
    lanes = theta_shape[0]
    BATCH_ENTRY_POINTS[name](cfg_fourier_quartic, thetas.reshape(-1)[:lanes], np.full((lanes, 2), 0.1 + 0.05j),
                             np.full((lanes, 1), 0.2 - 0.1j))


# the entry points whose t lanes follow the shape rule too, as f(cfg, thetas, ts, y', y''), and the
# name of their t lanes
T_LANE_ENTRY_POINTS = {
    "level_rho_batch": (level_rho_batch, "ts"),
    "moment_value_batch": (moment_value_batch, "ts"),
    "phi_graph": (lambda cfg, thetas, t, yp, ys: phi_graph(cfg)(thetas, yp, ys, t), "t"),
    "phi_quadratic": (lambda cfg, thetas, t, yp, ys: phi_quadratic(cfg, 1.0, -1.0)(thetas, yp, ys, t), "t"),
}


@pytest.mark.parametrize("shape", [(1,), (), (3, 1)], ids=["one-lane", "0d", "2d"])
@pytest.mark.parametrize("name", sorted(T_LANE_ENTRY_POINTS))
def test_t_lanes_have_one_value_per_lane(name, shape, cfg_fourier_quartic):
    # no broadcasting: one t against three lanes, a bare number and a column are refused
    call, label = T_LANE_ENTRY_POINTS[name]
    thetas, y_prime, y_second = np.linspace(0.1, 1.0, 3), np.full((3, 2), 0.1 + 0.05j), np.full((3, 1), 0.2 - 0.1j)
    with pytest.raises(DimensionMismatch) as got:
        call(cfg_fourier_quartic, thetas, np.zeros(shape), y_prime, y_second)
    assert str(got.value) == f"{label} has shape {shape}, expected (3,)"
    assert call(cfg_fourier_quartic, thetas, [0.0, 0.1, -0.1], y_prime, y_second).shape == (3,)


# every batch entry point, and random_domain_batch, which draws its own lanes (as many as thetas)
REFUSING_ENTRY_POINTS = dict(
    BATCH_ENTRY_POINTS,
    random_domain_batch=lambda cfg, thetas, yp, ys: random_domain_batch(np.random.default_rng(5), cfg, len(thetas)),
)


@pytest.mark.parametrize("name", sorted(REFUSING_ENTRY_POINTS))
def test_batch_entry_point_refuses_a_refused_metric(name):
    # the metric gate at the door, fiber_norms_batch: a refused field raises the certificate's one
    # message, whatever the lanes, before any lane is evaluated
    call = REFUSING_ENTRY_POINTS[name]
    thetas = np.linspace(0.1, 1.0, 3)
    lanes = (thetas, np.full((3, 2), 0.1 + 0.05j), np.full((3, 1), 0.2 - 0.1j))
    with pytest.raises(ConfigInvalid) as got:
        call(mixed_match_config(), *lanes)
    assert type(got.value) is ConfigInvalid and str(got.value) == MIXED_MATCH_REFUSAL
    wrong = make_config(2, 2, metric_field=MetricFieldSpec.identity(2, 1))
    with pytest.raises(DimensionMismatch) as got:
        call(wrong, thetas, np.full((3, 2), 0.1 + 0.05j), np.full((3, 2), 0.2 - 0.1j))
    assert str(got.value) == "g_second harmonic 0 has shape (1, 1), expected (2, 2)"
    # the same lanes on the certified field pass
    call(mixed_match_config(indefinite=False), *lanes)


def test_shape_rule_counts_the_lanes_of_a_harmonics_table(cfg_fourier_quartic):
    table = kernels.Harmonics([0.3, 1.1, 2.0])
    with pytest.raises(DimensionMismatch, match=re.escape("y_prime has shape (6, 2), expected (3, 2)")):
        fiber_norms_batch(cfg_fourier_quartic, table, np.ones((6, 2)), np.ones((6, 1)))
    g1, g2 = fiber_norms_batch(cfg_fourier_quartic, table, np.ones((3, 2)), np.ones((3, 1)))
    assert g1.shape == g2.shape == (3,)


@pytest.mark.parametrize("name", ["fiber_norms_batch", "level_rho_batch", "moment_value_batch", "chi_parts_batch",
                                  "chi_eval_batch", "match_lanes", "matching_map_batch", "to_blowup_batch"])
def test_batch_entry_point_takes_a_harmonics_table(name, rng):
    # one theta rule: a kernels.Harmonics table in place of the thetas gives bitwise the same result
    cfg, _ = _one_lane_configs(rng)
    thetas, y_prime, y_second = random_domain_batch(rng, cfg, 64)
    call = BATCH_ENTRY_POINTS[name]
    from_thetas = call(cfg, thetas, y_prime, y_second)
    from_table = call(cfg, kernels.Harmonics(thetas), y_prime, y_second)
    if not isinstance(from_thetas, tuple):
        from_thetas, from_table = (from_thetas,), (from_table,)
    assert [a.tobytes() for a in from_table] == [a.tobytes() for a in from_thetas]


# -- batch norm consistency --------------------------------------------------


def test_fiber_norms_batch_matches_pointwise(rng, cfg_fourier_quartic):
    # reference: conj(y) G y per lane over the metric matrices at its theta
    cfg = cfg_fourier_quartic
    n = 64
    thetas = rng.uniform(0, 2 * np.pi, n)
    yp = rng.standard_normal((n, cfg.r_prime)) + 1j * rng.standard_normal((n, cfg.r_prime))
    ys = rng.standard_normal((n, cfg.r_second)) + 1j * rng.standard_normal((n, cfg.r_second))
    g1, g2 = fiber_norms_batch(cfg, thetas, yp, ys)
    for i in range(n):
        G1, G2 = metric_pair(cfg, thetas[i])
        assert g1[i] == pytest.approx((yp[i].conj() @ G1 @ yp[i]).real, rel=1e-12)
        assert g2[i] == pytest.approx((ys[i].conj() @ G2 @ ys[i]).real, rel=1e-12)


def test_norm_sq_zero_iff_zero():
    G = np.array([[2.0, 0.0], [0.0, 3.0]])
    assert _norm(G, np.zeros(2)) == 0.0
    assert _norm(G, np.array([1e-8, 0])) > 0.0


# -- scalar entry points as one-lane batches ---------------------------------


def _norms(cfg, thetas, ts, y_prime, y_second):
    return np.stack(fiber_norms_batch(cfg, thetas, y_prime, y_second), axis=1)


def _rest(cfg, thetas, ts, y_prime, y_second):
    # the rest is summed apart from chi, as taylor_rest sums it
    _, _, values = _tau_lanes(cfg, cfg.perturbation.terms, thetas, y_prime, y_second)
    return sum(values, np.zeros(len(thetas)))


def _radius(cfg, thetas, ts, y_prime, y_second):
    return np.sqrt(_norms(cfg, thetas, ts, y_prime, y_second).sum(axis=1))


def _blowup_radius(cfg, thetas, ts, y_prime, y_second, zeta):
    # zeta . (r, w) has radius r |(zeta w', w'' / zeta)|, w = y / r
    r = _radius(cfg, thetas, ts, y_prime, y_second)
    a, b = _norms(cfg, thetas, ts, y_prime / r[:, None], y_second / r[:, None]).T
    m2 = abs(zeta) ** 2
    return r * np.sqrt(m2 * a + b / m2)


def _polar_row(bp):
    # a blowup point's (r, w', w'') as one complex vector
    return np.concatenate([[bp.r], bp.w_prime, bp.w_second])


def _polar_rows(cfg, thetas, ts, y_prime, y_second):
    r, w_prime, w_second, _, _ = to_blowup_batch(cfg, thetas, y_prime, y_second)
    return np.concatenate([r[:, None], w_prime, w_second], axis=1)


ZETA = 1.7 * np.exp(0.3j)

# name -> (the scalar call, its batch counterpart (cfg, thetas, ts, y', y'') -> each lane's value,
# or None where there is none)
ONE_LANE_CASES = {
    "fiber_norms": (lambda cfg, p: np.array(fiber_norms(cfg, p)), _norms),
    "moment_value": (moment_value, moment_value_batch),
    "normalize_to_level": (lambda cfg, p: normalize_to_level(cfg, p)[0], level_rho_batch),
    "classify": (lambda cfg, p: classify(cfg, p) is StabilityClass.Stable,
                 lambda *lanes: np.isfinite(level_rho_batch(*lanes))),
    "chi_eval": (chi_eval, lambda cfg, thetas, ts, y_prime, y_second: chi_eval_batch(cfg, thetas, y_prime,
                                                                                      y_second)),
    "taylor_rest": (taylor_rest, _rest),
    "to_blowup": (lambda cfg, p: _polar_row(to_blowup(cfg, p)), _polar_rows),
    "cstar_act_blowup": (lambda cfg, p: cstar_act_blowup(cfg, ZETA, to_blowup(cfg, p)).r,
                         lambda *lanes: _blowup_radius(*lanes, ZETA)),
    "make_blowup_point": (lambda cfg, p: make_blowup_point(cfg, 0.5, p.y_prime, p.y_second, p.base), None),
    "extract_graph": (lambda cfg, p: extract_graph(cfg, phi_graph(cfg), p), None),
    "renorm_eval": (lambda cfg, p: renorm_eval(cfg, cfg.perturbation, 4, 0.0, p.y_prime, p.y_second,
                                               theta=p.base.theta), None),
}


def _one_lane_configs(rng):
    """The Fourier preset and a dense Hermitian 2/2 field, each with a reference-pairing term so every
    generator runs."""
    doc = presets.fourier_metric_config(2, 2)
    doc["perturbation"]["terms"].append({"generators": {"ref_inner_sq": 2}, "coeff_fourier": [0.05, 0.02],
                                          "ref_section": [[1.0, 0.0], [0.0, 0.0]]})
    cfg = parse_run_config(doc).model
    dense = make_config(2, 2, metric_field=dense_metric(2, 2, rng), terms=cfg.perturbation.terms)
    return cfg, dense


@pytest.mark.parametrize("name", sorted(ONE_LANE_CASES))
def test_scalar_entry_point_is_one_batch_lane(name, rng):
    scalar, batch = ONE_LANE_CASES[name]
    for cfg in _one_lane_configs(rng):
        if batch is not None:
            thetas, y_prime, y_second = random_domain_batch(rng, cfg, 64)
            ts = rng.uniform(-0.4, 0.4, 64)
            expected = batch(cfg, thetas, ts, y_prime, y_second)
            for i, (theta, t, yp, ys) in enumerate(zip(thetas, ts, y_prime, y_second)):
                got = scalar(cfg, FiberPoint(BasePoint(theta, t), yp, ys))
                assert np.asarray(got).tobytes() == expected[i].tobytes(), i
    # the config-level check: a refused field raises its one message at any theta, here a validation theta
    p = FiberPoint(BasePoint(0.0, 0.1), np.array([0.3, 0.0]), np.array([0.2]))
    with pytest.raises(ConfigInvalid) as got:
        scalar(mixed_match_config(), p)
    assert str(got.value) == MIXED_MATCH_REFUSAL

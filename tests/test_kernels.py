"""Batch kernels against per-lane numpy references."""

import itertools

import numpy as np
import pytest

from conftest import dense_metric, make_config, random_hermitian
from flipq import DegenerateBranch, MetricFieldSpec, PerturbationTerm, StabilityClass, classify, kernels, perturbation
from flipq.core import fiber_norms, fiber_norms_batch
from flipq.core import metric_at
from flipq.perturbation import _rescale_error, chi_parts_batch
from flipq.sampling import random_domain_batch


def _term_sum(terms, theta):
    """sum cos(n theta) C + sin(n theta) S over a field's (n, C, S) terms, term by term."""
    return sum(np.cos(n * theta) * c + np.sin(n * theta) * s for n, c, s in terms)


def _each_lane_alone_is_its_batch_lane(kernel, thetas, y, *field):
    """kernel over the batch, after asserting that each lane alone gives that lane's bits at batch sizes
    1, 7 and BLOCK_LANES + 3 (the prefixes of thetas, y)."""
    for n in (1, 7, kernels.BLOCK_LANES + 3):
        batch = kernel(thetas[:n], y[:n], *field)
        alone = np.concatenate([kernel(thetas[i:i + 1], y[i:i + 1], *field) for i in range(n)])
        assert alone.tobytes() == batch.tobytes(), n
    return batch


def _lanes(rng, rank):
    n = kernels.BLOCK_LANES + 3
    return rng.uniform(0.0, 2.0 * np.pi, n), rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_fourier_norm_sq_matches_per_lane_reference(rank):
    rng = np.random.default_rng(100 + rank)
    # complex off-diagonal Hermitian terms, a nonzero sine at n = 0 (which
    # must contribute nothing) and an all-zero cosine at n = 2
    spec = dense_metric(rank, 1, rng)
    thetas, y = _lanes(rng, rank)
    got = _each_lane_alone_is_its_batch_lane(kernels.fourier_norm_sq, thetas, y, *spec.norm_forms_prime)
    expected = np.array([
        (y[i].conj() @ _term_sum(spec.g_prime_terms, thetas[i]) @ y[i]).real
        for i in range(300)
    ])
    scale = np.abs(expected).max()
    assert np.abs(got[:300] - expected).max() <= 1e-13 * scale


def test_fourier_pairing_matches_per_lane_reference():
    rng = np.random.default_rng(7)
    spec = dense_metric(4, 1, rng)
    thetas, y = _lanes(rng, 4)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    got = _each_lane_alone_is_its_batch_lane(
        lambda thetas, y, *field: kernels.fourier_pairing(thetas, y, a, *field), thetas, y, *spec.packed_prime)
    expected = np.array([
        y[i].conj() @ _term_sum(spec.g_prime_terms, thetas[i]) @ a for i in range(200)
    ])
    assert np.abs(got[:200] - expected).max() <= 1e-13 * np.abs(expected).max()


def test_fourier_values_matches_per_theta_sum():
    rng = np.random.default_rng(5)
    # complex Hermitian cos and sin terms, a nonzero sine at n = 0 (which
    # contributes nothing) and an all-zero cosine at n = 3
    terms = (
        (0, random_hermitian(rng, 3), random_hermitian(rng, 3)),
        (1, random_hermitian(rng, 3), random_hermitian(rng, 3)),
        (3, np.zeros((3, 3)), random_hermitian(rng, 3)),
    )
    spec = MetricFieldSpec.fourier(terms, [(0, np.eye(1))])
    thetas = rng.uniform(0.0, 2.0 * np.pi, 50)
    got = kernels.fourier_values(thetas, *spec.packed_prime)
    assert got.shape == (50, 3, 3)
    for theta, G in zip(thetas, got):
        expected = _term_sum(spec.g_prime_terms, theta)
        assert np.abs(G - expected).max() <= 1e-14 * np.abs(expected).max()
    assert kernels.fourier_values(np.zeros(0), *spec.packed_prime).shape == (0, 3, 3)


def _fourier_scalar_loop(coeffs, theta):
    """[a0, a1, b1, a2, b2, ...] at theta as a0 + sum a_n cos(n theta) + b_n sin(n theta), summed term by term."""
    theta = np.asarray(theta, dtype=float)
    value = np.full(theta.shape, float(coeffs[0]))
    n = 1
    i = 1
    while i < len(coeffs):
        value = value + float(coeffs[i]) * np.cos(n * theta)
        if i + 1 < len(coeffs):
            value = value + float(coeffs[i + 1]) * np.sin(n * theta)
        i += 2
        n += 1
    return value


@pytest.mark.parametrize("coeff", [
    (0.3,), (0.0,), (0.1, -0.4), (0.0, 0.0, 0.7), (0.2, 0.0, -1.5, 0.25),
    (-0.05, 0.3, 0.0, 0.0, 2.0), (1.0, 2.0, 3.0, 4.0, 5.0),
])
def test_fourier_values_coefficient_layout_bitwise(coeff):
    # a perturbation coefficient series, lengths 1-5 with zero entries, is
    # bitwise the term-by-term sum
    thetas = np.random.default_rng(len(coeff)).uniform(0.0, 2.0 * np.pi, 257)
    got = kernels.fourier_values(thetas, *PerturbationTerm(mixed_pow=1, coeff=coeff).series)
    assert got.shape == thetas.shape
    assert np.array_equal(got, _fourier_scalar_loop(coeff, thetas))


def _chi_per_lane(cfg, theta, y_prime, y_second):
    """(chi, g1, g2) at one fiber vector from the metric matrices at theta, term by term."""
    G1, G2 = metric_at(cfg, theta)
    g1 = (y_prime.conj() @ G1 @ y_prime).real
    g2 = (y_second.conj() @ G2 @ y_second).real
    rest = 0.0
    for term in cfg.perturbation.terms:
        value = _fourier_scalar_loop(term.coeff, theta) * g1**term.norm_prime_pow * g2**term.norm_second_pow
        value *= (g1 * g2) ** term.mixed_pow
        if term.ref_inner_pow:
            value *= abs(y_prime.conj() @ G1 @ term.ref_section) ** (2 * term.ref_inner_pow)
        rest += value
    return -0.5 * (g1 - g2) + rest, g1, g2


def test_chi_parts_batch_matches_scalar_path():
    rng = np.random.default_rng(11)
    # g' carries complex off-diagonal sine terms; small enough to stay positive definite
    metric = MetricFieldSpec.fourier(
        [
            (0, 3.0 * np.eye(3)),
            (1, random_hermitian(rng, 3, 0.3), random_hermitian(rng, 3, 0.3)),
            (2, np.zeros((3, 3)), random_hermitian(rng, 3, 0.3)),
        ],
        [(0, 2.0 * np.eye(2)), (1, np.zeros((2, 2)), random_hermitian(rng, 2, 0.3))],
    )
    terms = [
        PerturbationTerm(ref_inner_pow=2, coeff=(0.05, 0.02, -0.03),
                         ref_section=np.array([1.0, 0.5j, -0.25 + 0.5j])),
        PerturbationTerm(ref_inner_pow=1, norm_second_pow=1, coeff=(0.1,),
                         ref_section=np.array([0.0, 1.0, 1.0j])),
        PerturbationTerm(mixed_pow=1, coeff=(0.1, 0.0, 0.05)),
    ]
    cfg = make_config(3, 2, epsilon=0.5, domain_radius=0.8, metric_field=metric, terms=terms)
    thetas, y_prime, y_second = random_domain_batch(rng, cfg, 400)
    chi, g1, g2 = chi_parts_batch(cfg, thetas, y_prime, y_second)
    expected = np.array([
        _chi_per_lane(cfg, float(thetas[i]), y_prime[i], y_second[i]) for i in range(len(thetas))
    ])
    for got, ref in zip((chi, g1, g2), expected.T):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def _table_config():
    """Ranks 3/2 with cos and sin harmonics at n = 0, 1, 2 in both metric blocks
    (the n = 0 sines contribute nothing), a reference-pairing term with three
    harmonics and a mixed term whose sin(theta) the metric shares."""
    rng = np.random.default_rng(21)

    def field(rank):
        return [(0, 4.0 * np.eye(rank), random_hermitian(rng, rank)),
                (1, random_hermitian(rng, rank, 0.3), random_hermitian(rng, rank, 0.3)),
                (2, random_hermitian(rng, rank, 0.3), random_hermitian(rng, rank, 0.3))]

    metric = MetricFieldSpec.fourier(field(3), field(2))
    terms = [
        PerturbationTerm(ref_inner_pow=2, coeff=(0.05, 0.02, -0.03, 0.01),
                         ref_section=np.array([1.0, 0.5j, -0.25 + 0.5j])),
        PerturbationTerm(mixed_pow=1, coeff=(0.1, 0.0, 0.05)),
    ]
    return make_config(3, 2, epsilon=0.5, domain_radius=0.8, metric_field=metric, terms=terms)


def _weights_per_series(thetas, ns, cos, sin):
    """(weight, coefficient) of one series, with its own cos(n theta) and sin(n theta)."""
    for n, c, s in zip(ns, cos, sin):
        if np.any(c):
            yield (None if n == 0 else np.cos(n * thetas)), c
        if n != 0 and np.any(s):
            yield np.sin(n * thetas), s


def _values_reference(thetas, ns, cos, sin):
    out = np.zeros(thetas.shape + np.shape(cos)[1:], dtype=np.result_type(cos, sin))
    for weight, c in _weights_per_series(thetas, ns, cos, sin):
        out += c if weight is None else weight.reshape(weight.shape + (1,) * np.ndim(c)) * c
    return out


def _norm_sq_reference(thetas, y, terms):
    """Re(conj(y) C y) per coefficient C as sum_{i<=j} of its Hermitian products
    Re(conj(y_i) y_j), then Im(conj(y_i) y_j) for i < j, weighted by H = (C + C^H)/2
    and added lane by lane in that order; then the harmonics in series order."""
    re, im = y.real.T, y.imag.T
    out = np.zeros(len(thetas))
    ns, cos, sin = zip(*terms)
    for weight, c in _weights_per_series(thetas, ns, cos, sin):
        h = (c + c.conj().T) / 2.0
        q = np.zeros(len(thetas))
        for i, j in zip(*np.triu_indices(len(c))):
            q += (1.0 if i == j else 2.0) * h[i, j].real * (re[i] * re[j] + im[i] * im[j])
            if i != j:
                q += -2.0 * h[i, j].imag * (re[i] * im[j] - im[i] * re[j])
        out += q if weight is None else weight * q
    return out


def _pairing_reference(thetas, y, a, terms):
    """conj(y) C a per coefficient C with b = C a, its real part
    sum_i Re y_i Re b_i + Im y_i Im b_i and its imaginary part
    sum_i Re y_i Im b_i - Im y_i Re b_i, added lane by lane in that order."""
    re_out, im_out = np.zeros(len(thetas)), np.zeros(len(thetas))
    ns, cos, sin = zip(*terms)
    for weight, c in _weights_per_series(thetas, ns, cos, sin):
        b = c @ a
        re, im = np.zeros(len(thetas)), np.zeros(len(thetas))
        for i in range(len(b)):
            re += b[i].real * y[:, i].real
            re += b[i].imag * y[:, i].imag
            im += b[i].imag * y[:, i].real
            im += -b[i].real * y[:, i].imag
        re_out += re if weight is None else weight * re
        im_out += im if weight is None else weight * im
    out = np.empty(len(thetas), dtype=np.complex128)
    out.real, out.imag = re_out, im_out
    return out


def _series_reference(term, thetas):
    coeff = list(term.coeff[:1]) + [0.0] + list(term.coeff[1:])
    pairs = np.array(coeff + [0.0] * (len(coeff) % 2)).reshape(-1, 2)
    return _values_reference(thetas, np.arange(len(pairs), dtype=float), pairs[:, 0], pairs[:, 1])


def test_harmonic_table_outputs_bitwise_per_series_reference():
    cfg = _table_config()
    rng = np.random.default_rng(22)
    thetas, y_prime, y_second = random_domain_batch(rng, cfg, 333)
    field = cfg.metric_field
    g1 = _norm_sq_reference(thetas, y_prime, field.g_prime_terms)
    g2 = _norm_sq_reference(thetas, y_second, field.g_second_terms)
    chi = -0.5 * (g1 - g2)
    for term in cfg.perturbation.terms:
        value = _series_reference(term, thetas)
        if term.mixed_pow:
            value = value * (g1 * g2) ** term.mixed_pow
        if term.ref_inner_pow:
            inner = _pairing_reference(thetas, y_prime, term.ref_section, field.g_prime_terms)
            value = value * (abs(inner) ** 2) ** term.ref_inner_pow
        chi = chi + value

    for got, ref in zip(chi_parts_batch(cfg, thetas, y_prime, y_second), (chi, g1, g2)):
        assert got.tobytes() == ref.tobytes()
    for got, ref in zip(fiber_norms_batch(cfg, thetas, y_prime, y_second), (g1, g2)):
        assert got.tobytes() == ref.tobytes()
    a = cfg.perturbation.terms[0].ref_section
    assert (kernels.fourier_pairing(thetas, y_prime, a, *field.packed_prime).tobytes()
            == _pairing_reference(thetas, y_prime, a, field.g_prime_terms).tobytes())
    for packed, terms in ((field.packed_prime, field.g_prime_terms), (field.packed_second, field.g_second_terms)):
        assert (kernels.fourier_values(thetas, *packed).tobytes()
                == _values_reference(thetas, *(np.array(x) for x in zip(*terms))).tobytes())
    for term in cfg.perturbation.terms:
        assert kernels.fourier_values(thetas, *term.series).tobytes() == _series_reference(term, thetas).tobytes()


def test_harmonic_table_evaluates_each_harmonic_once_per_call(monkeypatch):
    cfg = _table_config()
    thetas, y_prime, y_second = random_domain_batch(np.random.default_rng(23), cfg, 50)
    evaluated = []
    evaluate = kernels.Harmonics._evaluate

    def counted(table, n, sine):
        evaluated.append((n, sine))
        return evaluate(table, n, sine)

    monkeypatch.setattr(kernels.Harmonics, "_evaluate", counted)
    # the metric blocks use cos and sin at n = 1, 2; the terms add nothing new
    distinct = [(1.0, False), (1.0, True), (2.0, False), (2.0, True)]
    for call in (chi_parts_batch, fiber_norms_batch):
        for _ in range(2):  # the table lives for one call: a second call evaluates again
            evaluated.clear()
            call(cfg, thetas, y_prime, y_second)
            assert sorted(evaluated) == distinct


def _newton_masked_loop(ap, app, c, seed, tol=kernels.NEWTON_TOL, max_iter=kernels.NEWTON_MAX_ITER):
    """newton_rescale as it was with a masked step, a masked alpha and iters[active] += 1."""
    ok = np.isfinite(seed) & (seed > 0.0) & kernels.has_positive_root(ap, app, c)
    rho = np.where(ok, seed, 1.0)
    iters = np.zeros(ap.shape[0], dtype=np.int32)
    status = np.where(ok, kernels.STATUS_OK, kernels.STATUS_NO_POSITIVE_ROOT).astype(np.int8)
    alpha = kernels.rescale_alpha(rho, ap, app, c)
    active = ok & (np.abs(alpha) > tol)
    for _ in range(max_iter):
        if not active.any():
            break
        beta = kernels.rescale_beta(rho, ap, app)
        with np.errstate(invalid="ignore", divide="ignore"):
            step = np.where(active, alpha / beta, 0.0)
        new = rho - step
        new = np.where(new <= 0.0, 0.5 * rho, new)
        rho = np.where(active, new, rho)
        iters[active] += 1
        alpha = np.where(active, kernels.rescale_alpha(rho, ap, app, c), alpha)
        active = active & (np.abs(alpha) > tol)
    status[active] = kernels.STATUS_NO_CONVERGENCE
    return np.where(ok, rho, np.nan), np.where(ok, np.abs(alpha), np.nan), iters, status


@pytest.mark.parametrize("max_iter", [2, kernels.NEWTON_MAX_ITER])
def test_newton_loop_bitwise_masked_loop(max_iter):
    # lanes: far seed, exact root (0 iterations), NaN seed, both blocks zero,
    # a'' = 0 with c = 0 and c > 0, a first step to rho = -4 that halves
    # instead, and a seed within tol of its root (0 iterations, rho kept
    # while the other lanes iterate)
    ap = np.array([1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    app = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0])
    c = np.array([0.1, 0.0, 0.1, 0.1, 0.0, 0.2, 10.0, 0.0])
    seed = np.array([25.0, 1.0, np.nan, 1.0, 1.0, 1.0, 1.0, 1.0 + 1e-13])
    got = kernels.newton_rescale(ap, app, c, seed=seed, max_iter=max_iter)
    expected = _newton_masked_loop(ap, app, c, seed, max_iter=max_iter)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and g.tobytes() == e.tobytes()
    assert got[2][1] == 0 and got[2][6] > 0
    assert got[2][7] == 0 and got[0][7] == seed[7]
    if max_iter == 2:  # the far seed is still above tol
        assert got[3][0] == kernels.STATUS_NO_CONVERGENCE


def _unseeded_match(monkeypatch, ap, app, c):
    """match_lanes, without a seed, on lanes whose equation is (a', a'', c): chi_parts_batch returns it."""
    monkeypatch.setattr(perturbation, "chi_parts_batch", lambda *args, **kwargs: (c, ap, app))
    n = len(c)
    return perturbation.match_lanes(make_config(), np.zeros(n), np.zeros((n, 1)), np.zeros((n, 1)))


@pytest.mark.parametrize("c", [-0.1, 0.0, 0.1])
@pytest.mark.parametrize("prime_zero, second_zero", itertools.product([False, True], repeat=2))
def test_has_positive_root_decides_classify_and_branch_check(monkeypatch, prime_zero, second_zero, c):
    # the rule, by zero pattern: both blocks present always have a root;
    # y'' = 0 needs c < 0, y' = 0 needs c > 0, the zero section none
    expected = {(False, False): True, (False, True): c < 0,
                (True, False): c > 0, (True, True): False}[prime_zero, second_zero]
    cfg = make_config(2, 1)
    y_prime = np.zeros(2) if prime_zero else np.array([0.3, 0.1j])
    y_second = np.zeros(1) if second_zero else np.array([0.2])
    p = cfg.fiber_point(0.0, c, y_prime, y_second)
    ap, app = fiber_norms(cfg, p)
    assert kernels.has_positive_root(ap, app, c) == expected
    assert kernels.has_positive_root(np.array([ap]), np.array([app]), np.array([c]))[0] == expected
    assert (classify(cfg, p) is StabilityClass.Stable) == expected
    # a zero pattern with a root leaves the failure to the solver's status
    error = _rescale_error(prime_zero, second_zero, c)
    assert isinstance(error, DegenerateBranch)
    assert (str(error) == "no positive root on this branch") == expected
    status = _unseeded_match(monkeypatch, np.array([ap]), np.array([app]), np.array([c])).status[0]
    assert (status == kernels.STATUS_OK) == expected


def test_status_semantics(monkeypatch):
    # no positive root: a' = 0 with c <= 0, a'' = 0 with c >= 0, zero vector
    ap = np.array([0.0, 1.0, 0.0])
    app = np.array([1.0, 0.0, 0.0])
    c = np.array([-0.2, 0.2, 0.0])
    m = _unseeded_match(monkeypatch, ap, app, c)
    assert (m.status == kernels.STATUS_NO_POSITIVE_ROOT).all()
    assert np.isnan(m.rho).all()


def test_closed_form_branches():
    # a' = 0 with c > 0: s = a'' / (2 c)
    s = kernels.scale_root(np.array([0.0]), np.array([1.0]), np.array([0.25]))
    assert s[0] == pytest.approx(2.0)
    # a'' = 0 with c < 0: s = -2 c / a'
    s = kernels.scale_root(np.array([2.0]), np.array([0.0]), np.array([-0.25]))
    assert s[0] == pytest.approx(0.25)
    # generic: both blocks present
    s = kernels.scale_root(np.array([4.0]), np.array([1.0]), np.array([0.0]))
    assert s[0] == pytest.approx(0.5)


def test_scale_root_is_accurate_where_c_squared_dominates():
    # c > 0 with x = a' a'' / c^2 tiny: the root is a'' / (2c) (1 - x/4 + O(x^2)), to 1e-15
    # relative; the cancelling form (-c + sqrt(c^2 + a' a'')) / a' loses it, and no Newton
    # step follows to polish it
    ap = np.array([1.0, 1e-16, 1.0, 4.0])
    app = np.array([1e-20, 0.25, 1e-10, 1e-300])
    c = np.array([1.0, 0.125, 1.0, 1e-100])
    reference = app / (2.0 * c) * (1.0 - ap * app / (4.0 * c * c))
    np.testing.assert_allclose(kernels.scale_root(ap, app, c), reference, rtol=1e-15, atol=0.0)
    assert reference[0] == 5e-21


@pytest.mark.parametrize("k", [-900, -600, 600, 900])
def test_scale_root_is_invariant_under_a_power_of_two(k):
    # s is homogeneous of degree 0: scaling a', a'' and c by 2^k, where c * c or a' a''
    # would underflow or overflow, leaves every root bit unchanged
    rng = np.random.default_rng(7)
    ap, app = rng.uniform(0.5, 2.0, 64), rng.uniform(0.5, 2.0, 64)
    c = rng.uniform(-2.0, 2.0, 64)
    s = kernels.scale_root(ap, app, c)
    assert np.isfinite(s).all()
    assert kernels.scale_root(np.ldexp(ap, k), np.ldexp(app, k), np.ldexp(c, k)).tobytes() == s.tobytes()


def test_newton_converges_from_far_seed():
    ap = np.array([1.0])
    app = np.array([1.0])
    c = np.array([0.1])
    seed = np.array([25.0])
    rho, resid, iters, status = kernels.newton_rescale(ap, app, c, seed=seed)
    assert status[0] == kernels.STATUS_OK
    assert resid[0] <= 1e-12
    expected = np.sqrt(-0.1 + np.sqrt(0.1**2 + 1.0))
    assert rho[0] == pytest.approx(expected, abs=1e-10)


def test_newton_iteration_cap():
    # the far seed needs more than two steps, the exact root (rho = 1 at
    # c = 0) none; a lane still above tol is reported
    ap = np.array([1.0, 1.0, 1.0])
    app = np.array([1.0, 1.0, 1.0])
    c = np.array([0.1, 0.0, 0.1])
    seed = np.array([25.0, 1.0, np.nan])
    rho, resid, iters, status = kernels.newton_rescale(ap, app, c, seed=seed, max_iter=2)
    assert status.tolist() == [
        kernels.STATUS_NO_CONVERGENCE, kernels.STATUS_OK, kernels.STATUS_NO_POSITIVE_ROOT,
    ]
    assert iters.tolist() == [2, 0, 0]
    assert resid[0] > kernels.NEWTON_TOL and resid[1] == 0.0 and np.isnan(resid[2])


@pytest.mark.filterwarnings("error")
def test_scale_root_overflow_is_silent():
    # c * c would overflow unscaled; no floating-point warning reaches stderr, and
    # each lane gives its root (about 1 / 2c for c > 0, -2c for c < 0)
    s = kernels.scale_root(np.ones(2), np.ones(2), np.array([1e200, -1e200]))
    for got, root in zip(s, (5e-201, 2e200)):
        assert got == pytest.approx(root, rel=1e-12)

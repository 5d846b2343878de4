"""Batch kernels against per-lane numpy references."""

import gc
import itertools
import re
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import dense_metric, make_config, random_hermitian
from flipq import (DegenerateBranch, DimensionMismatch, MetricFieldSpec, NotStable, PerturbationTerm, StabilityClass,
                   classify, kernels, normalize_to_level, perturbation, presets)
from flipq.config_io import build_model
from flipq.core import fiber_norms, fiber_norms_batch
from flipq.core import metric_at
from flipq.perturbation import chi_parts_batch
from flipq.quotient import level_rho_batch
from flipq.sampling import random_domain_batch
from oracle import chi_parts_reference, level_rho_reference, relative_error, scale_root_reference, scaled_error


def _term_sum(terms, theta):
    """sum cos(n theta) C + sin(n theta) S over a field's (n, C, S) terms, term by term."""
    return sum(np.cos(n * theta) * c + np.sin(n * theta) * s for n, c, s in terms)


# KERNEL_LANES in the lane-alone tests: small, so BLOCKED_LANES lanes cross two block boundaries into a
# partial tail block while the one-lane loops stay cheap
SMALL_BLOCK = 64
BLOCKED_LANES = 2 * SMALL_BLOCK + 3


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(kernels, "KERNEL_LANES", SMALL_BLOCK)  # read at call time


LANE_BLOCK_COUNTS = [(n, lanes_each) for L in [kernels.KERNEL_LANES]
                     for n in (0, 1, L - 1, L, L + 1, 3 * L + 5) for lanes_each in (1, 75, L, L + 3)]


@pytest.mark.parametrize("n, lanes_each", LANE_BLOCK_COUNTS)
def test_lane_blocks_cover_every_item_once_in_order(n, lanes_each):
    # items of lanes_each lanes, max(1, KERNEL_LANES // lanes_each) a slice: an item longer than
    # KERNEL_LANES is a slice of its own, and only the last slice is short
    items = [list(range(n)[block]) for block in kernels.lane_blocks(n, lanes_each)]
    assert list(itertools.chain.from_iterable(items)) == list(range(n))
    assert all(items)
    step = max(1, kernels.KERNEL_LANES // lanes_each)
    assert [len(block) for block in items[:-1]] == [step] * (len(items) - 1)


def _each_lane_alone_is_its_batch_lane(kernel, lanes, *args):
    """kernel(*lanes, *args) over the BLOCKED_LANES lanes, after asserting that each lane alone gives that
    lane's bits at batch sizes 1, 7 and BLOCKED_LANES (the prefixes of the lane arrays).  The kernel gives
    one lane array or a tuple of them."""
    for n in (1, 7, BLOCKED_LANES):
        batch = kernel(*(a[:n] for a in lanes), *args)
        alone = [kernel(*(a[i:i + 1] for a in lanes), *args) for i in range(n)]
        for k, out in enumerate(batch if isinstance(batch, tuple) else (batch,)):
            lane_outs = [lane[k] if isinstance(lane, tuple) else lane for lane in alone]
            assert np.concatenate(lane_outs).tobytes() == out.tobytes(), (n, k)
    return batch


def _lanes(rng, rank):
    n = BLOCKED_LANES
    return rng.uniform(0.0, 2.0 * np.pi, n), rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_fourier_norm_sq_matches_per_lane_reference(small_blocks, rank):
    rng = np.random.default_rng(100 + rank)
    # complex off-diagonal Hermitian terms, a nonzero sine at n = 0 (which
    # must contribute nothing) and an all-zero cosine at n = 2
    spec = dense_metric(rank, 1, rng)
    thetas, y = _lanes(rng, rank)
    got = _each_lane_alone_is_its_batch_lane(kernels.fourier_norm_sq, (thetas, y), *spec.norm_forms_prime)
    expected = np.array([(y[i].conj() @ _term_sum(spec.g_prime_terms, thetas[i]) @ y[i]).real
                         for i in range(BLOCKED_LANES)])
    scale = np.abs(expected).max()
    assert np.abs(got - expected).max() <= 1e-13 * scale


def test_fourier_pairing_matches_per_lane_reference(small_blocks):
    rng = np.random.default_rng(7)
    spec = dense_metric(4, 1, rng)
    thetas, y = _lanes(rng, 4)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    got = _each_lane_alone_is_its_batch_lane(kernels.fourier_pairing, (thetas, y), a, *spec.packed_prime)
    expected = np.array([y[i].conj() @ _term_sum(spec.g_prime_terms, thetas[i]) @ a for i in range(BLOCKED_LANES)])
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("thetas", [np.float64(1.0), 1.0, np.zeros((3, 1))], ids=["float64", "float", "2d"])
def test_a_thetas_that_is_not_a_vector_is_refused(thetas):
    # each Fourier kernel refuses it through the Harmonics table, with the message fiber_norms_batch gives
    spec = dense_metric(2, 1, np.random.default_rng(3))
    y = np.ones((1, 2), dtype=complex)
    message = re.escape(f"thetas has shape {np.shape(thetas)}, expected a vector")
    for call in (lambda: kernels.Harmonics(thetas), lambda: kernels.harmonics(thetas),
                 lambda: kernels.fourier_values(thetas, *spec.packed_prime),
                 lambda: kernels.fourier_norm_sq(thetas, y, *spec.norm_forms_prime),
                 lambda: kernels.fourier_pairing(thetas, y, np.ones(2), *spec.packed_prime)):
        with pytest.raises(DimensionMismatch, match=message):
            call()


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


def _counted_evaluations(monkeypatch):
    """The (n, sine) of each weight Harmonics evaluates from here on, in order."""
    evaluated = []
    evaluate = kernels.Harmonics._evaluate

    def counted(table, n, sine):
        evaluated.append((n, sine))
        return evaluate(table, n, sine)

    monkeypatch.setattr(kernels.Harmonics, "_evaluate", counted)
    return evaluated


# the metric blocks of _table_config use cos and sin at n = 1, 2; the terms add nothing new
TABLE_CONFIG_WEIGHTS = [(1.0, False), (1.0, True), (2.0, False), (2.0, True)]


def test_harmonic_table_evaluates_each_harmonic_once_per_thetas_array(monkeypatch):
    cfg = _table_config()
    thetas, y_prime, y_second = random_domain_batch(np.random.default_rng(23), cfg, 50)
    thetas = thetas.copy()  # an array no call has seen
    evaluated = _counted_evaluations(monkeypatch)
    chi_parts_batch(cfg, thetas, y_prime, y_second)
    assert sorted(evaluated) == TABLE_CONFIG_WEIGHTS
    # later calls on the same array, its bits unchanged, read the same table: they evaluate nothing
    evaluated.clear()
    for call in (chi_parts_batch, fiber_norms_batch, chi_parts_batch):
        call(cfg, thetas, y_prime, y_second)
    assert evaluated == []


def _entry_point_results(cfg, thetas, y_prime, y_second):
    """The bytes of each array that chi_parts_batch, fiber_norms_batch, level_rho_batch and match_lanes give."""
    results = (chi_parts_batch(cfg, thetas, y_prime, y_second), fiber_norms_batch(cfg, thetas, y_prime, y_second),
               (level_rho_batch(cfg, thetas, np.full(len(y_prime), 0.01), y_prime, y_second),),
               perturbation.match_lanes(cfg, thetas, y_prime, y_second))
    return [a.tobytes() for result in results for a in result]


@pytest.mark.parametrize("write", ["one lane", "zero sign"])
def test_an_in_place_write_to_the_thetas_evaluates_again(monkeypatch, write):
    # the table's key is the thetas' bits as uint64: a write to one lane and a flip of 0.0 to -0.0 both miss,
    # and every entry point then reads the new bits, as a fresh table over a copy of them does
    cfg = _table_config()
    thetas, y_prime, y_second = random_domain_batch(np.random.default_rng(24), cfg, 50)
    thetas[3] = 0.0
    before = _entry_point_results(cfg, thetas, y_prime, y_second)
    if write == "one lane":
        thetas[7] += 0.25
    else:
        thetas[3] = -0.0
    evaluated = _counted_evaluations(monkeypatch)
    chi_parts_batch(cfg, thetas, y_prime, y_second)
    assert sorted(evaluated) == TABLE_CONFIG_WEIGHTS
    got = _entry_point_results(cfg, thetas, y_prime, y_second)
    assert got == _entry_point_results(cfg, kernels.Harmonics(thetas.copy()), y_prime, y_second)
    if write == "one lane":
        assert got != before


def test_an_equal_array_a_list_and_a_float32_array_each_evaluate(monkeypatch):
    # only the very float64 array the kept table was built for reads it; a list gets a table per call
    thetas = np.random.default_rng(25).uniform(0.0, 2.0 * np.pi, 20)
    table = kernels.harmonics(thetas)
    assert kernels.harmonics(table) is table
    table.weight(1.0, False)
    evaluated = _counted_evaluations(monkeypatch)
    for other in (thetas, thetas.copy(), list(thetas), list(thetas), thetas.astype(np.float32)):
        kernels.harmonics(other).weight(1.0, False)
    assert evaluated == [(1.0, False)] * 4


def test_the_kept_table_goes_with_the_callers_thetas():
    # the slot holds the caller's array weakly: once it is freed, no O(n) table outlives it
    thetas = np.random.default_rng(26).uniform(0.0, 2.0 * np.pi, 1000)
    table = kernels.harmonics(thetas)
    table.weight(1.0, True)
    assert kernels.harmonics(thetas) is table
    kept = weakref.ref(table)
    del table, thetas
    gc.collect()
    assert kept() is None


def test_threads_on_their_own_thetas_get_the_serial_bits():
    # four threads, switching often, each calling on its own array: the slot changes hands between calls,
    # and each call still reads a table over its own thetas' bits
    cfg = _table_config()
    batches = [random_domain_batch(np.random.default_rng(seed), cfg, 300) for seed in (27, 28, 29, 30)]
    serial = [[a.tobytes() for a in chi_parts_batch(cfg, *batch)] for batch in batches]
    start = threading.Barrier(len(batches), timeout=60)

    def run(batch):
        start.wait()
        return [[a.tobytes() for a in chi_parts_batch(cfg, *batch)] for _ in range(10)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(batches)) as pool:
            results = list(pool.map(run, batches, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == [[expected] * 10 for expected in serial]


def test_the_batch_bulk_calls_on_one_thetas_array_evaluate_each_weight_once(monkeypatch):
    # a library user's sequence on the ranks 3/3 Fourier config, g' = (2 + cos theta) I and
    # g'' = (1.5 + 0.5 sin theta) I: cos theta and sin theta are evaluated once across all five calls
    cfg = build_model(presets.fourier_metric_config(3, 3))
    evaluated = _counted_evaluations(monkeypatch)
    thetas, y_prime, y_second = random_domain_batch(np.random.default_rng(5), cfg, 2000)
    chi_parts_batch(cfg, thetas, y_prime, y_second)
    chi = perturbation.chi_eval_batch(cfg, thetas, y_prime, y_second)
    perturbation.matching_map_batch(cfg, thetas, y_prime, y_second)
    level_rho_batch(cfg, thetas, chi, y_prime, y_second)
    assert sorted(evaluated) == [(1.0, False), (1.0, True)]


def _newton_masked_loop(ap, app, c, seed, tol=kernels.NEWTON_TOL, max_iter=kernels.NEWTON_MAX_ITER):
    """newton_rescale as it was with a masked step, a masked alpha and iters[active] += 1."""
    ok = np.isfinite(seed) & (seed > 0.0) & np.isfinite(kernels.scale_root(ap, app, c))
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
def test_newton_loop_bitwise_masked_loop(monkeypatch, max_iter):
    # lanes: far seed, exact root (0 iterations), NaN seed, both blocks zero,
    # a'' = 0 with c = 0 and c > 0, a first step to rho = -4 that halves
    # instead, and a seed within tol of its root (0 iterations, rho kept
    # while the other lanes iterate)
    ap = np.array([1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    app = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0])
    c = np.array([0.1, 0.0, 0.1, 0.1, 0.0, 0.2, 10.0, 0.0])
    seed = np.array([25.0, 1.0, np.nan, 1.0, 1.0, 1.0, 1.0, 1.0 + 1e-13])
    monkeypatch.setattr(kernels, "NEWTON_MAX_ITER", max_iter)  # read at call time
    got = kernels.newton_rescale(ap, app, c, seed=seed)
    expected = _newton_masked_loop(ap, app, c, seed, max_iter=max_iter)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and g.tobytes() == e.tobytes()
    assert got[2][1] == 0 and got[2][6] > 0
    assert got[2][7] == 0 and got[0][7] == seed[7]
    if max_iter == 2:  # the far seed is still above tol
        assert got[3][0] == kernels.STATUS_NO_CONVERGENCE


def _rescale_lanes():
    """(a', a'', c, seed) on BLOCKED_LANES lanes, the kinds of lane spread over the three blocks of SMALL_BLOCK.

    Ordinary lanes, with roots near their seed 1, fill the blocks.  Block 0 also holds NaN and inf inputs,
    lost digits and bad seeds, none of which steps; block 1 holds a lane that _into_float_range scales,
    lost digits, a bad seed and far seeds, which take more steps than any lane of block 0; the tail block
    holds lanes that do not converge: one that _into_float_range scales up, whose residual stays above
    NEWTON_TOL, a seed 1e200 that overflows its residual and a seed 1e30 that steps back in halves.  So a
    block that stopped with another block's lanes, or a block left out, changes lanes.
    """
    rng = np.random.default_rng(38)
    n = BLOCKED_LANES
    ap, app = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    c, seed = rng.uniform(-0.2, 0.2, n), np.ones(n)
    tiny, nan, inf = kernels.NORM_SQ_MIN, np.nan, np.inf
    special = {  # lane: (a', a'', c, seed)
        # block 0
        3: (nan, 1.0, 0.1, 1.0), 4: (1.0, nan, 0.1, 1.0), 5: (1.0, 1.0, nan, 1.0), 6: (inf, 1.0, -0.1, 1.0),
        7: (1.0, 1.0, inf, 1.0), 8: (1.0, inf, 0.1, 1.0), 9: (1e-320, 1e-320, 0.0, 1.0),
        10: (tiny / 4, tiny / 2, -tiny, 1.0), 11: (0.0, 0.0, 0.0, 1.0), 12: (1.0, 1.0, 0.1, nan),
        13: (1.0, 1.0, 0.1, -1.0), 14: (1.0, 1.0, 0.1, 0.0), 15: (1.0, 1.0, 0.1, inf), 16: (1.0, 1.0, 0.0, 1.0),
        # block 1
        70: (np.ldexp(1.3, -900), np.ldexp(0.7, -900), np.ldexp(0.2, -900), 1.0),
        72: (1e-320, 1e-320, 0.0, 2.0), 73: (1.0, 1.0, 0.1, 1e3), 74: (2.0, 0.5, -0.3, 1e-3),
        75: (1.0, 1.0, 0.1, 30.0), 76: (1.0, 1.0, 0.1, nan),
        # the tail block
        128: (np.ldexp(1.3, 900), np.ldexp(0.7, 900), np.ldexp(-0.2, 900), 1.0), 129: (1.0, 1.0, 0.1, 1e200),
        130: (1.0, 1.0, 0.1, 1e30),
    }
    for lane, values in special.items():
        ap[lane], app[lane], c[lane], seed[lane] = values
    return ap, app, c, seed


def test_scale_root_gives_each_lane_alone_its_batch_bits(small_blocks):
    # on the lane mix across three blocks, with c per lane and as one scalar: each lane alone gives its batch
    # bits, NaN exactly where the digits are lost or the oracle has no root, else within SCALE_ROOT_EPSILONS
    ap, app, c, _ = _rescale_lanes()
    s = _each_lane_alone_is_its_batch_lane(kernels.scale_root, (ap, app, c))
    with np.errstate(invalid="ignore"):
        lost = kernels.lost_digits(ap, app)
    references = [scale_root_reference(*lane) for lane in zip(ap, app, c)]
    no_root = np.array([ref is None for ref in references])
    assert np.isnan(s).tolist() == (lost | no_root).tolist()
    assert np.flatnonzero(np.isnan(s)).tolist() == list(range(3, 12)) + [72]
    assert _worst_error(s, [None if k else ref for k, ref in zip(lost, references)]) <= SCALE_ROOT_EPSILONS
    scalar_c = _each_lane_alone_is_its_batch_lane(lambda ap, app: kernels.scale_root(ap, app, 0.1), (ap, app))
    assert scalar_c.tobytes() == kernels.scale_root(ap, app, np.full(len(ap), 0.1)).tobytes()


def test_newton_rescale_gives_each_lane_alone_its_batch_bits(small_blocks):
    # on the lane mix, each lane alone gives its batch bits, and the batch is the unblocked masked loop's
    # bits: every status, and iteration counts that differ between the blocks
    ap, app, c, seed = _rescale_lanes()
    got = _each_lane_alone_is_its_batch_lane(kernels.newton_rescale, (ap, app, c, seed))
    with np.errstate(all="ignore"):  # the seed 1e200 overflows
        expected = _newton_masked_loop(ap, app, c, seed)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and g.tobytes() == e.tobytes()
    rho, resid, iters, status = got
    blocks = [slice(0, SMALL_BLOCK), slice(SMALL_BLOCK, 2 * SMALL_BLOCK), slice(2 * SMALL_BLOCK, None)]
    assert [int(iters[lanes].max()) for lanes in blocks] == [5, 20, kernels.NEWTON_MAX_ITER]
    assert np.bincount(status).tolist() == [113, 3, 15]
    assert np.flatnonzero(status == kernels.STATUS_NO_CONVERGENCE).tolist() == [128, 129, 130]
    # one scalar c and one scalar seed stand for every lane
    scalar = _each_lane_alone_is_its_batch_lane(lambda ap, app: kernels.newton_rescale(ap, app, 0.1, 2.0), (ap, app))
    full = kernels.newton_rescale(ap, app, np.full(len(ap), 0.1), np.full(len(ap), 2.0))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(scalar, full))


def _unseeded_match(monkeypatch, ap, app, c):
    """match_lanes, without a seed, on lanes whose equation is (a', a'', c): chi_parts_batch returns it.

    The config's fiber domain holds norm sums up to 4, so a lane reaches the branch rule.
    """
    monkeypatch.setattr(perturbation, "chi_parts_batch", lambda *args: (c, ap, app))
    n = len(c)
    return perturbation.match_lanes(make_config(domain_radius=2.0), np.zeros(n), np.zeros((n, 1)),
                                    np.zeros((n, 1)))


# (y' = 0, y'' = 0, c) -> (the lane status, the text that names it): both blocks present always have a
# root; y'' = 0 needs c < 0, y' = 0 needs c > 0; the zero section has lost its digits
NO_ROOT = "no positive rescaling reaches the zero level: "
ZERO_PATTERN_CASES = {
    (False, False, -0.1): (kernels.STATUS_OK, None),
    (False, False, 0.0): (kernels.STATUS_OK, None),
    (False, False, 0.1): (kernels.STATUS_OK, None),
    (False, True, -0.1): (kernels.STATUS_OK, None),
    (False, True, 0.0): (kernels.STATUS_NO_POSITIVE_ROOT, NO_ROOT + "|y''|^2 = 0 and t = 0 >= 0"),
    (False, True, 0.1): (kernels.STATUS_NO_POSITIVE_ROOT, NO_ROOT + "|y''|^2 = 0 and t = 0.1 >= 0"),
    (True, False, -0.1): (kernels.STATUS_NO_POSITIVE_ROOT, NO_ROOT + "|y'|^2 = 0 and t = -0.1 <= 0"),
    (True, False, 0.0): (kernels.STATUS_NO_POSITIVE_ROOT, NO_ROOT + "|y'|^2 = 0 and t = 0 <= 0"),
    (True, False, 0.1): (kernels.STATUS_OK, None),
    (True, True, -0.1): (kernels.STATUS_LOST_DIGITS, "y lies on the zero section"),
    (True, True, 0.0): (kernels.STATUS_LOST_DIGITS, "y lies on the zero section"),
    (True, True, 0.1): (kernels.STATUS_LOST_DIGITS, "y lies on the zero section"),
}


@pytest.mark.parametrize("prime_zero, second_zero, c", list(ZERO_PATTERN_CASES))
def test_the_zero_pattern_decides_classify_status_and_branch_message(monkeypatch, prime_zero, second_zero, c):
    # every reader of the one root rule on each zero pattern at each sign of c: classify at t = c, the seeded
    # Newton's guard, the lane status, and the one text that matching_errors and normalize_to_level at t = c name
    status, message = ZERO_PATTERN_CASES[prime_zero, second_zero, c]
    cfg = make_config(2, 1, domain_radius=2.0)
    y_prime = np.zeros(2) if prime_zero else np.array([0.3, 0.1j])
    y_second = np.zeros(1) if second_zero else np.array([0.2])
    p = cfg.fiber_point(0.0, c, y_prime, y_second)
    ap, app = fiber_norms(cfg, p)
    assert (classify(cfg, p) is StabilityClass.Stable) == (status == kernels.STATUS_OK)
    newton_status = kernels.newton_rescale(np.array([ap]), np.array([app]), np.array([c]), seed=np.ones(1))[3][0]
    assert newton_status == (kernels.STATUS_OK if status == kernels.STATUS_OK else kernels.STATUS_NO_POSITIVE_ROOT)
    # chi_parts_batch returns the lane's equation (a', a'', c), so the status reads exactly this c
    monkeypatch.setattr(perturbation, "chi_parts_batch", lambda *args: (np.array([c]), np.array([ap]), np.array([app])))
    m = perturbation.match_lanes(cfg, np.zeros(1), y_prime[None], y_second[None])
    assert m.status[0] == status
    error = perturbation.matching_errors(cfg, m)[0]
    assert (str(error) if error else None) == message
    if status != kernels.STATUS_OK:
        assert isinstance(error, DegenerateBranch)
        with pytest.raises(NotStable) as got:
            normalize_to_level(cfg, p)
        assert str(got.value) == message


def test_status_semantics(monkeypatch):
    # no positive root: a' = 0 with c <= 0, a'' = 0 with c >= 0; the zero vector has lost its digits
    ap = np.array([0.0, 1.0, 0.0])
    app = np.array([1.0, 0.0, 0.0])
    c = np.array([-0.2, 0.2, 0.0])
    m = _unseeded_match(monkeypatch, ap, app, c)
    assert m.status.tolist() == [kernels.STATUS_NO_POSITIVE_ROOT, kernels.STATUS_NO_POSITIVE_ROOT,
                                 kernels.STATUS_LOST_DIGITS]
    assert np.isnan(m.rho).all()


def test_newton_runs_exactly_where_scale_root_finds_a_root():
    # the one root rule is Newton's guard: lanes with lost digits (a subnormal sum of two nonzero blocks,
    # the zero vector), a zero block on its rootless sign and a NaN c get STATUS_NO_POSITIVE_ROOT, though
    # a rule on the zero pattern alone would run the first, second and sixth
    tiny = kernels.NORM_SQ_MIN
    ap = np.array([1e-320, tiny / 4, 0.0, 1.0, 1.0, 1.0, 3.0, 0.0, 2.0])
    app = np.array([1e-320, tiny / 2, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0])
    c = np.array([0.0, -tiny, 0.0, 0.5, -0.5, np.nan, 0.1, 0.25, -0.25])
    s = kernels.scale_root(ap, app, c)
    rho, resid, iters, status = kernels.newton_rescale(ap, app, c, seed=np.ones(len(c)))
    assert np.isnan(s).tolist() == [True, True, True, True, False, True, False, False, False]
    assert status.tolist() == np.where(np.isnan(s), kernels.STATUS_NO_POSITIVE_ROOT, kernels.STATUS_OK).tolist()
    assert np.isnan(rho[np.isnan(s)]).all()
    np.testing.assert_allclose(rho[~np.isnan(s)] ** 2, s[~np.isnan(s)], rtol=1e-12)


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


# scale_root's worst relative error against the 50-digit root, in units of 2^-52: on the oracle lanes below
# (about 4,300 with a root) it measured 1.41 at their seed and 1.25-1.45 at seeds 1-9
SCALE_ROOT_EPSILONS = 2.0


def _worst_error(got, references):
    return max(relative_error(g, ref) for g, ref in zip(got, references) if ref is not None)


def test_scale_root_is_within_two_epsilons_of_a_50_digit_root():
    # 3,000 seeded lanes with a', a'' log-uniform over 1e-12..1e12 and c of either sign from the same range;
    # 200 of them scaled by 1e-150 .. 1e150, where c^2 + a' a'' would over- or underflow; a zero block with
    # c of either sign; and lanes whose largest coefficient is normal while c^2 and a' a'' are subnormal
    # (scaled by that coefficient alone, they were 19, 1113 and 2^51 epsilons off).  The root is NaN exactly
    # where the oracle has none
    rng = np.random.default_rng(36)
    n = 3000
    ap, app = 10.0 ** rng.uniform(-12, 12, n), 10.0 ** rng.uniform(-12, 12, n)
    c = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12, 12, n)
    scales = 10.0 ** np.array([-150, -100, -50, 50, 100, 150])[:, None]
    zero = np.zeros(100)
    ap = np.concatenate([ap, (scales * ap[:200]).ravel(), zero, ap[:100], [1.2011e-149, 1.385e-150, 1.0]])
    app = np.concatenate([app, (scales * app[:200]).ravel(), app[:100], zero, [8.9207e-162, 2.0486e-162, 0.0]])
    c = np.concatenate([c, (scales * c[:200]).ravel(), c[:100], c[100:200], [-4.1279e-156, 1.5212e-156, -1e-320]])
    got = kernels.scale_root(ap, app, c)
    references = [scale_root_reference(*lane) for lane in zip(ap, app, c)]
    assert np.isfinite(got).tolist() == [ref is not None for ref in references]
    assert np.isnan(got[n + 1200:]).sum() > 50  # the zero blocks' rootless signs
    assert _worst_error(got, references) <= SCALE_ROOT_EPSILONS


def test_the_oracle_has_no_root_where_an_input_is_not_finite():
    # mpmath's inf arithmetic would give (1, inf, -inf) and (1, 1, -inf) the root +inf; neither equation has
    # a positive float root, and scale_root gives NaN on every such lane
    lanes = [(1.0, np.inf, -np.inf), (1.0, 1.0, -np.inf), (np.inf, np.inf, 0.0)]
    assert [scale_root_reference(*lane) for lane in lanes] == [None] * len(lanes)
    assert np.isnan(kernels.scale_root(*np.array(lanes).T)).all()


def test_scale_root_gives_no_root_exactly_where_the_digits_are_lost():
    # norm sums a' + a'' on both sides of NORM_SQ_MIN (the largest subnormal, then the smallest normal float
    # and its successor), split between the blocks, with c of either sign and 0: NaN exactly where
    # lost_digits holds or the oracle has no root, and within SCALE_ROOT_EPSILONS of it elsewhere
    tiny = kernels.NORM_SQ_MIN
    totals = tiny * np.array([2.0**-60, 2.0**-10, 0.5, 1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52, 2.0, 2.0**10])
    lanes = np.array(list(itertools.product(totals, [0.0, 0.25, 0.5, 1.0], [-1.0, -1e-3, 0.0, 1e-3, 1.0])))
    total, share, sign = lanes.T
    ap = total * share
    app = total - ap  # exact, so a' + a'' is the total
    c = sign * total
    lost = kernels.lost_digits(ap, app)
    assert lost.tolist() == (total < tiny).tolist() and lost.sum() == 4 * 20
    got = kernels.scale_root(ap, app, c)
    references = [scale_root_reference(*lane) for lane in zip(ap, app, c)]
    has_root = np.array([ref is not None for ref in references])
    assert np.isnan(got).tolist() == (lost | ~has_root).tolist()
    assert (lost & has_root).sum() > 40  # refused for the lost digits alone
    assert _worst_error(np.where(lost, np.nan, got), [None if k else ref for k, ref in zip(lost, references)]) <= \
        SCALE_ROOT_EPSILONS


# chi_parts_batch's and level_rho_batch's worst errors against the 50-digit references, in units of 2^-52:
# chi's over its condition |g1|/2 + |g2|/2 + sum |term values|, the rest relative.  On 1,000 lanes at each of
# seeds 0-9 (twice, as below) they measured at most 2.74, 1.64 (g1), 2.25 (g2) and 1.26 (rho)
CHI_EPSILONS, NORM_EPSILONS, LEVEL_RHO_EPSILONS = 4.0, 3.0, 2.0


def test_chi_parts_and_level_rho_are_within_a_few_epsilons_of_50_digit_references():
    # the ranks 3/3 Fourier preset plus a ref_inner_sq term with harmonics up to n = 2; 300 lanes at t drawn
    # over the wall interval.  The first pass reads the table random_domain_batch kept for its thetas; after an
    # in-place write to half the thetas the second pass reads a new table over the new bits
    doc = presets.fourier_metric_config(3, 3)
    doc["perturbation"]["terms"].append({"generators": {"ref_inner_sq": 2},
                                         "coeff_fourier": [0.05, 0.02, -0.03, 0.01, 0.02],
                                         "ref_section": [[1.0, 0.0], [0.5, -0.5], [0.0, 0.25]]})
    cfg = build_model(doc)
    rng = np.random.default_rng(0)
    thetas, y_prime, y_second = random_domain_batch(rng, cfg, 300)
    ts = rng.uniform(-cfg.epsilon, cfg.epsilon, len(thetas))
    for write in (False, True):
        if write:
            thetas[::2] += 1.0
        chi, g1, g2 = chi_parts_batch(cfg, thetas, y_prime, y_second)
        rho = level_rho_batch(cfg, thetas, ts, y_prime, y_second)
        worst = np.zeros(4)
        for lane in range(len(thetas)):
            ref_chi, ref_g1, ref_g2, size = chi_parts_reference(doc, thetas[lane], y_prime[lane], y_second[lane])
            ref_rho = level_rho_reference(doc, thetas[lane], ts[lane], y_prime[lane], y_second[lane])
            worst = np.maximum(worst, [scaled_error(chi[lane], ref_chi, size), relative_error(g1[lane], ref_g1),
                                       relative_error(g2[lane], ref_g2), relative_error(rho[lane], ref_rho)])
        assert (worst <= [CHI_EPSILONS, NORM_EPSILONS, NORM_EPSILONS, LEVEL_RHO_EPSILONS]).all(), (write, worst)


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


def test_scale_root_refuses_a_subnormal_norm_sum_and_no_other_lane(monkeypatch):
    # a' + a'' below the smallest normal float has lost its digits: NaN, though the scaled lane has a
    # finite root; the rule reads the sum, so two subnormal halves of a normal sum keep their root
    tiny = kernels.NORM_SQ_MIN
    ap = np.array([0.36e-310, 1e-311, 5e-324, tiny / 4, 0.0, tiny / 2, tiny])
    app = np.array([0.64e-310, 0.0, 5e-324, tiny / 4, 1e-320, tiny / 2, 0.0])
    c = np.array([0.0, -1e-312, 0.0, 0.0, 1e-322, 0.0, -0.5])
    got = kernels.scale_root(ap, app, c)
    assert np.isnan(got[:5]).all() and got[5] == 1.0 and got[6] == 1.0 / tiny
    # on the 20,000 normal lanes of the 3/3 benchmark config (seed 1) every bit is as without the rule
    doc = presets.fourier_metric_config(3, 3, seed=1)
    doc["perturbation"]["terms"].append({"generators": {"ref_inner_sq": 2}, "coeff_fourier": [0.05, 0.02],
                                         "ref_section": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]})
    cfg = build_model(doc)
    chi, g1, g2 = chi_parts_batch(cfg, *random_domain_batch(np.random.default_rng(1), cfg, 20_000))
    s = kernels.scale_root(g1, g2, chi)
    assert np.isfinite(s).all()
    monkeypatch.setattr(kernels, "NORM_SQ_MIN", 0.0)
    assert np.isfinite(kernels.scale_root(ap, app, c)[:4]).all()
    assert kernels.scale_root(g1, g2, chi).tobytes() == s.tobytes()


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


def test_newton_iteration_cap(monkeypatch):
    # the far seed needs more than two steps, the exact root (rho = 1 at
    # c = 0) none; a lane still above tol is reported
    ap = np.array([1.0, 1.0, 1.0])
    app = np.array([1.0, 1.0, 1.0])
    c = np.array([0.1, 0.0, 0.1])
    seed = np.array([25.0, 1.0, np.nan])
    monkeypatch.setattr(kernels, "NEWTON_MAX_ITER", 2)
    rho, resid, iters, status = kernels.newton_rescale(ap, app, c, seed=seed)
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

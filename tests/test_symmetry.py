"""The model's symmetries, lane by lane: each lane result of a config's image equals the mapped original.

A symmetry here is a config transform (JSON document in, JSON document out)
together with its lane map.  Two are checked:

- the side swap, the passage across the wall that the flip models: ranks,
  metrics and lanes exchanged, t -> -t, the norm_prime_sq and
  norm_second_sq powers exchanged and every coefficient negated.  Then
  chi -> -chi, rho -> 1/rho and y' = 0 <-> y'' = 0.  A ref_inner_sq term
  pairs with y' only, so a config with one has no swapped form;
- a unitary frame change U' in U(r'), U'' in U(r''): every metric
  coefficient C -> U^H C U, lanes y -> U^H y and the reference section
  s -> U'^H s.  Norms and pairings are unchanged.  The metric is a random
  Hermitian Fourier one, since a multiple of the identity per block, as in
  every preset, is left alone by a frame change.

Statuses and error classes must be equal, and values agree to a few ulps.
t is compared against its lane's scale g1 + g2, since t = (g2 - g1)/2 + tau
may cancel far below it:

- swap: |t_A + t_B| <= 1 ulp of g1 + g2, and |rho_A rho_B - 1| <= 2 ulps.
  The terms multiply their norm powers in the other order, and a root of
  the swapped equation is the reciprocal of the original's up to its last
  division.  Over 60 seeds of these lanes, the worst values were 0.46 ulp
  of g1 + g2, 1 ulp for the matched rho and 1.5 ulps for the level rho;
- frame change: t to 10 ulps (2.2e-15) of g1 + g2, rho to 3.1e-15
  relative.  The norms are quadratic forms summed in another basis.  Over
  30 seeds the worst values were 1.2e-15 of g1 + g2 and 2.7e-15.

On 20,000 in-domain lanes of a smaller term set, |t_A + t_B| <= 2.8e-17,
rho to 2.2e-16 and, for a frame change of a metric that is a multiple of
the identity, t to 3.3e-16 were measured; the lanes here also leave the
domain and zero a block, and the metric is dense.
"""

import numpy as np
import pytest

from flipq import chi_eval_batch, level_rho_batch, presets
from flipq.config_io import build_model, parse_matrix, parse_vector
from flipq.perturbation import match_lanes, matching_errors
from flipq.sampling import random_domain_batch

ULP = 2.0**-52
SWAP_T, SWAP_RHO = ULP, 2 * ULP  # t relative to g1 + g2; rho_A rho_B - 1
FRAME_T, FRAME_RHO = 10 * ULP, 3.1e-15  # t relative to g1 + g2; rho relative
LANES = 2000


def _complex_json(z) -> list:
    """A complex array as nested lists of [re, im] pairs, as a config document holds it."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1).tolist()


def _random_hermitian(rng, rank, scale):
    a = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
    return scale * (a + a.conj().T) / 2.0


def _random_fourier_metric(rng, r_prime, r_second) -> dict:
    """A dense Hermitian Fourier metric around 2 I that the certificate accepts."""
    def field(rank):
        return [{"n": 0, "cos": _complex_json(2.0 * np.eye(rank) + _random_hermitian(rng, rank, 0.1))},
                {"n": 1, "cos": _complex_json(_random_hermitian(rng, rank, 0.1)),
                 "sin": _complex_json(_random_hermitian(rng, rank, 0.1))},
                {"n": 2, "sin": _complex_json(_random_hermitian(rng, rank, 0.1))}]

    return {"kind": "fourier", "g_prime": field(r_prime), "g_second": field(r_second)}


def _random_unitary(rng, rank) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# -- the config transforms ------------------------------------------------------


def swap_sides(doc: dict) -> dict:
    """The side swap of a config document; None for one with a ref_inner_sq term."""
    terms = doc["perturbation"]["terms"]
    if any(term["generators"].get("ref_inner_sq") for term in terms):
        return None
    swapped = []
    for term in terms:
        generators = dict(term["generators"])
        prime, second = generators.pop("norm_prime_sq", 0), generators.pop("norm_second_sq", 0)
        generators.update({"norm_prime_sq": second, "norm_second_sq": prime})
        swapped.append({**term, "generators": generators, "coeff_fourier": [-c for c in term["coeff_fourier"]]})
    metrics = doc["metrics"]
    return {**doc, "ranks": {"r_prime": doc["ranks"]["r_second"], "r_second": doc["ranks"]["r_prime"]},
            "metrics": {**metrics, "g_prime": metrics["g_second"], "g_second": metrics["g_prime"]},
            "perturbation": {"terms": swapped}}


def swap_lanes(thetas, y_prime, y_second):
    return thetas, y_second, y_prime


def change_frame(doc: dict, u_prime: np.ndarray, u_second: np.ndarray) -> dict:
    """The config document in the frames U', U'': C -> U^H C U, reference section s -> U'^H s."""
    def matrix(m, u):
        return _complex_json(u.conj().T @ parse_matrix(m) @ u)

    def field(entry, u):
        if doc["metrics"]["kind"] == "constant":
            return matrix(entry, u)
        return [{**h, **{key: matrix(h[key], u) for key in ("cos", "sin") if key in h}} for h in entry]

    metrics = doc["metrics"]
    terms = [{**term, "ref_section": _complex_json(u_prime.conj().T @ parse_vector(term["ref_section"]))}
             if "ref_section" in term else term for term in doc["perturbation"]["terms"]]
    return {**doc, "metrics": {**metrics, "g_prime": field(metrics["g_prime"], u_prime),
                               "g_second": field(metrics["g_second"], u_second)},
            "perturbation": {"terms": terms}}


def change_lanes(thetas, y_prime, y_second, u_prime, u_second):
    """Lanes y -> U^H y, per block."""
    return thetas, y_prime @ u_prime.conj(), y_second @ u_second.conj()


# -- the configs and lanes ------------------------------------------------------


def _swap_config() -> dict:
    """The Fourier 2/1 preset with a mixed term, a g1^2 term and a g1 g2 term given by norm powers."""
    doc = presets.fourier_metric_config(2, 1)
    doc["perturbation"]["terms"] += [
        {"generators": {"norm_prime_sq": 2}, "coeff_fourier": [0.05, 0.02, -0.01]},
        {"generators": {"norm_prime_sq": 1, "norm_second_sq": 1}, "coeff_fourier": [-0.03, 0.0, 0.04]},
    ]
    return doc


def _frame_config(rng) -> dict:
    """Ranks 2/2 on a random Hermitian Fourier metric, with a mixed, a g1^2 and a ref_inner_sq term."""
    doc = presets.ref_section_config(2, 2)
    doc["metrics"] = _random_fourier_metric(rng, 2, 2)
    doc["perturbation"]["terms"][0]["ref_section"] = _complex_json([0.6 + 0.3j, -0.2 + 0.7j])
    doc["perturbation"]["terms"] += [
        {"generators": {"mixed": 1}, "coeff_fourier": [0.1, 0.03]},
        {"generators": {"norm_prime_sq": 2}, "coeff_fourier": [0.05, 0.0, 0.02]},
    ]
    return doc


def _lanes(cfg, rng):
    """Domain draws, with some scaled past the domain and some with a zero block, so that every
    error class of matching_errors occurs."""
    thetas, y_prime, y_second = random_domain_batch(rng, cfg, LANES)
    y_prime[::7] *= 1.5  # outside the fiber domain
    y_prime[1::11] = 0.0  # y' = 0: a branch error where chi(v) <= 0
    y_second[2::13] = 0.0  # y'' = 0: a branch error where chi(v) >= 0
    return thetas, y_prime, y_second


def _classes(cfg, m) -> list:
    return [type(error).__name__ if error is not None else None for error in matching_errors(cfg, m)]


def _level_ts(cfg, rng):
    ts = rng.uniform(-cfg.epsilon, cfg.epsilon, LANES)
    ts[::5] = 0.0
    return ts


# -- the side swap ---------------------------------------------------------------


def test_the_side_swap_maps_every_lane_result():
    rng = np.random.default_rng(31)
    doc = _swap_config()
    cfg_a, cfg_b = build_model(doc), build_model(swap_sides(doc))
    lanes = _lanes(cfg_a, rng)
    a, b = match_lanes(cfg_a, *lanes), match_lanes(cfg_b, *swap_lanes(*lanes))
    assert (a.status == b.status).all()
    classes = _classes(cfg_a, a)
    assert classes == _classes(cfg_b, b)
    assert {"OutOfDomain", "DegenerateBranch", None} <= set(classes)
    assert np.all(np.abs(a.t + b.t) <= SWAP_T * (a.g1 + a.g2))
    ok = np.isfinite(a.rho)
    assert (ok == np.isfinite(b.rho)).all() and ok.sum() > LANES // 2
    assert np.abs(a.rho[ok] * b.rho[ok] - 1.0).max() <= SWAP_RHO

    # the level rescaling at t and at -t
    ts = _level_ts(cfg_a, rng)
    rho_a = level_rho_batch(cfg_a, lanes[0], ts, lanes[1], lanes[2])
    rho_b = level_rho_batch(cfg_b, lanes[0], -ts, lanes[2], lanes[1])
    ok = np.isfinite(rho_a)
    assert (ok == np.isfinite(rho_b)).all() and not ok.all()
    assert np.abs(rho_a[ok] * rho_b[ok] - 1.0).max() <= SWAP_RHO

    # chi -> -chi inside the domain; the first lane outside raises the same error on both sides
    inside = np.array([c != "OutOfDomain" for c in classes])
    chi_a = chi_eval_batch(cfg_a, *(lane[inside] for lane in lanes))
    chi_b = chi_eval_batch(cfg_b, *(lane[inside] for lane in swap_lanes(*lanes)))
    assert np.all(np.abs(chi_a + chi_b) <= SWAP_T * (a.g1 + a.g2)[inside])
    with pytest.raises(Exception) as want:
        chi_eval_batch(cfg_a, *lanes)
    with pytest.raises(Exception) as got:
        chi_eval_batch(cfg_b, *swap_lanes(*lanes))
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_a_config_with_a_reference_pairing_has_no_swapped_form():
    assert swap_sides(presets.ref_section_config()) is None
    # and the swap is an involution on the others
    doc = _swap_config()
    twice = swap_sides(swap_sides(doc))

    def terms(d):
        return [(t.norm_prime_pow, t.norm_second_pow, t.mixed_pow, t.coeff) for t in build_model(d).perturbation.terms]

    assert terms(twice) == terms(doc) != terms(swap_sides(doc))
    assert twice["metrics"] == doc["metrics"] and twice["ranks"] == doc["ranks"]


# -- a unitary frame change ------------------------------------------------------


def test_a_unitary_frame_change_maps_every_lane_result():
    rng = np.random.default_rng(37)
    doc = _frame_config(rng)
    u_prime, u_second = _random_unitary(rng, 2), _random_unitary(rng, 2)
    cfg_a, cfg_b = build_model(doc), build_model(change_frame(doc, u_prime, u_second))
    lanes = _lanes(cfg_a, rng)
    moved = change_lanes(*lanes, u_prime, u_second)
    a, b = match_lanes(cfg_a, *lanes), match_lanes(cfg_b, *moved)
    assert (a.status == b.status).all()
    classes = _classes(cfg_a, a)
    assert classes == _classes(cfg_b, b)
    assert {"OutOfDomain", "DegenerateBranch", None} <= set(classes)
    assert np.all(np.abs(a.t - b.t) <= FRAME_T * (a.g1 + a.g2))
    ok = np.isfinite(a.rho)
    assert (ok == np.isfinite(b.rho)).all() and ok.sum() > LANES // 2
    assert (np.abs(a.rho[ok] - b.rho[ok]) / a.rho[ok]).max() <= FRAME_RHO

    ts = _level_ts(cfg_a, rng)
    rho_a = level_rho_batch(cfg_a, lanes[0], ts, lanes[1], lanes[2])
    rho_b = level_rho_batch(cfg_b, moved[0], ts, moved[1], moved[2])
    ok = np.isfinite(rho_a)
    assert (ok == np.isfinite(rho_b)).all() and not ok.all()
    assert (np.abs(rho_a[ok] - rho_b[ok]) / rho_a[ok]).max() <= FRAME_RHO

    inside = np.array([c != "OutOfDomain" for c in classes])
    chi_a = chi_eval_batch(cfg_a, *(lane[inside] for lane in lanes))
    chi_b = chi_eval_batch(cfg_b, *(lane[inside] for lane in moved))
    assert np.all(np.abs(chi_a - chi_b) <= FRAME_T * (a.g1 + a.g2)[inside])

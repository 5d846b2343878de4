"""Hot batch kernels in numpy: Fourier metric forms and the rescaling solve.

The metric kernels evaluate a matrix Fourier field
G(theta) = sum_k cos(n_k theta) C_k + sin(n_k theta) S_k against lane
batches without forming the (n, r, r) stack of values (fourier_values alone
forms the values).  fourier_norm_sq and fourier_pairing work on blocks of
BLOCK_LANES lanes stored lane-last: each block forms the Hermitian products
of its lanes once, sums each coefficient's weighted products and only then
weights the sum by the coefficient's harmonic.  Only exactly rounded
elementwise operations touch a lane (no matrix product and no reduction
over an axis), so a lane's bits do not depend on the batch around it: the
scalar API, a batch of one, gives each lane of any batch exactly.  Trig is
computed once per call: a batch entry point passes one Harmonics table to
every kernel it calls, and each cos(n theta), sin(n theta) its fields use
is evaluated on first use and read from the table after that.

The rescaling solver works on the scalar reduction of the level equation:
with a' = |y'|^2, a'' = |y''|^2 (metric norms) and target value c, the root
in s = rho^2 satisfies  a' s^2 + 2 c s - a'' = 0.
"""

from __future__ import annotations

import itertools

import numpy as np

STATUS_OK = 0
STATUS_NO_CONVERGENCE = 1
STATUS_NO_POSITIVE_ROOT = 2

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50

# Lanes per call in the blocked batch loops: the CLI's scan rows,
# verify_conditions' stencil, and the lane blocks of fourier_norm_sq and
# fourier_pairing, where only elementwise operations touch a lane.  Bounds the
# working set: one scan pass over a 1,984-row, 32-sample grid (63,488 lanes)
# raised peak RSS from 45 to 58 MB, and one 2,000-theta verify on the 3/3
# preset (582,000 stencil lanes) from 56 to 184 MB; neither ran faster than in
# 4096-lane blocks.
BLOCK_LANES = 4096


# ---------------------------------------------------------------------------
# Fourier metric forms


def realify(M: np.ndarray) -> np.ndarray:
    """Real form [[Re M, -Im M], [Im M, Re M]] of M, acting on [Re y, Im y]."""
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


def pack_field(ns, cos, sin):
    """The field sum_k cos(n_k theta) C_k + sin(n_k theta) S_k as the kernels
    take it, built once per field: (ns, sines, coeffs) over its nonzero
    coefficients in order, with each one's harmonic n, whether it is a sine,
    and the coefficients stacked as (entries,) + C_k.shape."""
    cos, sin = np.asarray(cos), np.asarray(sin)
    entries = [(float(n), sine, coeff)
               for n, cos_coeff, sin_coeff in zip(ns, cos, sin)
               for sine, coeff in ((False, cos_coeff), (True, sin_coeff))
               if coeff.any() and not (sine and n == 0)]
    coeffs = np.array([coeff for _, _, coeff in entries], dtype=np.result_type(cos, sin))
    return (tuple(n for n, _, _ in entries), tuple(sine for _, sine, _ in entries),
            coeffs.reshape((len(entries),) + cos.shape[1:]))


def norm_forms(ns, sines, coeffs):
    """A packed metric field as the Hermitian products its norms need: the
    field argument of fourier_norm_sq, built once per field.

    With H = (M + M^H)/2, Re(conj(y) M y) = sum_i H_ii |y_i|^2
    + sum_{i<j} 2 Re H_ij Re(conj(y_i) y_j) - 2 Im H_ij Im(conj(y_i) y_j).
    The forms are (products, weights).  Over the rows Re y_0, Im y_0,
    Re y_1, ... of a lane block z, product (a, b, c, d, imag) is
    z[a] z[b] - z[c] z[d] if imag else z[a] z[b] + z[c] z[d], and weights
    (entries, products) holds each coefficient's weight on it.  A product
    no coefficient weighs is left out.
    """
    hermitian = (coeffs + np.conj(np.swapaxes(coeffs, -1, -2))) / 2.0
    products, weights = [], []
    for i, j in itertools.combinations_with_replacement(range(coeffs.shape[-1]), 2):
        h = hermitian[:, i, j]
        re_i, im_i, re_j, im_j = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
        # Re(conj(y_i) y_j) = Re y_i Re y_j + Im y_i Im y_j
        candidates = [((re_i, re_j, im_i, im_j, False), (1.0 if i == j else 2.0) * h.real)]
        if i != j:  # Im(conj(y_i) y_j) = Re y_i Im y_j - Im y_i Re y_j
            candidates.append(((re_i, im_j, im_i, re_j, True), -2.0 * h.imag))
        for product, weight in candidates:
            if weight.any():
                products.append(product)
                weights.append(weight)
    return ns, sines, (tuple(products), np.array(weights).T.reshape(len(coeffs), len(products)))


class Harmonics:
    """The weights cos(n theta), sin(n theta) of one batch call's lanes.

    Each weight is computed on first use and kept for the rest of the call,
    so fields that share a harmonic pay its trig once.  A batch entry point
    builds one table and hands it to every kernel it calls in place of the
    thetas; the table goes when the call returns, and nothing outlives it.
    With repeat = k the lanes are each of thetas k times in a row
    (np.repeat): a weight is evaluated on thetas and then repeated.
    """

    __slots__ = ("thetas", "repeat", "_weights")

    def __init__(self, thetas, repeat=1):
        self.thetas = np.asarray(thetas, dtype=np.float64)
        self.repeat = repeat
        self._weights = {}

    def __len__(self):
        return self.thetas.shape[0] * self.repeat

    @property
    def nbytes(self):
        # the size of the lane thetas array the table stands in for
        return self.thetas.nbytes * self.repeat

    def weight(self, n, sine):
        """sin(n theta) or cos(n theta) over the lanes; None stands for cos(0) = 1."""
        if n == 0 and not sine:
            return None
        key = (n, sine)
        weight = self._weights.get(key)
        if weight is None:
            weight = self._weights[key] = self._evaluate(n, sine)
        return weight

    def _evaluate(self, n, sine):
        weight = np.sin(n * self.thetas) if sine else np.cos(n * self.thetas)
        return weight if self.repeat == 1 else np.repeat(weight, self.repeat)


def harmonics(thetas) -> Harmonics:
    """A Harmonics table over thetas; a table passes through, so callers can share one."""
    return thetas if isinstance(thetas, Harmonics) else Harmonics(thetas)


def fourier_values(thetas, ns, sines, coeffs):
    """Values sum_k cos(n_k theta) C_k + sin(n_k theta) S_k at each theta, shape (n,) + C_k.shape."""
    table = harmonics(thetas)
    out = np.zeros((len(table),) + coeffs.shape[1:], dtype=coeffs.dtype)
    for n, sine, coeff in zip(ns, sines, coeffs):
        weight = table.weight(n, sine)
        out += coeff if weight is None else weight.reshape(weight.shape + (1,) * coeff.ndim) * coeff
    return out


def _lane_last_blocks(y):
    """(lane slice, z) per BLOCK_LANES lanes of y (n, r), with z (2r, lanes)
    the block's rows Re y_0, Im y_0, Re y_1, Im y_1, ... stored lane-last."""
    y = np.ascontiguousarray(y, dtype=np.complex128)
    floats = y.view(np.float64).reshape(y.shape[0], 2 * y.shape[1])
    for start in range(0, y.shape[0], BLOCK_LANES):
        lanes = slice(start, start + BLOCK_LANES)
        yield lanes, np.ascontiguousarray(floats[lanes].T)


def _weighted_sums(weights, products):
    """sum_p weights[k, p] products[p] for each entry k, added in order of p."""
    sums = np.zeros((weights.shape[0], products.shape[1]))
    term = np.empty_like(sums)
    for p in range(products.shape[0]):
        np.add(sums, np.multiply(weights[:, p:p + 1], products[p], out=term), out=sums)
    return sums


def _add_harmonics(out, lanes, sums, table, ns, sines):
    """out += weight_k * sums[k] with each entry's harmonic weight on the lanes, in entry order."""
    term = np.empty_like(out)
    for n, sine, value in zip(ns, sines, sums):
        weight = table.weight(n, sine)
        np.add(out, value if weight is None else np.multiply(weight[lanes], value, out=term), out=out)


def fourier_norm_sq(thetas, y, ns, sines, forms):
    """Batch Hermitian norms |y|^2 under a matrix Fourier field at each theta.

    The field comes packed by norm_forms.  Each block of lanes forms the
    Hermitian products of its field once; each entry's weighted sum of them
    is then scaled by the entry's harmonic.
    """
    table = harmonics(thetas)
    spec, weights = forms
    out = np.zeros(len(table))
    for lanes, z in _lane_last_blocks(y):
        products = np.empty((len(spec), z.shape[1]))
        term = np.empty(z.shape[1])
        for product, (a, b, c, d, imag) in zip(products, spec):
            np.multiply(z[a], z[b], out=product)
            (np.subtract if imag else np.add)(product, np.multiply(z[c], z[d], out=term), out=product)
        _add_harmonics(out[lanes], lanes, _weighted_sums(weights, products), table, ns, sines)
    return out


def fourier_pairing(thetas, y, a, ns, sines, coeffs):
    """Batch Hermitian pairings conj(y) G(theta) a with one fixed vector a."""
    table = harmonics(thetas)
    b = coeffs @ np.asarray(a, dtype=np.complex128)
    # conj(y_i) b_i = (Re y_i Re b_i + Im y_i Im b_i) + i (Re y_i Im b_i - Im y_i Re b_i): the real
    # parts' weights on the rows Re y_0, Im y_0, Re y_1, ..., then the imaginary parts'; a row no entry
    # weighs is left out
    weights = np.concatenate([np.stack([b.real, b.imag], axis=-1), np.stack([b.imag, -b.real], axis=-1)])
    weights = weights.reshape(2 * b.shape[0], -1)
    rows = np.flatnonzero(weights.any(axis=0))
    out = np.zeros(len(table), dtype=np.complex128)
    for lanes, z in _lane_last_blocks(y):
        sums = _weighted_sums(weights[:, rows], z[rows])
        _add_harmonics(out.real[lanes], lanes, sums[:len(b)], table, ns, sines)
        _add_harmonics(out.imag[lanes], lanes, sums[len(b):], table, ns, sines)
    return out


# ---------------------------------------------------------------------------
# Closed-form positive root of  a' s^2 + 2 c s - a'' = 0  (s = rho^2)


def _into_float_range(ap, app, c):
    """(a', a'', c) with each lane whose largest |coefficient| lies outside 2^-500 .. 2^500 scaled
    by an exact power of two into [1/2, 1), so that c * c and a' a'' neither underflow nor overflow.

    scale_root is homogeneous of degree 0 in them, so a scaled lane keeps its root and every other
    lane keeps its bits.
    """
    big = np.abs(ap)
    np.maximum(big, np.abs(app), out=big)
    np.maximum(big, np.abs(c), out=big)
    far = (big < 2.0**-500) | (big >= 2.0**500)
    if not far.any():
        return ap, app, c
    e = np.where(far, -np.frexp(big)[1], 0)
    return np.ldexp(ap, e), np.ldexp(app, e), np.ldexp(c, e)


def scale_root(ap, app, c):
    """Positive root s of a' s^2 + 2 c s - a'' = 0, NaN where none exists."""
    ap = np.ascontiguousarray(ap, dtype=np.float64)
    app = np.ascontiguousarray(app, dtype=np.float64)
    c = np.ascontiguousarray(c, dtype=np.float64)
    ap, app, c = _into_float_range(ap, app, c)
    # a non-finite coefficient, or a root beyond the float range, gives s = 0, inf or NaN,
    # which is marked NaN below
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        disc = np.sqrt(c * c + ap * app)
        # rationalized form for c >= 0 avoids cancellation in -c + disc
        s = np.where(c > 0.0, app / (c + disc), (-c + disc) / ap)
    bad = ~np.isfinite(s) | (s <= 0.0)
    return np.where(bad, np.nan, s)


# ---------------------------------------------------------------------------
# Guarded Newton on the residual alpha and its derivative beta < 0


def has_positive_root(ap, app, c):
    """Whether a' s^2 + 2 c s - a'' = 0 (a', a'' >= 0) has a root s > 0.

    Always with both blocks nonzero, never with both zero; with one block
    zero only for c < 0 (a'' = 0) or c > 0 (a' = 0).
    """
    return ((ap > 0.0) & ((app > 0.0) | (c < 0.0))) | ((ap == 0.0) & (app > 0.0) & (c > 0.0))


def rescale_alpha(r, ap, app, c):
    """Residual alpha(rho) = -(rho^2 a' - rho^-2 a'')/2 - c of the rescaling equation."""
    r2 = r * r
    return -0.5 * (r2 * ap - app / r2) - c


def rescale_beta(r, ap, app):
    """Derivative beta(rho) = -(rho a' + rho^-3 a'') of rescale_alpha; negative unless a' = a'' = 0."""
    return -(r * ap + app / (r * r * r))


def newton_rescale(ap, app, c, seed, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER):
    """Newton-solve the rescaling equation per point from the given seeds.

    Returns (rho, residual, iterations, status).  NaN seeds mark points
    with no positive root; they come back with STATUS_NO_POSITIVE_ROOT.  Only
    |alpha| <= tol converges: a lane left above tol after max_iter steps, or
    whose step overflows to a NaN residual, gets STATUS_NO_CONVERGENCE.
    """
    ap, app, c, seed = (np.ascontiguousarray(a, dtype=np.float64) for a in (ap, app, c, seed))
    ok = np.isfinite(seed) & (seed > 0.0) & has_positive_root(ap, app, c)
    rho = np.where(ok, seed, 1.0)
    iters = np.zeros(ap.shape[0], dtype=np.int32)
    status = np.where(ok, STATUS_OK, STATUS_NO_POSITIVE_ROOT).astype(np.int8)

    with np.errstate(all="ignore"):  # an overflowing seed or step ends in a NaN residual
        alpha = rescale_alpha(rho, ap, app, c)
        active = ok & (np.abs(alpha) > tol)
        for _ in range(max_iter):
            if not active.any():
                break
            # only active lanes take the step; an inactive lane keeps its rho,
            # so recomputing its alpha gives the same bits
            new = rho - alpha / rescale_beta(rho, ap, app)
            rho = np.where(active, np.where(new <= 0.0, 0.5 * rho, new), rho)
            alpha = rescale_alpha(rho, ap, app, c)
            iters += active
            active &= np.abs(alpha) > tol
    status[ok & ~(np.abs(alpha) <= tol)] = STATUS_NO_CONVERGENCE
    return np.where(ok, rho, np.nan), np.where(ok, np.abs(alpha), np.nan), iters, status

"""Hot batch kernels in numpy: Fourier metric forms and the rescaling solve.

The metric kernels evaluate a matrix Fourier field
G(theta) = sum_k cos(n_k theta) C_k + sin(n_k theta) S_k against lane
batches without forming the (n, r, r) stack of values (fourier_values alone
forms the values).  fourier_norm_sq and fourier_pairing work on the slices of
lane_blocks, flipq's one lane-block loop, each a lane-last strided view of the
input (no copy): each block forms the Hermitian products of its lanes once,
sums each coefficient's weighted products and only then weights the sum by its
harmonic.  Only exactly rounded elementwise operations touch a lane (no matrix
product and no reduction over an axis), so a lane's bits do not depend on the
batch around it: the scalar API, a batch of one, gives each lane of any batch
exactly.  Trig is computed once per thetas array: a batch entry point passes
one Harmonics table to every kernel it calls, and each cos(n theta), sin(n
theta) its fields use is evaluated on first use and read from the table after
that.  harmonics keeps the last table it built for a float64 array, so the
next batch call on that same array, its bits unchanged, reads the same table.

The rescaling solver works on the scalar reduction of the level equation:
with a' = |y'|^2, a'' = |y''|^2 (metric norms) and target value c, the root
in s = rho^2 satisfies  a' s^2 + 2 c s - a'' = 0.  scale_root and
newton_rescale broadcast their inputs to one lane shape and run the same
lane_blocks slices, so each temporary of a block stays in cache; each
Newton block iterates until its own lanes converge.  Every lane's work is
elementwise, so the blocks change no bit.
"""

from __future__ import annotations

import itertools
import weakref

import numpy as np

from .errors import DimensionMismatch

# Lane status codes: newton_rescale gives 0-2, root_status 0, 2 and 5, perturbation.match_lanes 0 and 2-5.
STATUS_OK = 0
STATUS_NO_CONVERGENCE = 1
STATUS_NO_POSITIVE_ROOT = 2
STATUS_OUT_OF_DOMAIN = 3
STATUS_OFF_WALL = 4
STATUS_LOST_DIGITS = 5

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50

# The smallest normal float: a norm sum |v|^2 = a' + a'' below it has lost its digits (lost_digits).
NORM_SQ_MIN = np.finfo(float).tiny

# Lanes per numpy pass in lane_blocks, flipq's one lane-block loop: the Fourier
# kernels, scale_root, newton_rescale, the scan's rows, verify_conditions'
# stencil and the metric certificate's eigenvalues.  Unblocked, one scan pass over
# a 63,488-lane grid raised peak RSS from 45 to 58 MB, and a 2,000-theta verify on
# the 3/3 preset from 56 to 184 MB.  A block's 64 kB temporaries stay in L2.
# 8,192 beat 4,096 on dense fields of ranks 2, 4 and 6; 16,384 slowed the pairing
# and raised the report benchmark's peak RSS from 39.2 to 41.2 MB.  The outer
# passes at 8,192 rather than 4,096 left that RSS at 39.58 MB and its run time
# within noise (0.0273-0.0282 s against 0.0274-0.0281 s).
KERNEL_LANES = 8192


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
    """The weights cos(n theta), sin(n theta) of a batch of lanes, one theta a lane.

    Each weight is computed on first use and kept with the table, so fields
    that share a harmonic pay its trig once.  A batch entry point gets one
    table from harmonics and hands it to every kernel it calls in place of
    the thetas; calls on one live thetas array share harmonics' slot table.
    thetas must be a vector (DimensionMismatch).
    """

    __slots__ = ("thetas", "_weights", "__weakref__")

    def __init__(self, thetas):
        self.thetas = np.asarray(thetas, dtype=np.float64)
        if self.thetas.ndim != 1:
            raise DimensionMismatch(f"thetas has shape {self.thetas.shape}, expected a vector")
        self._weights = {}

    def __len__(self):
        return self.thetas.shape[0]

    @property
    def nbytes(self):
        # the size of the lane thetas array the table stands in for
        return self.thetas.nbytes

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
        return np.sin(n * self.thetas) if sine else np.cos(n * self.thetas)


# harmonics' one slot: (a weak reference to the caller's float64 thetas, the table over a private copy of
# them), or None; the reference's callback, _forget, empties it when the caller's array is freed
_slot = None


def _forget(ref):
    global _slot
    slot = _slot
    if slot is not None and slot[0] is ref:
        _slot = None


def harmonics(thetas) -> Harmonics:
    """A Harmonics table over thetas; a table passes through, so callers can share one.

    The slot's table serves the same float64 ndarray (is) while its bits, as uint64 (so -0.0 is not 0.0),
    equal the table's private copy, which every weight reads, so an in-place write misses.  Any other input
    gets a new table over a float64 copy of it, which takes the slot.
    """
    global _slot
    if isinstance(thetas, Harmonics):
        return thetas
    thetas = np.asarray(thetas, dtype=np.float64)
    slot = _slot
    if slot is not None and slot[0]() is thetas and np.array_equal(slot[1].thetas.view(np.uint64),
                                                                   thetas.view(np.uint64)):
        return slot[1]
    table = Harmonics(thetas.copy())
    _slot = (weakref.ref(thetas, _forget), table)
    return table


def fourier_values(thetas, ns, sines, coeffs):
    """Values sum_k cos(n_k theta) C_k + sin(n_k theta) S_k at each theta, shape (n,) + C_k.shape."""
    table = harmonics(thetas)
    out = np.zeros((len(table),) + coeffs.shape[1:], dtype=coeffs.dtype)
    for n, sine, coeff in zip(ns, sines, coeffs):
        weight = table.weight(n, sine)
        out += coeff if weight is None else weight.reshape(weight.shape + (1,) * coeff.ndim) * coeff
    return out


def lane_blocks(n, lanes_each=1):
    """The slices, in order, that cover n items of lanes_each lanes each, max(1, KERNEL_LANES // lanes_each)
    items a slice (KERNEL_LANES read at call time): the one lane-block loop of flipq."""
    step = max(1, KERNEL_LANES // lanes_each)
    return [slice(start, start + step) for start in range(0, n, step)]


def _lane_last_blocks(y):
    """(lane slice, z) per block of y (n, r), with z (2r, lanes) the block's rows
    Re y_0, Im y_0, Re y_1, Im y_1, ...: a lane-last strided view of y, not a copy."""
    y = np.ascontiguousarray(y, dtype=np.complex128)
    floats = y.view(np.float64).reshape(y.shape[0], 2 * y.shape[1])
    for lanes in lane_blocks(y.shape[0]):
        yield lanes, floats[lanes].T


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
    """(a', a'', c, q = c^2 + a' a''), each lane whose q lies outside 2^-1000 .. 2^1000 (a square over- or
    underflows) scaled first by an exact power of two: max(|c|, sqrt(a' a'')) to about 1, its largest
    coefficient kept below 2^1022.

    scale_root is homogeneous of degree 0 in them, so a scaled lane keeps its root and every other
    lane keeps its bits.
    """
    q = c * c + ap * app
    far = ~((2.0**-1000 <= q) & (q < 2.0**1000))
    if not far.any():
        return ap, app, c, q
    size = np.maximum(np.abs(c), np.sqrt(ap) * np.sqrt(app))
    big = np.maximum(np.maximum(ap, app), np.abs(c))
    e = np.where(far, np.minimum(-np.frexp(size)[1], 1022 - np.frexp(big)[1]), 0)
    ap, app, c = np.ldexp(ap, e), np.ldexp(app, e), np.ldexp(c, e)
    return ap, app, c, c * c + ap * app


def lost_digits(ap, app):
    """Whether |v|^2 = a' + a'' is below NORM_SQ_MIN, so subnormal or 0 and its digits lost: the one rule that
    scale_root, root_status and blowup.to_blowup_batch read."""
    return ap + app < NORM_SQ_MIN


def root_status(ap, app, root):
    """Each lane's level-root status, first to last: STATUS_LOST_DIGITS where lost_digits holds, STATUS_NO_POSITIVE_ROOT
    where root (scale_root's s, or its square root) is NaN, else STATUS_OK; match_lanes and quotient read it."""
    return np.select([lost_digits(ap, app), np.isnan(root)], [STATUS_LOST_DIGITS, STATUS_NO_POSITIVE_ROOT], STATUS_OK)


def _lane_arrays(*arrays):
    """The arrays as float64 of at least one dimension, broadcast to one lane shape: a scalar c or seed
    stands for every lane."""
    return np.broadcast_arrays(*(np.ascontiguousarray(a, dtype=np.float64) for a in arrays))


def scale_root(ap, app, c):
    """Positive root s of a' s^2 + 2 c s - a'' = 0, NaN where none exists.

    The one rule for which lanes have a level root: NaN also where lost_digits holds, read before
    _into_float_range scales the lane.
    """
    ap, app, c = _lane_arrays(ap, app, c)
    s = np.empty(ap.shape)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for lanes in lane_blocks(len(s)):
            s[lanes] = _scale_root_block(ap[lanes], app[lanes], c[lanes])
    return s


def _scale_root_block(ap, app, c):
    """scale_root on one block of lanes."""
    lost = lost_digits(ap, app)
    ap, app, c, q = _into_float_range(ap, app, c)
    disc = np.sqrt(q)
    # rationalized form for c >= 0 avoids cancellation in disc - c
    s = np.where(c > 0.0, app / (c + disc), (disc - c) / ap)
    # a non-finite coefficient, or a root beyond the float range, gives s = 0, inf or NaN
    np.copyto(s, np.nan, where=~((s > 0.0) & (s < np.inf)) | lost)
    return s


# ---------------------------------------------------------------------------
# Guarded Newton on the residual alpha and its derivative beta < 0


def rescale_alpha(r, ap, app, c):
    """Residual alpha(rho) = -(rho^2 a' - rho^-2 a'')/2 - c of the rescaling equation."""
    r2 = r * r
    return -0.5 * (r2 * ap - app / r2) - c


def rescale_beta(r, ap, app):
    """Derivative beta(rho) = -(rho a' + rho^-3 a'') of rescale_alpha; negative unless a' = a'' = 0."""
    return -(r * ap + app / (r * r * r))


def newton_rescale(ap, app, c, seed):
    """Newton-solve the rescaling equation per point from the given seeds.

    Returns (rho, residual, iterations, status).  A lane whose seed is not finite
    and > 0, or with no scale_root, comes back with STATUS_NO_POSITIVE_ROOT.  Only
    |alpha| <= NEWTON_TOL converges: a lane left above it after NEWTON_MAX_ITER
    steps (both read once per call), or whose step overflows to a NaN residual,
    gets STATUS_NO_CONVERGENCE.  The guard is one scale_root call over every lane;
    the steps run per block of lanes, each until its own lanes converge.
    """
    ap, app, c, seed = _lane_arrays(ap, app, c, seed)
    ok = np.isfinite(seed) & (seed > 0.0) & np.isfinite(scale_root(ap, app, c))
    tol, max_iter = NEWTON_TOL, NEWTON_MAX_ITER
    rho, residual = np.empty(ok.shape), np.empty(ok.shape)
    iters = np.empty(ok.shape, dtype=np.int32)
    status = np.empty(ok.shape, dtype=np.int8)
    with np.errstate(all="ignore"):  # an overflowing seed or step ends in a NaN residual
        for lanes in lane_blocks(len(ok)):
            rho[lanes], residual[lanes], iters[lanes], status[lanes] = _newton_block(
                ap[lanes], app[lanes], c[lanes], seed[lanes], ok[lanes], tol, max_iter)
    return rho, residual, iters, status


def _newton_block(ap, app, c, seed, ok, tol, max_iter):
    """newton_rescale on one block of lanes whose guard is ok; it stops when the block's lanes converge."""
    rho = np.where(ok, seed, 1.0)
    iters = np.zeros(ok.shape, dtype=np.int32)
    alpha = rescale_alpha(rho, ap, app, c)
    active = ok & (np.abs(alpha) > tol)
    for _ in range(max_iter):
        if not active.any():
            break
        # only active lanes take the step; an inactive lane keeps its rho,
        # so recomputing its alpha gives the same bits
        new = rho - alpha / rescale_beta(rho, ap, app)
        np.multiply(rho, 0.5, out=new, where=new <= 0.0)  # a step to rho <= 0 halves rho instead
        np.copyto(rho, new, where=active)
        alpha = rescale_alpha(rho, ap, app, c)
        iters += active
        active &= np.abs(alpha) > tol
    residual = np.abs(alpha)
    status = np.where(ok, STATUS_OK, STATUS_NO_POSITIVE_ROOT).astype(np.int8)
    status[ok & ~(residual <= tol)] = STATUS_NO_CONVERGENCE
    np.copyto(rho, np.nan, where=~ok)
    np.copyto(residual, np.nan, where=~ok)
    return rho, residual, iters, status

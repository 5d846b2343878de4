"""Hot batch kernels in numpy: Fourier metric forms and the rescaling solve.

The metric kernels evaluate a matrix Fourier field
G(theta) = sum_k cos(n_k theta) C_k + sin(n_k theta) S_k against lane
batches without forming the (n, r, r) stack of values: each nonzero
coefficient matrix is contracted with the lanes once and weighted by its
harmonic (fourier_values alone forms the values).  Hermitian norms run in
real arithmetic on the float view of the complex lanes.  Trig is computed
once per call: a batch entry point passes one Harmonics table to every
kernel it calls, and each cos(n theta), sin(n theta) its fields use is
evaluated on first use and read from the table after that.

The rescaling solver works on the scalar reduction of the level equation:
with a' = |y'|^2, a'' = |y''|^2 (metric norms) and target value c, the root
in s = rho^2 satisfies  a' s^2 + 2 c s - a'' = 0.
"""

from __future__ import annotations

import numpy as np

STATUS_OK = 0
STATUS_NO_CONVERGENCE = 1
STATUS_NO_POSITIVE_ROOT = 2

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50

# Lanes per call in the blocked batch loops: the CLI's scan rows and
# verify_conditions' stencil.  Bounds the working set: one scan pass over a
# 1,984-row, 32-sample grid (63,488 lanes) raised peak RSS from 45 to 58 MB,
# and one 2,000-theta verify on the 3/3 preset (582,000 stencil lanes) from
# 56 to 184 MB; neither ran faster than in 4096-lane blocks.
BLOCK_LANES = 4096


# ---------------------------------------------------------------------------
# Fourier metric forms


def realify(M: np.ndarray) -> np.ndarray:
    """Real form [[Re M, -Im M], [Im M, Re M]] of M, acting on [Re y, Im y]."""
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


def _realify_interleaved(M: np.ndarray) -> np.ndarray:
    # realify of each matrix of a stack (..., r, r), rows and columns reordered
    # to act on the float view of y, (Re y_0, Im y_0, Re y_1, ...), so the
    # lanes need no copy; C order keeps the products' BLAS path
    r = M.shape[-1]
    p = np.arange(2 * r).reshape(2, r).T.ravel()
    return np.ascontiguousarray(realify(M)[..., p[:, None], p])


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
    """A packed metric field with each coefficient matrix replaced by its real
    form: the field argument of fourier_norm_sq, built once per field."""
    return ns, sines, _realify_interleaved(coeffs)


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


def fourier_norm_sq(thetas, y, ns, sines, forms):
    """Batch Hermitian norms |y|^2 under a matrix Fourier field at each theta.

    Re(conj(y) M y) = z^T M~ z with z the float view of y and M~ the real
    form of M (the field comes packed by norm_forms), so each harmonic costs
    one (n, 2r) x (2r, 2r) product.
    """
    table = harmonics(thetas)
    z = np.ascontiguousarray(y, dtype=np.complex128).view(np.float64)
    out = np.zeros(len(table))
    for n, sine, form in zip(ns, sines, forms):
        q = np.einsum("ni,ni->n", z @ form, z)
        # read after the (n, 2r) product is freed, so a weight evaluated here
        # does not add to the call's peak memory
        weight = table.weight(n, sine)
        out += q if weight is None else weight * q
    return out


def fourier_pairing(thetas, y, a, ns, sines, coeffs):
    """Batch Hermitian pairings conj(y) G(theta) a with one fixed vector a."""
    table = harmonics(thetas)
    y = np.asarray(y, dtype=np.complex128)
    # conj(y) (M a) = conj(y conj(M a)): conjugate the (n,) result, not the lanes
    out = np.zeros(len(table), dtype=np.complex128)
    for n, sine, M in zip(ns, sines, coeffs):
        p = y @ (M @ a).conj()
        weight = table.weight(n, sine)
        out += p if weight is None else weight * p
    return out.conj()


# ---------------------------------------------------------------------------
# Closed-form positive root of  a' s^2 + 2 c s - a'' = 0  (s = rho^2)


def scale_root(ap, app, c):
    """Positive root s of a' s^2 + 2 c s - a'' = 0, NaN where none exists."""
    ap = np.ascontiguousarray(ap, dtype=np.float64)
    app = np.ascontiguousarray(app, dtype=np.float64)
    c = np.ascontiguousarray(c, dtype=np.float64)
    # an overflowing c * c gives s = 0 or inf, which is marked NaN below
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


def newton_rescale(ap, app, c, seed=None, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER):
    """Newton-solve the rescaling equation per point.

    Returns (rho, residual, iterations, status).  NaN seeds mark points
    with no positive root; they come back with STATUS_NO_POSITIVE_ROOT.
    """
    ap = np.ascontiguousarray(ap, dtype=np.float64)
    app = np.ascontiguousarray(app, dtype=np.float64)
    c = np.ascontiguousarray(c, dtype=np.float64)
    if seed is None:
        seed = np.sqrt(scale_root(ap, app, c))
    seed = np.ascontiguousarray(seed, dtype=np.float64)
    n = ap.shape[0]
    ok = np.isfinite(seed) & (seed > 0.0) & has_positive_root(ap, app, c)
    rho = np.where(ok, seed, 1.0)
    iters = np.zeros(n, dtype=np.int32)
    status = np.where(ok, STATUS_OK, STATUS_NO_POSITIVE_ROOT).astype(np.int8)

    alpha = rescale_alpha(rho, ap, app, c)
    active = ok & (np.abs(alpha) > tol)
    for _ in range(max_iter):
        if not active.any():
            break
        # only active lanes take the step; an inactive lane keeps its rho,
        # so recomputing its alpha gives the same bits
        with np.errstate(invalid="ignore", divide="ignore"):
            new = rho - alpha / rescale_beta(rho, ap, app)
            rho = np.where(active, np.where(new <= 0.0, 0.5 * rho, new), rho)
            alpha = rescale_alpha(rho, ap, app, c)
        iters += active
        active &= np.abs(alpha) > tol
    status[active] = STATUS_NO_CONVERGENCE
    resid = np.abs(alpha)
    rho = np.where(ok, rho, np.nan)
    resid = np.where(ok, resid, np.nan)
    return rho, resid, iters, status

"""Hot batch kernels in numpy: Fourier metric forms and the rescaling solve.

The metric kernels evaluate a matrix Fourier field
G(theta) = sum_k cos(n_k theta) C_k + sin(n_k theta) S_k against lane
batches without forming the (n, r, r) stack of values: each nonzero
coefficient matrix is contracted with the lanes once and weighted by its
harmonic.  Hermitian norms run in real arithmetic on the float view of the
complex lanes.

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


# ---------------------------------------------------------------------------
# Fourier metric forms


def realify(M: np.ndarray) -> np.ndarray:
    """Real form [[Re M, -Im M], [Im M, Re M]] of M, acting on [Re y, Im y]."""
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


def _realify_interleaved(M: np.ndarray) -> np.ndarray:
    # realify(M) with rows and columns reordered to act on the float view of
    # y, (Re y_0, Im y_0, Re y_1, ...), so the lanes need no copy
    r = M.shape[0]
    p = np.arange(2 * r).reshape(2, r).T.ravel()
    return realify(M)[np.ix_(p, p)]


def _harmonics(thetas, ns, cos_mats, sin_mats):
    """(weight, M) per nonzero coefficient matrix; weight None stands for cos(0) = 1."""
    for n, cos_mat, sin_mat in zip(ns, cos_mats, sin_mats):
        if cos_mat.any():
            yield (None if n == 0 else np.cos(n * thetas)), cos_mat
        if n != 0 and sin_mat.any():
            yield np.sin(n * thetas), sin_mat


def fourier_norm_sq(thetas, y, ns, cos_mats, sin_mats):
    """Batch Hermitian norms |y|^2 under a matrix Fourier field at each theta.

    Re(conj(y) M y) = z^T M~ z with z the float view of y and M~ the real
    form of M, so each harmonic costs one (n, 2r) x (2r, 2r) product.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    z = np.ascontiguousarray(y, dtype=np.complex128).view(np.float64)
    out = np.zeros(thetas.shape[0])
    for weight, M in _harmonics(thetas, ns, cos_mats, sin_mats):
        q = np.einsum("ni,ni->n", z @ _realify_interleaved(M), z)
        out += q if weight is None else weight * q
    return out


def fourier_pairing(thetas, y, a, ns, cos_mats, sin_mats):
    """Batch Hermitian pairings conj(y) G(theta) a with one fixed vector a."""
    thetas = np.asarray(thetas, dtype=np.float64)
    y = np.asarray(y, dtype=np.complex128)
    # conj(y) (M a) = conj(y conj(M a)): conjugate the (n,) result, not the lanes
    out = np.zeros(thetas.shape[0], dtype=np.complex128)
    for weight, M in _harmonics(thetas, ns, cos_mats, sin_mats):
        p = y @ (M @ a).conj()
        out += p if weight is None else weight * p
    return out.conj()


# ---------------------------------------------------------------------------
# Closed-form positive root of  a' s^2 + 2 c s - a'' = 0  (s = rho^2)


def scale_root(ap, app, c):
    """Positive root s of a' s^2 + 2 c s - a'' = 0, NaN where none exists."""
    ap = np.ascontiguousarray(ap, dtype=np.float64)
    app = np.ascontiguousarray(app, dtype=np.float64)
    c = np.ascontiguousarray(c, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        disc = np.sqrt(c * c + ap * app)
        # rationalized form for c >= 0 avoids cancellation in -c + disc
        s = np.where(c > 0.0, app / (c + disc), (-c + disc) / ap)
    bad = ~np.isfinite(s) | (s <= 0.0)
    return np.where(bad, np.nan, s)


# ---------------------------------------------------------------------------
# Guarded Newton on  alpha(rho) = -(rho^2 a' - rho^-2 a'')/2 - c
# derivative        beta(rho)  = -(rho a' + rho^-3 a'')  (strictly negative)


def _has_root(ap, app, c):
    # a' s^2 + 2 c s - a'' = 0 has a positive root iff the nonzero block
    # carries the right sign of c (both blocks nonzero: always)
    return ((ap > 0.0) & ((app > 0.0) | (c < 0.0))) | ((ap == 0.0) & (app > 0.0) & (c > 0.0))


def _alpha(r, ap, app, c):
    r2 = r * r
    return -0.5 * (r2 * ap - app / r2) - c


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
    ok = np.isfinite(seed) & (seed > 0.0) & _has_root(ap, app, c)
    rho = np.where(ok, seed, 1.0)
    iters = np.zeros(n, dtype=np.int32)
    status = np.where(ok, STATUS_OK, STATUS_NO_POSITIVE_ROOT).astype(np.int8)

    alpha = _alpha(rho, ap, app, c)
    active = ok & (np.abs(alpha) > tol)
    for _ in range(max_iter):
        if not active.any():
            break
        r = rho
        beta = -(r * ap + app / (r * r * r))
        with np.errstate(invalid="ignore", divide="ignore"):
            step = np.where(active, alpha / beta, 0.0)
        new = r - step
        new = np.where(new <= 0.0, 0.5 * r, new)
        rho = np.where(active, new, rho)
        iters[active] += 1
        alpha = np.where(active, _alpha(rho, ap, app, c), alpha)
        active = active & (np.abs(alpha) > tol)
    status[active] = STATUS_NO_CONVERGENCE
    resid = np.abs(alpha)
    rho = np.where(ok, rho, np.nan)
    resid = np.where(ok, resid, np.nan)
    return rho, resid, iters, status

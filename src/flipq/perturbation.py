"""Perturbed defining functions, the graph function chi, and orbit matching.

The wall hypersurface is the graph t = chi(u', u'') of a circle-invariant
function whose 2-jet is the fixed quadratic -(|u'|^2 - |u''|^2)/2;
perturbations are polynomials in the invariant generators

    g1 = |u'|^2,  g2 = |u''|^2,  g3 = |<u', a(theta)>|^2,  g1*g2,

with theta-dependent real Fourier coefficients and total degree >= 4, so
the quadratic part is untouched and every term vanishes to order >= 3.

Matching rescales a graph point (v', v'') onto the moment zero level by the
unique positive root rho of

    alpha(rho) = -(rho^2 |v'|^2 - rho^-2 |v''|^2)/2 - chi(v) = 0,

solved by guarded Newton (derivative beta(rho) = -(rho |v'|^2 +
rho^-3 |v''|^2) < 0) from the closed-form seed.  Near the zero section the
same equation is solved in renormalized form alpha/|v|^2, which stays well
conditioned down to r = 0 where rho = 1 identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import kernels
from .core import (
    BasePoint,
    FiberPoint,
    ModelConfig,
    ValidationIssue,
    fiber_norms_batch,
    metric_at,
    metric_faults_batch,
    min_metric_eigenvalue,
)
from .errors import (
    BoundViolated,
    DegenerateBranch,
    DegenerateDerivative,
    FlipQError,
    NoConvergence,
    NoRoot,
    OutOfDomain,
)

DOMAIN_SLACK = 1e-12
GRAPH_NEWTON_TOL = 1e-12
GRAPH_FD_STEP = 1e-6
MIN_GRAPH_DERIVATIVE = 1e-8
RENORM_FD_STEP = 1e-2
FD_STEP_RANGE = (1e-6, 1e-2)  # open interval of verify_conditions step sizes

PhiFunc = Callable[[float, np.ndarray, np.ndarray, float], float]


# ---------------------------------------------------------------------------
# Perturbation data


def fourier_scalar(coeffs: Sequence[float], theta) -> float | np.ndarray:
    """Evaluate [a0, a1, b1, a2, b2, ...] as a0 + sum a_n cos + b_n sin."""
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
    return value if value.ndim else float(value)


@dataclass(frozen=True, eq=False)
class PerturbationTerm:
    """Monomial in the invariant generators with a Fourier coefficient."""

    norm_prime_pow: int = 0
    norm_second_pow: int = 0
    ref_inner_pow: int = 0
    mixed_pow: int = 0
    coeff: tuple[float, ...] = (0.0,)
    ref_section: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeff", tuple(float(c) for c in self.coeff))
        if self.ref_section is not None:
            ref = np.array(self.ref_section, dtype=complex)
            ref.flags.writeable = False
            object.__setattr__(self, "ref_section", ref)

    @property
    def degree(self) -> int:
        # degree in u: each generator is quadratic except the mixed one
        return 2 * (self.norm_prime_pow + self.norm_second_pow + self.ref_inner_pow) + 4 * self.mixed_pow


@dataclass(frozen=True, eq=False)
class PerturbationSpec:
    terms: tuple[PerturbationTerm, ...] = ()

    @classmethod
    def none(cls) -> "PerturbationSpec":
        return cls(terms=())

    @classmethod
    def single(cls, **kwargs) -> "PerturbationSpec":
        return cls(terms=(PerturbationTerm(**kwargs),))


def validate_perturbation(spec: PerturbationSpec, r_prime: int) -> list[ValidationIssue]:
    issues = []
    for i, term in enumerate(spec.terms):
        pows = (term.norm_prime_pow, term.norm_second_pow, term.ref_inner_pow, term.mixed_pow)
        if any(p < 0 for p in pows):
            issues.append(ValidationIssue("PerturbationOrderViolation", f"term {i} has a negative exponent"))
            continue
        if term.degree < 4:
            issues.append(
                ValidationIssue(
                    "PerturbationOrderViolation",
                    f"term {i} has degree {term.degree}; terms must have degree >= 4 "
                    "so they vanish to order >= 3 at the zero section",
                )
            )
        if term.ref_inner_pow > 0:
            if term.ref_section is None:
                issues.append(
                    ValidationIssue("ReferenceSectionViolation", f"term {i} uses the reference pairing but has no section")
                )
            elif term.ref_section.shape != (r_prime,):
                issues.append(
                    ValidationIssue(
                        "ReferenceSectionViolation",
                        f"term {i} reference section has length {term.ref_section.shape[0]}, expected {r_prime}",
                    )
                )
        if len(term.coeff) == 0:
            issues.append(ValidationIssue("PerturbationOrderViolation", f"term {i} has an empty coefficient series"))
    return issues


# ---------------------------------------------------------------------------
# chi evaluation


@lru_cache(maxsize=4096)
def _metrics_cached(cfg: ModelConfig, theta: float):
    return metric_at(cfg, theta)


def _norms_at(cfg, theta, y_prime, y_second):
    G1, G2 = _metrics_cached(cfg, theta)
    g1 = float(np.real(y_prime.conj() @ G1 @ y_prime))
    g2 = float(np.real(y_second.conj() @ G2 @ y_second))
    return G1, G2, g1, g2


def _outside_domain(cfg, g1, g2):
    return g1 + g2 > cfg.domain_radius**2 * (1.0 + DOMAIN_SLACK)


def _check_domain(cfg, g1, g2):
    if _outside_domain(cfg, g1, g2):
        raise OutOfDomain(
            f"|v| = {np.sqrt(g1 + g2):.6g} exceeds domain_radius = {cfg.domain_radius}"
        )


def _perturbation_value(cfg, theta, y_prime, G1, g1, g2) -> float:
    total = 0.0
    for term in cfg.perturbation.terms:
        value = fourier_scalar(term.coeff, theta)
        if term.norm_prime_pow:
            value *= g1**term.norm_prime_pow
        if term.norm_second_pow:
            value *= g2**term.norm_second_pow
        if term.mixed_pow:
            value *= (g1 * g2) ** term.mixed_pow
        if term.ref_inner_pow:
            inner = complex(y_prime.conj() @ G1 @ term.ref_section)
            value *= (inner.real**2 + inner.imag**2) ** term.ref_inner_pow
        total += value
    return total


def _chi_parts(cfg, theta, y_prime, y_second, check_domain=True):
    """Returns (chi, g1, g2) at a fiber vector over theta."""
    G1, _, g1, g2 = _norms_at(cfg, theta, y_prime, y_second)
    if check_domain:
        _check_domain(cfg, g1, g2)
    chi = -0.5 * (g1 - g2) + _perturbation_value(cfg, theta, y_prime, G1, g1, g2)
    return chi, g1, g2


def chi_eval(cfg: ModelConfig, p: FiberPoint) -> float:
    """Graph value chi(v) at a fiber vector over theta (base t is ignored)."""
    chi, _, _ = _chi_parts(cfg, p.base.theta, p.y_prime, p.y_second)
    return chi


def taylor_rest(cfg: ModelConfig, p: FiberPoint) -> float:
    """chi minus its quadratic part: the configured perturbation value."""
    G1, _, g1, g2 = _norms_at(cfg, p.base.theta, p.y_prime, p.y_second)
    _check_domain(cfg, g1, g2)
    return _perturbation_value(cfg, p.base.theta, p.y_prime, G1, g1, g2)


def chi_parts_batch(cfg: ModelConfig, thetas, y_prime, y_second, check_domain=True):
    """Vectorized (chi, g1, g2) over point batches."""
    thetas = np.asarray(thetas, dtype=float)
    y_prime = np.asarray(y_prime, dtype=complex)
    y_second = np.asarray(y_second, dtype=complex)
    g1, g2 = fiber_norms_batch(cfg, thetas, y_prime, y_second)
    if check_domain and np.any(_outside_domain(cfg, g1, g2)):
        raise OutOfDomain("batch contains points outside the fiber domain")
    chi = -0.5 * (g1 - g2)
    for term in cfg.perturbation.terms:
        value = np.asarray(fourier_scalar(term.coeff, thetas), dtype=float)
        if term.norm_prime_pow:
            value = value * g1**term.norm_prime_pow
        if term.norm_second_pow:
            value = value * g2**term.norm_second_pow
        if term.mixed_pow:
            value = value * (g1 * g2) ** term.mixed_pow
        if term.ref_inner_pow:
            inner = kernels.fourier_pairing(thetas, y_prime, term.ref_section,
                                            *cfg.metric_field.packed_prime)
            value = value * (np.abs(inner) ** 2) ** term.ref_inner_pow
        chi = chi + value
    return chi, g1, g2


def chi_eval_batch(cfg: ModelConfig, thetas, y_prime, y_second):
    chi, _, _ = chi_parts_batch(cfg, thetas, y_prime, y_second)
    return chi


# ---------------------------------------------------------------------------
# Defining functions and their verification


def phi_graph(cfg: ModelConfig) -> PhiFunc:
    """Defining function t - chi(v) whose zero set is the graph of chi."""

    def phi(theta, y_prime, y_second, t):
        chi, _, _ = _chi_parts(cfg, theta, np.asarray(y_prime, dtype=complex),
                               np.asarray(y_second, dtype=complex))
        return t - chi

    return phi


def phi_quadratic(cfg: ModelConfig, coeff_prime: float, coeff_second: float) -> PhiFunc:
    """Defining function t + (a |y'|^2 + b |y''|^2)/2; a = 1, b = -1 is the moment map."""

    def phi(theta, y_prime, y_second, t):
        _, _, g1, g2 = _norms_at(cfg, theta, np.asarray(y_prime, dtype=complex),
                                 np.asarray(y_second, dtype=complex))
        return t + 0.5 * (coeff_prime * g1 + coeff_second * g2)

    return phi


def phi_moment(cfg: ModelConfig) -> PhiFunc:
    return phi_quadratic(cfg, 1.0, -1.0)


@dataclass(frozen=True)
class ConditionReport:
    p1_ok: bool
    p2_ok: bool
    p3_ok: bool
    worst_p1: float
    worst_p2: float
    worst_p3: float
    samples: int

    @property
    def all_ok(self) -> bool:
        return self.p1_ok and self.p2_ok and self.p3_ok


def _fiber_from_real(z: np.ndarray, rp: int, rs: int):
    y_prime = z[:rp] + 1j * z[rp : 2 * rp]
    y_second = z[2 * rp : 2 * rp + rs] + 1j * z[2 * rp + rs :]
    return y_prime, y_second


def verify_conditions(
    cfg: ModelConfig,
    phi: PhiFunc,
    n_theta: int = 64,
    fd_step: float = 1e-3,
    tol: float = 1e-4,
) -> ConditionReport:
    """Finite-difference check of the three normalization conditions.

    On an n_theta grid: the wall condition (phi vanishes on the zero
    section at t = 0 with unit t-derivative), the vanishing fiber gradient
    there, and the fiber Hessian against the realified metric blocks
    diag(+G', -G'').
    """
    lo, hi = FD_STEP_RANGE
    if not (lo < fd_step < hi):
        raise ValueError(f"fd_step = {fd_step} must lie in ({lo:g}, {hi:g})")
    rp, rs = cfg.r_prime, cfg.r_second
    dim = 2 * (rp + rs)
    h = fd_step
    worst_p1 = worst_p2 = worst_p3 = 0.0

    def phi_z(theta, z, t):
        y_prime, y_second = _fiber_from_real(z, rp, rs)
        return phi(theta, y_prime, y_second, t)

    for theta in np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False):
        z0 = np.zeros(dim)
        f0 = phi_z(theta, z0, 0.0)
        dt = (phi_z(theta, z0, h) - phi_z(theta, z0, -h)) / (2.0 * h)
        worst_p1 = max(worst_p1, abs(f0), abs(dt - 1.0))

        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            grad_i = (phi_z(theta, e, 0.0) - phi_z(theta, -e, 0.0)) / (2.0 * h)
            worst_p2 = max(worst_p2, abs(grad_i))

        H = np.empty((dim, dim))
        for i in range(dim):
            ei = np.zeros(dim)
            ei[i] = h
            H[i, i] = (phi_z(theta, ei, 0.0) - 2.0 * f0 + phi_z(theta, -ei, 0.0)) / h**2
            for j in range(i + 1, dim):
                ej = np.zeros(dim)
                ej[j] = h
                H[i, j] = H[j, i] = (
                    phi_z(theta, ei + ej, 0.0)
                    - phi_z(theta, ei - ej, 0.0)
                    - phi_z(theta, -ei + ej, 0.0)
                    + phi_z(theta, -ei - ej, 0.0)
                ) / (4.0 * h**2)
        G1, G2 = _metrics_cached(cfg, float(theta))
        expected = np.block(
            [
                [kernels.realify(G1), np.zeros((2 * rp, 2 * rs))],
                [np.zeros((2 * rs, 2 * rp)), -kernels.realify(G2)],
            ]
        )
        worst_p3 = max(worst_p3, float(np.abs(H - expected).max()))

    return ConditionReport(
        p1_ok=worst_p1 <= tol,
        p2_ok=worst_p2 <= tol,
        p3_ok=worst_p3 <= tol,
        worst_p1=worst_p1,
        worst_p2=worst_p2,
        worst_p3=worst_p3,
        samples=n_theta,
    )


def extract_graph(
    cfg: ModelConfig,
    phi: PhiFunc,
    p: FiberPoint,
    tol: float = GRAPH_NEWTON_TOL,
    max_iter: int = 50,
) -> float:
    """Newton-solve phi(v, t) = 0 for t in the wall interval.

    Seeded at the unperturbed graph value -(|v'|^2 - |v''|^2)/2; the
    t-derivative is taken by central differences and guarded against
    degeneracy.
    """
    theta = p.base.theta
    _, _, g1, g2 = _norms_at(cfg, theta, p.y_prime, p.y_second)
    _check_domain(cfg, g1, g2)
    t = -0.5 * (g1 - g2)
    h = GRAPH_FD_STEP
    deriv = None
    for _ in range(max_iter):
        value = phi(theta, p.y_prime, p.y_second, t)
        if abs(value) <= tol:
            break
        deriv = (phi(theta, p.y_prime, p.y_second, t + h) - phi(theta, p.y_prime, p.y_second, t - h)) / (2.0 * h)
        if abs(deriv) < MIN_GRAPH_DERIVATIVE:
            raise DegenerateDerivative(f"|dphi/dt| = {abs(deriv):.3g} below {MIN_GRAPH_DERIVATIVE}")
        t = t - value / deriv
    else:
        raise NoRoot(f"no root of phi(v, .) after {max_iter} iterations")
    if abs(phi(theta, p.y_prime, p.y_second, t)) > tol:
        raise NoRoot("Newton terminated away from a root")
    if deriv is None:
        deriv = (phi(theta, p.y_prime, p.y_second, t + h) - phi(theta, p.y_prime, p.y_second, t - h)) / (2.0 * h)
        if abs(deriv) < MIN_GRAPH_DERIVATIVE:
            raise DegenerateDerivative(f"|dphi/dt| = {abs(deriv):.3g} below {MIN_GRAPH_DERIVATIVE}")
    if not abs(t) < cfg.epsilon:
        raise NoRoot(f"root t = {t} lies outside the wall interval (+-{cfg.epsilon})")
    return float(t)


# ---------------------------------------------------------------------------
# Rest-term bound


@dataclass(frozen=True, eq=False)
class RestBoundReport:
    """Empirical cubic bound on the rest term over a domain sample.

    margin_value = empirical_M * domain_radius is compared against
    margin_bound = (smallest metric eigenvalue) / 4; failing configs stay
    usable but are flagged, since the axis-sign separation is then not
    guaranteed by the bound alone.
    """

    empirical_M: float
    max_ratio_point: FiberPoint
    samples: int
    margin_value: float
    margin_bound: float
    margin_ok: bool


def rest_bound_scan(cfg: ModelConfig, n_samples: int, seed: int = 0) -> RestBoundReport:
    """Sample |rest(v)| / |v|^3 over the fiber domain and report the max."""
    from .sampling import random_domain_batch

    rng = np.random.default_rng(seed)
    thetas, y_prime, y_second = random_domain_batch(rng, cfg, n_samples)
    chi, g1, g2 = chi_parts_batch(cfg, thetas, y_prime, y_second)
    rest = chi + 0.5 * (g1 - g2)
    norm3 = (g1 + g2) ** 1.5
    ratio = np.abs(rest) / norm3
    k = int(np.argmax(ratio))
    empirical = float(ratio[k])
    point = FiberPoint(base=BasePoint(float(thetas[k]), 0.0), y_prime=y_prime[k], y_second=y_second[k])
    bound = min_metric_eigenvalue(cfg) / 4.0
    value = empirical * cfg.domain_radius
    return RestBoundReport(
        empirical_M=empirical,
        max_ratio_point=point,
        samples=n_samples,
        margin_value=value,
        margin_bound=bound,
        margin_ok=value <= bound,
    )


# ---------------------------------------------------------------------------
# The rescaling equation


@dataclass(frozen=True)
class RhoSolution:
    rho: float
    residual: float
    iterations: int
    converged: bool


def rescale_alpha_beta(g1: float, g2: float, c: float, rho: float) -> tuple[float, float]:
    """Residual and derivative of the rescaling equation at rho."""
    alpha = -0.5 * (rho**2 * g1 - g2 / rho**2) - c
    beta = -(rho * g1 + g2 / rho**3)
    return alpha, beta


def _branch_check(prime_zero: bool, second_zero: bool, c: float) -> None:
    if prime_zero and second_zero:
        raise DegenerateBranch("the rescaling equation is undefined on the zero section")
    if second_zero and c >= 0:
        raise DegenerateBranch(
            f"no positive rescaling with y'' = 0 and chi(v) = {c:.6g} >= 0"
        )
    if prime_zero and c <= 0:
        raise DegenerateBranch(
            f"no positive rescaling with y' = 0 and chi(v) = {c:.6g} <= 0"
        )


def _check_status(status, resid, iters) -> None:
    if status == kernels.STATUS_NO_POSITIVE_ROOT:
        raise DegenerateBranch("no positive root on this branch")
    if status == kernels.STATUS_NO_CONVERGENCE:
        raise NoConvergence(f"residual {resid:.3g} after {iters} iterations")


def _newton_single(g1, g2, c, seed):
    seed_arr = None if seed is None else np.array([float(seed)])
    rho, resid, iters, status = kernels.newton_rescale(
        np.array([g1]), np.array([g2]), np.array([c]), seed=seed_arr
    )
    _check_status(status[0], resid[0], iters[0])
    return RhoSolution(rho=float(rho[0]), residual=float(resid[0]), iterations=int(iters[0]), converged=True)


def solve_rho(cfg: ModelConfig, p: FiberPoint, seed: float | None = None) -> RhoSolution:
    """Solve chi_f(rho v', rho^-1 v'') = chi(v) for the unique positive rho.

    Newton with the analytic derivative, seeded by default at the closed
    form of the scalar reduction; an explicit seed exercises the global
    behavior of the iteration (the derivative is negative everywhere, so
    any positive seed converges to the same root).
    """
    prime_zero = not np.any(p.y_prime)
    second_zero = not np.any(p.y_second)
    c, g1, g2 = _chi_parts(cfg, p.base.theta, p.y_prime, p.y_second)
    _branch_check(prime_zero, second_zero, c)
    return _newton_single(g1, g2, c, seed)


def solve_rho_blowup(cfg: ModelConfig, bp, seed: float | None = None) -> RhoSolution:
    """Rescaling solve in renormalized polar form; exactly 1 on the boundary.

    For r > 0 this solves the same equation as solve_rho at v = r w but on
    alpha / r^2, which stays uniformly conditioned as r -> 0; its residual
    is reported in that normalization.
    """
    if bp.r == 0.0:
        return RhoSolution(rho=1.0, residual=0.0, iterations=0, converged=True)
    theta = bp.base.theta
    y_prime = bp.r * bp.w_prime
    y_second = bp.r * bp.w_second
    prime_zero = not np.any(bp.w_prime)
    second_zero = not np.any(bp.w_second)
    c, g1, g2 = _chi_parts(cfg, theta, y_prime, y_second)
    _branch_check(prime_zero, second_zero, c)
    r2 = bp.r**2
    return _newton_single(g1 / r2, g2 / r2, c / r2, seed)


def solve_rho_batch(cfg: ModelConfig, thetas, y_prime, y_second):
    """Batch rescaling solves; degenerate branches come back as status codes."""
    c, g1, g2 = chi_parts_batch(cfg, thetas, y_prime, y_second)
    return kernels.newton_rescale(g1, g2, c)


# ---------------------------------------------------------------------------
# Renormalized evaluation near the zero section

_FD5_NODES = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])

_FD5_WEIGHTS = {
    1: np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0,
    2: np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0,
    3: np.array([-1.0, 2.0, 0.0, -2.0, 1.0]) / 2.0,
    4: np.array([1.0, -4.0, 6.0, -4.0, 1.0]),
}


def _poly_ray_coeffs(cfg, tau: PerturbationSpec, theta, w_prime, w_second):
    """Coefficients a_d of tau(s w) = sum a_d s^d along the ray through w."""
    G1, _, g1, g2 = _norms_at(cfg, theta, w_prime, w_second)
    coeffs: dict[int, float] = {}
    for term in tau.terms:
        value = fourier_scalar(term.coeff, theta)
        if term.norm_prime_pow:
            value *= g1**term.norm_prime_pow
        if term.norm_second_pow:
            value *= g2**term.norm_second_pow
        if term.mixed_pow:
            value *= (g1 * g2) ** term.mixed_pow
        if term.ref_inner_pow:
            inner = complex(w_prime.conj() @ G1 @ term.ref_section)
            value *= (inner.real**2 + inner.imag**2) ** term.ref_inner_pow
        coeffs[term.degree] = coeffs.get(term.degree, 0.0) + value
    return coeffs


def renorm_eval(
    cfg: ModelConfig,
    tau,
    k: int,
    r: float,
    w_prime,
    w_second,
    theta: float = 0.0,
) -> float:
    """Evaluate tau(r w) / r^k, extended through r = 0.

    tau is either a PerturbationSpec (polynomial in the invariant
    generators, boundary value computed analytically) or a callable
    tau(theta, y', y'') with |tau(v)| <= C |v|^k, checked by a ray scan;
    the boundary value is then the k-th derivative of s -> tau(s w) at 0
    over k!, by 5-point central differences (step grows with the order).
    """
    w_prime = np.asarray(w_prime, dtype=complex)
    w_second = np.asarray(w_second, dtype=complex)
    _, _, g1, g2 = _norms_at(cfg, theta, w_prime, w_second)
    if abs(g1 + g2 - 1.0) > 1e-9:
        raise ValueError(f"w must be a unit direction; |w|^2 = {g1 + g2}")
    if r < 0:
        raise ValueError("r must be >= 0")

    if isinstance(tau, PerturbationSpec):
        degrees = [t.degree for t in tau.terms]
        if any(d < k for d in degrees):
            raise BoundViolated(
                f"a term of degree {min(degrees)} cannot satisfy |tau| <= C |v|^{k}"
            )
        coeffs = _poly_ray_coeffs(cfg, tau, theta, w_prime, w_second)
        if r == 0.0:
            return float(coeffs.get(k, 0.0))
        return float(sum(a * r ** (d - k) for d, a in coeffs.items()))

    def ray(s: float) -> float:
        return float(tau(theta, s * w_prime, s * w_second))

    # vanishing-order scan: log-log slope of |tau(s w)| must reach k
    s_grid = cfg.domain_radius * np.logspace(-3.0, -0.3, 10)
    values = np.array([abs(ray(s)) for s in s_grid])
    keep = values > 1e-300
    if keep.sum() >= 3:
        slope = np.polyfit(np.log(s_grid[keep]), np.log(values[keep]), 1)[0]
        if slope < k - 0.5:
            raise BoundViolated(
                f"tau vanishes to order ~{slope:.2f} along this ray, below the required {k}"
            )
    if r > 0.0:
        return ray(r) / r**k
    if k not in _FD5_WEIGHTS:
        raise ValueError(f"finite-difference boundary values support k in 1..4, got {k}")
    h = RENORM_FD_STEP * k
    samples = np.array([ray(float(n) * h) for n in _FD5_NODES])
    deriv = float(_FD5_WEIGHTS[k] @ samples) / h**k
    return deriv / math.factorial(k)


def _check_wall(cfg, c) -> None:
    if not abs(c) < cfg.epsilon:
        raise OutOfDomain(
            f"graph value t = {c:.6g} leaves the wall interval (+-{cfg.epsilon})"
        )


def matching_map(cfg: ModelConfig, p: FiberPoint) -> FiberPoint:
    """Carry a graph point onto the moment zero level along its orbit.

    Output (rho v', rho^-1 v'') over base (theta, t = chi(v)); the moment
    value there vanishes and the rank-one tensor is unchanged.
    """
    sol = solve_rho(cfg, p)
    c, _, _ = _chi_parts(cfg, p.base.theta, p.y_prime, p.y_second)
    _check_wall(cfg, c)
    base = BasePoint(p.base.theta, c)
    return FiberPoint(base=base, y_prime=sol.rho * p.y_prime, y_second=p.y_second / sol.rho)


class LaneMatch(NamedTuple):
    """Per-lane matching results; see match_lanes."""

    t: np.ndarray  # graph value chi(v), the matched base t
    g1: np.ndarray
    g2: np.ndarray
    rho: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    status: np.ndarray
    out_prime: np.ndarray
    out_second: np.ndarray


def match_lanes(cfg: ModelConfig, thetas, y_prime, y_second, check_domain=True) -> LaneMatch:
    """Batch matching: chi, then the Newton rescaling, then the rescaled points.

    Lanes whose status is not STATUS_OK keep their input coordinates.  With
    check_domain, a lane outside the fiber domain fails the whole batch.
    """
    thetas = np.asarray(thetas, dtype=float)
    y_prime = np.asarray(y_prime, dtype=complex)
    y_second = np.asarray(y_second, dtype=complex)
    c, g1, g2 = chi_parts_batch(cfg, thetas, y_prime, y_second, check_domain=check_domain)
    rho, resid, iters, status = kernels.newton_rescale(g1, g2, c)
    scale = np.where(status == kernels.STATUS_OK, rho, 1.0)
    return LaneMatch(c, g1, g2, rho, resid, iters, status,
                     y_prime * scale[:, None], y_second / scale[:, None])


def matching_errors(cfg: ModelConfig, thetas, y_prime, y_second, m: LaneMatch) -> list:
    """Per lane, the FlipQError that matching_map raises on that point, or None.

    The checks run in matching_map's order: metric positivity at theta, fiber
    domain, rescaling branch, Newton status, wall interval.  Each vector test
    only selects candidate lanes; the scalar check then decides and builds
    the error, so names and messages match the scalar path.
    """
    y_prime = np.asarray(y_prime)
    y_second = np.asarray(y_second)
    prime_zero = ~np.any(y_prime, axis=1)
    second_zero = ~np.any(y_second, axis=1)
    checks = (
        (metric_faults_batch(cfg, thetas), lambda i: metric_at(cfg, float(thetas[i]))),
        (_outside_domain(cfg, m.g1, m.g2), lambda i: _check_domain(cfg, m.g1[i], m.g2[i])),
        (prime_zero | second_zero, lambda i: _branch_check(prime_zero[i], second_zero[i], m.t[i])),
        (m.status != kernels.STATUS_OK,
         lambda i: _check_status(m.status[i], m.residual[i], m.iterations[i])),
        (~(np.abs(m.t) < cfg.epsilon), lambda i: _check_wall(cfg, m.t[i])),
    )
    errors = [None] * len(m.t)
    for lanes, check in checks:
        for i in np.flatnonzero(lanes):
            if errors[i] is None:
                try:
                    check(i)
                except FlipQError as e:
                    errors[i] = e
    return errors


def matching_map_batch(cfg: ModelConfig, thetas, y_prime, y_second):
    """Batch matching: returns (rho, t, out_prime, out_second, status).

    Lanes with no positive root keep NaN rho and untouched coordinates;
    status follows the kernel codes.  Any lane outside the fiber domain
    raises OutOfDomain for the whole batch.
    """
    m = match_lanes(cfg, thetas, y_prime, y_second)
    return m.rho, m.t, m.out_prime, m.out_second, m.status

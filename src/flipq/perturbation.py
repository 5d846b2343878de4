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

the level equation at t = chi(v), whose root rho^2 is kernels.scale_root;
guarded Newton runs only from an explicit seed, in solve_rho.  On the blowup
boundary r = 0, rho = 1 identically; off it, a ray point v = r w is matched
as any other lane.  match_lanes' lane status alone refuses a matched lane:
outside the fiber domain, with lost digits, with no positive root, or off the
wall interval, in that order; matching_errors names each refusal's error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .blowup import BlowupPoint, _check_unit_norm, _lost_digits_text, from_blowup
from .core import (
    BasePoint,
    FiberPoint,
    ModelConfig,
    ValidationIssue,
    _frozen_complex_vector,
    _metrics_cached,  # the per-config validation cache; perfbench's tracer reads its cache_info() here
    check_metrics,
    fiber_norms_batch,
    lane_values,
    min_metric_eigenvalue,
    one_lane,
)
from .errors import (
    BoundViolated,
    DegenerateBranch,
    DegenerateDerivative,
    NoConvergence,
    NoRoot,
    OutOfDomain,
)

DOMAIN_SLACK = 1e-12
GRAPH_NEWTON_TOL = 1e-12
GRAPH_MAX_ITER = 50
GRAPH_FD_STEP = 1e-6
MIN_GRAPH_DERIVATIVE = 1e-8
FD_STEP_RANGE = (1e-6, 1e-2)  # open interval of verify_conditions step sizes

# phi(thetas (n,), Y' (n, r'), Y'' (n, r''), t (n,)) -> (n,) values, one per lane
PhiFunc = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# Perturbation data


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
            object.__setattr__(self, "ref_section", _frozen_complex_vector(self.ref_section))

    @cached_property
    def series(self):
        """coeff [a0, a1, b1, a2, b2, ...] packed by kernels.pack_field for kernels.fourier_values."""
        coeff = list(self.coeff[:1]) + [0.0] + list(self.coeff[1:])
        pairs = np.array(coeff + [0.0] * (len(coeff) % 2)).reshape(-1, 2)
        return kernels.pack_field(np.arange(len(pairs), dtype=float), pairs[:, 0], pairs[:, 1])

    @property
    def degree(self) -> int:
        # degree in u: each generator is quadratic except the mixed one
        return 2 * (self.norm_prime_pow + self.norm_second_pow + self.ref_inner_pow) + 4 * self.mixed_pow


@dataclass(frozen=True, eq=False)
class PerturbationSpec:
    terms: tuple[PerturbationTerm, ...] = ()

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
        if not all(float(p).is_integer() for p in pows):  # a NaN exponent too
            issues.append(ValidationIssue("PerturbationOrderViolation", f"term {i} has a non-integral exponent"))
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
            elif not np.isfinite(term.ref_section).all():
                issues.append(ValidationIssue("ReferenceSectionViolation", f"term {i} reference section is not finite"))
        if len(term.coeff) == 0:
            issues.append(ValidationIssue("PerturbationOrderViolation", f"term {i} has an empty coefficient series"))
        elif not np.isfinite(term.coeff).all():
            issues.append(ValidationIssue("PerturbationCoefficientViolation", f"term {i} has a non-finite coefficient"))
    return issues


# ---------------------------------------------------------------------------
# chi evaluation


def _outside_domain(cfg, g1, g2):
    return g1 + g2 > cfg.domain_radius**2 * (1.0 + DOMAIN_SLACK)


def _domain_error(cfg, g1, g2, r=1.0) -> OutOfDomain:
    # the point v = r w, w of norms (g1, g2): |v| = r |w| stays finite where r^2 overflows
    return OutOfDomain(f"|v| = {r * np.sqrt(g1 + g2):.6g} exceeds domain_radius = {cfg.domain_radius}")


def _check_domain(cfg, g1, g2):
    """Raise the _domain_error of the first lane of the batch (g1, g2) outside the fiber domain."""
    outside = np.flatnonzero(_outside_domain(cfg, g1, g2))
    if outside.size:
        raise _domain_error(cfg, g1[outside[0]], g2[outside[0]])


def _tau_lanes(cfg: ModelConfig, terms, thetas, y_prime, y_second):
    """(g1, g2, values) over point batches: the fiber norms and each term's lane values, in term
    order, all read from one kernels.Harmonics table; the reference pairing is kernels.fourier_pairing.

    The rest term is the values summed from zero: chi + (g1 - g2)/2 would lose it to cancellation.
    """
    table = kernels.harmonics(thetas)
    y_prime = np.asarray(y_prime, dtype=complex)
    y_second = np.asarray(y_second, dtype=complex)
    g1, g2 = fiber_norms_batch(cfg, table, y_prime, y_second)
    values = []
    for term in terms:
        value = kernels.fourier_values(table, *term.series)
        if term.norm_prime_pow:
            value = value * g1**term.norm_prime_pow
        if term.norm_second_pow:
            value = value * g2**term.norm_second_pow
        if term.mixed_pow:
            value = value * (g1 * g2) ** term.mixed_pow
        if term.ref_inner_pow:
            inner = kernels.fourier_pairing(table, y_prime, term.ref_section, *cfg.metric_field.packed_prime)
            value = value * (abs(inner) ** 2) ** term.ref_inner_pow
        values.append(value)
    return g1, g2, values


def chi_parts_batch(cfg: ModelConfig, thetas, y_prime, y_second):
    """Vectorized (chi, g1, g2) over point batches: the quadratic part, then each term's values.

    It refuses no lane, not even one outside the fiber domain: chi_eval_batch does.
    """
    g1, g2, values = _tau_lanes(cfg, cfg.perturbation.terms, thetas, y_prime, y_second)
    chi = -0.5 * (g1 - g2)
    for value in values:
        chi = chi + value
    return chi, g1, g2


def chi_eval_batch(cfg: ModelConfig, thetas, y_prime, y_second):
    """Graph values chi(v) over point batches; the first lane outside the fiber domain raises its OutOfDomain."""
    chi, g1, g2 = chi_parts_batch(cfg, thetas, y_prime, y_second)
    _check_domain(cfg, g1, g2)
    return chi


def chi_eval(cfg: ModelConfig, p: FiberPoint) -> float:
    """Graph value chi(v) at a fiber vector over theta (base t is ignored)."""
    return float(chi_eval_batch(cfg, *one_lane(p.base.theta, p.y_prime, p.y_second))[0])


def taylor_rest(cfg: ModelConfig, p: FiberPoint) -> float:
    """chi minus its quadratic part: the configured perturbation value."""
    g1, g2, values = _tau_lanes(cfg, cfg.perturbation.terms, *one_lane(p.base.theta, p.y_prime, p.y_second))
    _check_domain(cfg, g1, g2)
    return float(sum(values, np.zeros(1))[0])


# ---------------------------------------------------------------------------
# Defining functions and their verification


def phi_graph(cfg: ModelConfig) -> PhiFunc:
    """Defining function t - chi(v) whose zero set is the graph of chi."""

    def phi(thetas, y_prime, y_second, t):
        chi = chi_eval_batch(cfg, thetas, y_prime, y_second)
        return lane_values("t", t, len(chi)) - chi

    return phi


def phi_quadratic(cfg: ModelConfig, coeff_prime: float, coeff_second: float) -> PhiFunc:
    """Defining function t + (a |y'|^2 + b |y''|^2)/2; a = 1, b = -1 is the moment map."""

    def phi(thetas, y_prime, y_second, t):
        g1, g2 = fiber_norms_batch(cfg, thetas, y_prime, y_second)
        return lane_values("t", t, len(g1)) + 0.5 * (coeff_prime * g1 + coeff_second * g2)

    return phi


def phi_moment(cfg: ModelConfig) -> PhiFunc:
    return phi_quadratic(cfg, 1.0, -1.0)


class Contract(NamedTuple):
    """A contract row: the worst value a run measured for one claim, and its bound.  ok is false
    for a NaN worst, and for None: nothing was checked.  pass reads only the rows that gate."""

    name: str
    worst: float | None
    bound: float
    gates: bool = True

    @property
    def ok(self) -> bool:
        return self.worst is not None and self.worst <= self.bound


def verdict(checks: dict[str, list[Contract]]) -> tuple[dict[str, bool], bool]:
    """The checks dict, an entry true when every gating row under it is ok, and pass, their and."""
    ok = {key: all(row.ok for row in rows if row.gates) for key, rows in checks.items()}
    return ok, all(ok.values())


def condition_contracts(worst_p, tol: float) -> list[Contract]:
    """P1, P2 and P3 as rows: each worst finite-difference residual at tol."""
    return [Contract(f"p{k}", value, tol) for k, value in enumerate(worst_p, 1)]


class ConditionReport(NamedTuple):
    p1_ok: bool
    p2_ok: bool
    p3_ok: bool
    worst_p1: float
    worst_p2: float
    worst_p3: float
    samples: int


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
    diag(+G', -G'').  phi takes the stencil points in the grid's
    kernels.lane_blocks of whole thetas.
    """
    lo, hi = FD_STEP_RANGE
    if not (lo < fd_step < hi):
        raise ValueError(f"fd_step = {fd_step} must lie in ({lo:g}, {hi:g})")
    if n_theta < 1:
        raise ValueError(f"n_theta = {n_theta} must be >= 1")
    check_metrics(cfg)  # the expected blocks read the metric, and phi need not pass fiber_norms_batch
    rp, rs = cfg.r_prime, cfg.r_second
    dim = 2 * (rp + rs)
    h = fd_step
    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)

    # stencil rows over real fiber coordinates z = (Re y', Im y', Re y'', Im y''):
    # the zero section at t = 0, +h, -h; +e_i, -e_i per axis; then
    # e_i + e_j, e_i - e_j, -e_i + e_j, -e_i - e_j per pair i < j
    e = h * np.eye(dim)
    i, j = np.triu_indices(dim, k=1)
    z = np.concatenate([
        np.zeros((3, dim)),
        np.stack([e, -e], axis=1).reshape(-1, dim),
        np.stack([e[i] + e[j], e[i] - e[j], -e[i] + e[j], -e[i] - e[j]], axis=1).reshape(-1, dim),
    ])
    ts = np.zeros(len(z))
    ts[1:3] = (h, -h)
    y_prime = z[:, :rp] + 1j * z[:, rp : 2 * rp]
    y_second = z[:, 2 * rp : 2 * rp + rs] + 1j * z[:, 2 * rp + rs :]
    m = len(z)
    values = np.concatenate([
        phi(np.repeat(block, m), np.tile(y_prime, (len(block), 1)),
            np.tile(y_second, (len(block), 1)), np.tile(ts, len(block)))
        for block in (thetas[lanes] for lanes in kernels.lane_blocks(n_theta, m))
    ]).reshape(n_theta, m)

    f0 = values[:, 0]
    dt = (values[:, 1] - values[:, 2]) / (2.0 * h)
    plus, minus = values[:, 3 : 3 + 2 * dim : 2], values[:, 4 : 3 + 2 * dim : 2]
    corners = values[:, 3 + 2 * dim :].reshape(n_theta, -1, 4)
    H = np.empty((n_theta, dim, dim))
    axis = np.arange(dim)
    H[:, axis, axis] = (plus - 2.0 * f0[:, None] + minus) / h**2
    H[:, i, j] = H[:, j, i] = (
        corners[..., 0] - corners[..., 1] - corners[..., 2] + corners[..., 3]
    ) / (4.0 * h**2)
    table = kernels.Harmonics(thetas)
    expected = np.zeros((n_theta, dim, dim))
    expected[:, : 2 * rp, : 2 * rp] = kernels.realify(kernels.fourier_values(table, *cfg.metric_field.packed_prime))
    expected[:, 2 * rp :, 2 * rp :] = -kernels.realify(kernels.fourier_values(table, *cfg.metric_field.packed_second))

    worst_p = (float(np.abs([f0, dt - 1.0]).max()), float(np.abs((plus - minus) / (2.0 * h)).max()),
               float(np.abs(H - expected).max()))
    return ConditionReport(*(row.ok for row in condition_contracts(worst_p, tol)), *worst_p, samples=n_theta)


def extract_graph(cfg: ModelConfig, phi: PhiFunc, p: FiberPoint) -> float:
    """Newton-solve phi(v, t) = 0 for t in the wall interval.

    Seeded at the unperturbed graph value -(|v'|^2 - |v''|^2)/2; the
    t-derivative is taken by central differences and guarded against
    degeneracy, also at a seed that is a root.  phi is called on one lane.
    """
    lane = one_lane(p.base.theta, p.y_prime, p.y_second)
    g1, g2 = fiber_norms_batch(cfg, *lane)
    _check_domain(cfg, g1, g2)

    def phi_at(t):
        return phi(*lane, np.array([t]))[0]

    def slope(t):
        h = GRAPH_FD_STEP
        deriv = (phi_at(t + h) - phi_at(t - h)) / (2.0 * h)
        if abs(deriv) < MIN_GRAPH_DERIVATIVE:
            raise DegenerateDerivative(f"|dphi/dt| = {abs(deriv):.3g} below {MIN_GRAPH_DERIVATIVE}")
        return deriv

    t = -0.5 * (g1[0] - g2[0])
    for step in range(GRAPH_MAX_ITER):
        value = phi_at(t)
        if abs(value) <= GRAPH_NEWTON_TOL:
            if step == 0:
                slope(t)
            break
        t = t - value / slope(t)
    else:
        raise NoRoot(f"no root of phi(v, .) after {GRAPH_MAX_ITER} iterations")
    if not cfg.in_wall(t):
        raise NoRoot(f"root t = {t} lies outside the wall interval (+-{cfg.epsilon})")
    return float(t)


# ---------------------------------------------------------------------------
# Rest-term bound


class RestBoundReport(NamedTuple):
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

    if n_samples < 1:
        raise ValueError(f"n_samples = {n_samples} must be >= 1")
    rng = np.random.default_rng(seed)
    thetas, y_prime, y_second = random_domain_batch(rng, cfg, n_samples)
    g1, g2, values = _tau_lanes(cfg, cfg.perturbation.terms, thetas, y_prime, y_second)
    rest = sum(values, np.zeros(n_samples))
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
        margin_ok=Contract("margin", value, bound, gates=False).ok,
    )


# ---------------------------------------------------------------------------
# The rescaling equation


class RhoSolution(NamedTuple):
    rho: float
    residual: float
    iterations: int


def _rescale_error(prime_zero: bool, second_zero: bool, c: float) -> DegenerateBranch:
    """The error of a STATUS_NO_POSITIVE_ROOT lane, from its zero pattern alone.  Lost digits come
    first, so its |v|^2 is normal: with y'' = 0 it has no root only for chi(v) >= 0, with y' = 0
    only for chi(v) <= 0, the sign that its message names."""
    if prime_zero == second_zero:
        return DegenerateBranch("no positive root on this branch")
    block, sign = ("y''", ">=") if second_zero else ("y'", "<=")
    return DegenerateBranch(f"no positive rescaling with {block} = 0 and chi(v) = {c:.6g} {sign} 0")


def solve_rho(cfg: ModelConfig, p: FiberPoint, seed: float | None = None) -> RhoSolution:
    """Solve chi_f(rho v', rho^-1 v'') = chi(v) for the unique positive rho.

    By default rho is the closed-form root of match_lanes (0 iterations), with
    residual |alpha(rho)|.  A seed, finite and > 0, runs kernels.newton_rescale
    with the analytic derivative from it instead: beta < 0 everywhere, so every
    positive seed tends to the same root, though one many decades off can
    exhaust kernels.NEWTON_MAX_ITER and raise NoConvergence.  A refused config
    is refused first, then a bad seed, then the lane's first matching_errors
    entry (domain, lost digits, branch, wall), so it succeeds exactly when matching_map does.
    """
    check_metrics(cfg)
    if seed is not None and not 0.0 < seed < np.inf:
        raise ValueError(f"seed must be finite and > 0, got {seed}")
    m = rescale_lanes(cfg, *one_lane(p.base.theta, p.y_prime, p.y_second))
    if seed is None:
        residual = np.abs(kernels.rescale_alpha(m.rho, m.g1, m.g2, m.t))
        return RhoSolution(rho=float(m.rho[0]), residual=float(residual[0]), iterations=0)
    rho, resid, iters, status = kernels.newton_rescale(m.g1, m.g2, m.t, seed=seed)
    if status[0] != kernels.STATUS_OK:
        raise NoConvergence(f"residual {resid[0]:.3g} after {iters[0]} iterations")
    return RhoSolution(rho=float(rho[0]), residual=float(resid[0]), iterations=int(iters[0]))


def solve_rho_blowup(cfg: ModelConfig, bp) -> RhoSolution:
    """rho at a blowup point: exactly 1 on the boundary r = 0, else solve_rho at v = r w.

    The boundary lane meets the metric gate and the shape rule too; a
    BlowupPoint's direction is nonzero.  Off it, rho - 1 stays within an
    ulp of its reference while |v|^2 is a normal float (r above about 1.5e-154;
    kernels.scale_root rescales tiny coefficients); below, kernels.lost_digits refuses the lane.
    """
    p = from_blowup(bp)
    if bp.r > 0.0:
        return solve_rho(cfg, p)
    fiber_norms_batch(cfg, *one_lane(p.base.theta, p.y_prime, p.y_second))
    return RhoSolution(rho=1.0, residual=0.0, iterations=0)


# ---------------------------------------------------------------------------
# Renormalized evaluation near the zero section


def renorm_eval(
    cfg: ModelConfig,
    tau: PerturbationSpec,
    k: int,
    r: float,
    w_prime,
    w_second,
    theta: float = 0.0,
) -> float:
    """Evaluate tau(r w) / r^k, extended through r = 0.

    tau is a PerturbationSpec, expanded per degree along the ray through the
    unit direction w: tau(r w) = sum_d a_d r^d, a_d its degree-d terms at w.
    The value is sum_d a_d r^(d - k), so a_k at r = 0; a term of degree
    below k cannot satisfy |tau| <= C |v|^k and raises BoundViolated.
    (r, w) is checked as make_blowup_point checks it, and the ray point
    v = r w as taylor_rest checks it: outside the fiber domain, OutOfDomain.
    """
    if not isinstance(tau, PerturbationSpec):
        raise TypeError(f"tau must be a PerturbationSpec, got {type(tau).__name__}")
    bp = BlowupPoint(r=r, w_prime=w_prime, w_second=w_second, base=BasePoint(theta, 0.0))
    g1, g2, values = _tau_lanes(cfg, tau.terms, *one_lane(bp.base.theta, bp.w_prime, bp.w_second))
    _check_unit_norm(float(g1[0] + g2[0]))
    degrees = [t.degree for t in tau.terms]
    if any(d < k for d in degrees):
        raise BoundViolated(
            f"a term of degree {min(degrees)} cannot satisfy |tau| <= C |v|^{k}"
        )
    if _outside_domain(cfg, bp.r * bp.r * g1, bp.r * bp.r * g2)[0]:
        raise _domain_error(cfg, g1[0], g2[0], bp.r)
    # coefficients a_d of tau(r w) = sum a_d r^d along the ray through w
    coeffs: dict[int, float] = {}
    for term, value in zip(tau.terms, values):
        coeffs[term.degree] = coeffs.get(term.degree, 0.0) + float(value[0])
    return float(sum(a * bp.r ** (d - k) for d, a in coeffs.items()))


def matching_map(cfg: ModelConfig, p: FiberPoint) -> FiberPoint:
    """Carry a graph point onto the moment zero level along its orbit.

    Output (rho v', rho^-1 v'') over base (theta, t = chi(v)); the moment
    value there vanishes and the rank-one tensor is unchanged.
    """
    m = rescale_lanes(cfg, *one_lane(p.base.theta, p.y_prime, p.y_second))
    return FiberPoint(base=BasePoint(p.base.theta, m.t[0]), y_prime=m.out_prime[0], y_second=m.out_second[0])


class LaneMatch(NamedTuple):
    """Per-lane matching results; see match_lanes."""

    t: np.ndarray  # graph value chi(v), the matched base t
    g1: np.ndarray
    g2: np.ndarray
    rho: np.ndarray
    status: np.ndarray
    out_prime: np.ndarray
    out_second: np.ndarray


def match_lanes(cfg: ModelConfig, thetas, y_prime, y_second) -> LaneMatch:
    """Batch matching: chi, then the rescaling root, then the rescaled points.

    rho is the square root of kernels.scale_root of each lane's equation.  The status is the one rule
    that refuses a matched lane, first to last: STATUS_OUT_OF_DOMAIN outside the fiber domain,
    STATUS_LOST_DIGITS where kernels.lost_digits holds (the zero section too), STATUS_NO_POSITIVE_ROOT
    where scale_root gives no root, STATUS_OFF_WALL where t = chi(v) leaves the wall interval.  A refused
    lane has a NaN rho and keeps its input coordinates; no lane raises, and matching_errors names each error.
    """
    y_prime = np.asarray(y_prime, dtype=complex)
    y_second = np.asarray(y_second, dtype=complex)
    c, g1, g2 = chi_parts_batch(cfg, thetas, y_prime, y_second)
    rho = np.sqrt(kernels.scale_root(g1, g2, c))
    status = np.select([_outside_domain(cfg, g1, g2), kernels.lost_digits(g1, g2), np.isnan(rho), ~cfg.in_wall(c)],
                       [kernels.STATUS_OUT_OF_DOMAIN, kernels.STATUS_LOST_DIGITS, kernels.STATUS_NO_POSITIVE_ROOT,
                        kernels.STATUS_OFF_WALL], kernels.STATUS_OK).astype(np.int8)
    ok = status == kernels.STATUS_OK
    rho[~ok] = np.nan
    scale = np.where(ok, rho, 1.0)
    return LaneMatch(c, g1, g2, rho, status, y_prime * scale[:, None], y_second / scale[:, None])


def matching_errors(cfg: ModelConfig, m: LaneMatch) -> list:
    """Per lane of a match_lanes result, the FlipQError that its status names, or None.

    STATUS_OUT_OF_DOMAIN gives the lane's _domain_error, STATUS_LOST_DIGITS a DegenerateBranch of
    blowup._lost_digits_text and STATUS_NO_POSITIVE_ROOT its _rescale_error, both read from the input that a
    refused lane keeps in out_prime and out_second; STATUS_OFF_WALL an OutOfDomain that names its graph
    value.  It decides nothing and reads no metric: match_lanes has refused a refused field and each lane.
    """
    errors = [None] * len(m.t)
    for i in np.flatnonzero(m.status != kernels.STATUS_OK):
        yp, ys, status = m.out_prime[i], m.out_second[i], m.status[i]
        errors[i] = (_domain_error(cfg, m.g1[i], m.g2[i]) if status == kernels.STATUS_OUT_OF_DOMAIN else
                     DegenerateBranch(_lost_digits_text("the rescaling equation is", yp, ys, m.g1[i] + m.g2[i]))
                     if status == kernels.STATUS_LOST_DIGITS else
                     _rescale_error(not yp.any(), not ys.any(), m.t[i]) if status == kernels.STATUS_NO_POSITIVE_ROOT
                     else OutOfDomain(f"graph value t = {m.t[i]:.6g} leaves the wall interval (+-{cfg.epsilon})"))
    return errors


def rescale_lanes(cfg: ModelConfig, thetas, y_prime, y_second) -> LaneMatch:
    """match_lanes, raising the first lane error of matching_errors: the scalar solvers, the CLI's rays."""
    m = match_lanes(cfg, thetas, y_prime, y_second)
    for error in matching_errors(cfg, m):
        if error is not None:
            raise error
    return m


def matching_map_batch(cfg: ModelConfig, thetas, y_prime, y_second):
    """match_lanes' (rho, t, out_prime, out_second, status): no lane raises, matching_errors names each."""
    m = match_lanes(cfg, thetas, y_prime, y_second)
    return m.rho, m.t, m.out_prime, m.out_second, m.status

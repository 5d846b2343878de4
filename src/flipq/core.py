"""Model data: ranks, Hermitian metric fields over the circle, fiber points.

The base is the annulus T x (-epsilon, epsilon) with the wall at t = 0; the
wall function is the t-projection.  Metrics depend on theta only, each value
a Hermitian positive-definite matrix, given as a finite matrix-valued
Fourier series.  Fibers carry the weight (+1, -1) scaling action
zeta . (y', y'') = (zeta y', zeta^-1 y'').
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .errors import ConfigInvalid, DimensionMismatch, ZeroScalar

if TYPE_CHECKING:  # pragma: no cover
    from .perturbation import PerturbationSpec

TWO_PI = 2.0 * np.pi

HERMITIAN_TOL = 1e-14
VALIDATION_THETA_SAMPLES = 64


def _frozen_complex_vector(v) -> np.ndarray:
    arr = np.array(v, dtype=np.complex128)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _frozen_complex_matrix(m) -> np.ndarray:
    arr = np.array(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class BasePoint:
    """Point (theta, t) of the base annulus; theta is reduced mod 2*pi."""

    theta: float
    t: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)
        object.__setattr__(self, "t", float(self.t))


@dataclass(frozen=True, eq=False)
class MetricFieldSpec:
    """Pair of matrix-valued Fourier series g'(theta), g''(theta).

    Each series is a tuple of (harmonic n, cosine matrix, sine matrix);
    constant fields are a single n = 0 term.  Coefficient matrices must be
    Hermitian so every sampled value is Hermitian.
    """

    kind: str
    g_prime_terms: tuple[tuple[int, np.ndarray, np.ndarray], ...]
    g_second_terms: tuple[tuple[int, np.ndarray, np.ndarray], ...]

    @staticmethod
    def _normalize_terms(terms):
        out = []
        for entry in terms:
            if len(entry) == 2:
                n, cos_mat = entry
                sin_mat = None
            else:
                n, cos_mat, sin_mat = entry
            cos_mat = _frozen_complex_matrix(cos_mat)
            if sin_mat is None:
                sin_mat = np.zeros_like(cos_mat)
                sin_mat.flags.writeable = False
            else:
                sin_mat = _frozen_complex_matrix(sin_mat)
            out.append((int(n), cos_mat, sin_mat))
        return tuple(out)

    @classmethod
    def constant(cls, g_prime, g_second) -> "MetricFieldSpec":
        return cls(
            kind="constant",
            g_prime_terms=cls._normalize_terms([(0, g_prime)]),
            g_second_terms=cls._normalize_terms([(0, g_second)]),
        )

    @classmethod
    def fourier(cls, g_prime_terms, g_second_terms) -> "MetricFieldSpec":
        return cls(
            kind="fourier",
            g_prime_terms=cls._normalize_terms(g_prime_terms),
            g_second_terms=cls._normalize_terms(g_second_terms),
        )

    @classmethod
    def identity(cls, r_prime: int, r_second: int) -> "MetricFieldSpec":
        return cls.constant(np.eye(r_prime), np.eye(r_second))

    def g_prime_at(self, theta: float) -> np.ndarray:
        return metric_matrices_batch(self.g_prime_terms, [theta])[0]

    def g_second_at(self, theta: float) -> np.ndarray:
        return metric_matrices_batch(self.g_second_terms, [theta])[0]

    @staticmethod
    def _pack(terms):
        ns = np.array([float(n) for n, _, _ in terms])
        cos_mats = np.stack([c for _, c, _ in terms])
        sin_mats = np.stack([s for _, _, s in terms])
        return ns, cos_mats, sin_mats

    @cached_property
    def packed_prime(self):
        return self._pack(self.g_prime_terms)

    @cached_property
    def packed_second(self):
        return self._pack(self.g_second_terms)

    @cached_property
    def norm_forms_prime(self):
        return kernels.norm_forms(*self.packed_prime)

    @cached_property
    def norm_forms_second(self):
        return kernels.norm_forms(*self.packed_second)


@dataclass(frozen=True, eq=False)
class ModelConfig:
    """Ranks, wall half-width, metric field, perturbation, and fiber domain."""

    r_prime: int
    r_second: int
    epsilon: float
    metric_field: MetricFieldSpec
    perturbation: "PerturbationSpec"
    domain_radius: float

    def base_point(self, theta: float, t: float) -> BasePoint:
        if not abs(t) < self.epsilon:
            raise ConfigInvalid(
                f"|t| = {abs(t)} must be below the wall half-width {self.epsilon}"
            )
        return BasePoint(theta, t)

    def fiber_point(self, theta, t, y_prime, y_second) -> "FiberPoint":
        return FiberPoint(
            base=self.base_point(theta, t),
            y_prime=_check_length(_frozen_complex_vector(y_prime), self.r_prime, "y_prime"),
            y_second=_check_length(_frozen_complex_vector(y_second), self.r_second, "y_second"),
        )


@dataclass(frozen=True, eq=False)
class FiberPoint:
    """Base point plus complex fiber coordinates (y', y'')."""

    base: BasePoint
    y_prime: np.ndarray
    y_second: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y_prime", _frozen_complex_vector(self.y_prime))
        object.__setattr__(self, "y_second", _frozen_complex_vector(self.y_second))


def _check_length(v: np.ndarray, n: int, name: str) -> np.ndarray:
    if v.shape[0] != n:
        raise DimensionMismatch(f"{name} has length {v.shape[0]}, expected {n}")
    return v


def _hermitian_pd_faults(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix of a stack (n, r, r): (not Hermitian, not positive definite)."""
    # negated passes: NaN compares false, so a non-finite matrix fails both
    not_hermitian = ~(np.abs(G - np.swapaxes(G.conj(), -1, -2)).max(axis=(-2, -1)) <= HERMITIAN_TOL)
    not_pd = ~(np.linalg.eigvalsh(G).min(axis=-1) > 0.0)
    return not_hermitian, not_pd


def _check_hermitian_pd(G: np.ndarray, label: str) -> None:
    not_hermitian, not_pd = _hermitian_pd_faults(G[None])
    if not_hermitian[0]:
        raise ConfigInvalid(f"{label} is not Hermitian (tolerance {HERMITIAN_TOL})")
    if not_pd[0]:
        raise ConfigInvalid(f"{label} is not positive definite")


def metric_at(cfg: ModelConfig, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Metric pair (G'(theta), G''(theta)); checks Hermitian positivity."""
    G1 = cfg.metric_field.g_prime_at(theta)
    G2 = cfg.metric_field.g_second_at(theta)
    _check_hermitian_pd(G1, f"g_prime({theta})")
    _check_hermitian_pd(G2, f"g_second({theta})")
    if G1.shape[0] != cfg.r_prime or G2.shape[0] != cfg.r_second:
        raise DimensionMismatch(
            f"metric sizes {G1.shape[0]}/{G2.shape[0]} do not match ranks "
            f"{cfg.r_prime}/{cfg.r_second}"
        )
    return G1, G2


def metric_matrices_batch(terms, thetas) -> np.ndarray:
    """Values (n, r, r) of one metric Fourier series at each theta."""
    thetas = np.asarray(thetas, dtype=float)
    r = terms[0][1].shape[0]
    out = np.zeros((thetas.shape[0], r, r), dtype=complex)
    for n, cos_mat, sin_mat in terms:
        out += np.cos(n * thetas)[:, None, None] * cos_mat
        out += np.sin(n * thetas)[:, None, None] * sin_mat
    return out


def metric_faults_batch(cfg: ModelConfig, thetas) -> np.ndarray:
    """Lanes whose theta fails the Hermitian-PD check of metric_at, in one eigvalsh pass."""
    faults = np.zeros(np.shape(thetas)[0], dtype=bool)
    for terms in (cfg.metric_field.g_prime_terms, cfg.metric_field.g_second_terms):
        not_hermitian, not_pd = _hermitian_pd_faults(metric_matrices_batch(terms, thetas))
        faults |= not_hermitian | not_pd
    return faults


def herm_inner(G: np.ndarray, u: np.ndarray, v: np.ndarray) -> complex:
    """Hermitian pairing conj(u)^T G v (antilinear in u)."""
    G = np.asarray(G)
    u = np.asarray(u)
    v = np.asarray(v)
    if G.shape != (u.shape[0], v.shape[0]):
        raise DimensionMismatch(
            f"shapes G{G.shape}, u({u.shape[0]},), v({v.shape[0]},) do not align"
        )
    return complex(u.conj() @ G @ v)


def norm_sq(G: np.ndarray, u: np.ndarray) -> float:
    return herm_inner(G, u, u).real


def fiber_norms(cfg: ModelConfig, p: FiberPoint) -> tuple[float, float]:
    """Metric norms squared (|y'|^2, |y''|^2) at the point's theta."""
    G1, G2 = metric_at(cfg, p.base.theta)
    return norm_sq(G1, p.y_prime), norm_sq(G2, p.y_second)


def fiber_norms_batch(cfg: ModelConfig, thetas, y_prime, y_second):
    """Vectorized metric norms squared over point batches (kernel-backed)."""
    ap = kernels.fourier_norm_sq(thetas, y_prime, *cfg.metric_field.norm_forms_prime)
    app = kernels.fourier_norm_sq(thetas, y_second, *cfg.metric_field.norm_forms_second)
    return ap, app


def cstar_act(zeta: complex, p: FiberPoint) -> FiberPoint:
    """Scaling action zeta . (y', y'') = (zeta y', zeta^-1 y''); base fixed."""
    zeta = complex(zeta)
    if zeta == 0:
        raise ZeroScalar("the scaling action requires zeta != 0")
    return FiberPoint(base=p.base, y_prime=zeta * p.y_prime, y_second=p.y_second / zeta)


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.issues

    def codes(self) -> tuple[str, ...]:
        return tuple(i.code for i in self.issues)


def validate_config(cfg: ModelConfig) -> ValidationReport:
    """Structural checks: ranks, positivity on a theta grid, perturbation order."""
    issues: list[ValidationIssue] = []
    if cfg.r_prime < 1:
        issues.append(ValidationIssue("RankViolation", f"r_prime = {cfg.r_prime} must be >= 1"))
    if cfg.r_second < 1:
        issues.append(ValidationIssue("RankViolation", f"r_second = {cfg.r_second} must be >= 1"))
    if not (np.isfinite(cfg.epsilon) and cfg.epsilon > 0):
        issues.append(ValidationIssue("EpsilonViolation", f"epsilon = {cfg.epsilon} must be finite and > 0"))
    # the fiber domain test compares |v|^2 against domain_radius^2
    radius = float(cfg.domain_radius)
    if not (np.isfinite(radius * radius) and radius > 0):
        issues.append(
            ValidationIssue("DomainRadiusViolation",
                            f"domain_radius = {cfg.domain_radius} must be > 0 with a finite square")
        )

    for label, terms, rank in (
        ("g_prime", cfg.metric_field.g_prime_terms, cfg.r_prime),
        ("g_second", cfg.metric_field.g_second_terms, cfg.r_second),
    ):
        if rank < 1:
            continue  # already reported as a rank violation
        evaluable = True
        for n, cos_mat, sin_mat in terms:
            for mat in (cos_mat, sin_mat):
                if mat.shape != (rank, rank):
                    issues.append(
                        ValidationIssue(
                            "MetricShapeViolation",
                            f"{label} harmonic {n} has shape {mat.shape}, expected {(rank, rank)}",
                        )
                    )
                    evaluable = False
                elif not np.isfinite(mat).all():
                    issues.append(
                        ValidationIssue("MetricFiniteViolation", f"{label} harmonic {n} has a non-finite entry")
                    )
                    evaluable = False
        if not evaluable:
            continue
        thetas = np.linspace(0.0, TWO_PI, VALIDATION_THETA_SAMPLES, endpoint=False)
        not_hermitian, not_pd = _hermitian_pd_faults(metric_matrices_batch(terms, thetas))
        bad = np.flatnonzero(not_hermitian | not_pd)
        if bad.size:  # report the first faulty theta only
            k = bad[0]
            if not_hermitian[k]:
                issues.append(
                    ValidationIssue("HermitianViolation", f"{label}({thetas[k]:.4f}) is not Hermitian")
                )
            else:
                issues.append(
                    ValidationIssue(
                        "PositivityViolation", f"{label}({thetas[k]:.4f}) has a non-positive eigenvalue"
                    )
                )

    from .perturbation import validate_perturbation

    issues.extend(validate_perturbation(cfg.perturbation, cfg.r_prime))
    return ValidationReport(issues=tuple(issues))


def min_metric_eigenvalue(cfg: ModelConfig, n_theta: int = VALIDATION_THETA_SAMPLES) -> float:
    """Smallest eigenvalue of either metric block over a theta grid."""
    thetas = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    return float(min(np.linalg.eigvalsh(metric_matrices_batch(terms, thetas)).min()
                     for terms in (cfg.metric_field.g_prime_terms, cfg.metric_field.g_second_terms)))

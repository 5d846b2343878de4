"""Model data: ranks, Hermitian metric fields over the circle, fiber points.

The base is the annulus T x (-epsilon, epsilon) with the wall at t = 0; the
wall function is the t-projection.  Metrics depend on theta only, each value
a Hermitian positive-definite matrix, given as a finite matrix-valued
Fourier series.  Fibers carry the weight (+1, -1) scaling action
zeta . (y', y'') = (zeta y', zeta^-1 y'').
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import kernels
from .errors import ConfigInvalid, DimensionMismatch, FlipQError, ZeroScalar

if TYPE_CHECKING:  # pragma: no cover
    from .perturbation import PerturbationSpec

TWO_PI = 2.0 * np.pi

HERMITIAN_TOL = 1e-14
VALIDATION_THETA_SAMPLES = 64
VALIDATION_THETAS = np.linspace(0.0, TWO_PI, VALIDATION_THETA_SAMPLES, endpoint=False)
VALIDATION_THETAS.flags.writeable = False


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
            g_prime_terms=cls._normalize_terms([(0, g_prime)]),
            g_second_terms=cls._normalize_terms([(0, g_second)]),
        )

    @classmethod
    def fourier(cls, g_prime_terms, g_second_terms) -> "MetricFieldSpec":
        return cls(
            g_prime_terms=cls._normalize_terms(g_prime_terms),
            g_second_terms=cls._normalize_terms(g_second_terms),
        )

    @classmethod
    def identity(cls, r_prime: int, r_second: int) -> "MetricFieldSpec":
        return cls.constant(np.eye(r_prime), np.eye(r_second))

    @staticmethod
    def _pack(terms):
        return kernels.pack_field([n for n, _, _ in terms], np.stack([c for _, c, _ in terms]),
                                  np.stack([s for _, _, s in terms]))

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


def _metric_codes(cfg: ModelConfig, thetas) -> np.ndarray:
    """The metric rule at each of thetas: 0 where it passes, else 1 + the index of the first failed
    check of: g' Hermitian, g' positive definite, g'' Hermitian, g'' positive definite, block sizes
    equal to the ranks."""
    table = kernels.Harmonics(thetas)
    failed = []
    for packed in (cfg.metric_field.packed_prime, cfg.metric_field.packed_second):
        failed.extend(_hermitian_pd_faults(kernels.fourier_values(table, *packed)))
    failed.append(np.full(table.thetas.shape, _metric_sizes(cfg) != (cfg.r_prime, cfg.r_second)))
    failed = np.array(failed)
    return np.where(failed.any(axis=0), failed.argmax(axis=0) + 1, 0)


def _metric_sizes(cfg: ModelConfig) -> tuple[int, int]:
    return cfg.metric_field.packed_prime[-1].shape[-1], cfg.metric_field.packed_second[-1].shape[-1]


def metric_error(cfg: ModelConfig, theta: float, code: int) -> FlipQError:
    """The error of a nonzero metric code at theta: the one place the metric messages are written."""
    if code == 5:
        prime, second = _metric_sizes(cfg)
        return DimensionMismatch(f"metric sizes {prime}/{second} do not match ranks {cfg.r_prime}/{cfg.r_second}")
    label = "g_prime" if code <= 2 else "g_second"
    fault = "positive definite" if code % 2 == 0 else f"Hermitian (tolerance {HERMITIAN_TOL})"
    return ConfigInvalid(f"{label}({theta}) is not {fault}")


@lru_cache(maxsize=4096)
def _metrics_cached(cfg: ModelConfig, theta: float) -> int:
    """The metric code at theta, remembered per (config, theta): a repeated theta pays no eigvalsh."""
    return int(_metric_codes(cfg, [theta])[0])


def metric_codes(cfg: ModelConfig, thetas) -> np.ndarray:
    """The metric code of each lane's theta: a batch on one theta is one _metrics_cached lookup,
    any other batch one _metric_codes pass over its distinct thetas."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size and (thetas == thetas[0]).all():
        return np.full(thetas.shape[0], _metrics_cached(cfg, float(thetas[0])))
    distinct, lanes = np.unique(thetas, return_inverse=True)
    return _metric_codes(cfg, distinct)[lanes]


def check_metrics(cfg: ModelConfig, thetas) -> None:
    """Raise the metric_error of the first lane, in lane order, whose theta fails the metric rule."""
    codes = metric_codes(cfg, thetas)
    faults = np.flatnonzero(codes)
    if faults.size:
        raise metric_error(cfg, float(np.asarray(thetas, dtype=float)[faults[0]]), int(codes[faults[0]]))


def metric_at(cfg: ModelConfig, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Metric pair (G'(theta), G''(theta)), after check_metrics at theta."""
    check_metrics(cfg, [theta])
    return tuple(kernels.fourier_values([theta], *packed)[0]
                 for packed in (cfg.metric_field.packed_prime, cfg.metric_field.packed_second))


def one_lane(cfg: ModelConfig, theta: float, y_prime, y_second):
    """One fiber vector as a batch (thetas, y', y'') of one lane, after check_metrics at theta."""
    check_metrics(cfg, [theta])
    y_prime = _check_length(np.asarray(y_prime, dtype=complex), cfg.r_prime, "y_prime")
    y_second = _check_length(np.asarray(y_second, dtype=complex), cfg.r_second, "y_second")
    return np.array([theta], dtype=float), y_prime[None], y_second[None]


def fiber_norms(cfg: ModelConfig, p: FiberPoint) -> tuple[float, float]:
    """Metric norms squared (|y'|^2, |y''|^2) at the point's theta."""
    g1, g2 = fiber_norms_batch(cfg, *one_lane(cfg, p.base.theta, p.y_prime, p.y_second))
    return float(g1[0]), float(g2[0])


def fiber_norms_batch(cfg: ModelConfig, thetas, y_prime, y_second):
    """Vectorized metric norms squared over point batches (kernel-backed).

    thetas may be a kernels.Harmonics table that the caller shares with its other kernels.
    """
    table = kernels.harmonics(thetas)
    ap = kernels.fourier_norm_sq(table, y_prime, *cfg.metric_field.norm_forms_prime)
    app = kernels.fourier_norm_sq(table, y_second, *cfg.metric_field.norm_forms_second)
    return ap, app


def cstar_act(zeta: complex, p: FiberPoint) -> FiberPoint:
    """Scaling action zeta . (y', y'') = (zeta y', zeta^-1 y''); base fixed."""
    zeta = complex(zeta)
    if zeta == 0:
        raise ZeroScalar("the scaling action requires zeta != 0")
    return FiberPoint(base=p.base, y_prime=zeta * p.y_prime, y_second=p.y_second / zeta)


class ValidationIssue(NamedTuple):
    code: str
    message: str


class ValidationReport(NamedTuple):
    issues: tuple[ValidationIssue, ...] = ()

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
    # the scan grid spans the wall interval (-epsilon, epsilon), 2 epsilon wide
    epsilon = float(cfg.epsilon)
    if not (np.isfinite(2.0 * epsilon) and epsilon > 0):
        issues.append(ValidationIssue("EpsilonViolation",
                                      f"epsilon = {cfg.epsilon} must be > 0 with a finite 2*epsilon"))
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
        thetas = VALIDATION_THETAS
        not_hermitian, not_pd = _hermitian_pd_faults(kernels.fourier_values(thetas, *MetricFieldSpec._pack(terms)))
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


def min_metric_eigenvalue(cfg: ModelConfig) -> float:
    """Smallest eigenvalue of either metric block over the validation theta grid."""
    table = kernels.Harmonics(VALIDATION_THETAS)
    return float(min(np.linalg.eigvalsh(kernels.fourier_values(table, *packed)).min()
                     for packed in (cfg.metric_field.packed_prime, cfg.metric_field.packed_second)))

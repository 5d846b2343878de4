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

    def in_wall(self, t):
        """Whether t lies in the open wall interval (-epsilon, epsilon), elementwise; NaN does not."""
        return np.abs(t) < self.epsilon

    def base_point(self, theta: float, t: float) -> BasePoint:
        if not self.in_wall(t):
            raise ConfigInvalid(f"|t| = {abs(t)} must be below the wall half-width {self.epsilon}")
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
    if v.shape[-1] != n:
        raise DimensionMismatch(f"{name} has length {v.shape[-1]}, expected {n}")
    return v


CERTIFY_MAX_THETAS = 16384  # the grid certificate's cap on thetas per metric block


def _min_eigenvalues(packed, thetas) -> np.ndarray:
    """The smallest eigenvalue of a packed block at each theta, kernels.BLOCK_LANES thetas at a time."""
    return np.concatenate([np.linalg.eigvalsh(kernels.fourier_values(thetas[i:i + kernels.BLOCK_LANES], *packed))
                           .min(axis=-1) for i in range(0, len(thetas), kernels.BLOCK_LANES)])


def _certify_block(label: str, packed) -> tuple[tuple | None, float]:
    """(fault or None, least eigenvalue on VALIDATION_THETAS) of one packed metric block.

    Hermitian coefficients make every value Hermitian.  G = C_0 + sum_m cos(m theta) C_m
    + sin(m theta) S_m (m = |n|) is positive definite on the whole circle if the Weyl bound
    lambda_min(C_0) - sum_m sqrt(|C_m|^2 + |S_m|^2) is positive, or if lambda_min on a grid of M
    thetas exceeds L pi / M, L = sum_m m (|C_m| + |S_m|) being the Lipschitz constant of lambda_min;
    M doubles from the validation grid up to CERTIFY_MAX_THETAS.  Each |.| is the largest |eigenvalue|.
    """
    ns, sines, coeffs = packed
    # a negated pass: NaN compares false, so a non-finite coefficient fails
    hermitian = np.abs(coeffs - coeffs.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0) <= HERMITIAN_TOL
    if not hermitian.all():
        k = int(np.argmin(hermitian))
        return (label, "hermitian", ns[k], sines[k]), np.nan
    orders = sorted({abs(n) for n in ns} | {0.0})
    parts = np.zeros((len(orders), 2) + coeffs.shape[1:], dtype=coeffs.dtype)  # [C_m, S_m] per order m
    for n, sine, coeff in zip(ns, sines, coeffs):  # cos(-n theta) = cos(n theta), sin(-n theta) = -sin(n theta)
        parts[orders.index(abs(n)), int(sine)] += -coeff if sine and n < 0 else coeff
    norms = np.abs(np.linalg.eigvalsh(parts[1:])).max(axis=-1)
    weyl = np.linalg.eigvalsh(parts[0, 0]).min() - np.hypot(*norms.T).sum()
    lipschitz = (np.array(orders[1:]) * norms.sum(axis=-1)).sum()

    thetas, m = VALIDATION_THETAS, VALIDATION_THETA_SAMPLES
    lam = _min_eigenvalues(packed, thetas)
    grid_min = low = float(lam.min())
    while True:
        faulty = np.flatnonzero(~(lam > 0.0))
        if faulty.size:
            return (label, "indefinite", float(thetas[faulty[0]])), grid_min
        low = min(low, float(lam.min()))
        margin = lipschitz * np.pi / m
        if weyl > 0.0 or low > margin:
            return None, grid_min
        if 2 * m > CERTIFY_MAX_THETAS:
            return (label, "undecided", m, low, margin), grid_min
        # the doubled grid's new thetas: the midpoints of the current one
        m *= 2
        thetas = np.linspace(0.0, TWO_PI, m, endpoint=False)[1::2]
        lam = _min_eigenvalues(packed, thetas)


@lru_cache(maxsize=1024)
def _metrics_cached(field: MetricFieldSpec) -> tuple[tuple, float]:
    """A metric field's certificate, computed on its first lookup: (the faults of g' then g'', the least
    eigenvalue of either block on VALIDATION_THETAS)."""
    (prime, prime_min), (second, second_min) = (_certify_block("g_prime", field.packed_prime),
                                                _certify_block("g_second", field.packed_second))
    return tuple(fault for fault in (prime, second) if fault), min(prime_min, second_min)


def _metric_sizes(cfg: ModelConfig) -> tuple[int, int]:
    return cfg.metric_field.packed_prime[-1].shape[-1], cfg.metric_field.packed_second[-1].shape[-1]


def metric_error(cfg: ModelConfig, fault: tuple) -> FlipQError:
    """The error of a metric fault: the one place the metric messages are written."""
    label, kind, *detail = fault
    if kind == "sizes":
        prime, second = _metric_sizes(cfg)
        return DimensionMismatch(f"metric sizes {prime}/{second} do not match ranks {cfg.r_prime}/{cfg.r_second}")
    if kind == "hermitian":
        n, sine = detail
        return ConfigInvalid(f"{label} harmonic {int(n)} {'sin' if sine else 'cos'} coefficient is not Hermitian "
                             f"(tolerance {HERMITIAN_TOL})")
    if kind == "indefinite":
        return ConfigInvalid(f"{label}({detail[0]}) is not positive definite")
    thetas, low, margin = detail
    return ConfigInvalid(f"{label} is not certified positive definite: its smallest eigenvalue on {thetas} "
                         f"grid thetas, {low:.6g}, does not exceed the Lipschitz margin {margin:.6g}")


def check_metrics(cfg: ModelConfig) -> tuple[tuple, float]:
    """Raise the metric_error of cfg's first metric fault: g', then g'' (one _metrics_cached lookup),
    then block sizes that differ from the ranks.  Returns the certificate."""
    faults, grid_min = _metrics_cached(cfg.metric_field)
    if faults:
        raise metric_error(cfg, faults[0])
    if _metric_sizes(cfg) != (cfg.r_prime, cfg.r_second):
        raise metric_error(cfg, ("metric", "sizes"))
    return faults, grid_min


def metric_at(cfg: ModelConfig, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Metric pair (G'(theta), G''(theta)), after check_metrics."""
    check_metrics(cfg)
    return tuple(kernels.fourier_values([theta], *packed)[0]
                 for packed in (cfg.metric_field.packed_prime, cfg.metric_field.packed_second))


def one_lane(theta: float, y_prime, y_second):
    """One fiber vector as a batch (thetas, y', y'') of one lane."""
    return (np.array([theta], dtype=float), np.asarray(y_prime, dtype=complex)[None],
            np.asarray(y_second, dtype=complex)[None])


def lane_values(name: str, values, n: int) -> np.ndarray:
    """values as one float per lane, shape (n,): the shape rule of the t lanes."""
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise DimensionMismatch(f"{name} has shape {values.shape}, expected ({n},)")
    return values


def fiber_norms(cfg: ModelConfig, p: FiberPoint) -> tuple[float, float]:
    """Metric norms squared (|y'|^2, |y''|^2) at the point's theta."""
    g1, g2 = fiber_norms_batch(cfg, *one_lane(p.base.theta, p.y_prime, p.y_second))
    return float(g1[0]), float(g2[0])


def fiber_norms_batch(cfg: ModelConfig, thetas, y_prime, y_second):
    """Vectorized metric norms squared over point batches (kernel-backed).

    thetas may be a kernels.Harmonics table that the caller shares with its other kernels.  Every
    evaluated lane enters here, so here are the metric gate (check_metrics refuses a refused field,
    whatever the lanes) and the batch shape rule: y' (n, r'), y'' (n, r''), n = len(thetas).
    """
    check_metrics(cfg)
    table = kernels.harmonics(thetas)
    if table.thetas.ndim != 1:
        raise DimensionMismatch(f"thetas has shape {table.thetas.shape}, expected a vector")
    for name, y, rank in (("y_prime", y_prime, cfg.r_prime), ("y_second", y_second, cfg.r_second)):
        if np.ndim(y) != 2 or len(y) != len(table):
            raise DimensionMismatch(f"{name} has shape {np.shape(y)}, expected ({len(table)}, {rank})")
        _check_length(np.asarray(y), rank, name)
    ap = kernels.fourier_norm_sq(table, y_prime, *cfg.metric_field.norm_forms_prime)
    app = kernels.fourier_norm_sq(table, y_second, *cfg.metric_field.norm_forms_second)
    return ap, app


def _cstar_scalar(zeta) -> complex:
    """zeta as a complex number of the scaling group C*: finite and nonzero, else ZeroScalar."""
    zeta = complex(zeta)
    if zeta == 0 or not np.isfinite(zeta):
        raise ZeroScalar(f"the scaling action requires a finite zeta != 0, got {zeta}")
    return zeta


def cstar_act(zeta: complex, p: FiberPoint) -> FiberPoint:
    """Scaling action zeta . (y', y'') = (zeta y', zeta^-1 y''); base fixed."""
    zeta = _cstar_scalar(zeta)
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
    """Structural checks: ranks, the metric certificate (check_metrics), perturbation order."""
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
        issues.append(ValidationIssue("DomainRadiusViolation",
                                      f"domain_radius = {cfg.domain_radius} must be > 0 with a finite square"))

    before = len(issues)
    for label, terms, rank in (("g_prime", cfg.metric_field.g_prime_terms, cfg.r_prime),
                               ("g_second", cfg.metric_field.g_second_terms, cfg.r_second)):
        for n, *mats in terms if rank >= 1 else ():  # a rank below 1 is already reported
            for mat in mats:
                if mat.shape != (rank, rank):
                    issues.append(ValidationIssue("MetricShapeViolation", f"{label} harmonic {n} has shape "
                                                  f"{mat.shape}, expected {(rank, rank)}"))
                elif not np.isfinite(mat).all():
                    issues.append(ValidationIssue("MetricFiniteViolation",
                                                  f"{label} harmonic {n} has a non-finite entry"))
    # the certificate needs both blocks finite and of their rank's shape
    evaluable = cfg.r_prime >= 1 and cfg.r_second >= 1 and len(issues) == before
    for fault in _metrics_cached(cfg.metric_field)[0] if evaluable else ():
        code = "HermitianViolation" if fault[1] == "hermitian" else "PositivityViolation"
        issues.append(ValidationIssue(code, str(metric_error(cfg, fault))))

    from .perturbation import validate_perturbation

    issues.extend(validate_perturbation(cfg.perturbation, cfg.r_prime))
    return ValidationReport(issues=tuple(issues))


def min_metric_eigenvalue(cfg: ModelConfig) -> float:
    """Smallest eigenvalue of either metric block over the validation theta grid, from the certificate."""
    return check_metrics(cfg)[1]

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
from .errors import ConfigInvalid, DimensionMismatch, ZeroScalar

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
    Hermitian so every sampled value is Hermitian.  The constructor takes
    (n, cos) or (n, cos, sin) entries and normalizes them.
    """

    g_prime_terms: tuple[tuple[int, np.ndarray, np.ndarray], ...]
    g_second_terms: tuple[tuple[int, np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        for name in ("g_prime_terms", "g_second_terms"):
            object.__setattr__(self, name, self._normalize_terms(getattr(self, name)))

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
            if not float(n).is_integer():
                raise ConfigInvalid(f"harmonic n = {n} must be an integer")
            out.append((int(n), cos_mat, sin_mat))
        if not out:
            raise ConfigInvalid("a metric block needs at least one harmonic")
        return tuple(out)

    @classmethod
    def constant(cls, g_prime, g_second) -> "MetricFieldSpec":
        return cls(g_prime_terms=[(0, g_prime)], g_second_terms=[(0, g_second)])

    @classmethod
    def fourier(cls, g_prime_terms, g_second_terms) -> "MetricFieldSpec":
        return cls(g_prime_terms=g_prime_terms, g_second_terms=g_second_terms)

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
    """The smallest eigenvalue of a packed block at each theta, in the kernels.lane_blocks of the thetas."""
    return np.concatenate([np.linalg.eigvalsh(kernels.fourier_values(thetas[block], *packed)).min(axis=-1)
                           for block in kernels.lane_blocks(len(thetas))])


def _certify_block(label: str, packed) -> tuple[ValidationIssue | None, float]:
    """(issue or None, least eigenvalue on VALIDATION_THETAS) of one packed metric block.

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
        return ValidationIssue("HermitianViolation", f"{label} harmonic {int(ns[k])} {'sin' if sines[k] else 'cos'} "
                               f"coefficient is not Hermitian (tolerance {HERMITIAN_TOL})"), np.nan
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
            return ValidationIssue("PositivityViolation",
                                   f"{label}({float(thetas[faulty[0]])}) is not positive definite"), grid_min
        low = min(low, float(lam.min()))
        margin = lipschitz * np.pi / m
        if weyl > 0.0 or low > margin:
            return None, grid_min
        if 2 * m > CERTIFY_MAX_THETAS:
            return ValidationIssue("PositivityViolation", f"{label} is not certified positive definite: its smallest "
                                   f"eigenvalue on {m} grid thetas, {low:.6g}, does not exceed the Lipschitz margin "
                                   f"{margin:.6g}"), grid_min
        # the doubled grid's new thetas: the midpoints of the current one
        m *= 2
        thetas = np.linspace(0.0, TWO_PI, m, endpoint=False)[1::2]
        lam = _min_eigenvalues(packed, thetas)


def check_metrics(cfg: ModelConfig) -> tuple[tuple, float]:
    """Raise validate_config's first issue of cfg, read in one _metrics_cached lookup: DimensionMismatch
    for a MetricShapeViolation, else ConfigInvalid, with the issue's message.  Returns ((), the least
    eigenvalue of either metric block on VALIDATION_THETAS)."""
    issues, grid_min = _metrics_cached(cfg)
    if issues:
        code, message = issues[0]
        raise (DimensionMismatch if code == "MetricShapeViolation" else ConfigInvalid)(message)
    return issues, grid_min


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
    evaluated lane enters here, so here are the config gate (check_metrics refuses what validate_config
    refuses, whatever the lanes) and the batch shape rule: y' (n, r'), y'' (n, r''), n = len(thetas), with
    thetas a vector (kernels.Harmonics refuses any other).
    """
    check_metrics(cfg)
    table = kernels.harmonics(thetas)
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


def validate_config(cfg: ModelConfig) -> ValidationReport:
    """Structural checks: ranks, epsilon, domain_radius, the metric (shapes, then its certificate),
    the perturbation terms; computed once per config."""
    return ValidationReport(issues=_metrics_cached(cfg)[0])


@lru_cache(maxsize=1024)
def _metrics_cached(cfg: ModelConfig) -> tuple[tuple[ValidationIssue, ...], float]:
    """cfg's validation issues and the least eigenvalue of either metric block on VALIDATION_THETAS,
    computed on cfg's first lookup: the one config rule, read by validate_config and check_metrics."""
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

    grid_min = np.inf
    for label, terms, rank in (("g_prime", cfg.metric_field.g_prime_terms, cfg.r_prime),
                               ("g_second", cfg.metric_field.g_second_terms, cfg.r_second)):
        if rank < 1:  # already reported
            continue
        faults = []
        for n, *mats in terms:
            shape = next((mat.shape for mat in mats if mat.shape != (rank, rank)), None)
            if shape:
                faults.append(ValidationIssue("MetricShapeViolation",
                                              f"{label} harmonic {n} has shape {shape}, expected {(rank, rank)}"))
            elif not np.isfinite(mats).all():
                faults.append(ValidationIssue("MetricFiniteViolation", f"{label} harmonic {n} has a non-finite entry"))
        if not faults:  # the certificate needs the block finite and of its rank's shape
            fault, low = _certify_block(label, MetricFieldSpec._pack(terms))
            faults = [fault] if fault else []
            grid_min = min(grid_min, low)
        issues += faults

    from .perturbation import validate_perturbation

    issues.extend(validate_perturbation(cfg.perturbation, cfg.r_prime))
    return tuple(issues), grid_min


def min_metric_eigenvalue(cfg: ModelConfig) -> float:
    """Smallest eigenvalue of either metric block over the validation theta grid, from the certificate."""
    return check_metrics(cfg)[1]

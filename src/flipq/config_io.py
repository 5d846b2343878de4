"""Config ingestion: one JSON document per run.

Schema (complex entries are numbers or [re, im] pairs):

    {
      "ranks": {"r_prime": 2, "r_second": 1},
      "epsilon": 0.5,
      "domain_radius": 0.8,
      "metrics": {"kind": "constant", "g_prime": [[1]], "g_second": [[1]]}
                 | {"kind": "fourier",
                    "g_prime": [{"n": 0, "cos": [[2]]}, {"n": 1, "sin": [[0.5]]}], ...},
      "perturbation": {"terms": [{"generators": {"mixed": 1},
                                  "coeff_fourier": [0.1],
                                  "ref_section": null}]},
      "phi": {"kind": "graph"}
             | {"kind": "quadratic", "coeff_prime": 1.0, "coeff_second": -1.0},
      "seed": 1234
    }
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import MetricFieldSpec, ModelConfig, validate_config
from .errors import ConfigInvalid, ConfigParse
from .perturbation import PerturbationSpec, PerturbationTerm, PhiFunc, phi_graph, phi_quadratic

_GENERATOR_KEYS = ("norm_prime_sq", "norm_second_sq", "ref_inner_sq", "mixed")


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def _is_number(x) -> bool:
    # JSON true/false decode to bool, a subclass of int: not a number here
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _float(x, where: str) -> float:
    # a JSON integer has no size limit; past the float range float() overflows
    try:
        return float(x)
    except OverflowError:
        raise ConfigInvalid(f"{where} is an integer outside the float range") from None


def parse_complex(x) -> complex:
    if _is_number(x):
        return complex(_float(x, "complex entry"), 0.0)
    if isinstance(x, (list, tuple)) and len(x) == 2 and all(_is_number(v) for v in x):
        return complex(_float(x[0], "complex entry"), _float(x[1], "complex entry"))
    raise ConfigInvalid(f"expected a number or [re, im] pair, got {x!r}")


def parse_vector(x) -> np.ndarray:
    if not isinstance(x, list):
        raise ConfigInvalid(f"expected a vector (list), got {type(x).__name__}")
    return np.array([parse_complex(v) for v in x], dtype=complex)


def parse_matrix(x) -> np.ndarray:
    if not isinstance(x, list) or not x or not all(isinstance(row, list) and len(row) == len(x) for row in x):
        raise ConfigInvalid(f"expected a non-empty square matrix (list of equal rows), got {x!r}")
    return np.array([[parse_complex(v) for v in row] for row in x], dtype=complex)


def _object(x, where: str) -> dict:
    if not isinstance(x, dict):
        raise ConfigInvalid(f"{where} must be an object, got {type(x).__name__}")
    return x


def _require(doc: dict, key: str, where: str):
    if key not in _object(doc, where):
        raise ConfigInvalid(f"missing key {key!r} in {where}")
    return doc[key]


def _integer(x, where: str, minimum: int | None = None) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise ConfigInvalid(f"{where} must be an integer, got {x!r}")
    if minimum is not None and x < minimum:
        raise ConfigInvalid(f"{where} must be >= {minimum}, got {x}")
    return x


def _int64(x, where: str) -> int:
    # numpy takes generator exponents and harmonics as signed 64-bit integers
    x = _integer(x, where)
    if not -(2**63) <= x < 2**63:
        raise ConfigInvalid(f"{where} must fit in a signed 64-bit integer")
    return x


def _number(x, where: str) -> float:
    if not _is_number(x):
        raise ConfigInvalid(f"{where} must be a number, got {x!r}")
    return _float(x, where)


def _metric_terms(entry, label):
    if isinstance(entry, list) and entry and isinstance(entry[0], dict):
        terms = []
        for item in entry:
            n = _int64(_require(item, "n", f"metrics.{label}"), f"metrics.{label} n")
            cos_mat = parse_matrix(item["cos"]) if "cos" in item else None
            sin_mat = parse_matrix(item["sin"]) if "sin" in item else None
            if cos_mat is None and sin_mat is None:
                raise ConfigInvalid(f"metrics.{label} harmonic {n} has neither cos nor sin")
            if cos_mat is None:
                cos_mat = np.zeros_like(sin_mat)
            terms.append((n, cos_mat, sin_mat))
        return terms
    raise ConfigInvalid(f"metrics.{label} must be a list of harmonic objects")


def build_metric_field(doc: dict) -> MetricFieldSpec:
    kind = _require(doc, "kind", "metrics")
    if kind == "constant":
        return MetricFieldSpec.constant(
            parse_matrix(_require(doc, "g_prime", "metrics")),
            parse_matrix(_require(doc, "g_second", "metrics")),
        )
    if kind == "fourier":
        return MetricFieldSpec.fourier(
            _metric_terms(_require(doc, "g_prime", "metrics"), "g_prime"),
            _metric_terms(_require(doc, "g_second", "metrics"), "g_second"),
        )
    raise ConfigInvalid(f"metrics.kind must be 'constant' or 'fourier', got {kind!r}")


def build_perturbation(doc: dict | None) -> PerturbationSpec:
    if doc is None:
        return PerturbationSpec.none()
    items = _object(doc, "perturbation").get("terms", [])
    if not isinstance(items, list):
        raise ConfigInvalid(f"perturbation.terms must be a list, got {type(items).__name__}")
    terms = []
    for i, item in enumerate(items):
        where = f"perturbation term {i}"
        gens = _object(_object(item, where).get("generators", {}), f"{where} generators")
        unknown = set(gens) - set(_GENERATOR_KEYS)
        if unknown:
            raise ConfigInvalid(f"{where} has unknown generators {sorted(unknown)}")
        pows = {key: _int64(gens.get(key, 0), f"{where} generator {key}") for key in _GENERATOR_KEYS}
        coeff = _require(item, "coeff_fourier", where)
        if not isinstance(coeff, list):
            raise ConfigInvalid(f"{where} coeff_fourier must be a list, got {coeff!r}")
        ref = item.get("ref_section")
        terms.append(
            PerturbationTerm(
                norm_prime_pow=pows["norm_prime_sq"],
                norm_second_pow=pows["norm_second_sq"],
                ref_inner_pow=pows["ref_inner_sq"],
                mixed_pow=pows["mixed"],
                coeff=tuple(_number(c, f"{where} coeff_fourier entry") for c in coeff),
                ref_section=None if ref is None else parse_vector(ref),
            )
        )
    return PerturbationSpec(terms=tuple(terms))


def build_model(doc: dict) -> ModelConfig:
    ranks = _require(doc, "ranks", "config")
    cfg = ModelConfig(
        r_prime=_integer(_require(ranks, "r_prime", "ranks"), "ranks.r_prime"),
        r_second=_integer(_require(ranks, "r_second", "ranks"), "ranks.r_second"),
        epsilon=_number(_require(doc, "epsilon", "config"), "epsilon"),
        metric_field=build_metric_field(_require(doc, "metrics", "config")),
        perturbation=build_perturbation(doc.get("perturbation")),
        domain_radius=_number(_require(doc, "domain_radius", "config"), "domain_radius"),
    )
    report = validate_config(cfg)
    if not report.ok:
        details = "; ".join(f"{i.code}: {i.message}" for i in report.issues)
        raise ConfigInvalid(f"config failed validation: {details}")
    return cfg


@dataclass(frozen=True, eq=False)
class RunConfig:
    model: ModelConfig
    phi_spec: dict | None
    seed: int
    digest: str
    raw: dict


def parse_run_config(doc) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigInvalid(f"config root must be an object, got {type(doc).__name__}")
    model = build_model(doc)
    phi_spec = doc.get("phi")
    if phi_spec is not None:
        kind = _object(phi_spec, "phi").get("kind")
        if kind not in ("graph", "quadratic"):
            raise ConfigInvalid(f"phi.kind must be 'graph' or 'quadratic', got {kind!r}")
        for key in ("coeff_prime", "coeff_second"):
            if key in phi_spec and not np.isfinite(_number(phi_spec[key], f"phi.{key}")):
                raise ConfigInvalid(f"phi.{key} must be finite, got {phi_spec[key]}")
    return RunConfig(
        model=model,
        phi_spec=phi_spec,
        seed=_integer(doc.get("seed", 0), "seed", minimum=0),
        digest=config_digest(doc),
        raw=doc,
    )


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigParse(f"cannot read config {path}: {e}") from e
    try:
        doc = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer past the interpreter's digit limit
        raise ConfigParse(f"config {path} is not valid JSON: {e}") from e
    return parse_run_config(doc)


def phi_from_config(run_cfg: RunConfig) -> PhiFunc:
    """The configured defining function; graph mode when unspecified."""
    spec = run_cfg.phi_spec
    if spec is None or spec.get("kind") == "graph":
        return phi_graph(run_cfg.model)
    return phi_quadratic(
        run_cfg.model,
        float(spec.get("coeff_prime", 1.0)),
        float(spec.get("coeff_second", -1.0)),
    )

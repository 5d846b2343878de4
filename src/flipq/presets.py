"""Ready-made config documents (JSON-shaped dicts) for tests and demos."""

from __future__ import annotations


def identity_config(r_prime=1, r_second=1, epsilon=0.5, domain_radius=0.8, seed=1234) -> dict:
    """Identity metrics, no perturbation: the unperturbed moment-map model."""
    return {
        "ranks": {"r_prime": r_prime, "r_second": r_second},
        "epsilon": epsilon,
        "domain_radius": domain_radius,
        "metrics": {
            "kind": "constant",
            "g_prime": _eye(r_prime),
            "g_second": _eye(r_second),
        },
        "perturbation": {"terms": []},
        "seed": seed,
    }


def quartic_config(r_prime=1, r_second=1, coeff=0.1, epsilon=0.5, domain_radius=0.8, seed=1234) -> dict:
    """Identity metrics plus the mixed quartic term coeff * |u'|^2 |u''|^2."""
    doc = identity_config(r_prime, r_second, epsilon, domain_radius, seed)
    doc["perturbation"] = {
        "terms": [{"generators": {"mixed": 1}, "coeff_fourier": [coeff]}]
    }
    return doc


def fourier_metric_config(r_prime=2, r_second=1, epsilon=0.5, domain_radius=0.8, seed=1234) -> dict:
    """Theta-dependent metrics: g' = (2 + cos theta) I, g'' = (1.5 + 0.5 sin theta) I,
    with the mixed quartic perturbation."""
    doc = quartic_config(r_prime, r_second, 0.1, epsilon, domain_radius, seed)
    doc["metrics"] = {
        "kind": "fourier",
        "g_prime": [
            {"n": 0, "cos": _scaled_eye(r_prime, 2.0)},
            {"n": 1, "cos": _eye(r_prime)},
        ],
        "g_second": [
            {"n": 0, "cos": _scaled_eye(r_second, 1.5)},
            {"n": 1, "sin": _scaled_eye(r_second, 0.5)},
        ],
    }
    return doc


def ref_section_config(r_prime=2, r_second=2, epsilon=0.5, domain_radius=0.8, seed=1234) -> dict:
    """Quartic perturbation through the reference pairing |<u', a>|^2 squared."""
    doc = identity_config(r_prime, r_second, epsilon, domain_radius, seed)
    doc["perturbation"] = {
        "terms": [
            {
                "generators": {"ref_inner_sq": 2},
                "coeff_fourier": [0.05, 0.02],
                "ref_section": [[1.0, 0.0]] + [[0.0, 0.0]] * (r_prime - 1),
            }
        ]
    }
    return doc


def builtin_perturbation_terms() -> list[dict]:
    """Degree >= 4 term shapes used by the verification sweep."""
    return [
        {"generators": {"mixed": 1}, "coeff_fourier": [0.1]},
        {"generators": {"norm_prime_sq": 2}, "coeff_fourier": [0.05]},
        {"generators": {"norm_second_sq": 2}, "coeff_fourier": [-0.05]},
        {"generators": {"norm_prime_sq": 1, "norm_second_sq": 1}, "coeff_fourier": [0.03, 0.01, 0.02]},
        {"generators": {"norm_prime_sq": 1, "mixed": 1}, "coeff_fourier": [0.02]},
        {
            "generators": {"ref_inner_sq": 2},
            "coeff_fourier": [0.04],
            "ref_section": [[1.0, 0.0]],
        },
    ]


def _eye(n: int) -> list[list[float]]:
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def _scaled_eye(n: int, s: float) -> list[list[float]]:
    return [[s if i == j else 0.0 for j in range(n)] for i in range(n)]

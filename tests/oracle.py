"""50-digit mpmath references for the rescaling root, the graph value and the level root, written from
README's formulas, not from flipq's code.

With a', a'' >= 0 the level equation a' s^2 + 2 c s - a'' = 0 has at most one
positive root s.  With disc = sqrt(c^2 + a' a''), it is a'' / (c + disc) for
c > 0 and (disc - c) / a' for c <= 0 and a' > 0; there is none where that
value is 0, nor for a' = 0 with c <= 0.  Each form adds two terms of one sign,
so no digits cancel, and at 50 digits the reference is exact far below a
float's ulp.  mpmath's exponent range is unbounded, so no lane over- or
underflows.

The graph value is chi = -(g1 - g2)/2 + sum of the perturbation terms over a
Fourier config document: g1 = Re(conj(y') G'(theta) y') and g2 likewise are the
metric norms, with G(theta) = sum cos(n theta) C_n + sin(n theta) S_n; a
term is its series a0 + a1 cos theta + b1 sin theta + a2 cos 2 theta + ...
times its generators, norm_prime_sq g1, norm_second_sq g2, mixed g1 g2 and
ref_inner_sq |conj(y') G'(theta) a|^2, each to its exponent.  The level root
rho at t is the square root of the rescaling root of g1 s^2 + 2 t s - g2 = 0.
"""

from __future__ import annotations

import mpmath

DIGITS = 50
EPSILON = 2.0**-52  # the float ulp at 1


def scale_root_reference(ap: float, app: float, c: float):
    """The positive root s as an mpf of DIGITS digits, or None where the equation has none or an input is not
    finite."""
    with mpmath.workdps(DIGITS):
        ap, app, c = mpmath.mpf(ap), mpmath.mpf(app), mpmath.mpf(c)
        if not all(mpmath.isfinite(x) for x in (ap, app, c)):
            return None
        disc = mpmath.sqrt(c * c + ap * app)
        if c > 0:
            s = app / (c + disc)
        elif ap > 0:
            s = (disc - c) / ap
        else:
            return None
        return s if s > 0 else None


def relative_error(got: float, reference) -> float:
    """|got - reference| / reference in units of EPSILON."""
    return scaled_error(got, reference, reference)


def scaled_error(got: float, reference, scale) -> float:
    """|got - reference| / scale in units of EPSILON."""
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpf(got) - reference) / scale / EPSILON)


def _entry(x):
    """A config document's complex entry: a number or an [re, im] pair."""
    return mpmath.mpc(*x) if isinstance(x, list) else mpmath.mpc(x)


def _matrix_at(field, theta):
    """G(theta) of a document's metric field, as rows of mpc."""
    rank = len(field[0].get("cos") or field[0]["sin"])
    out = [[mpmath.mpc(0)] * rank for _ in range(rank)]
    for term in field:
        for key, weight in (("cos", mpmath.cos), ("sin", mpmath.sin)):
            if key in term:
                w = weight(term["n"] * theta)
                out = [[o + w * _entry(x) for o, x in zip(row, xs)] for row, xs in zip(out, term[key])]
    return out


def _pairing(u, matrix, v):
    """conj(u) G v."""
    return mpmath.fsum(mpmath.conj(ui) * gij * vj for ui, row in zip(u, matrix) for gij, vj in zip(row, v))


def _series(coeffs, theta):
    """a0 + a1 cos theta + b1 sin theta + a2 cos 2 theta + b2 sin 2 theta + ..."""
    return mpmath.fsum([coeffs[0]] + [c * (mpmath.cos if k % 2 else mpmath.sin)((k + 1) // 2 * theta)
                                      for k, c in enumerate(coeffs) if k])


def chi_parts_reference(doc: dict, theta: float, y_prime, y_second):
    """(chi, g1, g2, size) as mpfs of DIGITS digits, size = |g1|/2 + |g2|/2 + the sum of the terms' |values|:
    chi's condition, the scale of its rounding errors where its parts cancel."""
    with mpmath.workdps(DIGITS):
        theta = mpmath.mpf(theta)
        y_prime, y_second = [mpmath.mpc(y) for y in y_prime], [mpmath.mpc(y) for y in y_second]
        g_prime = _matrix_at(doc["metrics"]["g_prime"], theta)
        g1 = _pairing(y_prime, g_prime, y_prime).real
        g2 = _pairing(y_second, _matrix_at(doc["metrics"]["g_second"], theta), y_second).real
        values = []
        for term in doc["perturbation"]["terms"]:
            value = _series(term["coeff_fourier"], theta)
            for name, power in term["generators"].items():
                if name == "ref_inner_sq":
                    base = abs(_pairing(y_prime, g_prime, [_entry(a) for a in term["ref_section"]])) ** 2
                else:
                    base = {"norm_prime_sq": g1, "norm_second_sq": g2, "mixed": g1 * g2}[name]
                value *= base**power
            values.append(value)
        chi = -(g1 - g2) / 2 + mpmath.fsum(values)
        return chi, g1, g2, (abs(g1) + abs(g2)) / 2 + mpmath.fsum(abs(v) for v in values)


def level_rho_reference(doc: dict, theta: float, t: float, y_prime, y_second):
    """The level root rho at t as an mpf of DIGITS digits, or None where g1 s^2 + 2 t s - g2 = 0 has no
    positive root."""
    with mpmath.workdps(DIGITS):
        _, g1, g2, _ = chi_parts_reference(doc, theta, y_prime, y_second)
        s = scale_root_reference(g1, g2, t)
        return None if s is None else mpmath.sqrt(s)

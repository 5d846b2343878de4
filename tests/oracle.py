"""A 50-digit mpmath reference for the rescaling root, written from README's closed form.

With a', a'' >= 0 the level equation a' s^2 + 2 c s - a'' = 0 has at most one
positive root s.  With disc = sqrt(c^2 + a' a''), it is a'' / (c + disc) for
c > 0 and (disc - c) / a' for c <= 0 and a' > 0; there is none where that
value is 0, nor for a' = 0 with c <= 0.  Each form adds two terms of one sign,
so no digits cancel, and at 50 digits the reference is exact far below a
float's ulp.  mpmath's exponent range is unbounded, so no lane over- or
underflows.
"""

from __future__ import annotations

import mpmath

DIGITS = 50
EPSILON = 2.0**-52  # the float ulp at 1


def scale_root_reference(ap: float, app: float, c: float):
    """The positive root s as an mpf of DIGITS digits, or None where the equation has none."""
    with mpmath.workdps(DIGITS):
        ap, app, c = mpmath.mpf(ap), mpmath.mpf(app), mpmath.mpf(c)
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
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpf(got) - reference) / reference / EPSILON)

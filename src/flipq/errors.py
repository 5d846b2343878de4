"""Exception types shared across the package."""


class FlipQError(Exception):
    """Base class for all flipq errors."""


class ConfigParse(FlipQError):
    """The config document could not be read or decoded."""


class ConfigInvalid(FlipQError):
    """The config decoded but violates a structural invariant."""


class DimensionMismatch(FlipQError):
    """Vector or matrix shapes do not match the configured ranks."""


class ZeroScalar(FlipQError):
    """The scaling group acts only through finite nonzero scalars."""


class NotStable(FlipQError):
    """The point's orbit does not meet the zero level of the moment map."""


class OnCenter(FlipQError):
    """Polar coordinates are undefined at the zero section and where |y|^2 has lost its digits."""


class NotOnBoundary(FlipQError):
    """Boundary coordinates require r = 0 over the wall t = 0."""


class OnExceptionalLocus(FlipQError):
    """Tensor-scale coordinates need both fiber blocks nonzero."""


class OutOfDomain(FlipQError):
    """Input lies outside the configured fiber domain."""


class NoRoot(FlipQError):
    """Root search failed to locate a zero in the admissible range."""


class DegenerateDerivative(FlipQError):
    """Newton derivative too small to continue safely."""


class DegenerateBranch(FlipQError):
    """The rescaling equation has no positive solution on this branch."""


class NoConvergence(FlipQError):
    """Newton iteration exhausted its budget without meeting tolerance."""


class BoundViolated(FlipQError):
    """A required vanishing-order bound fails on the sampled domain."""

"""Exception types shared across the package."""


class HypcurvError(Exception):
    """Base class for all package errors."""


class ParameterError(HypcurvError, ValueError):
    """Invalid construction parameters (bad slope, radius ordering, dimension...)."""


class DomainError(HypcurvError, ValueError):
    """Point outside the field's domain, inside a mask, or a stencil leaving the domain."""


class DataError(HypcurvError, ValueError):
    """Malformed grid data, e.g. a -inf value at an unmasked node."""


class DegenerateGradientError(HypcurvError, ValueError):
    """Operation requires Df != 0 but the gradient vanishes at the point."""


class NumericError(HypcurvError, RuntimeError):
    """Internal numerical inconsistency that signals data corruption, not bad input."""


class HypothesisContradiction(HypcurvError, RuntimeError):
    """A verdict that contradicts the classification hypotheses (more than two ends)."""

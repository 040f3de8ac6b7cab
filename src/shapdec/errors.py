"""Exception hierarchy shared across the package."""


class ShapdecError(Exception):
    """Base class for all package errors."""


class SizeError(ShapdecError):
    """A dimension or count is outside the supported range."""


class IngestionError(ShapdecError):
    """Input data could not be read or validated."""


class SingularityError(ShapdecError):
    """A matrix stayed singular after the maximum jitter attempts."""


class ConditioningError(ShapdecError):
    """Conditioning on the given feature values is impossible."""


class DegenerateMarginalError(ShapdecError):
    """An empirical marginal has no spread, so its CDF is not invertible."""


class OracleError(ShapdecError):
    """An exact-enumeration oracle was asked for an unsupported input."""


class ModelOutputError(ShapdecError):
    """A model returned outputs of the wrong shape or non-finite values."""


class BridgeError(ShapdecError):
    """The external model process failed or replied with garbage."""


class RenderError(ShapdecError):
    """A figure specification contains values that cannot be drawn."""

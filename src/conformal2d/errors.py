"""Exception types shared across the package."""


class Conformal2dError(Exception):
    """Base class for package errors."""


class DomainError(Conformal2dError):
    """A point lies outside the domain of a field or map."""


class PoleError(DomainError):
    """Evaluation too close to a pole of a fractional linear map."""


class ConeError(Conformal2dError):
    """An eigenvalue pair lies outside the required cone."""


class ConjugatingUnsupported(Conformal2dError):
    """Operation defined only for orientation-preserving (holomorphic) maps."""


class SeedError(Conformal2dError):
    """No admissible diagonal seed for the radial solver."""


class StepFailure(Conformal2dError):
    """Adaptive integration could not complete a step within tolerance."""


class ConfigError(Conformal2dError):
    """Malformed CLI or suite configuration."""


# caught as a numerical error: by the CLI (exit 2), verify (a failing row),
# the covariance block (a replay) and the moving-spheres probe (a fallback)
NUMERICAL_ERRORS = (Conformal2dError, ArithmeticError, ValueError)

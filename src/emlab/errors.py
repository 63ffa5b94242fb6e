"""Exception types shared across the package."""


class EmlabError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedConfigurationError(EmlabError):
    """Requested a potential/dimension combination the solver does not cover."""


class InvalidCoefficientsError(EmlabError):
    """Coefficient data reconstructs to a non-real or otherwise invalid function."""


class NumericalFailureError(EmlabError):
    """An underlying numerical routine (eigensolver, fit) failed."""


class DegenerateIndicialError(EmlabError):
    """The two characteristic exponents coincide; logarithmic branch unsupported."""


class IndefiniteFormError(EmlabError):
    """Positive definiteness fails: mu_1 + ((N-2)/2)^2 <= 0."""


class ForcingTooSingularError(EmlabError):
    """Forcing term decays too slowly near the origin for the regular branch."""


class AliasingError(EmlabError):
    """Angular grid too coarse to resolve the requested basis."""


class GridMismatchError(EmlabError):
    """Operands sampled on incompatible grids."""


class OffGridError(EmlabError, ValueError):
    """A radius lies outside the radial grid."""


class DegenerateSolutionError(EmlabError):
    """H(r) vanishes on requested radii; field is degenerate there."""


class DegenerateExponentError(EmlabError):
    """Coefficient formula denominator 2*gamma + N - 2 (or its exterior twin) vanishes."""


class NoEigenvalueMatchError(EmlabError):
    """Supplied exponent matches no eigenvalue block of the angular spectrum."""


class TailFitError(EmlabError):
    """Power-law closure of a truncated integral did not converge."""


class ScenarioValidationError(EmlabError):
    """Scenario file violates a documented invariant."""

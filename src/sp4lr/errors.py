"""Exception types shared across the package."""


class Sp4lrError(Exception):
    """Base class for all package-specific errors."""


class ProfileDomain(Sp4lrError):
    """Time sample outside the domain of a tabulated profile."""


class ProjectionLeak(Sp4lrError):
    """A matrix expected to lie in the algebra span has a large projection residual."""


class NonCommuting(Sp4lrError):
    """Commuting-mode evolution requested but the coefficient matrix does not commute with itself across time."""


class StepNotConverged(Sp4lrError):
    """Product-integration step halving cannot reach, or stalled before reaching, the requested tolerance."""


class DegenerateAlpha(Sp4lrError):
    """Closed-form invariant requested for a proportionality constant outside its domain."""


class ChiPlusZero(Sp4lrError):
    """Involution constraint residuals undefined: chi_plus = c3*c4 + c5*c6 vanishes."""


class GridTooCoarse(Sp4lrError):
    """Grid has too few points for the 4th-order central stencil, or too large a step for the
    Simpson quadrature tolerance.

    Only the residuals without an exact time derivative use the stencil: lr-ode's
    ``lr_residual`` and the closed-expression variant row of the crosschecks.  The
    point-transform and closed-form certificates differentiate exactly and never raise it.
    """


class ArctanhDomain(Sp4lrError):
    """Static Dyson map argument |2*sqrt(alpha*beta)*Lambda/(alpha^2-beta^2)| >= 1."""


class EqualFrequencies(Sp4lrError):
    """Static Dyson map undefined for alpha = +-beta with nonzero coupling."""


class ConfigInvalid(Sp4lrError, ValueError):
    """Scenario configuration failed validation; the message starts with the field path."""

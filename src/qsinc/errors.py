"""Exception hierarchy shared by all qsinc modules."""


class QsincError(Exception):
    """Base class for all qsinc errors."""


class InvalidParams(QsincError):
    """A parameter violates the hypotheses of the requested operation."""


class InvalidBase(InvalidParams):
    """Base of a q-product is on or outside the unit circle."""


class ZeroArgument(InvalidParams):
    """An argument that must be nonzero is zero."""


class InvalidDecay(InvalidParams):
    """Decay model for a quadrature integrand is not certifiably Gaussian."""


class InvalidGrid(InvalidParams):
    """A sweep grid is empty or malformed."""


class DomainError(InvalidParams):
    """Parameter lies outside the regularity domain of the integral."""


class NoConvergence(QsincError):
    """A truncated series or product failed to certify its tail bound."""


class SlowConvergence(NoConvergence):
    """Term-size cutoff not reached within the term budget."""


class QuadratureFailure(QsincError):
    """A quadrature could not certify its value: a non-finite sample, a
    window that does not contain the integrand, or no convergence within
    the node budget."""


class PoleAtNonpositiveInteger(QsincError):
    """Gamma-type function evaluated at one of its poles."""


class IndeterminateRatio(QsincError):
    """Poles of numerator and denominator coincide; the ratio is 0/0."""


class DenominatorZero(QsincError):
    """A factor of a denominator infinite product vanishes."""


class KernelPole(QsincError):
    """The sinh kernel prefactor is evaluated at its pole."""

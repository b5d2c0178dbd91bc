"""Exception hierarchy.

Two top-level families matter to callers.  InputError means the caller's
input or configuration was unusable (CLI exit status 1).  IdentityAlarm
means a computation contradicted a structural fact that holds for every
valid input, so it signals a bug somewhere upstream rather than a bad
poset (CLI exit status 2).
"""


class EnchainError(Exception):
    """Base class for every error raised by this package."""


class InputError(EnchainError):
    """Unusable input or configuration."""


class ParseError(InputError):
    """A poset file could not be parsed."""


class LabelOutOfRange(InputError):
    """A cover relation mentions a label outside 1..n."""


class CycleDetected(InputError):
    """The cover relations contain a directed cycle."""


class SizeLimit(InputError):
    """A size guard tripped before a computation was attempted."""


class GuardExceeded(SizeLimit):
    """A CLI-level guard tripped."""


class NotAnIdeal(InputError):
    """A subset passed where a poset ideal (down-closed set) was required."""


class NotNaturallyLabeled(InputError):
    """An operation that requires a naturally labeled poset got one that
    is not; canonicalize with Poset.canonicalized() first."""


class NotPalindromic(InputError):
    """A gamma expansion was requested for a non-palindromic polynomial."""


class InvalidPartition(InputError):
    """A map violates the left enriched partition conditions."""


class PointOutsidePolytope(InputError):
    """A lattice point lies outside the dilated enriched chain polytope."""


class IdentityAlarm(EnchainError):
    """A verified identity failed; treat as an implementation bug alarm."""


class NegativeHStar(IdentityAlarm):
    """A computed h* coefficient is negative (upstream counting bug)."""


class NonInteger(IdentityAlarm):
    """An h* coefficient came out non-integral (upstream counting bug)."""


class GammaNegative(IdentityAlarm):
    """A gamma coefficient of an h* polynomial is negative."""


class IdentityViolation(IdentityAlarm):
    """A cross-module identity check failed."""


class ImageMismatch(IdentityAlarm):
    """A candidate toric binomial's two monomials have different images."""


class Infeasible(IdentityAlarm):
    """The closed-form term-order weights miss their proven margin."""


class NonUnimodularSimplex(IdentityAlarm):
    """A maximal simplex of the extracted triangulation has |det| != 1."""


class FaceCountMismatch(IdentityAlarm):
    """The triangulation's maximal face count is not 2^n * #extensions."""


class MalformedResult(IdentityAlarm):
    """A decorated-permutation reduction produced a word whose bars do not
    sit at its left peaks."""

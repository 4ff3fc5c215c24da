"""Exception types shared across the library.

Every error raised by the library derives from IncalgError, so callers can
catch one base class.  The CLI maps these onto its documented exit codes.
"""


class IncalgError(Exception):
    """Base class for all library errors."""


class ParseError(IncalgError):
    """Malformed input text (poset files, scalars, specs)."""


class ZeroArgument(IncalgError):
    """A nonzero field element was required."""


class DomainMismatch(IncalgError):
    """Maps that should share a domain do not."""


class SizeLimit(IncalgError):
    """Instance exceeds the documented desk-scale bound."""


class CycleDetected(IncalgError):
    """Relation closure is not acyclic."""


class DuplicateLabel(IncalgError):
    """Poset element labels must be distinct."""


class ContextMismatch(IncalgError):
    """Operands live over different posets or fields."""


class NotAUnit(IncalgError):
    """Element is not invertible; args carry the offending diagonal point."""


class NotComparable(IncalgError):
    """Requested pair (x, y) has x not less-or-equal y."""


class NotAMorphism(IncalgError):
    """Linear map fails (anti-)multiplicativity on the basis."""


class NotUnital(IncalgError):
    """Linear map does not fix the unity."""


class InvalidCocycle(IncalgError):
    """Cocycle data violates the defining identities."""


class NotADerivation(IncalgError):
    """Linear map fails the Leibniz rule."""


class NotInvolutive(IncalgError):
    """Candidate map does not square to the identity."""


class BadSign(IncalgError):
    """Sign scalar must satisfy k**2 == 1."""


class Char2Unsupported(IncalgError):
    """Classification entry points refuse characteristic-2 fields."""


class NotConnected(IncalgError):
    """Operation requires a connected poset."""


class NotAnInvolution(IncalgError):
    """Raw map is not a ring involution."""


class HypothesisFailed(IncalgError):
    """One of the classification hypotheses fails; args name which."""


class UpperRightNonzero(IncalgError):
    """Block map has a nonzero upper-right block."""


class FixedPointsPresent(IncalgError):
    """Construction requires an involution without fixed points."""


class ZeroEpsilon(IncalgError):
    """Fixed-point scaling values must be nonzero."""


class NotSymmetric(IncalgError):
    """Element is not symmetric for the given base involution."""


class NotASquare(IncalgError):
    """A fixed-point diagonal entry is not a square; args list the points."""


class WitnessFailed(IncalgError):
    """A returned witness, count or normal form failed its internal exact
    check; this signals a library defect, not bad input."""

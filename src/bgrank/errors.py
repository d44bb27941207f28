"""Exception types raised by the library.

Everything derives from DomainError so callers can catch the whole family.
ParseError is kept separate in spirit: it marks malformed *text* input
(CLI exit code 2), while the rest mark values outside an operation's
domain (CLI exit code 3).
"""


class DomainError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(DomainError):
    """Text input could not be parsed into a partition or sequence."""


class InvalidArgument(DomainError, ValueError):
    """A numeric argument lies outside the operation's domain.

    Also a ValueError, so callers that catch ValueError keep working.
    """


class NotABSequence(DomainError):
    """Sequence violates the staircase / non-increasing / alternating-sum rules."""


class NoSplitPoint(DomainError):
    """No prefix length of the column profile matches the total alternating sum."""


class AmbiguousSplitPoint(DomainError):
    """More than one prefix length matches; the input is not a valid profile."""


class CoverOverflow(DomainError):
    """A block received more doubly-covered cells than its capacity."""


class CoverUnderflow(DomainError):
    """The cover recurrence went negative; the sequence cannot cover the blocks."""


class IncompleteCover(DomainError):
    """The final sequence entry leaves singly-covered cells behind."""


class NotAPartitionShape(DomainError):
    """Doubly-covered cells do not form the Young diagram of a partition."""


class NotInImage(DomainError):
    """Partition is not the double-cover image of any valid sequence for this a."""


class NotTriangular(DomainError):
    """Weight is not of the form m*(m+1)/2."""


class NotInStaircaseImage(DomainError):
    """(weight, sequence) pair cannot be produced by splitting any shifted diagram."""


class NotRepresentable(DomainError):
    """No integer k satisfies 2*k**2 - k = t."""


class RankMismatch(DomainError):
    """Partition's BG-rank differs from the rank the parameter box requires."""


class LargestPartExceedsBound(DomainError):
    """Partition's largest part exceeds the 2N+nu cap of the parameter box."""


class ParameterMismatch(DomainError):
    """Triangular weight, rank, or image bounds disagree with the parameter box."""


class InconsistentParameters(DomainError):
    """No N >= 0 and nu in {0, 1} solve the given bound pair."""

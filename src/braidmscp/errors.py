"""Exception types raised across the package.

Everything derives from BraidError so callers can catch broadly; the concrete
subclasses exist because tests and library callers distinguish failure
kinds.  The CLI does not: it reports every BraidError as bad input, exit
code 3.
"""


class BraidError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(BraidError):
    """A constructor or operation was given out-of-range parameters."""


class BadToken(InvalidParams):
    """A word text holds a token that is not a letter: a syntax error, or a letter out of range.

    offset is the token's character offset in the text, and out_of_range
    tells the two kinds apart.
    """

    def __init__(self, message: str, offset: int, out_of_range: bool = False):
        super().__init__(message)
        self.offset = offset
        self.out_of_range = out_of_range


class StrandMismatch(BraidError):
    """Objects built over different strand counts were mixed."""


class NegativeLetter(BraidError):
    """A negative crossing appeared where a positive word was required."""


class NotSimple(BraidError):
    """A positive word crosses some pair of strands more than once."""


class BoundExceeded(BraidError):
    """An exhaustive enumeration was requested above its configured bound."""


class NotPositive(BraidError):
    """A braid with negative infimum appeared where a positive one was required."""


class LengthMismatch(BraidError):
    """Tuple lengths (number of entries) disagree."""


class NotInFloor(BraidError):
    """A tuple violates the infimum floor it was claimed to satisfy."""


class VerificationFailed(BraidError):
    """Internal guard: a computed conjugator failed re-verification."""


class InstanceFormatError(BraidError):
    """Base for instance-file parsing errors; carries an optional location."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}" + (f", col {col}" if col is not None else "") + f": {message}"
        super().__init__(message)


class InstanceSyntaxError(InstanceFormatError):
    """The instance text does not match the line grammar."""


class IndexOutOfRange(InstanceFormatError):
    """A generator index in a word is zero or outside 1..n-1."""


class CountMismatch(InstanceFormatError):
    """The declared number of tuple entries disagrees with the lines present."""

"""Shared exception vocabulary for validation failures.

Every error raised on malformed domain objects subclasses ValidationError,
which is itself a ValueError, so callers that only care about "bad input"
can catch a single type.
"""


class ValidationError(ValueError):
    """An object violates one of its family invariants."""


class NotCanonical(ValidationError):
    """A text parses, but is not the canonical text of the object it names."""


class HeightBelowZero(ValidationError):
    """A step word dips below the x-axis."""


class HorizontalStepPresent(ValidationError):
    """A level step (H or T) occurs where only U/D are allowed."""


class WeightOutOfRange(ValidationError):
    """A weight exceeds the range allowed by its step's starting height."""

    def __init__(self, index: int, message: str | None = None):
        super().__init__(message or f"weight at step {index} out of range")
        self.index = index


class LengthMismatch(ValidationError):
    """Step word and weight sequence have different lengths."""


class NotClosed(ValidationError):
    """A path that must end on the x-axis does not."""


class OddLength(ValidationError):
    """An object that must have even length has odd length."""


class NotRcFixed(ValidationError):
    """A history that must be fixed by the reverse-complement action is not."""


class MarkNotCyclePeak(ValidationError):
    """A marked value is not a cycle peak of the underlying permutation."""


class NotASnake(ValidationError):
    """A signed permutation fails the snake test."""


class InconsistentBars(ValidationError):
    """The valleys attached to one peak carry disagreeing signs."""


class NotRcInvariant(ValidationError):
    """A permutation is not fixed by reverse-complement."""


class NotAlternating(ValidationError):
    """A permutation fails the down-up test."""


class PlaceholderExhausted(ValidationError):
    """The placeholder substitution ran out of gaps at some step."""

    def __init__(self, index: int, message: str | None = None):
        super().__init__(message or f"no placeholder left for step {index}")
        self.index = index

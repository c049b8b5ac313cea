"""Exception hierarchy shared across the library."""

import math


class FractalcError(Exception):
    """Base class for all errors raised by this package."""


class ScheduleSyntaxError(FractalcError):
    """Malformed schedule expression text.

    Carries the byte offset of the offending token and the set of token
    descriptions that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str]):
        self._message = message
        self.offset = offset
        self.expected = expected
        detail = f"{message} at byte {offset}"
        if expected:
            detail += f" (expected {', '.join(sorted(expected))})"
        super().__init__(detail)

    def __reduce__(self):  # pickle and copy rebuild from these, not from the message
        return type(self), (self._message, self.offset, self.expected)


class ScheduleSemanticError(FractalcError):
    """Expression parses but denotes an invalid schedule (bad ratio, angle, ...)."""


class InputOutOfRange(FractalcError, ValueError):
    """An input number outside the range of its rule (a scale factor outside
    (0, 1) as a float, a negative stage, a repeat count below 1, ...); also a ValueError."""


class InvalidAngle(FractalcError):
    """Generator angle outside the range the construction supports."""


class RatiosExceedUnit(FractalcError):
    """Kept pieces longer than the initiator; no gap arrangement exists."""


class SegmentBudgetExceeded(FractalcError):
    """Work over the budget or a fixed cap: predicted by `work` before any work,
    or counted from the data by box counting and the export and overlap guards.
    `what` words the message around `{count}`, the count `predicted` (None when
    too large to build; a power of ten past 30 digits), and `{limit}`, `budget`."""

    def __init__(self, predicted: int | None, budget: int, what: str):
        self.predicted = predicted
        self.budget = budget
        self._what = what
        if predicted is not None and predicted >= 10**30:
            predicted = f"about 10^{math.log10(predicted):.6g}"
        super().__init__(what.format(count=predicted, limit=budget))

    def __reduce__(self):  # pickle and copy rebuild from these, not from the message
        return type(self), (self.predicted, self.budget, self._what)


class ScaleLadderInvalid(FractalcError):
    """Box-counting scale ladder cannot be built from the given parameters."""


class DegenerateGeometry(FractalcError):
    """Geometry has no spatial extent (all points coincident)."""


class GeometryOutOfRange(FractalcError):
    """A coordinate of the figure, or a size derived from it (its extent, total
    length, diagonal, SVG view box), is beyond the float range; or 1e-12 of its
    size (`SegmentSet.frame`), or box counting's default finest scale, reads 0.0."""

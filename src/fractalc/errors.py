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
        self.offset = offset
        self.expected = expected
        detail = f"{message} at byte {offset}"
        if expected:
            detail += f" (expected {', '.join(sorted(expected))})"
        super().__init__(detail)


class ScheduleSemanticError(FractalcError):
    """Expression parses but denotes an invalid schedule (bad ratio, angle, ...)."""


class InputOutOfRange(FractalcError, ValueError):
    """An input number out of range where it is used (a ratio that reads 0.0 or
    1.0 as a float, a repeat beyond the float range, ...); also a ValueError."""


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
        if predicted is not None and predicted >= 10**30:
            predicted = f"about 10^{math.log10(predicted):.6g}"
        super().__init__(what.format(count=predicted, limit=budget))


class ScaleLadderInvalid(FractalcError):
    """Box-counting scale ladder cannot be built from the given parameters."""


class DegenerateGeometry(FractalcError):
    """Geometry has no spatial extent (all points coincident)."""


class GeometryOutOfRange(FractalcError):
    """A coordinate of the figure, or a size derived from it (its extent along
    an axis, its total length, its diagonal, its SVG view box), is beyond the
    float range: the generators grew a huge initiator length past it."""

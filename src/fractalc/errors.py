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


class InvalidAngle(FractalcError):
    """Generator angle outside the range the construction supports."""


class RatiosExceedUnit(FractalcError):
    """Kept pieces longer than the initiator; no gap arrangement exists."""


class SegmentBudgetExceeded(FractalcError):
    """Materializing the geometry would produce more segments than allowed.

    Box counting raises it too, for a rung that would walk more grid cells
    than the budget, and the census for a product with more buckets than the
    budget; `what` words the message around the predicted count. A count of
    more than 30 digits is given by its power of ten. `predicted` is None when
    the count was too large to build, and `what` then words it alone.
    """

    def __init__(
        self, predicted: int | None, budget: int, what: str = "stage would produce {} segments"
    ):
        self.predicted = predicted
        self.budget = budget
        if predicted is not None and predicted >= 10**30:
            predicted = f"about 10^{math.log10(predicted):.6g}"
        super().__init__(f"{what.format(predicted)}, over the budget of {budget}")


class SolverError(FractalcError):
    """The Moran solver missed its residual tolerance: with repeat counts in the
    hundreds of thousands, even the closest float alpha can leave the product
    further from 1 than the tolerance."""


class ScaleLadderInvalid(FractalcError):
    """Box-counting scale ladder cannot be built from the given parameters."""


class DegenerateGeometry(FractalcError):
    """Geometry has no spatial extent (all points coincident)."""


class GeometryOutOfRange(FractalcError):
    """A coordinate of the figure, or a size derived from it (its extent along
    an axis, its total length, its diagonal, its SVG view box), is beyond the
    float range: the generators grew a huge initiator length past it."""

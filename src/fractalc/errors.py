"""Exception hierarchy shared across the library."""


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
    than the budget; `what` words the message around the predicted count.
    """

    def __init__(
        self, predicted: int, budget: int, what: str = "stage would produce {} segments"
    ):
        self.predicted = predicted
        self.budget = budget
        super().__init__(f"{what.format(predicted)}, over the budget of {budget}")


class SolverError(FractalcError):
    """Root solver could not bracket or converge (unreachable for valid input)."""


class ScaleLadderInvalid(FractalcError):
    """Box-counting scale ladder cannot be built from the given parameters."""


class DegenerateGeometry(FractalcError):
    """Geometry has no spatial extent (all points coincident)."""

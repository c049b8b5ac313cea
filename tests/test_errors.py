import copy
import inspect
import pickle

import pytest

from fractalc import errors

# one or more of each class in errors.py; the test fails when a class is missing
_INSTANCES = [
    errors.FractalcError("m"),
    errors.ScheduleSyntaxError("m", 3, frozenset()),
    errors.ScheduleSyntaxError("unexpected ')'", 7, frozenset({"number", "'('"})),
    errors.ScheduleSemanticError("m"),
    errors.InputOutOfRange("m"),
    errors.InvalidAngle("m"),
    errors.RatiosExceedUnit("m"),
    errors.SegmentBudgetExceeded(5, 3, "x {count} {limit}"),
    errors.SegmentBudgetExceeded(None, 3, "about 10^40 segments, over the budget of {limit}"),
    errors.SegmentBudgetExceeded(4**10_000, 10, "{count} segments"),
    errors.ScaleLadderInvalid("m"),
    errors.DegenerateGeometry("m"),
    errors.GeometryOutOfRange("m"),
]


@pytest.mark.parametrize(
    "round_trip",
    [lambda err: pickle.loads(pickle.dumps(err)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_errors_survive_pickle_and_copy(round_trip):
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__}
    assert {type(err) for err in _INSTANCES} == classes
    for err in _INSTANCES:
        back = round_trip(err)
        assert type(back) is type(err)
        assert str(back) == str(err)
        for name in ("offset", "expected", "predicted", "budget"):
            assert getattr(back, name, None) == getattr(err, name, None), (err, name)
        assert vars(back) == vars(err)

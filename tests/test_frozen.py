"""Each frozen value type against a dataclass twin with its fields and defaults:
the same repr, ==, hash, construction, defaults and refused assignment."""

import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from fractalc import boxcount, geometry, moran, parser, schedule

_MISSING = dataclasses.MISSING

# each type's fields as a frozen dataclass declares them: (name, default)
_FIELDS = {
    parser.Angle: [("value",), ("pi_k", None)],
    parser.PieceExpr: [("ratio",), ("angle",), ("draw",)],
    parser.ScheduleItem: [("kind",), ("repeat", 1), ("angle", None), ("ratios", None),
                          ("pieces", None)],
    parser.ScheduleExpr: [("items",)],
    moran.UniformFractal: [("copies",), ("ratio",)],
    moran.ScaleSpectrum: [("components",)],
    moran.DimensionReport: [("alpha",), ("method",), ("residual",), ("bracket",),
                            ("iterations",)],
    schedule.Piece: [("ratio",), ("angle",), ("draw",)],
    schedule.Generator: [("pieces",), ("connected",)],
    schedule.CompositionSchedule: [("items",)],
    geometry.SegmentSet: [("coords",), ("initiator_length",), ("lengths",)],
    boxcount.BoxCountReport: [("scales",), ("counts",), ("slope",), ("r_squared",)],
}

_ANGLE = parser.Angle(math.pi / 3, 3)
_ITEM = parser.ScheduleItem("K", 2, _ANGLE)
_PIECE = schedule.Piece(0.5, 0.0, True)
_GEN_ARGS = ((_PIECE, schedule.Piece(0.25, 0.0, False)), False)
_GEN = schedule.Generator(*_GEN_ARGS)
# one-element arrays, whose == reads as a bool, so that == of the values is
# defined the same way for every Python's dataclass __eq__
_COORDS = np.array([1.0])

# two argument tuples per type, giving unequal values
_ARGS = {
    parser.Angle: [(math.pi / 3, 3), (0.5,)],
    parser.PieceExpr: [(Fraction(1, 3), _ANGLE, True), (0.25, parser.Angle(-0.5), False)],
    parser.ScheduleItem: [("K", 2, _ANGLE, None, None),
                          ("C", 1, None, (Fraction(1, 2), 0.25))],
    parser.ScheduleExpr: [((_ITEM,),), ((_ITEM, parser.ScheduleItem("Q", angle=_ANGLE)),)],
    moran.UniformFractal: [(4, 1 / 3), (2, 0.5)],
    # canonical components, which the constructor keeps as they are
    moran.ScaleSpectrum: [((((0.25, 0.5), 2),),), ((((0.25, 0.5), 3), ((1 / 3,), 1)),)],
    moran.DimensionReport: [(1.26, "closed-form", -2.2e-16, (1.25, 1.27), 0),
                            (0.88, "moran-numeric", math.inf, (0.87, 0.89), 61)],
    schedule.Piece: [(0.5, 0.0, True), (1 / 3, -1.0, False)],
    schedule.Generator: [((_PIECE,), False), _GEN_ARGS],
    schedule.CompositionSchedule: [(((_GEN, 1),),), (((_GEN, 2), (_GEN, 1)),)],
    geometry.SegmentSet: [(_COORDS, 1.0, np.array([1.0])), (_COORDS, 2.0, np.array([2.0]))],
    boxcount.BoxCountReport: [((0.5, 0.25), (2, 4), 1.0, 0.99), ((0.5,), (1,), 0.0, 1.0)],
}


def _twin(cls):
    """The frozen dataclass with the fields of `cls` under the same name."""
    fields = []
    for name, *rest in _FIELDS[cls]:
        default = rest[0] if rest else _MISSING
        fields.append((name, object, dataclasses.field(default=default)))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def _outcome(fn, *args):
    """The value of fn(*args), or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def test_every_value_type_is_covered():
    assert set(_FIELDS) == set(_ARGS)
    assert len(_FIELDS) == 12


@pytest.mark.parametrize("cls", list(_FIELDS), ids=lambda cls: cls.__name__)
def test_value_type_matches_its_dataclass_twin(cls):
    twin = _twin(cls)
    names = [spec[0] for spec in _FIELDS[cls]]
    required = sum(len(spec) == 1 for spec in _FIELDS[cls])
    for args in _ARGS[cls]:
        ours, ref = cls(*args), twin(*args)
        assert repr(ours) == repr(ref)
        assert _outcome(hash, ours) == _outcome(hash, ref)
        assert _outcome(ours.__eq__, cls(*args)) == _outcome(ref.__eq__, twin(*args))
        assert (ours == ref, ours != ref, ref == ours) == (False, True, False)
        # == holds only within one class, a subclass included
        sub, ref_sub = type("Sub", (cls,), {"__slots__": ()}), type("Sub", (twin,), {})
        assert (ours == sub(*args), ref == ref_sub(*args)) == (False, False)
        assert repr(sub(*args)) == repr(ref_sub(*args))
        # by keyword, and with the defaults
        assert repr(cls(**dict(zip(names, args)))) == repr(ours)
        assert repr(cls(*args[:required])) == repr(twin(*args[:required]))
        # copies compare as the twin's do, and a pickle round trip keeps the value
        assert _outcome(lambda: copy.deepcopy(ours) == ours) == _outcome(
            lambda: copy.deepcopy(ref) == ref)
        assert repr(pickle.loads(pickle.dumps(ours))) == repr(ours)
        for name in [*names, "other"]:
            for target in (ours, ref):
                with pytest.raises(AttributeError):
                    setattr(target, name, None)
                with pytest.raises(AttributeError):
                    delattr(target, name)
        assert repr(ours) == repr(ref)
    first, second = (cls(*args) for args in _ARGS[cls])
    ref_first, ref_second = (twin(*args) for args in _ARGS[cls])
    assert _outcome(first.__eq__, second) == _outcome(ref_first.__eq__, ref_second)
    assert first.__eq__(object()) is NotImplemented


def test_derived_attributes_are_not_fields():
    # derived attributes, outside _fields, are not shown
    assert (_GEN.draw_ratios, _GEN.copies) == ((0.5,), 1)
    assert "draw_ratios" not in repr(_GEN)
    spectrum = moran.ScaleSpectrum([([0.5, 0.25], 1), ([0.25, 0.5], 1)])
    assert repr(spectrum) == "ScaleSpectrum(components=(((0.25, 0.5), 2),))"
    # a schedule's spectrum, and the report of solve_moran on it, are built on
    # first call and kept outside the fields
    for text, gcd in (("C[1/2,1/3] K[pi/5]", 1), ("C[1/2,1/3]^2 K[pi/5]^2", 2)):
        sched = schedule.schedule_from_text(text)
        spectrum = sched.spectrum()
        solved = moran.solve_moran(spectrum)
        assert sched.spectrum() is spectrum and moran.solve_moran(spectrum) is solved
        # dimension solves the spectrum itself only where its repeats have gcd 1
        assert (moran.dimension(spectrum) is solved) == (gcd == 1)
        fresh = (schedule.schedule_from_text(text), moran.ScaleSpectrum(spectrum.components))
        for kept, new in zip((sched, spectrum), fresh):
            assert (kept == new, hash(kept), repr(kept)) == (True, hash(new), repr(new))
            for copied in (copy.deepcopy(kept), pickle.loads(pickle.dumps(kept))):
                assert (copied == kept, hash(copied), repr(copied)) == (
                    True, hash(kept), repr(kept))

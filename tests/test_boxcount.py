import math
import random

import numpy as np
import pytest

import fractalc as fc
from fractalc import boxcount
from fractalc.errors import (
    DegenerateGeometry,
    GeometryOutOfRange,
    ScaleLadderInvalid,
    SegmentBudgetExceeded,
)
from helpers import reference_occupied_boxes, segment_set

KOCH_DIM = math.log(4) / math.log(3)
CANTOR_DIM = math.log(2) / math.log(3)


def line_set(x2=1.0, y2=0.0):
    return segment_set([[0.0, 0.0, x2, y2]])


def test_straight_line_has_dimension_one():
    report = fc.estimate_dimension(line_set(), scale_count=8, min_scale=1 / 512)
    assert abs(report.slope - 1.0) <= 0.02
    assert report.r_squared > 0.999


def test_koch_slope_near_theory():
    s = fc.iterate(fc.schedule_from_text("K[pi/3]"), 6)
    report = fc.estimate_dimension(s)
    assert abs(report.slope - KOCH_DIM) <= 0.05


def test_cantor_dust_slope_near_theory():
    s = fc.iterate(fc.schedule_from_text("C[1/3,1/3]"), 8)
    report = fc.estimate_dimension(s)
    assert abs(report.slope - CANTOR_DIM) <= 0.05


def test_counts_monotone_in_scale():
    s = fc.iterate(fc.schedule_from_text("K[pi/3]"), 6)
    report = fc.estimate_dimension(s)
    # scales descend, so occupied-box counts must never decrease
    assert all(a <= b for a, b in zip(report.counts, report.counts[1:]))
    assert all(a > b for a, b in zip(report.scales, report.scales[1:]))


def test_translation_robustness():
    rng = random.Random(71)
    s = fc.iterate(fc.schedule_from_text("K[pi/3]"), 5)
    base = fc.estimate_dimension(s).slope
    for _ in range(10):
        ox, oy = rng.uniform(-50, 50), rng.uniform(-50, 50)
        shifted = fc.SegmentSet(
            s.coords + np.array([ox, oy, ox, oy]),
            initiator_length=s.initiator_length,
            lengths=s.lengths,
        )
        moved = fc.estimate_dimension(shifted).slope
        assert abs(moved - base) < 0.02


def test_convergence_with_stage_depth():
    # fixed ladder: shallow stages degrade toward line counting at fine scales
    koch = fc.schedule_from_text("K[pi/3]")
    errs = {}
    for k in (4, 8):
        report = fc.estimate_dimension(fc.iterate(koch, k), scale_count=12, min_scale=3.0**-8)
        errs[k] = abs(report.slope - KOCH_DIM)
    assert errs[8] < errs[4]

    cantor = fc.schedule_from_text("C[1/3,1/3]")
    errs = {}
    for k in (4, 8):
        report = fc.estimate_dimension(fc.iterate(cantor, k), scale_count=14, min_scale=3.0**-8)
        errs[k] = abs(report.slope - CANTOR_DIM)
    assert errs[8] < errs[4]


def test_scale_ladder_validation():
    s = fc.iterate(fc.schedule_from_text("K[pi/3]"), 3)
    with pytest.raises(ScaleLadderInvalid):
        fc.estimate_dimension(s, scale_count=3)
    with pytest.raises(ScaleLadderInvalid):
        fc.estimate_dimension(s, min_scale=10.0)  # above the coarsest rung
    with pytest.raises(ScaleLadderInvalid):
        fc.estimate_dimension(s, min_scale=-1.0)
    # a shortest length that reads 0.0 is the figure's fault, not min_scale's
    tiny = fc.iterate(fc.schedule_from_text("C[1/1" + "0" * 322 + ",1/2]"), 3, L0=0.001)
    assert float(tiny.lengths.min()) == 0.0
    with pytest.raises(GeometryOutOfRange, match="shortest length"):
        fc.estimate_dimension(tiny)
    assert fc.estimate_dimension(tiny, min_scale=1e-5).counts


def test_degenerate_geometry_rejected():
    degenerate = segment_set([[1.0, 1.0, 1.0, 1.0]])
    with pytest.raises(DegenerateGeometry):
        fc.estimate_dimension(degenerate)
    with pytest.raises(DegenerateGeometry, match="no segments"):
        fc.estimate_dimension(segment_set(np.empty((0, 4))))


def test_diagonal_beyond_float_range_rejected():
    with pytest.raises(GeometryOutOfRange):
        fc.estimate_dimension(line_set(1.5e308, 1.5e308))


def test_report_serialization_schema():
    report = fc.estimate_dimension(line_set(), scale_count=6, min_scale=1 / 128)
    payload = report.to_json_dict()
    assert list(payload) == ["scales", "counts", "slope", "r_squared"]


def test_vertical_and_diagonal_lines():
    report = fc.estimate_dimension(line_set(0.0, 1.0), scale_count=8, min_scale=1 / 512)
    assert abs(report.slope - 1.0) <= 0.02
    report = fc.estimate_dimension(line_set(1.0, 1.0), scale_count=8, min_scale=1 / 512)
    assert abs(report.slope - 1.0) <= 0.05


def test_box_grid_too_large_for_int64_keys_rejected():
    # two short segments at opposite corners of a 1e10 x 1e10 grid
    coords = np.array([[0.0, 0.0, 5e-9, 3e-9], [1.0, 1.0, 1.0 - 4e-9, 1.0 - 6e-9]])
    with pytest.raises(ScaleLadderInvalid):
        boxcount._occupied_cells(coords, 0.0, 0.0, 1e-10, 10**10, 10**10, budget=10**6)
    # at 1e9 x 1e9 the keys fit
    expected = reference_occupied_boxes(coords, 0.0, 0.0, 1e-9, 10**9, 10**9)
    keys = boxcount._occupied_cells(coords, 0.0, 0.0, 1e-9, 10**9, 10**9, budget=10**6)
    assert len(keys) == expected


def test_box_count_budget_checked_before_expanding():
    s = fc.iterate(fc.schedule_from_text("K[pi/3]"), 1)
    with pytest.raises(SegmentBudgetExceeded) as info:
        fc.estimate_dimension(s, scale_count=40, min_scale=1e-12)
    assert "grid cells" in str(info.value)

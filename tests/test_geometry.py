import gc
import math
import random
import time

import numpy as np
import pytest

import fractalc as fc
from fractalc.errors import (
    DegenerateGeometry,
    GeometryOutOfRange,
    InputOutOfRange,
    InvalidAngle,
    RatiosExceedUnit,
    ScheduleSemanticError,
    SegmentBudgetExceeded,
)
from helpers import feasible_stage, histogram_of_lengths, random_schedule, segment_set


def koch():
    return fc.schedule_from_text("K[pi/3]")


def binary_koch():
    return fc.schedule_from_text("C[1/2,1/3] K[pi/3]")


# --- builtin generators --------------------------------------------------------


def test_koch_generator_closes_with_one_third_ratio():
    gen = fc.builtin_generator("K", math.pi / 3)
    assert gen.copies == 4
    assert all(r == pytest.approx(1 / 3, rel=1e-14) for r in gen.draw_ratios)
    assert [p.angle for p in gen.pieces] == [0.0, math.pi / 3, -math.pi / 3, 0.0]
    assert gen.connected


def test_koch_pi_quarter_ratio():
    gen = fc.builtin_generator("K", math.pi / 4)
    assert gen.draw_ratios[0] == pytest.approx(1 / (2 + math.sqrt(2)), rel=1e-14)


def test_koch_scale_law_is_the_unique_closure():
    for theta in (0.4, math.pi / 4, math.pi / 3, 1.3):
        rho = fc.koch_scale(theta)
        end = rho * (2 + 2 * math.cos(theta))
        assert end == pytest.approx(1.0, rel=1e-14)


def test_quadratic_koch_generator():
    gen = fc.builtin_generator("Q", math.pi / 2)
    assert gen.copies == 5
    assert all(r == 1 / 3 for r in gen.draw_ratios)
    assert [p.angle for p in gen.pieces] == [0.0, math.pi / 2, 0.0, -math.pi / 2, 0.0]


def test_cantor_middle_thirds():
    gen = fc.builtin_generator("C", [1 / 3, 1 / 3])
    flags = [(p.draw, p.ratio) for p in gen.pieces]
    assert [f for f, _ in flags] == [True, False, True]
    assert flags[1][1] == pytest.approx(1 / 3, rel=1e-14)  # equal-gap rule
    assert not gen.connected


def test_cantor_unequal_pieces_gap():
    gen = fc.builtin_generator("C", [1 / 2, 1 / 3])
    gaps = [p.ratio for p in gen.pieces if not p.draw]
    assert gaps == [pytest.approx(1 / 6, rel=1e-12)]


def test_cantor_single_piece():
    gen = fc.builtin_generator("C", [0.4])
    assert len(gen.pieces) == 1 and gen.pieces[0].draw


def test_generator_validation():
    with pytest.raises(InvalidAngle):
        fc.builtin_generator("K", 1.6)
    with pytest.raises(InvalidAngle):
        fc.builtin_generator("K", 0.0)
    with pytest.raises(InvalidAngle):
        fc.builtin_generator("Q", 1.0)
    with pytest.raises(RatiosExceedUnit):
        fc.builtin_generator("C", [0.6, 0.6])
    with pytest.raises(ScheduleSemanticError):
        fc.builtin_generator("G", [(0.3, 0.0, False)])
    with pytest.raises(ValueError):
        fc.builtin_generator("Z", None)


def test_custom_generator_connectivity():
    # closed all-draw chain: connected, like a hand-rolled Koch
    rho = fc.koch_scale(0.9)
    pieces = [(rho, a, True) for a in (0.0, 0.9, -0.9, 0.0)]
    assert fc.builtin_generator("G", pieces).connected
    assert not fc.builtin_generator("G", [(0.3, 0.5, True), (0.3, -0.5, True)]).connected


# --- iterate ---------------------------------------------------------------------


def test_koch_stage_one():
    s = fc.iterate(koch(), 1, L0=2.5)
    assert len(s) == 4
    assert s.lengths == pytest.approx(np.full(4, 2.5 / 3), rel=1e-14)


def test_binary_koch_stage_one():
    s = fc.iterate(binary_koch(), 1)
    assert len(s) == 8
    lengths = sorted(s.lengths)
    assert lengths[:4] == pytest.approx([1 / 9] * 4, rel=1e-12)
    assert lengths[4:] == pytest.approx([1 / 6] * 4, rel=1e-12)


def test_stage_zero_is_initiator():
    s = fc.iterate(binary_koch(), 0, L0=3.0)
    assert len(s) == 1
    assert s.coords.tolist() == [[0.0, 0.0, 3.0, 0.0]]


def test_budget_exceeded():
    with pytest.raises(SegmentBudgetExceeded) as err:
        fc.iterate(koch(), 9, budget=10_000)
    assert err.value.predicted == 4**9


def test_budget_far_exceeded_reports_power_of_ten():
    with pytest.raises(SegmentBudgetExceeded) as err:
        fc.iterate(koch(), 10_000)
    assert err.value.predicted is None
    assert "about 10^6020.6 segments" in str(err.value)
    huge_repeat = fc.schedule_from_text("K[pi/3]^" + "9" * 30)
    with pytest.raises(SegmentBudgetExceeded) as err:
        fc.iterate(huge_repeat, 1)
    assert err.value.predicted is None and "10^6.0206e+29" in str(err.value)


def test_one_piece_substages_count_against_the_budget():
    # a one-piece generator keeps a single segment: 2 stages apply 100
    # substages, at 300 units each
    sched = fc.schedule_from_text("C[1/2]^50")
    with pytest.raises(SegmentBudgetExceeded) as err:
        fc.iterate(sched, 2, budget=29_999)
    assert err.value.predicted == 30_000
    assert str(err.value) == (
        "stage would apply substages worth 30000 units, 300 per substage, over the budget of 29999"
    )
    s = fc.iterate(sched, 2, budget=30_000)
    assert len(s) == 1 and s.lengths[0] == 0.5**100


def test_budget_message_gives_power_of_ten_for_long_counts():
    err = SegmentBudgetExceeded(4**10_000, 10, "stage would produce {count} segments, over the "
                                "budget of {limit}")
    assert str(err) == "stage would produce about 10^6020.6 segments, over the budget of 10"
    assert err.predicted == 4**10_000


def test_census_budget_checked_before_enumerating():
    # C(2002, 2) buckets of 2^-h1 4^-h2 8^-h3, each 15 units plus one per 8
    # of the 955 digits of the total count 3^2000
    with pytest.raises(SegmentBudgetExceeded) as err:
        fc.segment_census(fc.schedule_from_text("C[1/2,1/4,1/8]"), 2000)
    assert err.value.predicted == math.comb(2002, 2) * (15 + 955 // 8)
    # equal ratios fold: the Koch item is one bucket at any stage
    sched = binary_koch()
    size = fc.work._census_size(sched, 5)
    assert size == 6
    units = fc.work._stage_units(sched, 5, fc.work.BUCKET_UNITS)
    assert units == 6 * 15
    assert sum(c for _, c in fc.segment_census(sched, 5, budget=units)) == 8**5
    with pytest.raises(SegmentBudgetExceeded):
        fc.segment_census(sched, 5, budget=units - 1)


def test_stage_count_law():
    rng = random.Random(61)
    for _ in range(20):
        sched = random_schedule(rng)
        k = feasible_stage(sched, 20_000, max_stage=3)
        assert len(fc.iterate(sched, k)) == sched.predicted_count(k)


def test_endpoint_preservation_connected_schedules():
    sched = fc.schedule_from_text("K[pi/4] Q[pi/2] K[pi/3]")
    for k in (1, 2):
        s = fc.iterate(sched, k, L0=2.0)
        assert (s.coords[0, 0], s.coords[0, 1]) == (0.0, 0.0)
        assert (s.coords[-1, 2], s.coords[-1, 3]) == (2.0, 0.0)


# --- census ------------------------------------------------------------------------


def test_census_against_enumeration_oracle():
    sched = binary_koch()
    census = fc.segment_census(sched, 2)
    expected_lengths = [(1 / 2) ** 2 / 9, (1 / 2) * (1 / 3) / 9, (1 / 3) ** 2 / 9]
    expected_counts = [16, 32, 16]
    assert [c for _, c in census] == expected_counts
    for (value, _), want in zip(census, expected_lengths):
        assert value == pytest.approx(want, rel=1e-12)
    # oracle: enumerate the stage-2 geometry and histogram its lengths
    measured = histogram_of_lengths(fc.iterate(sched, 2).lengths)
    assert [c for _, c in measured] == expected_counts
    for (value, _), (got, _) in zip(census, measured):
        assert got == pytest.approx(value, rel=1e-12)


def test_census_uniform_single_bucket():
    census = fc.segment_census(koch(), 5, L0=2.0)
    assert len(census) == 1
    value, count = census[0]
    assert count == 4**5
    assert value == pytest.approx(2.0 / 3**5, rel=1e-12)


@pytest.mark.parametrize("text,stage", [("K[pi/3]", 100), ("Q[pi/2]^3", 30)])
def test_census_of_equal_ratios_is_one_folded_bucket(text, stage):
    # C(103, 3) and C(94, 4) compositions before folding, one bucket after
    sched = fc.schedule_from_text(text)
    (gen, repeat), = sched.items
    t, rho = repeat * stage, gen.draw_ratios[0]
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        census = fc.segment_census(sched, stage)
        best = min(best, time.perf_counter() - start)
    assert census == [(rho**t, gen.copies**t)]
    assert best < 0.01


def test_census_rejects_bad_initiator_length():
    for L0 in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(InputOutOfRange):
            fc.segment_census(koch(), 2, L0)
        with pytest.raises(InputOutOfRange):
            fc.iterate(koch(), 2, L0)


@pytest.mark.parametrize("entry", ["iterate", "segment_census", "stats_report", "content"])
@pytest.mark.parametrize("expression", ["C[1/2,1/3]", "K[pi/3]"])
def test_negative_stage_rejected_by_every_entry_point(entry, expression):
    sched = fc.schedule_from_text(expression)
    args = (1.0,) if entry == "content" else ()
    with pytest.raises(InputOutOfRange, match="stage must be >= 0"):
        getattr(fc, entry)(sched, -1, *args)
    with pytest.raises(InputOutOfRange, match="stage must be an integer, got 1.5"):
        getattr(fc, entry)(sched, 1.5, *args)
    getattr(fc, entry)(sched, np.int64(1), *args)  # any integer type is a stage


def test_census_stage_zero():
    assert fc.segment_census(binary_koch(), 0, L0=1.5) == [(1.5, 1)]


def test_census_total_matches_geometry_fuzz():
    rng = random.Random(67)
    for _ in range(30):
        sched = random_schedule(rng)
        k = feasible_stage(sched, 10_000, max_stage=3)
        census = fc.segment_census(sched, k)
        segs = fc.iterate(sched, k)
        assert sum(c for _, c in census) == len(segs)
        measured = histogram_of_lengths(segs.lengths)
        assert [c for _, c in measured] == [c for _, c in census]
        for (value, _), (got, _) in zip(census, measured):
            assert got == pytest.approx(value, rel=1e-12)


# --- lengths and content --------------------------------------------------------------


def test_content_length_koch():
    assert fc.content(koch(), 3, 1.0, L0=2.0) == pytest.approx(2.0 * (4 / 3) ** 3, rel=1e-12)


def test_length_law_binary_koch():
    sched = binary_koch()
    s = fc.iterate(sched, 1)
    assert fc.total_length(s) == pytest.approx(10 / 9, rel=1e-12)
    assert fc.total_length(s) == pytest.approx(fc.content(sched, 1, 1.0), rel=1e-9)


def test_length_stage_zero():
    assert fc.content(binary_koch(), 0, 1.0, L0=7.0) == 7.0


def test_content_constant_at_dimension():
    alpha = math.log(4) / math.log(3)
    values = [fc.content(koch(), k, alpha, L0=2.0) for k in range(1, 11)]
    for v in values:
        assert v == pytest.approx(2.0**alpha, rel=1e-9)


def test_content_at_beta_one_is_length():
    for k in (1, 3, 5):
        assert fc.content(koch(), k, 1.0) == pytest.approx((4 / 3) ** k, rel=1e-12)


def test_content_constancy_at_solved_alpha():
    sched = binary_koch()
    alpha = fc.solve_moran(sched.spectrum()).alpha
    values = [fc.content(sched, k, alpha) for k in range(1, 11)]
    for v in values:
        assert v == pytest.approx(values[0], rel=1e-9)


def test_content_with_huge_repeats_stays_finite():
    # each factor (sum_j r_j^alpha)^100000 alone overflows a double at alpha
    sched = fc.schedule_from_text("C[1/2,1/3]^100000 C[1/4,1/9]^100000")
    alpha = fc.dimension(sched.spectrum()).alpha
    value = fc.content(sched, 2, alpha)
    assert math.isfinite(value)
    assert value == pytest.approx(1.0, rel=1e-6)


def test_content_above_the_float_range_is_inf():
    # 4^10000 pieces, each of content 1 at beta = 0
    assert fc.content(koch(), 10000, 0.0) == math.inf


@pytest.mark.parametrize("L0", [-1.0, 0.0, math.nan, math.inf])
def test_content_and_predicted_length_reject_bad_initiator(L0):
    for k in (0, 2):
        with pytest.raises(InputOutOfRange):
            fc.content(koch(), k, 1.5, L0)


@pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf])
def test_content_rejects_bad_beta(beta):
    for k in (0, 2):
        with pytest.raises(InputOutOfRange, match="beta must be finite and >= 0"):
            fc.content(fc.schedule_from_text("C[1/2,1/3]"), k, beta)


# --- svg / csv export --------------------------------------------------------------------


def test_svg_of_no_segments_is_degenerate(tmp_path):
    empty = fc.SegmentSet(np.empty((0, 4)), 1.0, np.empty(0))
    with pytest.raises(DegenerateGeometry, match="no segments"):
        fc.export_svg(empty, tmp_path / "empty.svg")
    assert not (tmp_path / "empty.svg").exists()


def test_svg_deterministic_and_styled(tmp_path):
    s = fc.iterate(koch(), 3)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    fc.export_svg(s, a)
    fc.export_svg(s, b)
    data = a.read_bytes()
    assert data == b.read_bytes()
    text = data.decode()
    assert text.startswith("<?xml")
    assert 'stroke="black"' in text and 'fill="white"' in text
    assert 'stroke-width="1"' in text
    assert "viewBox=" in text


def test_svg_chains_follow_connectivity(tmp_path):
    path = tmp_path / "out.svg"
    fc.export_svg(fc.iterate(koch(), 2), path)
    assert path.read_text().count("<polyline") == 1
    fc.export_svg(fc.iterate(fc.schedule_from_text("C[1/3,1/3]"), 1), path)
    assert path.read_text().count("<polyline") == 2


@pytest.mark.filterwarnings("error")
def test_figure_beyond_float_range_rejected(tmp_path):
    # coordinates overflow to inf, then nan, by stage 3
    with pytest.raises(GeometryOutOfRange):
        fc.iterate(fc.schedule_from_text("G[(0.9,3.1,draw);(0.9,0,draw)]"), 3, L0=1.5e308)
    # finite coordinates, but a total length of (4/3)^3 * 1e308; at stage 2
    # it is 1.78e308, still finite
    with pytest.raises(GeometryOutOfRange):
        fc.iterate(koch(), 3, L0=1e308)
    assert fc.total_length(fc.iterate(koch(), 2, L0=1e308)) == pytest.approx(16 / 9 * 1e308)
    # below it: 1e-12 of the figure's size, the overlap check's eps, reads 0.0
    # at L0 = 5e-324, and 1e-322 at L0 = 1e-310, where the figure still answers
    with pytest.raises(GeometryOutOfRange, match="leaves the float range"):
        fc.iterate(koch(), 2, L0=5e-324)
    small = fc.iterate(koch(), 2, L0=1e-310)
    assert fc.total_length(small) == pytest.approx(16 / 9 * 1e-310, rel=1e-9)
    assert not fc.detect_overlap(small)
    fc.export_svg(small, tmp_path / "small.svg")
    # a finite figure whose SVG view box, with its 5% margins, is not
    out = tmp_path / "wide.svg"
    with pytest.raises(GeometryOutOfRange):
        fc.export_svg(fc.iterate(koch(), 0, L0=1.7e308), out)
    assert not out.exists()


def over_render_limit() -> fc.SegmentSet:
    """Koch stage 3 (64 segments) tiled to 1,024,000 segments, over the 10^6 cap."""
    s = fc.iterate(koch(), 3)
    return fc.SegmentSet(np.tile(s.coords, (16_000, 1)), 1.0, lengths=np.tile(s.lengths, 16_000))


def test_svg_respects_render_limit(tmp_path):
    with pytest.raises(SegmentBudgetExceeded) as err:
        fc.export_svg(over_render_limit(), tmp_path / "too_big.svg")
    assert str(err.value) == "the figure has 1024000 segments, over the SVG export cap of 1000000"
    assert not (tmp_path / "too_big.svg").exists()


def test_csv_dump(tmp_path):
    path = tmp_path / "segments.csv"
    fc.export_csv(fc.iterate(binary_koch(), 1), path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 8
    first = lines[0].split(",")
    assert len(first) == 4
    assert first[2] == f"{1/6:.12g}"


# --- overlap detection -------------------------------------------------------------------


def seg_set(rows):
    return segment_set(rows)


def test_koch_does_not_overlap():
    assert fc.detect_overlap(fc.iterate(koch(), 4)) is False


def test_overlap_check_respects_render_limit():
    with pytest.raises(SegmentBudgetExceeded) as err:
        fc.detect_overlap(over_render_limit())
    assert str(err.value) == (
        "the figure has 1024000 segments, over the overlap check's cap of 1000000")


def test_superposed_segments_overlap():
    assert fc.detect_overlap(seg_set([[0, 0, 1, 0], [0, 0, 1, 0]])) is True


def test_shared_endpoint_is_not_overlap():
    assert fc.detect_overlap(seg_set([[0, 0, 1, 0], [1, 0, 2, 1]])) is False


def test_collinear_touch_is_not_overlap():
    assert fc.detect_overlap(seg_set([[0, 0, 1, 0], [1, 0, 2, 0]])) is False


def test_collinear_overlap_detected():
    assert fc.detect_overlap(seg_set([[0, 0, 1, 0], [0.5, 0, 1.5, 0]])) is True


def test_t_junction_detected():
    assert fc.detect_overlap(seg_set([[0, 0, 1, 0], [0.5, 0, 0.5, 1]])) is True


def test_proper_crossing_detected():
    assert fc.detect_overlap(seg_set([[0, 0, 1, 1], [0, 1, 1, 0]])) is True


def test_wide_angle_koch_flags_without_failing():
    result = fc.detect_overlap(fc.iterate(fc.schedule_from_text("K[1.4]"), 3))
    assert isinstance(result, bool)


def test_self_crossing_custom_generator_detected():
    sched = fc.schedule_from_text("G[(0.9,0,draw);(0.5,3.1,gap);(0.5,-0.05,draw)]")
    assert fc.detect_overlap(fc.iterate(sched, 1)) is True


def test_cantor_dust_never_overlaps():
    assert fc.detect_overlap(fc.iterate(fc.schedule_from_text("C[1/2,1/3]"), 4)) is False


def test_line_of_cantor_segments_does_not_overlap():
    # every segment on one line and cells far larger than most segments
    s = fc.iterate(fc.schedule_from_text("C[1/9,2/3,1/9]"), 8)
    assert fc.detect_overlap(s) is False


@pytest.mark.parametrize(
    "text", ["G[(0.8,0,draw);(0.1,1.5,draw);(0.1,-1.5,draw)]", "C[1/9,2/3,1/9]"]
)
def test_long_and_short_pieces_answer_at_once(text):
    # 19,683 segments, most of them far shorter than the longest; grid cells
    # sized by the longest segment paired tens of millions of them
    s = fc.iterate(fc.schedule_from_text(text), 9)
    start = time.perf_counter()
    assert fc.detect_overlap(s) is False
    assert time.perf_counter() - start < 1.0


@pytest.mark.filterwarnings("error")
def test_overlap_verdict_does_not_depend_on_scale():
    koch = fc.schedule_from_text("K[pi/3]")
    crossing = fc.schedule_from_text("G[(0.9,0,draw);(0.5,3.1,gap);(0.5,-0.05,draw)]")
    for exponent in range(-300, 301, 10):
        L0 = 10.0**exponent
        assert fc.detect_overlap(fc.iterate(koch, 3, L0)) is False, L0
        assert fc.detect_overlap(fc.iterate(crossing, 2, L0)) is True, L0


def test_zero_length_segments_overlap_nothing():
    # the finest pieces, 1e-24 long, collapse onto one point in float coordinates
    s = fc.iterate(fc.schedule_from_text("C[1/1000,1/2]"), 8)
    assert (s.coords[:, 0] == s.coords[:, 2]).any()
    assert fc.detect_overlap(s) is False


def test_census_leaves_no_reference_cycles():
    schedule = fc.schedule_from_text("C[1/2,1/3] K[pi/3]")
    gc.collect()
    gc.disable()
    try:
        fc.segment_census(schedule, 10)
        assert gc.collect() == 0
    finally:
        gc.enable()

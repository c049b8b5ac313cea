"""Box counting, overlap detection, SVG/CSV export, the census and the
incomplete-statistics layer against their loop references."""

import dataclasses
import itertools
import json
import math
import random
import tracemalloc
from collections import Counter

import mpmath
import numpy as np
import pytest

import fractalc as fc
from fractalc import boxcount, geometry
from helpers import (
    STATS_CORPUS,
    census_feasible_stage,
    census_size,
    feasible_stage,
    fuzz_cases,
    random_schedule,
    reference_component_buckets,
    reference_counts,
    reference_detect_overlap,
    reference_export_csv,
    reference_export_svg,
    reference_joint_factorization_check,
    reference_merge_buckets,
    reference_segment_census,
    reference_stats_report,
)

CROSSING = "G[(0.9,0,draw);(0.5,3.1,gap);(0.5,-0.05,draw)]"
UNEQUAL = "G[(0.19,0.03,draw);(0.19,1.11,draw);(0.52,-0.64,draw)]"

CORPUS = [
    ("K[pi/3]", 6),
    ("K[1.5]", 5),
    ("Q[pi/2]", 4),
    ("C[1/3,1/3]", 8),
    ("C[1/2,1/3] K[pi/3]", 3),
    (CROSSING, 10),
    (UNEQUAL, 6),
    ("C[1/8,1/2]", 10),
]


def _translated(s: fc.SegmentSet, ox: float, oy: float) -> fc.SegmentSet:
    return fc.SegmentSet(
        s.coords + np.array([ox, oy, ox, oy]),
        stage=s.stage,
        initiator_length=s.initiator_length,
        piece_lengths=s.lengths().copy(),
    )


def _copies(text: str, stage: int) -> list[fc.SegmentSet]:
    s = fc.iterate(fc.schedule_from_text(text), stage)
    return [s, _translated(s, 37.25, -11.5)]


@pytest.mark.parametrize("text,stage", CORPUS)
def test_box_counts_match_loop_reference(text, stage):
    for s in _copies(text, stage):
        report = fc.estimate_dimension(s)
        assert report.counts == reference_counts(s, report.scales)
        # a ladder below the smallest segment length: segments cross many gridlines
        finer = fc.estimate_dimension(s, scale_count=12, min_scale=float(s.lengths().min()) / 8)
        assert len(finer.scales) > len(report.scales)
        assert finer.counts == reference_counts(s, finer.scales)


def test_overlap_verdicts_match_loop_reference():
    verdicts = set()
    for text, stage in CORPUS:
        for s in _copies(text, stage):
            verdict = fc.detect_overlap(s)
            assert verdict == reference_detect_overlap(s), text
            verdicts.add(verdict)
    # the corpus exercises both verdicts
    assert verdicts == {True, False}


def test_box_counts_match_loop_reference_in_small_batches(monkeypatch):
    monkeypatch.setattr(boxcount, "_CELL_BATCH", 97)
    for text, stage in CORPUS[:6]:
        s = fc.iterate(fc.schedule_from_text(text), stage)
        report = fc.estimate_dimension(s, scale_count=12, min_scale=float(s.lengths().min()) / 4)
        assert report.counts == reference_counts(s, report.scales), text


EXPORT_CORPUS = [
    ("K[pi/3]", 5),
    ("Q[pi/2]", 3),
    ("C[1/2,1/3] K[pi/3]", 3),  # dust: chains of one to four segments
    (CROSSING, 9),  # gap pieces
    ("K[pi/3]", 0),
]


def _signed_zero_figure() -> fc.SegmentSet:
    # -0.0 and tiny coordinates that format as -0.000000, one of them after the
    # y flip; the last segment starts a second chain
    coords = np.array(
        [
            [-0.0, 0.0, 0.5, -0.0],
            [0.5, -0.0, 1.0, 1e-9],
            [1.0, 1e-9, -4e-7, 3e-7],
            [2.0, -2e-7, 2.0, 1.0],
        ]
    )
    return fc.SegmentSet(coords, stage=1, initiator_length=1.0)


def _export_figures() -> list[fc.SegmentSet]:
    figures = [fc.iterate(fc.schedule_from_text(t), k) for t, k in EXPORT_CORPUS]
    figures.append(_signed_zero_figure())
    for sched, k in fuzz_cases(103, 40):
        figures.append(fc.iterate(sched, min(k, feasible_stage(sched, 2_000))))
    return figures


@pytest.mark.parametrize("chunk", [geometry._EXPORT_CHUNK, 7])
def test_exports_match_loop_reference(tmp_path, monkeypatch, chunk):
    # 7 rows per chunk puts chunk boundaries inside and between chains
    monkeypatch.setattr(geometry, "_EXPORT_CHUNK", chunk)
    got, want = tmp_path / "got", tmp_path / "want"
    for s in _export_figures():
        fc.export_svg(s, got)
        reference_export_svg(s, want)
        assert got.read_bytes() == want.read_bytes()
        fc.export_csv(s, got)
        reference_export_csv(s, want)
        assert got.read_bytes() == want.read_bytes()


def test_exports_stream_in_bounded_memory(tmp_path):
    s = fc.iterate(fc.schedule_from_text("K[pi/3]"), 9)
    for export in (fc.export_svg, fc.export_csv):
        tracemalloc.start()
        try:
            export(s, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, (export.__name__, peak)


def _assert_merged_close(got, want):
    """Same counts, bucket count and order; values within the 1e-12 merge tolerance."""
    assert [c for _, c in got] == [c for _, c in want]
    for (v, _), (w, _) in zip(got, want):
        assert abs(v - w) <= 1e-12 * w


def _repeats_a_ratio(schedule) -> bool:
    return any(len(set(gen.draw_ratios)) < gen.copies for gen, _ in schedule.items)


@pytest.mark.parametrize(
    "ratios",
    [(0.5,), (1 / 3, 0.25), (0.2, 0.3, 0.25), (1 / 3,) * 4, (0.4, 1e-3, 0.999, 0.1, 0.2),
     (0.25, 0.125, 0.25), (0.3, 0.3, 0.2, 0.2, 0.3)],
)
def test_component_buckets_match_recursive_reference(ratios):
    # equal ratios fold into one bucket per distinct-ratio exponent vector, so
    # the reference's compositions agree once merged; with no repeated ratio
    # the buckets are bit-identical
    for t in (0, 1, 2, 7, 19):
        got = geometry._component_buckets(ratios, t)
        want = reference_component_buckets(ratios, t)
        if len(set(ratios)) == len(ratios):
            assert got == want
        _assert_merged_close(reference_merge_buckets(got), reference_merge_buckets(want))


# --- incomplete statistics ----------------------------------------------------

FACTOR_PAIRS = [
    ("C[1/2,1/3]", "K[pi/3]"),
    ("K[pi/3]", "K[pi/3]"),
    ("C[1/2,1/4,1/6]", "K[pi/4] K[pi/3]"),
    ("C[1/2,1/4,1/6] K[pi/4]", "K[pi/3]"),
]


def _same_stats(sched, k):
    got = json.dumps(fc.stats_report(sched, k))
    assert got == json.dumps(reference_stats_report(sched, k))


@pytest.mark.parametrize("text,stage", STATS_CORPUS)
def test_stats_report_matches_reference(text, stage):
    _same_stats(fc.schedule_from_text(text), stage)


def test_stats_report_matches_reference_on_fuzz():
    for sched, k in fuzz_cases(89, 60):
        for stage in (0, 1, k):
            _same_stats(sched, stage)


def _same_factorization(a, b, k):
    got = dataclasses.asdict(fc.joint_factorization_check(a, b, k))
    assert json.dumps(got) == json.dumps(reference_joint_factorization_check(a, b, k))


@pytest.mark.parametrize("left,right", FACTOR_PAIRS)
def test_joint_factorization_matches_reference(left, right):
    a, b = fc.schedule_from_text(left), fc.schedule_from_text(right)
    for k in range(4):
        _same_factorization(a, b, k)


def test_joint_factorization_matches_reference_on_fuzz():
    rng = random.Random(97)
    done = 0
    while done < 30:
        a = random_schedule(rng, max_items=2, max_repeat=2)
        b = random_schedule(rng, max_items=2, max_repeat=2)
        joint = fc.CompositionSchedule(a.items + b.items)
        k = census_feasible_stage(joint, 5_000, max_stage=3)
        if census_size(joint, k) > 5_000:
            continue
        _same_factorization(a, b, k)
        done += 1


def _census_cases():
    return fuzz_cases(101, 60) + [(fc.schedule_from_text(t), k) for t, k in STATS_CORPUS]


def test_segment_census_matches_reference():
    folded = 0
    for sched, k in _census_cases():
        for L0 in (1.0, 2.5):
            got, want = fc.segment_census(sched, k, L0), reference_segment_census(sched, k, L0)
            if _repeats_a_ratio(sched):
                folded += 1
            else:
                assert got == want
            _assert_merged_close(got, want)
    assert folded > 0


def _mpmath_census(schedule, k: int, L0: float) -> list:
    """Stage-k census at 50 digits: every composition over every piece, crossed, merged."""
    with mpmath.workdps(50):
        cross = [(mpmath.mpf(L0), 1)]
        for gen, repeat in schedule.items:
            ratios = [mpmath.mpf(r) for r in gen.draw_ratios]
            t = repeat * k
            comp = []
            for pieces in itertools.combinations_with_replacement(range(len(ratios)), t):
                h = Counter(pieces)
                value = mpmath.fprod(ratios[j] ** h[j] for j in h)
                count = math.factorial(t)
                for g in h.values():
                    count //= math.factorial(g)
                comp.append((value, count))
            cross = [(v * w, c * d) for v, c in cross for w, d in comp]
        return reference_merge_buckets(cross)


def test_segment_census_lengths_match_mpmath():
    worst = 0.0
    for sched, k in _census_cases():
        for L0 in (1.0, 2.5):
            got, want = fc.segment_census(sched, k, L0), _mpmath_census(sched, k, L0)
            assert [c for _, c in got] == [c for _, c in want]
            for (v, _), (w, _) in zip(got, want):
                worst = max(worst, float(abs(mpmath.mpf(v) - w) / w))
    assert worst <= 4 * 2.0**-52

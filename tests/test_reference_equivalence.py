"""Box counting, overlap detection, SVG/CSV export, the census and the
incomplete-statistics layer against their loop references."""

import itertools
import json
import math
import random
import sys
import threading
import tracemalloc
from collections import Counter

import mpmath
import numpy as np
import pytest

import fractalc as fc
from fractalc import boxcount, census, geometry
from fractalc.errors import ScaleLadderInvalid
from fractalc.schedule import Generator, Piece
from helpers import (
    STATS_CORPUS,
    assert_merged_close,
    brute_force_overlap,
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
    reference_merge_buckets,
    reference_segment_census,
    reference_stats_report,
    segment_set,
    segment_soup,
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
        initiator_length=s.initiator_length,
        lengths=s.lengths,
    )


def _copies_of(s: fc.SegmentSet) -> list[fc.SegmentSet]:
    return [s, _translated(s, 37.25, -11.5)]


def _copies(text: str, stage: int) -> list[fc.SegmentSet]:
    return _copies_of(fc.iterate(fc.schedule_from_text(text), stage))


@pytest.mark.parametrize("text,stage", CORPUS)
def test_box_counts_match_loop_reference(text, stage):
    for s in _copies(text, stage):
        report = fc.estimate_dimension(s)
        assert report.counts == reference_counts(s, report.scales)
        # a ladder below the smallest segment length: segments cross many gridlines
        finer = fc.estimate_dimension(s, scale_count=12, min_scale=float(s.lengths.min()) / 8)
        assert len(finer.scales) > len(report.scales)
        assert finer.counts == reference_counts(s, finer.scales)


def test_box_counts_match_loop_reference_on_fuzzed_schedules():
    # only the finest rung is walked; the coarser counts are derived from it
    checked = 0
    for sched, k in fuzz_cases(107, 40):
        s = fc.iterate(sched, min(k, feasible_stage(sched, 2_000)))
        finer = {"scale_count": 12, "min_scale": float(s.lengths.min()) / 8}
        for c in _copies_of(s):
            for ladder in ({}, finer):
                try:
                    report = fc.estimate_dimension(c, **ladder)
                except ScaleLadderInvalid:
                    continue  # one segment: no ladder of four rungs above its length
                assert report.counts == reference_counts(c, report.scales)
                checked += 1
    assert checked >= 150


def test_box_counts_through_grid_corners_match_loop_reference():
    # the first leg, of slope 3 from the anchor corner, passes exactly through
    # a grid corner at every column edge of every rung; which cells it reaches
    # there depends on the rounding of the strip edges
    zigzag = np.array([[0.0, 0.0, 1.0, 3.0], [1.0, 3.0, 2.0, 0.0], [2.0, 0.0, 3.0, 3.0]])
    for c in _copies_of(segment_set(zigzag)):
        for min_scale in (1e-2, 1e-3):
            report = fc.estimate_dimension(c, scale_count=14, min_scale=min_scale)
            assert report.counts == reference_counts(c, report.scales)


_EDGE_RUNGS, _EDGE_M = 8, 200


def _edge_eps(h: float) -> float:
    return math.hypot(2.0, h) / 4.0 * 0.5 ** (_EDGE_RUNGS - 1)


def _edge_height(columns: int, excess: float) -> float:
    """Height h of the legs (0, 0)-(1, h)-(2, 0) at which the finest of
    _EDGE_RUNGS rungs, eps, has `columns` columns and the rung above it m,
    with 2 / eps between 2m + `excess` / 2 and 2m + 2 `excess`."""
    m = _EDGE_M
    h = math.sqrt((4.0 * 2 ** (_EDGE_RUNGS - 1) / m) ** 2 - 4.0)  # 2 / eps == 2m in reals
    for _ in range(10_000):
        eps = _edge_eps(h)
        grids = boxcount._cells_along(2.0, eps), boxcount._cells_along(2.0, 2 * eps)
        if grids == (columns, m) and excess / 2 < 2.0 / eps - 2 * m < 2 * excess:
            return h
        h = math.nextafter(h, math.inf if 2.0 / eps - 2 * m > excess else 0.0)
    raise AssertionError(f"no height gives {columns} and {m} columns")


def _edge_counts_match(legs, h: float) -> None:
    s = segment_set(legs)
    report = fc.estimate_dimension(s, scale_count=_EDGE_RUNGS, min_scale=1e-6)
    assert report.scales[-1] == _edge_eps(h)
    assert report.counts == reference_counts(s, report.scales)


@pytest.mark.parametrize("axis", [0, 1])
def test_box_counts_at_the_clamp_edge_match_loop_reference(axis):
    # 2 / eps lies 1e-12 to 2e-12 above 2m: the finest rung has 2m + 1 columns,
    # the last holding only the figure's far edge, and it halves into column m,
    # past the m columns of the rung above
    h = _edge_height(2 * _EDGE_M + 1, 1.5e-12)
    assert 1e-12 < 2.0 / _edge_eps(h) - 2 * _EDGE_M < 2e-12
    # unclamped, the far point's coarse cell would be (m, 0) along x, past the
    # grid, or (i + 1, 0) along y, so the y figure puts it in the last column
    if axis == 0:
        _edge_counts_match([[0.0, 0.0, 1.0, h], [1.0, h, 2.0, 0.0]], h)
    else:
        _edge_counts_match([[h, 0.0, 0.0, 1.0], [0.0, 1.0, h, 2.0]], h)


def test_box_counts_past_the_last_gridline_match_loop_reference():
    # 2 / eps lies under 1e-12 above 2m: the 2m columns of the finest rung end
    # just short of the figure. A leg across three columns that ends in that
    # sliver, on a row line, reaches the row above only there, so the last
    # strip must run on past the grid's edge.
    h = _edge_height(2 * _EDGE_M, 0.5e-12)
    eps = _edge_eps(h)
    assert 2 * _EDGE_M * eps < 2.0
    legs = [[0.0, 0.0, 1.0, h], [1.0, h, 2.0, 0.0], [2.0 - 3 * eps, 27.7 * eps, 2.0, 28 * eps]]
    _edge_counts_match(legs, h)


def test_overlap_verdicts_match_loop_reference():
    verdicts = set()
    for text, stage in CORPUS:
        for s in _copies(text, stage):
            verdict = fc.detect_overlap(s)
            assert verdict == reference_detect_overlap(s), text
            verdicts.add(verdict)
    # the corpus exercises both verdicts
    assert verdicts == {True, False}


def test_long_and_short_pieces_verdict_matches_loop_reference():
    s = fc.iterate(fc.schedule_from_text("G[(0.8,0,draw);(0.1,1.5,draw);(0.1,-1.5,draw)]"), 6)
    assert fc.detect_overlap(s) is False
    assert reference_detect_overlap(s) is False


def test_overlap_verdicts_match_brute_force_on_segment_soups():
    rng = random.Random(2026)
    verdicts = Counter()
    for _ in range(2400):
        family, s = segment_soup(rng)
        verdict = fc.detect_overlap(s)
        assert verdict == brute_force_overlap(s), (family, s.initiator_length, s.coords.tolist())
        verdicts[family, verdict] += 1
    # each of the four families gives both verdicts, and often
    assert len(verdicts) == 8 and min(verdicts.values()) > 100, verdicts


# 2^k horizontal copies stacked far closer than their length: one strip as
# tall as the longest segment held them all
STACKED = "G[(0.4,0,draw);(0.4,3.141592,gap);(0.000001,pi/2,gap);(0.4,0,draw)]"


def test_stacked_segments_verdict_matches_brute_force():
    s = fc.iterate(fc.schedule_from_text(STACKED), 9)
    assert fc.detect_overlap(s) is brute_force_overlap(s) is False


def test_stacked_segments_enumerate_linearly_many_candidates(monkeypatch):
    # one _pairs_overlap call per chunk of enumerated candidates: at most 4n
    # candidates in all; strips as tall as the longest segment paired all
    # n (n - 1) / 2
    calls = []
    pairs_overlap = geometry._pairs_overlap

    def counted(a, b, eps):
        calls.append(len(a))
        return pairs_overlap(a, b, eps)

    monkeypatch.setattr(geometry, "_PAIR_CHUNK", 1024)
    monkeypatch.setattr(geometry, "_pairs_overlap", counted)
    s = fc.iterate(fc.schedule_from_text(STACKED), 16)
    assert fc.detect_overlap(s) is False
    assert 0 < len(calls) <= math.ceil(4 * len(s) / 1024), len(calls)


def test_strip_edge_soups_lie_on_strip_edges():
    # detect_overlap's strips are the largest |dy| high; with a vertical unit
    # step among its segments, a strip-edge soup has its horizontal segments
    # on the strip edges y = (j - 1/2) h
    rng = random.Random(2026)
    on_edges = 0
    for _ in range(400):
        family, s = segment_soup(rng)
        x1, y1, x2, y2 = s.coords.T
        h = np.abs(y2 - y1).max()
        flat = y1[(y1 == y2) & (x1 != x2)]
        if family == "strip-edge" and math.isclose(h, s.initiator_length) and len(flat):
            offsets = flat / h + 0.5
            assert np.allclose(offsets, np.round(offsets), rtol=0.0, atol=1e-9), s.coords
            on_edges += 1
    assert on_edges > 80, on_edges


def test_overlap_verdicts_match_loop_reference_in_small_chunks(monkeypatch):
    monkeypatch.setattr(geometry, "_PAIR_CHUNK", 97)
    for text, stage in CORPUS:
        for s in _copies(text, stage):
            assert fc.detect_overlap(s) == reference_detect_overlap(s), text
    # chunks of one and two pairs put chunk edges on row starts, and rows
    # without candidates between and inside chunks
    for chunk in (97, 1, 2):
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
        rng = random.Random(2027)
        for _ in range(400):
            family, s = segment_soup(rng)
            assert fc.detect_overlap(s) == brute_force_overlap(s), (chunk, family, s.coords.tolist())


def test_box_counts_match_loop_reference_in_small_batches(monkeypatch):
    monkeypatch.setattr(boxcount, "_CELL_BATCH", 97)
    for text, stage in CORPUS[:6]:
        s = fc.iterate(fc.schedule_from_text(text), stage)
        report = fc.estimate_dimension(s, scale_count=12, min_scale=float(s.lengths.min()) / 4)
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
    return segment_set(coords)


def _rows_meeting_at_signed_zeros() -> fc.SegmentSet:
    # consecutive rows meet at 0.0 and then at -0.0: equal floats, different
    # CSV text, so a row may reuse the text of the row before it only when the
    # bits match
    coords = np.array(
        [
            [1.0, 1.0, 0.0, 0.0],
            [-0.0, 0.0, 1.0, -0.0],
            [1.0, 0.0, 2.0, 2.0],
        ]
    )
    return segment_set(coords)


def _export_figures() -> list[fc.SegmentSet]:
    figures = [fc.iterate(fc.schedule_from_text(t), k) for t, k in EXPORT_CORPUS]
    # tiny values, 8- to 12-digit integer parts, and values that leave the
    # kernel's exact range in part (1e11 and 1e13: it ends at 1e12) or almost
    # all (1e20)
    koch = fc.schedule_from_text("K[pi/3]")
    figures += [fc.iterate(koch, 3, L0) for L0 in (1e-7, 3e7, 1e9, 1e11, 1e13, 1e20)]
    figures.append(_signed_zero_figure())
    figures.append(_rows_meeting_at_signed_zeros())
    for sched, k in fuzz_cases(103, 40):
        figures.append(fc.iterate(sched, min(k, feasible_stage(sched, 2_000))))
    return figures


@pytest.mark.parametrize("chunk", [1024, geometry._EXPORT_CHUNK, 7])
def test_exports_match_loop_reference(tmp_path, monkeypatch, chunk):
    # 7 rows per chunk puts chunk boundaries inside and between chains; 1024
    # splits the larger corpus figures, which the 4096 of _EXPORT_CHUNK
    # holds in one chunk
    monkeypatch.setattr(geometry, "_EXPORT_CHUNK", chunk)
    got, want = tmp_path / "got", tmp_path / "want"
    for s in _export_figures():
        fc.export_svg(s, got)
        reference_export_svg(s, want)
        assert got.read_bytes() == want.read_bytes()
        fc.export_csv(s, got)
        reference_export_csv(s, want)
        assert got.read_bytes() == want.read_bytes()


def _fixed6_families(rng: np.random.Generator) -> list[np.ndarray]:
    """About 2.0M values for the %.6f kernel: families of 2^17, and of 2^14
    where most values have hundreds of digits."""
    n, few = 1 << 17, 1 << 14
    sign = rng.choice([-1.0, 1.0], n)
    ints = rng.integers(0, 10**8, n).astype(float)
    # the float nearest a decimal tie, and its neighbours
    near_ties = ints + (rng.integers(0, 10**6, n) + 0.5) / 1e6
    return [
        # random bit patterns: every exponent, both signs, nan, inf, subnormals
        rng.integers(0, 2**64, few, dtype=np.uint64).view(np.float64),
        sign * rng.uniform(0.0, 1e8, n),
        sign * 10.0 ** rng.uniform(-12.0, 8.0, n),
        # from 1e8 up: exact below 1e12, and every larger value falls back
        sign[:few] * 10.0 ** rng.uniform(8.0, 300.0, few),
        sign * near_ties,
        sign * np.nextafter(near_ties, np.inf),
        sign * np.nextafter(near_ties, 0.0),
        # exact dyadic ties: a fraction of odd/128 puts a 5 in the 7th decimal
        sign * (ints + (2 * rng.integers(0, 64, n) + 1) / 128),
        # carries, into the units digit and up to 1e8
        sign * (ints + 0.9999995 + rng.uniform(-1e-9, 1e-9, n)),
        # near 1e8, on both sides
        sign * (1e8 + np.ldexp(rng.integers(-(1 << 20), 1 << 20, n).astype(float), -26)),
        # signed zeros and subnormals
        np.copysign(rng.integers(0, 2**52, n, dtype=np.uint64).view(np.float64) * (rng.random(n) < 0.5), sign),
        *_fixed6_wide_families(rng, sign),
    ]


def _fixed6_wide_families(rng: np.random.Generator, sign: np.ndarray) -> list[np.ndarray]:
    """The %.6f kernel's range from 1e8 to 1e12, its edge, and past it."""
    n, few = len(sign), 1 << 14
    ints = np.floor(10.0 ** rng.uniform(8.0, 12.0, n))
    near_ties = ints + (rng.integers(0, 10**6, n) + 0.5) / 1e6
    return [
        sign * 10.0 ** rng.uniform(8.0, 12.0, n),
        sign * near_ties,
        sign * np.nextafter(near_ties, np.inf),
        sign * np.nextafter(near_ties, 0.0),
        # carries into the units digit, up to 1e12
        sign * (ints + 0.9999995 + rng.uniform(-1e-5, 1e-5, n)),
        # within 2^20 ulps (2^-13 each) of 1e12, on both sides
        sign * (1e12 + np.ldexp(rng.integers(-(1 << 20), 1 << 20, n).astype(float), -13)),
        # from 1e12 up: every value falls back
        sign[:few] * 10.0 ** rng.uniform(12.0, 300.0, few),
    ]


@pytest.mark.filterwarnings("error")
def test_fixed6_kernel_matches_python_format():
    # oracle: CPython's '%.6f' % v one value at a time, -0.000000 written as
    # 0.000000, each after its separator byte (0 for none)
    rng = np.random.default_rng(2031)
    special = np.array(
        [99999999.9999995, -99999999.9999995, 99999999.9999994, 9.9999995, 0.9999995,
         np.nextafter(1e8, 0.0), 1e8, -1e8, 0.0, -0.0, 5e-324, -5e-324, -4e-7, -5e-7,
         -6e-7, 5e-7, np.nextafter(5e-7, np.inf), np.nextafter(-5e-7, -np.inf), 0.0078125,
         -0.0234375, 2.0**-20, np.nan, np.inf, -np.inf]
    )
    # around the values that round to zero, |v| <= 5e-7
    for values in [special, *_fixed6_families(rng), rng.uniform(-1e-6, 1e-6, 1 << 14)]:
        seps = rng.choice(np.frombuffer(b", \n\0", dtype=np.uint8), len(values))
        want = "".join(
            (chr(sep) if sep else "") + ("0.000000" if text == "-0.000000" else text)
            for text, sep in zip(map("%.6f".__mod__, values.tolist()), seps.tolist())
        )
        assert geometry._fixed6(values, seps) == want.encode()


def _g12_families(rng: np.random.Generator) -> list[np.ndarray]:
    """About 1.4M values for the %.12g kernel: families of 2^16 and 2^14,
    within its exact range (zeros, 1e-4 <= |v| < 1e12) and past it."""
    n, few = 1 << 16, 1 << 14
    sign = rng.choice([-1.0, 1.0], n)
    # decades 1e-5 to 1e3: X = floor(log10 |v|) of the value's leading digit
    x = rng.integers(-5, 4, n)
    # the float nearest a 12-significant-digit decimal tie, and its neighbours
    exact = np.array([float(10**k) for k in range(17)])
    digits = rng.integers(10**11, 10**12, n)
    near_ties = (2 * digits + 1) / (2 * exact[11 - x])
    # exact dyadic ties: odd / 2^(12 - x) in the decade of x has 13 significant digits, the last a 5
    ties = rng.integers(-4, 2, n)
    lo, hi = 10.0 ** ties * 2.0 ** (12 - ties), 10.0 ** (ties + 1) * 2.0 ** (12 - ties)
    odd = 2 * np.floor(rng.uniform(lo, hi) / 2) + 1
    powers = np.array([10.0**k for k in range(-7, 5)])
    return [
        # random bit patterns: every exponent, both signs, nan, inf, subnormals
        rng.integers(0, 2**64, few, dtype=np.uint64).view(np.float64),
        sign * rng.uniform(0.0, 100.0, n),
        sign * rng.uniform(0.0, 1.0, n),
        sign * 10.0 ** rng.uniform(-4.0, 2.0, n),
        # below 1e-4 (exponent form), where every nonzero value falls back,
        # and from 100 up, exact below 1e12
        sign[:few] * 10.0 ** rng.uniform(-12.0, -4.0, few),
        sign[:few] * 10.0 ** rng.uniform(2.0, 20.0, few),
        sign * near_ties,
        sign * np.nextafter(near_ties, np.inf),
        sign * np.nextafter(near_ties, 0.0),
        sign * np.ldexp(odd, ties - 12),
        # carries: below a power of ten by less than half a 12th digit, or by
        # more, and up from a fraction of nines into the integer part
        sign * 10.0 ** (x + 1) * (1.0 - rng.uniform(0.0, 1e-12, n)),
        sign * (rng.integers(0, 100, n) + 1.0 - 10.0 ** (x - 12.0) * rng.uniform(0.0, 10.0, n)),
        # powers of ten and the floats up to two ulps either side
        np.concatenate([s * q for s in (-1.0, 1.0) for q in (
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            np.nextafter(np.nextafter(powers, 0.0), 0.0),
            np.nextafter(np.nextafter(powers, np.inf), np.inf))]),
        # the 1e-4 boundary, and values below it that round up onto it
        sign * 1e-4 * (1.0 + rng.integers(-8, 9, n) * 2.0**-52),
        sign * 1e-4 * (1.0 - rng.uniform(0.0, 1e-11, n)),
        # signed zeros and subnormals
        np.copysign(rng.integers(0, 2**52, n, dtype=np.uint64).view(np.float64) * (rng.random(n) < 0.5), sign),
        *_g12_wide_families(rng, sign),
    ]


def _g12_wide_families(rng: np.random.Generator, sign: np.ndarray) -> list[np.ndarray]:
    """The %.12g kernel's range from 100 to 1e12, its edge, and past it."""
    n, few = len(sign), 1 << 14
    # decades 1e2 to 1e11, as in _g12_families
    x = rng.integers(2, 12, n)
    exact = np.array([float(10**k) for k in range(17)])
    near_ties = (2 * rng.integers(10**11, 10**12, n) + 1) / (2 * exact[11 - x])
    # odd / 2^(12 - x) in the decade of x: 13 significant digits, the last a 5
    lo, hi = 10.0**x * 2.0 ** (12 - x), 10.0 ** (x + 1) * 2.0 ** (12 - x)
    odd = 2 * np.floor(rng.uniform(lo, hi) / 2) + 1
    return [
        sign * 10.0 ** rng.uniform(2.0, 12.0, n),
        sign * near_ties,
        sign * np.nextafter(near_ties, np.inf),
        sign * np.nextafter(near_ties, 0.0),
        sign * np.ldexp(odd, x - 12),
        # carries onto the next power of ten, and up from a fraction of nines
        sign * 10.0 ** (x + 1) * (1.0 - rng.uniform(0.0, 1e-12, n)),
        sign * (np.floor(10.0 ** rng.uniform(x, x + 1)) + 1.0
                - 10.0 ** (x - 12.0) * rng.uniform(0.0, 10.0, n)),
        # within 2^20 ulps (2^-13 each) of 1e12, on both sides
        sign * (1e12 + np.ldexp(rng.integers(-(1 << 20), 1 << 20, n).astype(float), -13)),
        # from 1e12 up: every value falls back
        sign[:few] * 10.0 ** rng.uniform(12.0, 300.0, few),
    ]


@pytest.mark.filterwarnings("error")
def test_g12_kernel_matches_python_format():
    # oracle: CPython's '%.12g' % v one value at a time, each after its
    # separator byte (0 for none)
    rng = np.random.default_rng(2039)
    special = np.array(
        [9.99999999999995, -9.99999999999995, 99.99999999999997, 99.9999999999994,
         0.999999999999995, 9.999999999999999e-5, 1e-4, -1e-4, 0.0, -0.0, 5e-324,
         -5e-324, 1.0, 0.1, 10.0, 100.0, 0.5, 2.0**-40, np.nan, np.inf, -np.inf]
    )
    for values in [special, *_g12_families(rng)]:
        seps = rng.choice(np.frombuffer(b", \n\0", dtype=np.uint8), len(values))
        want = "".join(
            (chr(sep) if sep else "") + text
            for text, sep in zip(map("%.12g".__mod__, values.tolist()), seps.tolist())
        )
        rows, ok = geometry._digit_rows(values, *geometry._G12)
        assert geometry._render(rows, seps, values[~ok]) == want.encode()


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exports_stream_in_bounded_memory(tmp_path):
    # 65,536 segments span 16 export chunks; their text is a quarter of the
    # stage-9 figure's, for which 10 MiB was the bound, so 2.5 MiB is here.
    # Built whole, the text takes about 11 MB (SVG) and 13.5 MB (CSV).
    s = fc.iterate(fc.schedule_from_text("K[pi/3]"), 8)
    small = fc.iterate(fc.schedule_from_text("K[pi/3]"), 4)
    for export in (fc.export_svg, fc.export_csv):
        export(small, tmp_path / "out")  # the cached digit tables are not the export's memory
        peak = _traced_peak(lambda: export(s, tmp_path / "out"))
        assert peak < 10 * 2**20 // 4, (export.__name__, peak)


def test_digit_tables_build_in_bounded_memory():
    # the tables take 168 KB; a build through int64 temporaries traces 2.5 MiB
    geometry._digit_tables()  # numpy imported: its import is not the build's memory
    assert _traced_peak(geometry._digit_tables.__wrapped__) < 2**20 // 2


def test_overlap_check_and_box_counting_run_in_bounded_memory():
    # peak traced bytes per segment of the figure, whose own coordinates and
    # lengths take 40 bytes; the candidate chunks and cell batches are fixed
    # in size. iterate reads about 64 and box counting about 33 at stage 8
    sched = fc.schedule_from_text("K[pi/3]")
    s = fc.iterate(sched, 8)
    small = fc.iterate(sched, 4)
    for check, bound in ((fc.detect_overlap, 150), (fc.estimate_dimension, 45)):
        check(small)  # lazy imports are not the check's working memory
        peak = _traced_peak(lambda: check(s))
        assert peak <= bound * len(s), (check.__name__, peak / len(s))
    peak = _traced_peak(lambda: fc.iterate(sched, 8))
    assert peak <= 80 * len(s), ("iterate", peak / len(s))


def _repeats_a_ratio(sched) -> bool:
    return any(len(set(gen.draw_ratios)) < gen.copies for gen, _ in sched.items)


def _fold(ratios) -> tuple[tuple[float, int], ...]:
    """The fold of a component with these draw ratios, as `Generator` builds it."""
    return Generator(tuple(Piece(r, 0.0, True) for r in ratios), connected=False).fold


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
        got = census._component_buckets(_fold(ratios), t)
        want = reference_component_buckets(ratios, t)
        if len(set(ratios)) == len(ratios):
            assert got == want
        assert_merged_close(reference_merge_buckets(got), reference_merge_buckets(want))


def test_binomial_rows_match_math_comb():
    # a fresh table, and the rows the census keeps for t <= census._SHORT_ROW
    rows = census._BinomialRows()
    kept = census._KEPT_ROWS
    for table, rs in ((rows, [*range(200), 1000, 2000]), (kept, range(census._SHORT_ROW + 1))):
        for r in rs:
            assert table[r] == [math.comb(r, g) for g in range(r + 1)]
    assert rows[2000][700] == math.comb(2000, 700)


def test_binomial_rows_grown_by_threads_at_once():
    # two threads climb the rows and two build the last row first, racing on
    # every row; each row stored must be the binomial row
    rows = census._BinomialRows()
    top = census._SHORT_ROW
    orders = (range(top + 1), range(top + 1), range(top, -1, -1), range(top, -1, -1))
    start = threading.Barrier(len(orders))

    def grow(order):
        start.wait(timeout=30)
        for r in order:
            rows[r]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow, args=(order,)) for order in orders]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(rows) == list(range(top + 1))
    for r in range(top + 1):
        assert rows[r] == [math.comb(r, g) for g in range(r + 1)]


@pytest.mark.parametrize("ratios,t", [((1 / 3, 0.25), 300), ((0.2, 0.3, 0.25), 150)])
def test_long_rows_match_recursive_reference(ratios, t):
    # rows up to census._SHORT_ROW are kept, longer ones built by recurrence:
    # t rising grows the kept rows, t falling reads them grown, then a long row
    assert census._SHORT_ROW == 128 < t
    fold = _fold(ratios)
    for stage in (127, 128, 129, 128, 127, t):
        assert census._component_buckets(fold, stage) == reference_component_buckets(ratios, stage)


def _boundary_neighbour(v: float) -> float:
    """The smallest w below v with v - w <= 1e-12 v, as the merge computes it."""
    w = v - 1e-12 * v
    while v - w <= 1e-12 * v:
        w = math.nextafter(w, 0.0)
    while not v - w <= 1e-12 * v:
        w = math.nextafter(w, v)
    return w


def _ulps_from(v: float, steps: int) -> float:
    """v moved `steps` floats up (steps > 0) or down."""
    for _ in range(abs(steps)):
        v = math.nextafter(v, math.inf if steps > 0 else 0.0)
    return v


def _least_tying_subnormal() -> int:
    """The least n for which 1e-12 * (n ulps) rounds to one ulp, so that
    (n ulps, n - 1 ulps) is a near tie; n - 1 ulps ties with nothing below it."""
    ulp = 5e-324
    lo, hi = 1, 10**13
    while lo < hi:
        mid = (lo + hi) // 2
        if 1e-12 * (mid * ulp) > 0.0:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _proof_edge_bucket_lists():
    """Lists at the edges of the merge's no-tie pass, whose bound is 1 - 2e-12."""
    # neighbour ratios a few ulps either side of the bound, as the pass computes them
    for a in (1.0, 0.7, 1 / 3, 2.0**-40, 1e-300, 3e-310):
        b = a * (1 - 2 * 1e-12)
        for steps in range(-3, 4):
            w = _ulps_from(b, steps)
            yield [(a, 2), (w, 3), (w * 0.25, 1)]
            yield [(w * 4.0, 5), (a * 4.0, 1), (0.125 * a, 6)]
    # subnormal pairs one ulp apart: a tie from n ulps on, none just below
    ulp = 5e-324
    n = _least_tying_subnormal()
    assert 4e11 < n < 6e11
    for m in (n - 2, n - 1, n, n + 1, n + 2):
        yield [(m * ulp, 1), ((m - 1) * ulp, 2)]
        yield [((m - 1) * ulp, 4), (m * ulp, 3), ((m - 2) * ulp, 9), (1e-320, 1)]
    # a 0.0 tail after positive values, one and two zeros deep
    yield [(0.5, 1), (0.25, 2), (0.0, 3)]
    yield [(0.0, 7), (0.5, 1), (0.0, 1), (0.25, 2)]
    yield [(5e-324, 2), (0.0, 1), (0.0, 4)]
    # a lone 0.0, and equal values
    yield [(0.0, 4)]
    yield [(0.3, 1), (0.3, 2), (0.3, 5)]
    yield [(0.9, 1), (0.3, 2), (0.3, 5), (0.1, 1)]


def _adversarial_bucket_lists():
    """Seeded (value, count) lists whose merge decisions sit at the 1e-12 edge."""
    yield []
    yield [(0.75, 3)]
    yield [(0.0, 1), (0.0, 2), (5e-324, 4), (1e-310, 1), (1e-310 * (1 - 1e-12), 8)]
    yield from _proof_edge_bucket_lists()
    rng = random.Random(1012)
    for _ in range(300):
        values = []
        for _ in range(rng.randint(1, 12)):
            v = rng.choice([rng.random(), rng.uniform(1e-300, 1e-290), 2.0 ** rng.randint(-60, 3)])
            kind = rng.randrange(6)
            edge = _boundary_neighbour(v)
            if kind == 0:  # just inside and just outside the tolerance
                values += [v, edge, math.nextafter(edge, 0.0)]
            elif kind == 1:  # a chain: the third is within 1e-12 of the second only
                values += [v, v * (1 - 0.6e-12), v * (1 - 1.2e-12)]
            elif kind == 2:  # exact duplicates
                values += [v] * rng.randint(2, 4)
            elif kind == 3:
                values += [0.0, 5e-324, 5e-324, 1e-310]
            else:
                values.append(v)
        rng.shuffle(values)
        buckets = [(v, rng.randint(1, 10**rng.randint(1, 25))) for v in values]
        yield buckets
        # a near tie at the first and at the last position
        ordered = sorted(buckets, key=lambda b: -b[0])
        top, bottom = ordered[0][0], ordered[-1][0]
        yield buckets + [(_boundary_neighbour(top) if top else 0.0, 7)]
        yield buckets + [(math.nextafter(bottom, math.inf), 5)]


def _hexed(buckets):
    return [(v.hex(), c) for v, c in buckets]


def test_merge_buckets_matches_reference_bit_for_bit():
    # the merge sorts in C and proves no near tie in one ratio pass before it
    # runs the leader loop; values, counts and order must equal the plain loop's
    merging = 0
    for buckets in _adversarial_bucket_lists():
        got = census._merge_buckets(iter(buckets))
        want = reference_merge_buckets(buckets)
        assert _hexed(got) == _hexed(want), buckets
        merging += len(want) < len(buckets)
    assert merging > 300
    # C[1/2,1/4,1/8] at stage 100: 5,151 compositions fold into 201 lengths
    raw = census._component_buckets(_fold((0.5, 0.25, 0.125)), 100)
    assert len(raw) == 5151
    got = census._merge_buckets(raw)
    assert len(got) == 201
    assert _hexed(got) == _hexed(reference_merge_buckets(raw))


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


def test_stats_report_builds_each_long_row_once(monkeypatch):
    # the stages share one table of rows, which reads the kept rows up to
    # census._SHORT_ROW: to stage 180 of one component, rows 129-180 are built
    for r in range(census._SHORT_ROW + 1):
        census._KEPT_ROWS[r]  # the kept rows, as a warm process holds them
    built = []
    build = census._binomial_row
    monkeypatch.setattr(census, "_binomial_row", lambda r: built.append(r) or build(r))
    sched = fc.schedule_from_text("C[1/2,1/4,1/8]")
    got = fc.stats_report(sched, 180, budget=10**9)
    assert sorted(built) == list(range(census._SHORT_ROW + 1, 181))
    assert json.dumps(got) == json.dumps(reference_stats_report(sched, 180))


@pytest.mark.parametrize("left,right", FACTOR_PAIRS)
def test_joint_factorization_matches_reference(left, right):
    a, b = fc.schedule_from_text(left), fc.schedule_from_text(right)
    for k in range(4):
        _same_stats(fc.CompositionSchedule(a.items + b.items), k)


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
        _same_stats(joint, k)
        done += 1


def _census_cases():
    # the last two are of the analytic benchmark's size: 5,151 and 5,456 buckets
    sized = [("C[0.23,0.41,0.17]", 100), ("C[1/3,2/9,1/7,1/4]", 30)]
    return fuzz_cases(101, 60) + [
        (fc.schedule_from_text(t), k) for t, k in STATS_CORPUS + sized
    ]


def test_segment_census_matches_reference():
    folded = 0
    for sched, k in _census_cases():
        for L0 in (1.0, 2.5):
            got, want = fc.segment_census(sched, k, L0), reference_segment_census(sched, k, L0)
            if _repeats_a_ratio(sched):
                folded += 1
            else:
                assert got == want
            assert_merged_close(got, want)
    assert folded > 0


def test_census_size_is_the_unmerged_cross_product():
    # the census charge counts, before its digit weight, the buckets the census
    # builds: each component's compositions over its folded ratios, crossed
    repeated = ["C[1/3,1/3]", "K[pi/3]", "Q[pi/2]", "K[pi/4]^2 C[1/3,1/3]",
                "G[(1/4,0,draw);(1/4,pi/2,draw);(1/4,0,gap);(1/4,-pi/2,draw)]",
                "G[(1/5,0,draw);(1/4,1,draw);(1/5,-1,draw)] C[1/2,1/3]"]
    cases = [(fc.schedule_from_text(t), k) for t in repeated for k in (0, 1, 2, 5, 11)]
    for sched, k in fuzz_cases(101, 60) + cases:
        factors = [census._component_buckets(gen.fold, n * k) for gen, n in sched.items]
        cross = list(itertools.product(*factors))
        assert fc.work._census_size(sched, k) == len(cross), (sched, k)


def _mpmath_census(sched, k: int, L0: float) -> list:
    """Stage-k census at 50 digits: every composition over every piece, crossed, merged."""
    with mpmath.workdps(50):
        cross = [(mpmath.mpf(L0), 1)]
        for gen, repeat in sched.items:
            t = repeat * k
            powers = [[mpmath.mpf(r) ** g for g in range(t + 1)] for r in gen.draw_ratios]
            comp = []
            for pieces in itertools.combinations_with_replacement(range(len(powers)), t):
                h = Counter(pieces)
                value = mpmath.fprod(powers[j][h[j]] for j in h)
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

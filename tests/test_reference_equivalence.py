"""Box counting, overlap detection and the census against their loop references."""

import numpy as np
import pytest

import fractalc as fc
from fractalc import boxcount, geometry
from helpers import reference_component_buckets, reference_counts, reference_detect_overlap

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


@pytest.mark.parametrize(
    "ratios",
    [(0.5,), (1 / 3, 0.25), (0.2, 0.3, 0.25), (1 / 3,) * 4, (0.4, 1e-3, 0.999, 0.1, 0.2)],
)
def test_component_buckets_match_recursive_reference(ratios):
    for t in (0, 1, 2, 7, 19):
        assert geometry._component_buckets(ratios, t) == reference_component_buckets(ratios, t)

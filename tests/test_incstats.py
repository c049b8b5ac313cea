import math
import random

import pytest

import fractalc as fc
from fractalc.errors import SegmentBudgetExceeded
from fractalc.incstats import normalization_residual, stats_and_census
from helpers import (
    census_feasible_stage,
    census_size,
    random_schedule,
    reference_multisets_match,
    reference_outer_product,
    reference_probabilities,
    reference_stats_report,
)


def koch():
    return fc.schedule_from_text("K[pi/3]")


def joined(a, b):
    return fc.CompositionSchedule(a.items + b.items)


def test_uniform_distribution_normalizes():
    census = fc.segment_census(koch(), 2)
    assert sum(count for _, count in census) == 16
    assert [value for value, _ in census] == [pytest.approx(1 / 9, rel=1e-12)]
    summary = fc.stats_report(koch(), 2)
    assert summary["alpha"] == pytest.approx(math.log(4) / math.log(3), abs=1e-12)
    assert summary["max_normalization_residual"] < 1e-9


def test_binary_composition_distribution():
    sched = fc.schedule_from_text("C[1/2,1/3] K[pi/3]")
    census = fc.segment_census(sched, 1)
    assert [count for _, count in census] == [4, 4]
    assert census[0][0] == pytest.approx(1 / 6, rel=1e-12)
    assert census[1][0] == pytest.approx(1 / 9, rel=1e-12)
    assert fc.stats_report(sched, 1)["max_normalization_residual"] < 1e-9


def test_stage_zero_distribution_is_trivial():
    assert fc.segment_census(koch(), 0) == [(1.0, 1)]
    assert fc.stats_report(koch(), 0)["max_normalization_residual"] < 1e-12


def test_distribution_is_initiator_invariant():
    sched = fc.schedule_from_text("C[1/2,1/3] K[pi/3]")
    unit = fc.segment_census(sched, 3)
    scaled = reference_probabilities(sched, 3, L0=2.5)
    assert [p for p, _ in scaled] == pytest.approx([p for p, _ in unit], rel=1e-12)
    alpha = fc.dimension(sched.spectrum()).alpha
    assert normalization_residual(scaled, alpha) < 1e-9


def test_self_composition_factorizes():
    joint = joined(koch(), koch())
    report = fc.stats_report(joint, 1)
    assert report["factorization_ok"]
    assert report["max_normalization_residual"] < 1e-9
    census = fc.segment_census(joint, 1)
    assert census[0][1] == 16


def test_binary_times_koch_factorizes():
    # factorization_ok holds the values to 1e-12 relative and the counts exactly
    report = fc.stats_report(joined(fc.schedule_from_text("C[1/2,1/3]"), koch()), 2)
    assert report["factorization_ok"]
    assert report["max_normalization_residual"] < 1e-9


def test_three_subsystem_product_normalizes():
    full = fc.schedule_from_text("C[1/2,1/4,1/6] K[pi/4] K[pi/3]")
    # split into its first substage and the other two, crossed by the helpers
    a, bc = (fc.CompositionSchedule(items) for items in (full.items[:1], full.items[1:]))
    product = reference_outer_product([reference_probabilities(p, 1) for p in (a, bc)])
    assert reference_multisets_match(reference_probabilities(full, 1), product)
    for k in (1, 2):
        summary = fc.stats_report(full, k)
        assert summary["factorization_ok"] is True
        assert summary["max_normalization_residual"] < 1e-9


def test_stats_report_schema():
    summary = fc.stats_report(koch(), 3)
    assert set(summary) == {"alpha", "max_normalization_residual", "factorization_ok"}
    assert summary["alpha"] == pytest.approx(math.log(4) / math.log(3), abs=1e-12)
    assert summary["factorization_ok"] is True


def test_single_item_factorization_is_trivially_true():
    summary = fc.stats_report(koch(), 2)
    assert summary["factorization_ok"] is True


@pytest.mark.parametrize("text, k", [
    # stage-k lengths that underflow to 0.0 buckets
    ("C[1/1000] C[1/2,1/4]", 110),
    # dependent ratios, whose products are equal or within a few ulps
    ("C[1/2,1/4,1/8] C[1/3,1/9]", 6),
])
def test_exact_factorization_on_multi_item_schedules(text, k):
    sched = fc.schedule_from_text(text)
    summary = fc.stats_report(sched, k)
    assert summary["factorization_ok"] is True
    # the reference crosses the parts in its own loops, compared within 1e-12
    want = reference_stats_report(sched, k)
    assert want["factorization_ok"] is True
    assert summary["alpha"] == want["alpha"]
    assert summary["max_normalization_residual"] == pytest.approx(
        want["max_normalization_residual"], abs=1e-12)


def test_factorization_fuzz():
    rng = random.Random(73)
    done = 0
    while done < 20:
        a = random_schedule(rng, max_items=2, max_repeat=2)
        b = random_schedule(rng, max_items=2, max_repeat=2)
        joint = fc.CompositionSchedule(a.items + b.items)
        k = census_feasible_stage(joint, 20_000, max_stage=3)
        if census_size(joint, k) > 20_000:
            continue
        report = fc.stats_report(joint, k)
        assert report["factorization_ok"]
        assert report["max_normalization_residual"] < 1e-9
        done += 1


def test_normalization_fuzz():
    rng = random.Random(79)
    done = 0
    while done < 25:
        sched = random_schedule(rng)
        k = census_feasible_stage(sched, 20_000, max_stage=6)
        if census_size(sched, k) > 20_000:
            continue
        assert fc.stats_report(sched, k)["max_normalization_residual"] < 1e-9
        done += 1


def test_stats_report_budget_covers_every_stage():
    sched = fc.schedule_from_text("C[1/2,1/3] K[pi/3]")
    units = sum(fc.work._stage_units(sched, stage, fc.work.BUCKET_UNITS) for stage in range(7))
    assert units == 15 * 28  # past the 7 stages' 350 units
    assert fc.stats_report(sched, 6, budget=units)["factorization_ok"] is True
    with pytest.raises(SegmentBudgetExceeded):
        fc.stats_report(sched, 6, budget=units - 1)
    # each stage alone is within the budget, their sum is not
    with pytest.raises(SegmentBudgetExceeded):
        fc.stats_report(koch(), 30_000)


def test_census_charge_within_its_bound_sizes_one_stage(monkeypatch):
    # _stage_units never falls as the stage grows, so when stages * the stage-k
    # units are within the budget the charge accepts without a per-stage loop
    calls = []
    size = fc.work._census_size
    monkeypatch.setattr(fc.work, "_census_size",
                        lambda sched, k: calls.append(k) or size(sched, k))
    fc.work.charge_census(fc.schedule_from_text("C[1/2]"), 199_999, 10**7, stages=200_000)
    assert len(calls) <= 2
    # over the bound, the loop still charges the exact sum: (s + 1) buckets of
    # 15 units at stages 0..6, 420 in all
    binary = fc.schedule_from_text("C[1/2,1/3]")
    fc.work.charge_census(binary, 6, 420, stages=7)
    with pytest.raises(SegmentBudgetExceeded):
        fc.work.charge_census(binary, 6, 419, stages=7)


@pytest.mark.parametrize("text,k", [
    # a fold with a multiplicity of 2, its weights read from tables built at k
    ("G[(0.3,0,draw);(0.3,0.2,draw);(0.2,-0.2,draw)]^3", 6),
    # a near tie, which the merge folds
    ("C[0.5,0.4999999999999] K[pi/3]", 5),
    # a single-ratio item, one power per stage, beside a two-ratio one
    ("K[pi/3] C[1/2,1/3]", 12),
])
def test_stats_census_at_stage_k_is_the_segment_census(text, k):
    # every stage reads tables built once, at stage k
    sched = fc.schedule_from_text(text)
    assert stats_and_census(sched, k)[1] == fc.segment_census(sched, k)
    shared = list(fc.census.stage_factors(sched, range(k + 1)))
    alone = [f for stage in range(k + 1) for f in fc.census.stage_factors(sched, (stage,))]
    assert shared == alone

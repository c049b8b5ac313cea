import math
import random

import pytest

import fractalc as fc
from fractalc.errors import SegmentBudgetExceeded
from helpers import census_feasible_stage, census_size, random_schedule


def koch():
    return fc.schedule_from_text("K[pi/3]")


def test_uniform_distribution_normalizes():
    dist = fc.distribution(koch(), 2)
    assert dist.total_count == 16
    assert dist.probabilities == (pytest.approx(1 / 9, rel=1e-12),)
    assert dist.alpha == pytest.approx(math.log(4) / math.log(3), abs=1e-12)
    assert dist.normalization_residual() < 1e-9


def test_binary_composition_distribution():
    sched = fc.schedule_from_text("C[1/2,1/3] K[pi/3]")
    dist = fc.distribution(sched, 1)
    assert dist.multiplicities == (4, 4)
    assert dist.probabilities[0] == pytest.approx(1 / 6, rel=1e-12)
    assert dist.probabilities[1] == pytest.approx(1 / 9, rel=1e-12)
    assert dist.normalization_residual() < 1e-9


def test_stage_zero_distribution_is_trivial():
    dist = fc.distribution(koch(), 0)
    assert dist.probabilities == (1.0,)
    assert dist.multiplicities == (1,)
    assert dist.normalization_residual() < 1e-12


def test_distribution_is_initiator_invariant():
    sched = fc.schedule_from_text("C[1/2,1/3] K[pi/3]")
    unit = fc.distribution(sched, 3)
    scaled = fc.distribution(sched, 3, L0=2.5)
    assert scaled.probabilities == pytest.approx(unit.probabilities, rel=1e-12)
    assert scaled.normalization_residual() < 1e-9


def test_self_composition_factorizes():
    report = fc.joint_factorization_check(koch(), koch(), 1)
    assert report.factorization_ok
    assert report.normalization_residual < 1e-9
    joint = fc.CompositionSchedule(koch().items + koch().items)
    census = fc.segment_census(joint, 1)
    assert census[0][1] == 16


def test_binary_times_koch_factorizes():
    a = fc.schedule_from_text("C[1/2,1/3]")
    b = koch()
    report = fc.joint_factorization_check(a, b, 2)
    assert report.factorization_ok
    assert report.max_value_error <= 1e-12
    assert report.normalization_residual < 1e-9


def test_three_subsystem_product_normalizes():
    # the three-generator schedule split into its substages
    full = fc.schedule_from_text("C[1/2,1/4,1/6] K[pi/4] K[pi/3]")
    parts = [fc.CompositionSchedule((item,)) for item in full.items]
    a, b, c = parts
    bc = fc.CompositionSchedule(b.items + c.items)
    report = fc.joint_factorization_check(a, bc, 1)
    assert report.factorization_ok
    assert report.normalization_residual < 1e-9
    summary = fc.stats_report(full, 2)
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


def test_multisets_match_with_underflowed_buckets():
    from fractalc.incstats import multisets_match

    assert multisets_match([(0.5, 2), (0.0, 3)], [(0.5, 2), (0.0, 3)]) == (True, 0.0)
    ok, _ = multisets_match([(0.5, 2), (0.0, 3)], [(0.5, 2), (1e-300, 3)])
    assert not ok
    # a multi-item stats report whose stage-k lengths underflow to 0.0
    summary = fc.stats_report(fc.schedule_from_text("C[1/1000] C[1/2,1/4]"), 110)
    assert summary["factorization_ok"] is True


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
        report = fc.joint_factorization_check(a, b, k)
        assert report.factorization_ok
        assert report.normalization_residual < 1e-9
        done += 1


def test_normalization_fuzz():
    rng = random.Random(79)
    done = 0
    while done < 25:
        sched = random_schedule(rng)
        k = census_feasible_stage(sched, 20_000, max_stage=6)
        if census_size(sched, k) > 20_000:
            continue
        for stage in range(1, k + 1):
            assert fc.distribution(sched, stage).normalization_residual() < 1e-9
        done += 1


def test_stats_report_budget_covers_every_stage():
    sched = fc.schedule_from_text("C[1/2,1/3] K[pi/3]")
    work = sum(census_size(sched, stage) for stage in range(5))
    assert fc.stats_report(sched, 4, budget=work)["factorization_ok"] is True
    with pytest.raises(SegmentBudgetExceeded):
        fc.stats_report(sched, 4, budget=work - 1)
    # each stage alone is within the budget, their sum is not
    with pytest.raises(SegmentBudgetExceeded):
        fc.stats_report(koch(), 300)

"""Incomplete-statistics checks on segment-length probability distributions.

Segment lengths at stage k, normalized by the initiator, form a probability
multiset that sums to one only when raised to the composite dimension alpha
(the incomplete normalization). Composing schedules multiplies the scale
factors, so the joint probability multiset must factor into the outer product
of the component multisets. Both identities are computed from the analytic
census, never from materialized geometry, so large stages stay cheap.
`stats_report` is the one check of both: the normalization at stages 0..k,
the factorization at stage k; `stats_and_census` also hands back the
stage-k census it read, for the CLI's underflow warning.

The factorization check crosses per-part censuses with the census's own
cross-product routine (`census.census_product`) and compares the result
with the joint census exactly, value and count. It checks that merging per
part and then crossing agrees with crossing and then merging: a
merge-consistency check, not an independent oracle for the census. Making
the census exact, so that the factorization is an identity, is ROADMAP
item 2.

The incompleteness exponent is taken to be the box dimension itself; for sets
embedded with a nontrivial ambient dimension d one would divide by d first,
which changes nothing here because the constructions are parametrized on the
unit initiator.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from . import work
from .moran import dimension
from .census import census_product, stage_factors
from .schedule import CompositionSchedule, _check_stage


def normalization_residual(buckets: Iterable[tuple[float, int]], alpha: float) -> float:
    """|sum_i m_i * p_i^alpha - 1| over (probability, multiplicity) buckets.

    A count beyond the float range takes its term as exp(ln m + alpha ln p),
    or 0 when its probability has underflowed to 0.0.
    """
    acc = 0.0
    for p, m in buckets:
        try:
            acc += m * p**alpha
        except OverflowError:
            acc += math.exp(math.log(m) + alpha * math.log(p)) if p > 0.0 else 0.0
    return abs(acc - 1.0)


def stats_report(
    schedule: CompositionSchedule, k: int, budget: int = work.DEFAULT_SEGMENT_BUDGET
) -> dict:
    """JSON-ready summary: {alpha, max_normalization_residual, factorization_ok}.

    The normalization residual is the worst over stages 0..k (stage 0 is
    exact). Factorization compares the product of the items' stage-k censuses
    with the joint census for exact equality; with a single item the product
    is the census itself, so the check is trivially true. Charges `budget`
    first (`work`).
    """
    return stats_and_census(schedule, k, budget)[0]


def stats_and_census(
    schedule: CompositionSchedule, k: int, budget: int = work.DEFAULT_SEGMENT_BUDGET
) -> tuple[dict, list[tuple[float, int]]]:
    """`stats_report`'s summary, and the stage-k census it read."""
    _check_stage(k)
    work.charge_census(schedule, k, budget, stages=k + 1)
    alpha = dimension(schedule.spectrum()).alpha
    max_resid = 0.0
    for factors in stage_factors(schedule, k):
        census = census_product(factors)
        max_resid = max(max_resid, normalization_residual(census, alpha))
    # each part's census is its stage-k factor merged alone, charged with the joint
    parts = (census_product((factor,)) for factor in factors)
    ok = len(schedule.items) == 1 or census == census_product(parts)
    summary = {
        "alpha": alpha,
        "max_normalization_residual": max_resid,
        "factorization_ok": ok,
    }
    return summary, census

"""Incomplete-statistics checks on segment-length probability distributions.

Segment lengths at stage k, normalized by the initiator, form a probability
multiset that sums to one only when raised to the composite dimension alpha
(the incomplete normalization). Composing schedules multiplies the scale
factors, so the joint probability multiset must factor into the outer product
of the component multisets. Both identities are computed from the analytic
census, never from materialized geometry, so large stages stay cheap.

The factorization check crosses per-part censuses with the census's own
cross-product routine (`schedule.census_product`), so it checks that merging
per part and then crossing agrees with crossing and then merging: a
merge-consistency check, not an independent oracle for the census.

The incompleteness exponent is taken to be the box dimension itself; for sets
embedded with a nontrivial ambient dimension d one would divide by d first,
which changes nothing here because the constructions are parametrized on the
unit initiator.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .frozen import Frozen
from .moran import dimension
from .schedule import (
    DEFAULT_SEGMENT_BUDGET, CompositionSchedule, census_product, check_census_budget,
    segment_census,
)

_VALUE_RTOL = 1e-12


class IncompleteDistribution(Frozen):
    """Stage-k segment probabilities (unique values with multiplicities)."""

    __slots__ = _fields = ("probabilities", "multiplicities", "alpha", "stage")

    def __init__(self, probabilities: tuple[float, ...], multiplicities: tuple[int, ...],
                 alpha: float, stage: int):
        super().__init__(probabilities, multiplicities, alpha, stage)

    @property
    def total_count(self) -> int:
        return sum(self.multiplicities)

    def normalization_residual(self) -> float:
        """|sum_i p_i^alpha - 1|, the defining incomplete normalization."""
        return normalization_residual(zip(self.probabilities, self.multiplicities), self.alpha)


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


def distribution(schedule: CompositionSchedule, k: int, L0: float = 1.0) -> IncompleteDistribution:
    """Probabilities p = length / L0 from the stage-k census, with solved alpha."""
    census = segment_census(schedule, k, L0)
    alpha = dimension(schedule.spectrum()).alpha
    probs = tuple(value / L0 for value, _ in census)
    counts = tuple(count for _, count in census)
    return IncompleteDistribution(probs, counts, alpha, k)


class FactorizationReport(Frozen):
    """Outcome of the joint-probability factorization check."""

    __slots__ = _fields = (
        "alpha", "stage", "factorization_ok", "max_value_error", "normalization_residual"
    )

    def __init__(self, alpha: float, stage: int, factorization_ok: bool,
                 max_value_error: float, normalization_residual: float):
        super().__init__(alpha, stage, factorization_ok, max_value_error,
                         normalization_residual)


def multisets_match(
    a: Sequence[tuple[float, int]],
    b: Sequence[tuple[float, int]],
    rtol: float = _VALUE_RTOL,
) -> tuple[bool, float]:
    """Compare (value, count) multisets: values within rtol, counts exact."""
    if len(a) != len(b):
        return False, float("inf")
    worst = 0.0
    for (va, ca), (vb, cb) in zip(a, b):
        if ca != cb:
            return False, float("inf")
        # equal values, 0.0 included, match exactly; 0.0 against a length does not
        err = 0.0 if va == vb else abs(va - vb) / max(va, vb)
        worst = max(worst, err)
        if err > rtol:
            return False, worst
    return True, worst


def _factorization(joint_census, parts, k: int, budget: int = DEFAULT_SEGMENT_BUDGET):
    """(product, ok, worst error): the parts' stage-k censuses crossed, against the joint."""
    product = census_product([segment_census(p, k, budget=budget) for p in parts])
    return (product, *multisets_match(joint_census, product))


def joint_factorization_check(
    a: CompositionSchedule, b: CompositionSchedule, k: int
) -> FactorizationReport:
    """Verify the composite stage-k probabilities factor over the subsystems.

    Checks that the census of the concatenated schedule equals the outer
    product {p_i(a) * p_j(b)} as multisets (values to 1e-12 relative, counts
    exact), and that the product probabilities renormalize to one at the
    composite alpha.
    """
    joint = CompositionSchedule(a.items + b.items)
    alpha = dimension(joint.spectrum()).alpha
    product, ok, worst = _factorization(segment_census(joint, k), (a, b), k)
    return FactorizationReport(alpha, k, ok, worst, normalization_residual(product, alpha))


def stats_report(
    schedule: CompositionSchedule, k: int, budget: int = DEFAULT_SEGMENT_BUDGET
) -> dict:
    """JSON-ready summary: {alpha, max_normalization_residual, factorization_ok}.

    The normalization residual is the worst over stages 0..k (stage 0 is
    exact). Factorization compares the product of the items' stage-k censuses
    against the joint census; with a single item the product is the census
    itself, so the check is trivially true. Raises SegmentBudgetExceeded
    before any work when stages 0..k would enumerate over `budget` buckets.
    """
    check_census_budget(schedule, range(k, -1, -1), budget)
    alpha = dimension(schedule.spectrum()).alpha
    max_resid = 0.0
    for stage in range(k + 1):
        census = segment_census(schedule, stage, budget=budget)
        max_resid = max(max_resid, normalization_residual(census, alpha))
    parts = [CompositionSchedule((item,)) for item in schedule.items]
    ok = len(parts) == 1 or _factorization(census, parts, k, budget)[1]
    return {
        "alpha": alpha,
        "max_normalization_residual": max_resid,
        "factorization_ok": ok,
    }

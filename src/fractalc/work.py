"""The work model: each command's work, predicted from the schedule and
charged against the budget (default 10^7 units, each about one segment or
census composition) before any of it is done. Each kind is checked on its own:
segments (and render's export cap), substage applications, census compositions
before equal ratios fold, census stages, and the digits of a printed census
total. No numpy.
"""

import math
import sys

from .errors import SegmentBudgetExceeded

DEFAULT_SEGMENT_BUDGET = 10_000_000
RENDER_SEGMENT_LIMIT = 1_000_000

# In process, best of 3 (2-vCPU VM, Python 3.11.7, numpy 2.4.6), a one-bucket
# `stats_report` stage takes 4.5-5.2 us, against 0.47-1.9 us per census
# composition of distinct ratios, and an `iterate` application of a one-piece
# generator 27-28 us, against 0.089-0.126 us per segment: about the ratios.
STAGE_UNITS = 10
APPLICATION_UNITS = 300
_OVER_BUDGET = ", over the budget of {limit}"


def _charge_segments(schedule, k: int, limit: int, over: str) -> None:
    # the exact count is built only when its log is within twice the limit's;
    # one-piece items add no factor, however large k or their repeat
    try:
        log_count = k * sum(n * math.log(g.copies) for g, n in schedule.items if g.copies > 1)
    except OverflowError:  # a repeat count beyond the float range
        log_count = math.inf if k else 0.0
    if log_count > 2 * math.log(max(limit, 2)):
        about = f"stage would produce about 10^{log_count / math.log(10):.6g} segments"
        raise SegmentBudgetExceeded(None, limit, about + over)
    count = schedule.predicted_count(k)
    if count > limit:
        raise SegmentBudgetExceeded(count, limit, "stage would produce {count} segments" + over)


def charge_geometry(schedule, k: int, budget: int) -> None:
    """Charge the stage-k segments, then the substage applications."""
    _charge_segments(schedule, k, budget, _OVER_BUDGET)
    units = k * sum(n for _, n in schedule.items) * APPLICATION_UNITS
    if units > budget:
        raise SegmentBudgetExceeded(units, budget, "stage would apply substages worth {count} "
                                    f"units, {APPLICATION_UNITS} per substage" + _OVER_BUDGET)


def charge_export(schedule, k: int, budget: int) -> None:
    """Charge the stage-k segments against RENDER_SEGMENT_LIMIT where it binds."""
    if budget > RENDER_SEGMENT_LIMIT:
        _charge_segments(schedule, k, RENDER_SEGMENT_LIMIT, ", over the SVG export cap of {limit}")


def _census_size(schedule, k: int) -> int:
    """Census buckets before merging at stage k: prod_i C(n_i*k + l_i - 1, l_i - 1)."""
    size = 1
    for gen, n in schedule.items:
        size *= math.comb(n * k + gen.copies - 1, gen.copies - 1)
    return size


def charge_census(schedule, k: int, budget: int, stages: int = 1, printed: bool = False) -> None:
    """Charge a census of `stages` stages, then their compositions from k down
    (largest first, so a long range stops early; the stage charge bounds the
    loop); with `printed`, the digits of the stage-k total too."""
    if stages * STAGE_UNITS > budget:
        raise SegmentBudgetExceeded(stages * STAGE_UNITS, budget, "census would build stages worth "
                                    f"{{count}} units, {STAGE_UNITS} per stage" + _OVER_BUDGET)
    # _census_size never falls as the stage grows, so `stages` times the
    # stage-k size bounds the sum: the loop runs only when that bound is over
    if stages * _census_size(schedule, k) > budget:
        compositions = 0
        for stage in range(k, k - stages, -1):
            compositions += _census_size(schedule, stage)
            if compositions > budget:
                raise SegmentBudgetExceeded(compositions, budget, "census would enumerate "
                                            "{count} buckets or more" + _OVER_BUDGET)
    # 0, or a Python without the function, means no limit; past the checks
    # above every n_i k with l_i > 1 is within the budget, so a float
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() if printed else 0
    if limit:
        log10 = math.fsum(k * n * math.log10(g.copies) for g, n in schedule.items if g.copies > 1)
        if math.floor(log10) >= limit:
            raise SegmentBudgetExceeded(math.floor(log10) + 1, limit, "the total count has "
                                        "{count} decimal digits, over the {limit}-digit limit "
                                        "for printing an int (sys.set_int_max_str_digits)")

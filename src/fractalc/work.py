"""The work model: each command's work, predicted from the schedule and
charged against the budget (default 10^7 units, each about 0.1 us of work:
one segment) before any of it is done. Each kind is checked on its own:
segments (and render's export cap), substage applications, census stages,
census buckets after equal ratios fold, weighted by the digits of the
stage's counts, and the digits of a printed census total. No numpy.
"""

import math
import sys

from .errors import SegmentBudgetExceeded

DEFAULT_SEGMENT_BUDGET = 10_000_000
RENDER_SEGMENT_LIMIT = 1_000_000

# In process, best of 3 (2-vCPU VM, Python 3.11.7, numpy 2.4.6), at about
# 0.1 us a unit: an `iterate` segment takes 0.089-0.126 us, an application
# of a one-piece generator 27-28 us, and a one-bucket `stats_report` stage
# 4.5-5.2 us. A census bucket takes 0.4-1.5 us (the most with five
# components and 1.5M buckets), and `census` prints it in JSON in about 8 us.
# Each decimal digit of the stage's total count adds 7-24 ns per bucket: 7 ns
# for the sparse 4^t of `K[pi/3]`, 14 ns for 3^t and 5^t, 24 ns for 31^t and
# 100^t at 15,000-24,000 digits, since Python's powers of dense ints grow
# faster than their digits.
STAGE_UNITS = 50
BUCKET_UNITS = 15
PRINTED_BUCKET_UNITS = 80
DIGITS_PER_UNIT = 8
APPLICATION_UNITS = 300
# fixed-point scale of a log10 in _count_digits
_LOG_ONE = 1 << 32
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
    """Census buckets at stage k before merging: prod_i C(n_i*k + d_i - 1, d_i - 1),
    d_i the distinct ratios of `Generator.fold`."""
    size = 1
    for gen, n in schedule.items:
        d = len(gen.fold)
        size *= math.comb(n * k + d - 1, d - 1)
    return size


def _count_digits(schedule, k: int) -> int:
    """Decimal digits of the stage-k total count prod_i l_i^(n_i*k), or one more:
    each log10 l_i is taken in exact fixed point rounded up, so any k and
    repeat give an int."""
    scaled = sum(k * n * (math.floor(math.log10(g.copies) * _LOG_ONE) + 1)
                 for g, n in schedule.items if g.copies > 1)
    return scaled // _LOG_ONE + 1


def _stage_units(schedule, k: int, per_bucket: int) -> int:
    """A stage-k census's units: `per_bucket` for each bucket, plus one per
    DIGITS_PER_UNIT digits of the stage's total count."""
    return _census_size(schedule, k) * (per_bucket + _count_digits(schedule, k) // DIGITS_PER_UNIT)


def charge_census(schedule, k: int, budget: int, stages: int = 1, printed: bool = False) -> None:
    """Charge a census of `stages` stages, then their buckets from k down
    (largest first, so a long range stops early; the stage charge bounds the
    loop); with `printed`, each bucket's printing and the digits of the
    stage-k total too."""
    if stages * STAGE_UNITS > budget:
        raise SegmentBudgetExceeded(stages * STAGE_UNITS, budget, "census would build stages worth "
                                    f"{{count}} units, {STAGE_UNITS} per stage" + _OVER_BUDGET)
    per_bucket = BUCKET_UNITS + PRINTED_BUCKET_UNITS * printed
    # _stage_units never falls as the stage grows, so `stages` times the
    # stage-k units bound the sum: the loop runs only when that bound is over
    if stages * _stage_units(schedule, k, per_bucket) > budget:
        units = 0
        for stage in range(k, k - stages, -1):
            units += _stage_units(schedule, stage, per_bucket)
            if units > budget:
                raise SegmentBudgetExceeded(units, budget, "census would enumerate buckets "
                                            "worth {count} units or more" + _OVER_BUDGET)
    # 0, or a Python without the function, means no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() if printed else 0
    if limit:
        digits = _count_digits(schedule, k)
        if digits > limit:
            raise SegmentBudgetExceeded(digits, limit, "the total count has "
                                        "{count} decimal digits, over the {limit}-digit limit "
                                        "for printing an int (sys.set_int_max_str_digits)")

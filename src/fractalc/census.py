"""The stage-k segment census: the exact (length, count) multiset of the
multinomial expansion. Its buckets are formed, crossed, scaled by L0 and
merged here. Each component's equal ratios fold first, by its
`Generator.fold`, so d distinct ratios applied t times give
C(t + d - 1, d - 1) buckets; `work` charges that count from the same fold,
weighted by the digits of the stage's counts. Counts read binomials from
rows kept for the life of the process up to row 256, and above it from
rows built for the one component's census that needs them. A `stats`
check's stages share each multi-ratio component's power tables, built once
per call (`stage_factors`). The merge is one sort plus one ratio pass that
proves no near tie; only a census that may hold one goes through the
leader loop. A length below the float range reads 0.0, and sorts last.
`dim` and `limit` never load this module: a test in `tests/test_cli.py`
enforces this.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Iterator, Sequence

from . import work
from .schedule import CompositionSchedule, _check_initiator, _check_stage

# relative tolerance for merging census buckets of nearly equal length
_LENGTH_MERGE_RTOL = 1e-12
# a computed neighbour ratio below this proves the pair is no near tie
_NO_TIE = 1 - 2 * _LENGTH_MERGE_RTOL
_VALUE = operator.itemgetter(0)

# census binomials: rows up to this one are kept for the life of the process,
# each built on first use; all 257 take 1.61 MiB (0.35 MiB to row 128). At
# the default budget a stats check on one component of 3 distinct ratios
# reaches t = 140 at repeat 1 and 208 at repeat 4, so it reads kept rows only;
# at repeat 12 its last stages reach 288 and build rows 257 and up, each
# stage its own. A longer row lives in a table of the one
# `_component_buckets` call that needs it
_SHORT_ROW = 256


def _binomial_row(r: int) -> list[int]:
    """[C(r, 0), ..., C(r, r)] by C(r, g + 1) = C(r, g) (r - g) / (g + 1) in exact ints."""
    return list(itertools.accumulate(range(r), lambda c, g: c * (r - g) // (g + 1), initial=1))


class _BinomialRows(dict):
    """Binomial rows by r, each stored on first use: a table other than
    `_KEPT_ROWS` reads rows up to `_SHORT_ROW` from it, and builds the others.
    A row depends on nothing stored, so threads that get a row at once store
    equal rows."""

    def __missing__(self, r: int) -> list[int]:
        short = r <= _SHORT_ROW and self is not _KEPT_ROWS
        row = self[r] = _KEPT_ROWS[r] if short else _binomial_row(r)
        return row


_KEPT_ROWS = _BinomialRows()


def _power_tables(fold: Sequence[tuple[float, int]], t: int) -> tuple[list, list] | None:
    """A component's tables to exponent t: each distinct ratio's powers
    rho**0..rho**t, and each multiplicity's weights m**0..m**t, one list of
    ones standing for every m of 1. None for a single distinct ratio, which
    takes its one rho**t and m**t: a table of its m**g would hold O(t**2)
    digits."""
    if len(fold) == 1:
        return None
    ones = [1] * (t + 1)
    powers = [[rho**g for g in range(t + 1)] for rho, _ in fold]
    weights = [[m**g for g in range(t + 1)] if m > 1 else ones for _, m in fold]
    return powers, weights


def _component_buckets(
    fold: Sequence[tuple[float, int]], t: int, tables: tuple[list, list] | None
) -> list[tuple[float, int]]:
    """Lengths and exact counts for one component applied t times, its
    binomials read from the kept rows, and above `_SHORT_ROW` from a table
    built for this call alone.

    `fold` is the component's `Generator.fold`: its distinct ratios
    rho_1..rho_d with multiplicities m_1..m_d. Each composition
    (h_1, ..., h_d) of t is one bucket of length
    ((1.0 * rho_1**h_1) * rho_2**h_2) * ..., built left to right, and count
    multinomial(t; h) * prod_j m_j**h_j. Compositions come out in
    lexicographic order. A single distinct ratio gives [(rho**t, m**t)]; with
    no repeated ratio this is the plain multinomial expansion over the pieces.
    Powers and weights are read from `tables`, `_power_tables` of the fold to
    an exponent of at least t.
    """
    if tables is None:
        (rho, m), = fold
        try:
            return [(rho**t, m**t)]
        except OverflowError:  # t beyond the float range: rho**t underflows to 0.0
            return [(0.0, m**t)]
    powers, weights = tables
    rows = _KEPT_ROWS if t <= _SHORT_ROW else _BinomialRows()
    # (applications left, length so far, count so far) per partial composition
    partial = [(t, 1.0, 1)]
    for pw, wt in zip(powers[:-2], weights):
        partial = [
            (rem - g, value * pw[g], count * wt[g] * c)
            for rem, value, count in partial
            for g, c in enumerate(rows[rem])
        ]
    # the last two exponents are chosen together, so each leaf is built once
    pa, pb = powers[-2:]
    wa, wb = weights[-2:]
    if fold[-2][1] == fold[-1][1] == 1:
        return [
            (value * pa[g] * pb[rem - g], count * c)
            for rem, value, count in partial
            for g, c in enumerate(rows[rem])
        ]
    return [
        (value * pa[g] * pb[rem - g], count * wa[g] * wb[rem - g] * c)
        for rem, value, count in partial
        for g, c in enumerate(rows[rem])
    ]


def _merge_buckets(buckets: Iterable[tuple[float, int]]) -> list[tuple[float, int]]:
    """Sort by decreasing value, stably, and fold each bucket within 1e-12 relative
    below its group's leader into it.

    A bucket merges only where some neighbour pair a >= b is a near tie,
    a - b <= 1e-12 a as computed, so one pass in C over the sorted values
    returns the sort itself when every computed b / a is below 1 - 2e-12
    (`_NO_TIE`, from the same float 1e-12). That pass is exact. For b > 0:
    - where b < a / 2, a - b exceeds 1e-12 a by far, so the pair is no tie;
    - else a - b is exact (Sterbenz), and a tie gives a - b <= 1e-12 a
      rounded, which is at most 1e-12 a (1 + 2^-53) where 1e-12 a is normal.
      So b / a >= 1 - 2e-12 exactly, and the rounded quotient is no smaller
      than the rounded bound, since rounding is monotone;
    - where 1e-12 a is subnormal it rounds to m ulps of the float range's
      bottom. A tie then needs m >= 1, so a >= (m - 1/2) 1e12 ulps, and
      a - b <= m ulps; again b / a >= 1 - 2e-12, with equality at m = 1.
    A b of 0.0 gives the quotient 0.0, and 0.0 ties only with 0.0; a census
    whose last value is 0.0 (where a zero a may divide) goes to the loop, as
    does any census that fails the pass.
    """
    ordered = sorted(buckets, key=_VALUE, reverse=True)
    values = list(map(_VALUE, ordered))
    ratios = map(operator.truediv, values[1:], values)
    if values and values[-1] and max(ratios, default=0.0) < _NO_TIE:
        return ordered
    merged: list[tuple[float, int]] = []
    for value, count in ordered:
        if merged and merged[-1][0] - value <= _LENGTH_MERGE_RTOL * merged[-1][0]:
            merged[-1] = (merged[-1][0], merged[-1][1] + count)
        else:
            merged.append((value, count))
    return merged


def census_product(
    factors: Iterable[Sequence[tuple[float, int]]], scale: float = 1.0
) -> list[tuple[float, int]]:
    """Merged product of (value, count) multisets, each value times `scale`.

    Values multiply left to right over the factors, then by `scale`; counts
    multiply exactly. The result is sorted by decreasing value, with values
    within 1e-12 relative merged into the larger one.
    """
    factors = iter(factors)
    cross = next(factors)
    for factor in factors:
        cross = [(v * w, c * d) for v, c in cross for w, d in factor]
    # v * 1.0 is v bit for bit
    return _merge_buckets(cross if scale == 1.0 else ((v * scale, c) for v, c in cross))


def segment_census(
    schedule: CompositionSchedule,
    k: int,
    L0: float = 1.0,
    budget: int = work.DEFAULT_SEGMENT_BUDGET,
) -> list[tuple[float, int]]:
    """Exact (length, count) multiset at stage k, without materializing geometry.

    Per component, t = n_i * k applications contribute multinomially many
    segments of length prod_j rho_ij^h_j over the component's distinct ratios
    rho_ij (equal pieces fold into one ratio, their multiplicity joining the
    count), so each distinct-ratio exponent vector is computed once; the
    composite census is the product across components, times L0, merged by
    length (1e-12 relative). Counts are exact integers; their total is
    prod_i l_i^(n_i * k). Charges the stage against `budget` first, after
    the stage and initiator rules of `schedule` (InputOutOfRange).
    """
    _check_stage(k)
    _check_initiator(L0)
    work.charge_census(schedule, k, budget)
    return census_product(census_factors(schedule, k), L0)


def census_factors(schedule: CompositionSchedule, k: int) -> list[list[tuple[float, int]]]:
    """Each item's unmerged stage-k buckets, in schedule order: the factors that
    `census_product` crosses."""
    return [_component_buckets(gen.fold, repeat * k, _power_tables(gen.fold, repeat * k))
            for gen, repeat in schedule.items]


def stage_factors(
    schedule: CompositionSchedule, k: int
) -> Iterator[list[list[tuple[float, int]]]]:
    """`census_factors(schedule, stage)` for stages 0..k in turn.

    Each item's power tables are built once, at its stage-k exponent, and
    every stage reads them.
    """
    items = schedule.items
    tables = [_power_tables(gen.fold, repeat * k) for gen, repeat in items]
    for stage in range(k + 1):
        yield [_component_buckets(gen.fold, repeat * stage, table)
               for (gen, repeat), table in zip(items, tables)]

"""Composition schedules and their exact analytic census.

Generators and the schedule of (generator, repeat count) items built from a
parsed expression, and what follows from the schedule alone, without
geometry: the exact segment census (multinomial expansion, big-integer
counts) with its budget and underflow checks, and the content closed form.

Nothing here imports numpy or `geometry`, so `dim`, `census`, `stats` and
`limit` run without loading either; a test in `tests/test_cli.py` enforces
this.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Sequence

from .errors import (
    InputOutOfRange,
    InvalidAngle,
    RatiosExceedUnit,
    ScheduleSemanticError,
    SegmentBudgetExceeded,
)
from .frozen import Frozen
from .moran import ScaleSpectrum
from .parser import ScheduleExpr, parse


DEFAULT_SEGMENT_BUDGET = 10_000_000

# relative tolerance for merging census buckets of nearly equal length
_LENGTH_MERGE_RTOL = 1e-12
_VALUE = operator.itemgetter(0)

# census binomials: math.comb's cost grows with its result, and past rows of about
# this length building each row once, by C(r, g + 1) = C(r, g) (r - g) / (g + 1)
# in exact ints, is cheaper (the crossover is near 115 with two distinct ratios,
# 180 with three)
_SHORT_ROW = 128


class Piece(Frozen):
    """One generator piece: scale factor, heading relative to the parent, pen state."""

    __slots__ = _fields = ("ratio", "angle", "draw")

    def __init__(self, ratio: float, angle: float, draw: bool):
        super().__init__(ratio, angle, draw)


class Generator(Frozen):
    """One IFS substage: ordered pieces applied to every current segment.

    `draw_ratios`, the draw pieces' scale factors, and `copies`, their number,
    are built once: the census and the spectrum read them many times.
    """

    _fields = ("kind", "pieces", "connected")
    __slots__ = (*_fields, "draw_ratios", "copies")

    def __init__(
        self,
        kind: str,  # "K" | "Q" | "C" | "G"
        pieces: tuple[Piece, ...],
        connected: bool,  # all-draw chain ending exactly at the parent endpoint
    ):
        super().__init__(kind, pieces, connected)
        draw_ratios = tuple(p.ratio for p in pieces if p.draw)
        object.__setattr__(self, "draw_ratios", draw_ratios)
        object.__setattr__(self, "copies", len(draw_ratios))


class CompositionSchedule(Frozen):
    """One period of the composition: ordered (generator, repeat count) items."""

    __slots__ = _fields = ("items",)

    def __init__(self, items: tuple[tuple[Generator, int], ...]):
        if not items:
            raise ValueError("schedule needs at least one generator")
        for _, repeat in items:
            if repeat < 1:
                raise ValueError("repeat count must be >= 1")
        super().__init__(items)

    def spectrum(self) -> ScaleSpectrum:
        return ScaleSpectrum([(gen.draw_ratios, n) for gen, n in self.items])

    def predicted_count(self, k: int) -> int:
        """Exact segment count after k stages: prod_i l_i^(n_i * k)."""
        count = 1
        for gen, n in self.items:
            count *= gen.copies ** (n * k)
        return count

    def census_size(self, k: int) -> int:
        """Census buckets before merging at stage k: prod_i C(n_i*k + l_i - 1, l_i - 1)."""
        size = 1
        for gen, n in self.items:
            size *= math.comb(n * k + gen.copies - 1, gen.copies - 1)
        return size


def koch_scale(theta: float) -> float:
    """Scale factor closing the 4-piece Koch chain over the unit segment."""
    return 1.0 / (2.0 * (1.0 + math.cos(theta)))


def _koch_generator(theta: float) -> Generator:
    if not 0.0 < theta < math.pi / 2:
        raise InvalidAngle(f"Koch angle must lie in (0, pi/2), got {theta!r}")
    rho = koch_scale(theta)
    pieces = tuple(Piece(rho, a, True) for a in (0.0, theta, -theta, 0.0))
    return Generator("K", pieces, connected=True)


def _quadratic_generator(theta: float) -> Generator:
    if theta != math.pi / 2:
        raise InvalidAngle(f"quadratic generator supports only pi/2, got {theta!r}")
    headings = (0.0, math.pi / 2, 0.0, -math.pi / 2, 0.0)
    pieces = tuple(Piece(1.0 / 3.0, a, True) for a in headings)
    return Generator("Q", pieces, connected=True)


def _cantor_generator(ratios: Sequence[float]) -> Generator:
    kept = [float(r) for r in ratios]
    if not kept:
        raise ScheduleSemanticError("Cantor generator needs at least one ratio")
    for r in kept:
        if not 0.0 < r < 1.0:  # a fraction that rounds to 0.0 or 1.0
            raise InputOutOfRange(f"scale factor {r!r} outside (0, 1)")
    total = math.fsum(kept)
    if total > 1.0:
        raise RatiosExceedUnit(
            f"kept ratios sum to {total}, over the unit initiator"
        )
    pieces = []
    gap = (1.0 - total) / (len(kept) - 1) if len(kept) > 1 else 0.0
    for idx, r in enumerate(kept):
        if idx > 0 and gap > 0.0:
            pieces.append(Piece(gap, 0.0, False))
        pieces.append(Piece(r, 0.0, True))
    return Generator("C", tuple(pieces), connected=False)


def _custom_generator(pieces: Iterable[tuple[float, float, bool]]) -> Generator:
    built = tuple(Piece(float(r), float(a), bool(d)) for r, a, d in pieces)
    if not any(p.draw for p in built):
        raise ScheduleSemanticError("custom generator keeps no pieces")
    for p in built:
        if not 0.0 < p.ratio < 1.0:
            raise InputOutOfRange(f"scale factor {p.ratio!r} outside (0, 1)")
    # Connected means the nominal chain is gap-free and closes on (1, 0).
    x = y = 0.0
    for p in built:
        x += p.ratio * math.cos(p.angle)
        y += p.ratio * math.sin(p.angle)
    closes = math.hypot(x - 1.0, y) <= 1e-9
    return Generator("G", built, connected=closes and all(p.draw for p in built))


def builtin_generator(kind: str, params) -> Generator:
    """Build a generator: K/Q take an angle, C a ratio list, G piece triples."""
    if kind == "K":
        return _koch_generator(float(params))
    if kind == "Q":
        return _quadratic_generator(float(params))
    if kind == "C":
        return _cantor_generator(params)
    if kind == "G":
        return _custom_generator(params)
    raise ValueError(f"unknown generator kind {kind!r}")


def build_schedule(expr: ScheduleExpr) -> CompositionSchedule:
    """Turn a parsed schedule expression into generators with repeat counts."""
    items = []
    for item in expr.items:
        if item.kind in ("K", "Q"):
            gen = builtin_generator(item.kind, item.angle.value)
        elif item.kind == "C":
            gen = builtin_generator("C", [float(r) for r in item.ratios])
        else:
            triples = [(float(p.ratio), p.angle.value, p.draw) for p in item.pieces]
            gen = builtin_generator("G", triples)
        items.append((gen, item.repeat))
    return CompositionSchedule(tuple(items))


def schedule_from_text(text: str) -> CompositionSchedule:
    return build_schedule(parse(text))


def _check_initiator(L0: float) -> None:
    if not (math.isfinite(L0) and L0 > 0.0):
        raise ValueError(f"initiator length must be positive and finite, got {L0!r}")


# --- analytic census ---------------------------------------------------------


class _BinomialRows(dict):
    """Binomials C(r, g), called like math.comb; each row [C(r, 0), ..., C(r, r)]
    is built on first use."""

    def __missing__(self, r: int) -> list[int]:
        row = self[r] = list(
            itertools.accumulate(range(r), lambda c, g: c * (r - g) // (g + 1), initial=1)
        )
        return row

    def __call__(self, r: int, g: int) -> int:
        return self[r][g]


def _component_buckets(ratios: Sequence[float], t: int) -> list[tuple[float, int]]:
    """Lengths and exact counts for one component applied t times.

    Equal ratios fold into one: with distinct ratios rho_1..rho_d (in order of
    first appearance) of multiplicities m_1..m_d, each composition
    (h_1, ..., h_d) of t is one bucket of length
    ((1.0 * rho_1**h_1) * rho_2**h_2) * ..., built left to right, and count
    multinomial(t; h) * prod_j m_j**h_j. Compositions come out in
    lexicographic order. A single distinct ratio gives [(rho**t, m**t)]; with
    no repeated ratio this is the plain multinomial expansion over the pieces.
    """
    distinct = list(dict.fromkeys(ratios))
    if len(distinct) == 1:
        try:
            return [(distinct[0] ** t, len(ratios) ** t)]
        except OverflowError:  # t beyond the float range: rho**t underflows to 0.0
            return [(0.0, len(ratios) ** t)]
    powers = [[rho**g for g in range(t + 1)] for rho in distinct]
    mults = [ratios.count(rho) for rho in distinct]
    weights = [[m**g for g in range(t + 1)] for m in mults]
    comb = math.comb if t <= _SHORT_ROW else _BinomialRows()
    # (applications left, length so far, count so far) per partial composition
    partial = [(t, 1.0, 1)]
    for pw, wt in zip(powers[:-2], weights):
        partial = [
            (rem - g, value * pw[g], count * wt[g] * comb(rem, g))
            for rem, value, count in partial
            for g in range(rem + 1)
        ]
    # the last two exponents are chosen together, so each leaf is built once
    pa, pb = powers[-2:]
    wa, wb = weights[-2:]
    if mults[-2:] == [1, 1]:
        return [
            (value * pa[g] * pb[rem - g], count * comb(rem, g))
            for rem, value, count in partial
            for g in range(rem + 1)
        ]
    return [
        (value * pa[g] * pb[rem - g], count * wa[g] * wb[rem - g] * comb(rem, g))
        for rem, value, count in partial
        for g in range(rem + 1)
    ]


def _merge_buckets(buckets: Iterable[tuple[float, int]]) -> list[tuple[float, int]]:
    """Sort by decreasing value, stably, and fold each bucket within 1e-12 relative
    below its group's leader into it. Every bucket before the first neighbour pair
    within the tolerance leads its own group, so a scan in C finds where to start."""
    ordered = sorted(buckets, key=_VALUE, reverse=True)
    values = list(map(_VALUE, ordered))
    near = map(
        operator.le,
        map(operator.sub, values, values[1:]),
        map(operator.mul, itertools.repeat(_LENGTH_MERGE_RTOL), values),
    )
    try:
        start = operator.indexOf(near, True)
    except ValueError:
        return ordered
    merged = ordered[:start]
    for value, count in ordered[start:]:
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


def check_census_budget(schedule: CompositionSchedule, stages: Sequence[int], budget: int) -> None:
    """Raise SegmentBudgetExceeded once the census buckets of `stages` sum over the budget."""
    if all(gen.copies == 1 for gen, _ in schedule.items) and stages[budget:]:
        # one bucket per stage, and more stages than the budget: the loop below
        # would stop at budget + 1, after as many steps
        raise SegmentBudgetExceeded(budget + 1, budget, "census would enumerate {} buckets or more")
    work = 0
    for stage in stages:
        work += schedule.census_size(stage)
        if work > budget:
            raise SegmentBudgetExceeded(work, budget, "census would enumerate {} buckets or more")


def segment_census(
    schedule: CompositionSchedule,
    k: int,
    L0: float = 1.0,
    budget: int = DEFAULT_SEGMENT_BUDGET,
) -> list[tuple[float, int]]:
    """Exact (length, count) multiset at stage k, without materializing geometry.

    Per component, t = n_i * k applications contribute multinomially many
    segments of length prod_j rho_ij^h_j over the component's distinct ratios
    rho_ij (equal pieces fold into one ratio, their multiplicity joining the
    count), so each distinct-ratio exponent vector is computed once; the
    composite census is the product across components, times L0, merged by
    length (1e-12 relative). Counts are exact integers; their total is
    prod_i l_i^(n_i * k). Raises SegmentBudgetExceeded before any work when
    the compositions over the pieces, counted before folding, exceed
    `budget`, and ValueError unless L0 is positive and finite.
    """
    if k < 0:
        raise ValueError("stage must be >= 0")
    _check_initiator(L0)
    check_census_budget(schedule, (k,), budget)
    return census_product(
        (_component_buckets(gen.draw_ratios, repeat * k) for gen, repeat in schedule.items), L0
    )


def census_log_floor(schedule: CompositionSchedule, k: int, L0: float = 1.0) -> float:
    """ln of the smallest value segment_census forms at stage k.

    That is min(ln L0, 0) + k * sum_i n_i ln min_j r_ij, computed in the log
    domain so it stays finite where the value underflows to 0.0. The census
    crosses the unscaled lengths (all ratios are below 1) and scales by L0
    last, so an L0 above 1 cannot lift a product that has already underflowed.
    """
    try:
        floor = k * math.fsum(n * math.log(min(gen.draw_ratios)) for gen, n in schedule.items)
    except OverflowError:  # k or a repeat count beyond the float range
        floor = -math.inf if k else 0.0
    return min(math.log(L0), 0.0) + floor


def content(schedule: CompositionSchedule, k: int, beta: float, L0: float = 1.0) -> float:
    """Order-beta content at stage k via the census closed form.

    Constant in k exactly when beta is the composite dimension; at beta = 1 it
    is the stage length. Computed as exp(k ln M(beta) + beta ln L0) from the
    log Moran product M, and math.inf when that exceeds the float range; at
    k = 0 it is L0**beta, without the round trip through the logarithm.
    """
    _check_initiator(L0)
    if beta < 0.0:
        raise ValueError("beta must be >= 0")
    try:
        if k == 0:
            return L0**beta
        return math.exp(k * schedule.spectrum().log_moran(beta) + beta * math.log(L0))
    except OverflowError:
        return math.inf

"""Materialization of composition schedules as stage-k segment geometry.

Generators replace each segment by scaled/rotated pieces laid tip-to-tail in
the parent segment's local frame; gap pieces advance position without
emitting, removing that portion for all subsequent substages. The module also
provides the exact analytic segment census (multinomial expansion, big-integer
counts), total length and content closed forms, SVG/CSV export, and an overlap
detector backing the upper-bound caveat for self-intersecting compositions.

numpy is imported only inside the functions that use arrays, so the schedule
and census half, and with it `dim`, `census`, `stats` and `limit`, runs
without loading it; a no-numpy test in `tests/test_cli.py` enforces this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (
    InvalidAngle,
    RatiosExceedUnit,
    ScheduleSemanticError,
    SegmentBudgetExceeded,
)
from .moran import ScaleSpectrum
from .parser import ScheduleExpr, parse

if TYPE_CHECKING:
    import numpy as np


DEFAULT_SEGMENT_BUDGET = 10_000_000
RENDER_SEGMENT_LIMIT = 1_000_000

# relative tolerance for merging census buckets of nearly equal length
_LENGTH_MERGE_RTOL = 1e-12

# candidate pairs per vectorized overlap test: bounds detect_overlap's memory
_PAIR_CHUNK = 1 << 14


@dataclass(frozen=True)
class Piece:
    """One generator piece: scale factor, heading relative to the parent, pen state."""

    ratio: float
    angle: float
    draw: bool


@dataclass(frozen=True)
class Generator:
    """One IFS substage: ordered pieces applied to every current segment."""

    kind: str  # "K" | "Q" | "C" | "G"
    pieces: tuple[Piece, ...]
    connected: bool  # all-draw chain ending exactly at the parent endpoint

    @property
    def draw_ratios(self) -> tuple[float, ...]:
        return tuple(p.ratio for p in self.pieces if p.draw)

    @property
    def copies(self) -> int:
        return len(self.draw_ratios)


@dataclass(frozen=True)
class CompositionSchedule:
    """One period of the composition: ordered (generator, repeat count) items."""

    items: tuple[tuple[Generator, int], ...]

    def __post_init__(self):
        if not self.items:
            raise ValueError("schedule needs at least one generator")
        for _, repeat in self.items:
            if repeat < 1:
                raise ValueError("repeat count must be >= 1")

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


@dataclass(frozen=True)
class SegmentSet:
    """Stage-k geometry: oriented segments as an (n, 4) array of x1,y1,x2,y2.

    `iterate` also carries each segment's length as a running product of the
    applied scale factors: endpoint differences lose relative precision once
    segments get much smaller than their coordinates, while the products stay
    accurate at any depth (they are what the census predicts).
    """

    coords: np.ndarray
    stage: int
    initiator_length: float
    piece_lengths: np.ndarray | None = None

    def __post_init__(self):
        self.coords.flags.writeable = False
        if self.piece_lengths is not None:
            self.piece_lengths.flags.writeable = False

    def __len__(self) -> int:
        return len(self.coords)

    def lengths(self) -> np.ndarray:
        if self.piece_lengths is not None:
            return self.piece_lengths
        import numpy as np
        c = self.coords
        return np.hypot(c[:, 2] - c[:, 0], c[:, 3] - c[:, 1])


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
        if not 0.0 < r < 1.0:
            raise ValueError(f"scale factor {r!r} outside (0, 1)")
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
            raise ValueError(f"scale factor {p.ratio!r} outside (0, 1)")
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


# --- iteration ---------------------------------------------------------------


def _apply_substage(
    coords: np.ndarray, lengths: np.ndarray, gen: Generator
) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np
    ax, ay, bx, by = coords[:, 0], coords[:, 1], coords[:, 2], coords[:, 3]
    dx = bx - ax
    dy = by - ay
    px, py = ax.copy(), ay.copy()
    emitted = []
    emitted_lengths = []
    last_draw = max(i for i, p in enumerate(gen.pieces) if p.draw)
    for idx, piece in enumerate(gen.pieces):
        c, s = math.cos(piece.angle), math.sin(piece.angle)
        vx = piece.ratio * (c * dx - s * dy)
        vy = piece.ratio * (s * dx + c * dy)
        qx, qy = px + vx, py + vy
        if piece.draw:
            if gen.connected and idx == last_draw:
                # keep the chain endpoint bit-identical to the parent's
                qx, qy = bx, by
            emitted.append(np.stack([px, py, qx, qy], axis=1))
            emitted_lengths.append(piece.ratio * lengths)
        px, py = qx, qy
    # children of one parent stay consecutive: canonical depth-first order
    new_coords = np.stack(emitted, axis=1).reshape(-1, 4)
    new_lengths = np.stack(emitted_lengths, axis=1).reshape(-1)
    return new_coords, new_lengths


def _check_initiator(L0: float) -> None:
    if not (math.isfinite(L0) and L0 > 0.0):
        raise ValueError(f"initiator length must be positive and finite, got {L0!r}")


def iterate(
    schedule: CompositionSchedule,
    k: int,
    L0: float = 1.0,
    budget: int = DEFAULT_SEGMENT_BUDGET,
) -> SegmentSet:
    """Materialize k full periods of the schedule on the initiator [(0,0)->(L0,0)].

    Raises SegmentBudgetExceeded before doing any work if the stage would
    produce more segments than the budget, or apply more substages (k times
    the sum of the repeats) than the budget. The exact segment count is built
    only when it is at most the budget squared; a count beyond that is
    reported by its power of ten, with `predicted` None.
    """
    if k < 0:
        raise ValueError("stage must be >= 0")
    _check_initiator(L0)
    try:
        log_count = k * sum(n * math.log(gen.copies) for gen, n in schedule.items)
    except OverflowError:
        log_count = math.inf
    if log_count > 2 * math.log(max(budget, 2)):
        raise SegmentBudgetExceeded(
            None, budget, f"stage would produce about 10^{log_count / math.log(10):.6g} segments"
        )
    predicted = schedule.predicted_count(k)
    if predicted > budget:
        raise SegmentBudgetExceeded(predicted, budget)
    # one-piece generators keep the count at 1, so charge the work per substage too
    applications = k * sum(n for _, n in schedule.items)
    if applications > budget:
        raise SegmentBudgetExceeded(applications, budget, "stage would apply {} substages")
    import numpy as np
    coords = np.array([[0.0, 0.0, L0, 0.0]])
    lengths = np.array([L0])
    for _ in range(k):
        for gen, repeat in schedule.items:
            for _ in range(repeat):
                coords, lengths = _apply_substage(coords, lengths, gen)
    return SegmentSet(coords=coords, stage=k, initiator_length=L0, piece_lengths=lengths)


# --- analytic census ---------------------------------------------------------


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
        return [(distinct[0] ** t, len(ratios) ** t)]
    powers = [[rho**g for g in range(t + 1)] for rho in distinct]
    weights = [[ratios.count(rho) ** g for g in range(t + 1)] for rho in distinct]
    # (applications left, length so far, count so far) per partial composition
    partial = [(t, 1.0, 1)]
    for pw, wt in zip(powers[:-2], weights):
        partial = [
            (rem - g, value * pw[g], count * wt[g] * math.comb(rem, g))
            for rem, value, count in partial
            for g in range(rem + 1)
        ]
    # the last two exponents are chosen together, so each leaf is built once
    pa, pb = powers[-2:]
    wa, wb = weights[-2:]
    return [
        (value * pa[g] * pb[rem - g], count * wa[g] * wb[rem - g] * math.comb(rem, g))
        for rem, value, count in partial
        for g in range(rem + 1)
    ]


def _merge_buckets(buckets: Iterable[tuple[float, int]]) -> list[tuple[float, int]]:
    ordered = sorted(buckets, key=lambda b: -b[0])
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
    return _merge_buckets((v * scale, c) for v, c in cross)


def check_census_budget(schedule: CompositionSchedule, stages: Iterable[int], budget: int) -> None:
    """Raise SegmentBudgetExceeded once the census buckets of `stages` sum over the budget."""
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
    return min(math.log(L0), 0.0) + k * math.fsum(
        n * math.log(min(gen.draw_ratios)) for gen, n in schedule.items
    )


def total_length(s: SegmentSet) -> float:
    return float(s.lengths().sum())


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


# --- export ------------------------------------------------------------------

# segments formatted per write: bounds the text and float lists held at once
_EXPORT_CHUNK = 1 << 12

_CSV_ROW = "%.12g,%.12g,%.12g,%.12g\n"
# an SVG point followed by: the next point of its chain, the end of its chain
# ("\n", replaced by the polyline boundary), or nothing (the last point)
_SVG_POINTS = ("%.6f,%.6f ", "%.6f,%.6f\n", "%.6f,%.6f")


@dataclass(frozen=True)
class SvgStyle:
    stroke: str = "black"
    stroke_width: float = 1.0
    background: str = "white"


def _format(template: str, values: np.ndarray) -> str:
    return template % tuple(values.ravel().tolist())


def _fix_negative_zero(text: str) -> str:
    """Write %.6f values that round to -0 as 0.000000; a "-" only ever starts a
    value, so no other value contains the pattern."""
    return text.replace("-0.000000", "0.000000")


def _write_chunked(path, head: str, n: int, chunk_text, tail: str) -> None:
    """Write head, chunk_text(start, stop) for consecutive slices of at most
    _EXPORT_CHUNK of the n segments, then tail."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        for start in range(0, n, _EXPORT_CHUNK):
            fh.write(chunk_text(start, min(start + _EXPORT_CHUNK, n)))
        fh.write(tail)


def export_svg(s: SegmentSet, path, style: SvgStyle | None = None) -> None:
    """Write a standalone SVG: one polyline per maximal connected chain.

    Output is deterministic (byte-identical across runs for identical input):
    viewBox fitted with a 5% margin, coordinates at 6 decimal places, with
    -0.000000 written as 0.000000. A segment continues the chain of the one
    before it when its start lies within 1e-9 of the figure's size of that
    one's end, per coordinate. The points are formatted and written in chunks
    of a fixed number of segments, one % format per chunk, so the text is
    never built whole.
    """
    n = len(s)
    if n > RENDER_SEGMENT_LIMIT:
        raise SegmentBudgetExceeded(n, RENDER_SEGMENT_LIMIT)
    import numpy as np
    style = style or SvgStyle()
    coords = s.coords
    pts = coords.reshape(-1, 2)
    # flip y so the curve "bumps" point up like the construction sketches
    xmin, xmax = float(pts[:, 0].min()), float(pts[:, 0].max())
    ymin, ymax = float(-pts[:, 1].max()), float(-pts[:, 1].min())
    margin = 0.05 * max(xmax - xmin, ymax - ymin, 1e-9)
    vb = (xmin - margin, ymin - margin, (xmax - xmin) + 2 * margin, (ymax - ymin) + 2 * margin)
    join_tol = 1e-9 * max(xmax - xmin, ymax - ymin, s.initiator_length)
    flip_y = np.array([1.0, -1.0])
    # breaks[i]: a chain boundary lies before segment i (always at 0 and n)
    breaks = np.ones(n + 1, dtype=bool)
    breaks[1:-1] = (np.abs(coords[:-1, 2] - coords[1:, 0]) > join_tol) | (
        np.abs(coords[:-1, 3] - coords[1:, 1]) > join_tol
    )
    close = (
        f'" fill="none" stroke="{style.stroke}" stroke-width="{style.stroke_width:g}" '
        'vector-effect="non-scaling-stroke"/>\n'
    )
    polyline = '<polyline points="'

    def chunk_text(start: int, stop: int) -> str:
        # per segment: its start point, kept only where a chain begins, then
        # its end point, whose separator says whether the chain goes on
        keep = np.ones((stop - start, 2), dtype=bool)
        keep[:, 0] = breaks[start:stop]
        kind = np.zeros((stop - start, 2), dtype=np.int8)
        kind[:, 1] = breaks[start + 1 : stop + 1]
        if stop == n:
            kind[-1, 1] = 2
        template = "".join(map(_SVG_POINTS.__getitem__, kind[keep].tolist()))
        points = (coords[start:stop].reshape(-1, 2) * flip_y)[keep.ravel()]
        return _fix_negative_zero(_format(template, points)).replace("\n", close + polyline)

    x, y, w, h = _fix_negative_zero("%.6f %.6f %.6f %.6f" % vb).split()
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x} {y} {w} {h}">\n'
        f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{style.background}"/>\n'
        + polyline
    )
    _write_chunked(path, head, n, chunk_text, close + "</svg>\n")


def export_csv(s: SegmentSet, path) -> None:
    """Dump segments as `x1,y1,x2,y2` lines with 12 significant digits.

    The rows are formatted and written in chunks of a fixed number of
    segments, one % format per chunk, so the text is never built whole.
    """
    coords = s.coords

    def chunk_text(start: int, stop: int) -> str:
        return _format(_CSV_ROW * (stop - start), coords[start:stop])

    _write_chunked(path, "", len(s), chunk_text, "")


# --- overlap detection -------------------------------------------------------


def expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the integer ranges lo[k]..hi[k] (inclusive) in order.

    Returns (k, value) for every element: the index of the range it came from
    and its value.
    """
    import numpy as np
    sizes = hi - lo + 1
    owner = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.cumsum(sizes) - sizes
    return owner, lo[owner] + (np.arange(len(owner)) - starts[owner])


def _pairs_overlap(a: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    """Row-wise: True where segments a[k] and b[k] intersect in more than a shared endpoint."""
    import numpy as np
    ax, ay, bx, by = a.T
    cx, cy, dx, dy = b.T
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    la = np.hypot(rx, ry)
    lb = np.hypot(sx, sy)
    qpx, qpy = cx - ax, cy - ay
    denom = rx * sy - ry * sx
    cross = qpx * ry - qpy * rx
    # a zero-length segment divides by zero below and overlaps nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        parallel = np.abs(denom) <= eps * la * lb
        # parallel: overlap only when collinear with positive shared length
        t0 = (qpx * rx + qpy * ry) / (la * la)
        t1 = t0 + (sx * rx + sy * ry) / (la * la)
        lo, hi = np.minimum(t0, t1), np.maximum(t0, t1)
        shared = np.minimum(hi, 1.0) - np.maximum(lo, 0.0)
        collinear = ~(np.abs(cross) > eps * la) & (shared > eps / la)
        # crossing: within both segments, and not at an endpoint of both
        t = (qpx * sy - qpy * sx) / denom
        u = cross / denom
        ta, tb = eps / la, eps / lb
        inside = (-ta <= t) & (t <= 1.0 + ta) & (-tb <= u) & (u <= 1.0 + tb)
        at_a_end = (t <= ta) | (t >= 1.0 - ta)
        at_b_end = (u <= tb) | (u >= 1.0 - tb)
    return np.where(parallel, collinear, inside & ~(at_a_end & at_b_end))


def detect_overlap(s: SegmentSet) -> bool:
    """True iff any two segments share more than an endpoint.

    When true, composite dimensions are only upper bounds for the figure's
    real dimension. The broad phase lays a grid of cells at least as large as
    the longest segment, expands each segment into the cells its eps-padded
    bounding box covers, and sorts those (cell, segment) rows. Two segments
    are a candidate pair in the lowest cell both cover, so each pair is tested
    once. The narrow phase evaluates the exact pairwise predicate on the
    candidates in chunks of a fixed number of pairs, which bounds memory
    whatever the cell occupancy, and stops at the first overlapping chunk.
    Tolerance 1e-12 relative to the geometry's extent.
    """
    n = len(s)
    if n > RENDER_SEGMENT_LIMIT:
        raise SegmentBudgetExceeded(n, RENDER_SEGMENT_LIMIT)
    if n < 2:
        return False
    import numpy as np
    coords = s.coords
    pts = coords.reshape(-1, 2)
    extent = float(max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1])))
    eps = 1e-12 * max(extent, s.initiator_length)
    cell = max(float(s.lengths().max()), eps, extent * 1e-6)
    inv = 1.0 / cell
    i0 = np.floor((np.minimum(coords[:, 0], coords[:, 2]) - eps) * inv).astype(np.int64)
    i1 = np.floor((np.maximum(coords[:, 0], coords[:, 2]) + eps) * inv).astype(np.int64)
    j0 = np.floor((np.minimum(coords[:, 1], coords[:, 3]) - eps) * inv).astype(np.int64)
    j1 = np.floor((np.maximum(coords[:, 1], coords[:, 3]) + eps) * inv).astype(np.int64)

    # one row per (segment, covered cell), sorted by cell, then segment
    seg, ci = expand_ranges(i0, i1)
    row, cj = expand_ranges(j0[seg], j1[seg])
    seg, ci = seg[row], ci[row]
    j_min = int(j0.min())
    key = (ci - int(i0.min())) * (int(j1.max()) - j_min + 1) + (cj - j_min)
    order = np.argsort(key, kind="stable")
    seg, ci, cj, key = seg[order], ci[order], cj[order], key[order]

    # pair each row with every later row of its cell; pair p belongs to the
    # row r with first[r] <= p < first[r] + later[r]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    sizes = np.diff(np.append(starts, len(key)))
    later = np.repeat(starts + sizes, sizes) - np.arange(len(key)) - 1
    ends = np.cumsum(later)
    first = ends - later
    for p0 in range(0, int(ends[-1]), _PAIR_CHUNK):
        p = np.arange(p0, min(p0 + _PAIR_CHUNK, int(ends[-1])))
        r = np.searchsorted(ends, p, side="right")
        a, b = seg[r], seg[r + 1 + (p - first[r])]
        lowest = (ci[r] == np.maximum(i0[a], i0[b])) & (cj[r] == np.maximum(j0[a], j0[b]))
        a, b = a[lowest], b[lowest]
        if _pairs_overlap(coords[a], coords[b], eps).any():
            return True
    return False

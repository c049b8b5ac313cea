"""Materialization of composition schedules as stage-k segment geometry.

Generators replace each segment by scaled/rotated pieces laid tip-to-tail in
the parent segment's local frame; gap pieces advance position without
emitting, removing that portion for all subsequent substages. The module also
provides the exact analytic segment census (multinomial expansion, big-integer
counts), total length and content closed forms, SVG/CSV export, and an overlap
detector backing the upper-bound caveat for self-intersecting compositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InvalidAngle,
    RatiosExceedUnit,
    ScheduleSemanticError,
    SegmentBudgetExceeded,
)
from .moran import ScaleSpectrum
from .parser import ScheduleExpr, parse

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


def iterate(
    schedule: CompositionSchedule,
    k: int,
    L0: float = 1.0,
    budget: int = DEFAULT_SEGMENT_BUDGET,
) -> SegmentSet:
    """Materialize k full periods of the schedule on the initiator [(0,0)->(L0,0)].

    Raises SegmentBudgetExceeded (with the predicted count) before doing any
    work if the stage would be too large.
    """
    if k < 0:
        raise ValueError("stage must be >= 0")
    if L0 <= 0.0:
        raise ValueError("initiator length must be positive")
    predicted = schedule.predicted_count(k)
    if predicted > budget:
        raise SegmentBudgetExceeded(predicted, budget)
    coords = np.array([[0.0, 0.0, L0, 0.0]])
    lengths = np.array([L0])
    for _ in range(k):
        for gen, repeat in schedule.items:
            for _ in range(repeat):
                coords, lengths = _apply_substage(coords, lengths, gen)
    return SegmentSet(coords=coords, stage=k, initiator_length=L0, piece_lengths=lengths)


# --- analytic census ---------------------------------------------------------


def _component_buckets(ratios: Sequence[float], t: int) -> list[tuple[float, int]]:
    """Lengths and exact multinomial counts for one component applied t times.

    Compositions (g_0, ..., g_last) of t come out in lexicographic order, each
    length built as ((1.0 * r_0**g_0) * r_1**g_1) * ... left to right.
    """
    if len(ratios) == 1:
        return [(ratios[0] ** t, 1)]
    powers = [[ratio**g for g in range(t + 1)] for ratio in ratios]
    # (applications left, length so far, count so far) per partial composition
    partial = [(t, 1.0, 1)]
    for pw in powers[:-2]:
        partial = [
            (rem - g, value * pw[g], count * math.comb(rem, g))
            for rem, value, count in partial
            for g in range(rem + 1)
        ]
    # the last two exponents are chosen together, so each leaf is built once
    pa, pb = powers[-2:]
    return [
        (value * pa[g] * pb[rem - g], count * math.comb(rem, g))
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


def segment_census(
    schedule: CompositionSchedule, k: int, L0: float = 1.0
) -> list[tuple[float, int]]:
    """Exact (length, count) multiset at stage k, without materializing geometry.

    Per component, t = n_i * k applications contribute multinomially many
    segments of length prod_j r_ij^g_j; the composite census is the product
    across components, merged by length (1e-12 relative). Counts are exact
    integers; their total is prod_i l_i^(n_i * k).
    """
    if k < 0:
        raise ValueError("stage must be >= 0")
    cross: list[tuple[float, int]] | None = None
    for gen, repeat in schedule.items:
        comp = _component_buckets(gen.draw_ratios, repeat * k)
        if cross is None:
            cross = comp
        else:
            cross = [(v * w, c * d) for v, c in cross for w, d in comp]
    return _merge_buckets((v * L0, c) for v, c in cross)


def total_length(s: SegmentSet) -> float:
    return float(s.lengths().sum())


def predicted_length(schedule: CompositionSchedule, k: int, L0: float = 1.0) -> float:
    """Closed-form stage-k length: prod_i (sum_j r_ij)^(n_i * k) * L0."""
    value = 1.0
    for gen, repeat in schedule.items:
        value *= math.fsum(gen.draw_ratios) ** (repeat * k)
    return value * L0


def content(schedule: CompositionSchedule, k: int, beta: float, L0: float = 1.0) -> float:
    """Order-beta content at stage k via the census closed form.

    Constant in k exactly when beta is the composite dimension; at beta = 1 it
    is the stage length.
    """
    if beta < 0.0:
        raise ValueError("beta must be >= 0")
    return schedule.spectrum().moran_product(beta) ** k * L0**beta


# --- export ------------------------------------------------------------------


@dataclass(frozen=True)
class SvgStyle:
    stroke: str = "black"
    stroke_width: float = 1.0
    background: str = "white"


def _polyline_chains(coords: np.ndarray, join_tol: float) -> list[np.ndarray]:
    """Split canonical-order segments into maximal connected chains."""
    chains = []
    start = 0
    for i in range(1, len(coords)):
        if (
            abs(coords[i - 1, 2] - coords[i, 0]) > join_tol
            or abs(coords[i - 1, 3] - coords[i, 1]) > join_tol
        ):
            chains.append(coords[start:i])
            start = i
    chains.append(coords[start:])
    return chains


def export_svg(s: SegmentSet, path, style: SvgStyle | None = None) -> None:
    """Write a standalone SVG: one polyline per maximal connected chain.

    Output is deterministic (byte-identical across runs for identical input):
    viewBox fitted with a 5% margin, coordinates at 6 decimal places.
    """
    if len(s) > RENDER_SEGMENT_LIMIT:
        raise SegmentBudgetExceeded(len(s), RENDER_SEGMENT_LIMIT)
    style = style or SvgStyle()
    pts = s.coords.reshape(-1, 2)
    # flip y so the curve "bumps" point up like the construction sketches
    xmin, xmax = float(pts[:, 0].min()), float(pts[:, 0].max())
    ymin, ymax = float(-pts[:, 1].max()), float(-pts[:, 1].min())
    margin = 0.05 * max(xmax - xmin, ymax - ymin, 1e-9)
    vb = (xmin - margin, ymin - margin, (xmax - xmin) + 2 * margin, (ymax - ymin) + 2 * margin)
    join_tol = 1e-9 * max(xmax - xmin, ymax - ymin, s.initiator_length)

    def fmt(v: float) -> str:
        text = f"{v:.6f}"
        return "0.000000" if text == "-0.000000" else text

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{fmt(vb[0])} {fmt(vb[1])} {fmt(vb[2])} {fmt(vb[3])}">',
        f'<rect x="{fmt(vb[0])}" y="{fmt(vb[1])}" width="{fmt(vb[2])}" height="{fmt(vb[3])}" fill="{style.background}"/>',
    ]
    for chain in _polyline_chains(s.coords, join_tol):
        points = [f"{fmt(chain[0, 0])},{fmt(-chain[0, 1])}"]
        points += [f"{fmt(x)},{fmt(-y)}" for x, y in chain[:, 2:4]]
        lines.append(
            f'<polyline points="{" ".join(points)}" fill="none" '
            f'stroke="{style.stroke}" stroke-width="{style.stroke_width:g}" '
            f'vector-effect="non-scaling-stroke"/>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def export_csv(s: SegmentSet, path) -> None:
    """Dump segments as `x1,y1,x2,y2` lines with 12 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x1, y1, x2, y2 in s.coords:
            fh.write(f"{x1:.12g},{y1:.12g},{x2:.12g},{y2:.12g}\n")


# --- overlap detection -------------------------------------------------------


def expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the integer ranges lo[k]..hi[k] (inclusive) in order.

    Returns (k, value) for every element: the index of the range it came from
    and its value.
    """
    sizes = hi - lo + 1
    owner = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.cumsum(sizes) - sizes
    return owner, lo[owner] + (np.arange(len(owner)) - starts[owner])


def _pairs_overlap(a: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    """Row-wise: True where segments a[k] and b[k] intersect in more than a shared endpoint."""
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

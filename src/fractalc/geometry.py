"""Materialization of composition schedules as stage-k segment geometry.

Generators replace each segment by scaled/rotated pieces laid tip-to-tail in
the parent segment's local frame; gap pieces advance position without
emitting, removing that portion for all subsequent substages. The module also
provides total length, SVG/CSV export, and an overlap detector backing the
upper-bound caveat for self-intersecting compositions. The schedule, the
segment census and the content closed form live in `schedule`.

numpy is imported only inside the functions that use arrays, so `render`
loads it only once the stage is within the segment budget.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import TYPE_CHECKING

from .errors import GeometryOutOfRange, SegmentBudgetExceeded
from .frozen import Frozen
from .schedule import DEFAULT_SEGMENT_BUDGET, _check_initiator

# bench/jobs.py calls these three through `geometry.`
from .schedule import build_schedule, content, segment_census

if TYPE_CHECKING:
    import numpy as np

    from .schedule import CompositionSchedule, Generator


RENDER_SEGMENT_LIMIT = 1_000_000

# candidate pairs per vectorized overlap test: bounds detect_overlap's memory
_PAIR_CHUNK = 1 << 14


class SegmentSet(Frozen):
    """Stage-k geometry: oriented segments as an (n, 4) array of x1,y1,x2,y2.

    `iterate` also carries each segment's length as a running product of the
    applied scale factors: endpoint differences lose relative precision once
    segments get much smaller than their coordinates, while the products stay
    accurate at any depth (they are what the census predicts).
    """

    __slots__ = _fields = ("coords", "stage", "initiator_length", "piece_lengths")

    def __init__(
        self,
        coords: np.ndarray,
        stage: int,
        initiator_length: float,
        piece_lengths: np.ndarray | None = None,
    ):
        coords.flags.writeable = False
        if piece_lengths is not None:
            piece_lengths.flags.writeable = False
        super().__init__(coords, stage, initiator_length, piece_lengths)

    def __len__(self) -> int:
        return len(self.coords)

    def lengths(self) -> np.ndarray:
        if self.piece_lengths is not None:
            return self.piece_lengths
        import numpy as np
        c = self.coords
        return np.hypot(c[:, 2] - c[:, 0], c[:, 3] - c[:, 1])


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
    reported by its power of ten, with `predicted` None. Raises
    GeometryOutOfRange when a coordinate, the figure's extent along x or y, or
    its total length is not finite.
    """
    if k < 0:
        raise ValueError("stage must be >= 0")
    _check_initiator(L0)
    try:
        log_count = k * sum(n * math.log(gen.copies) for gen, n in schedule.items)
    except OverflowError:  # a repeat count beyond the float range
        log_count = math.inf if k else 0.0
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
    # the check below reports overflow, not numpy warnings: an overflowed
    # coordinate stays inf or nan in every later substage and makes its axis's
    # extent non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k):
            for gen, repeat in schedule.items:
                for _ in range(repeat):
                    coords, lengths = _apply_substage(coords, lengths, gen)
        sizes = np.ptp(coords[:, ::2]), np.ptp(coords[:, 1::2]), lengths.sum()
    if not np.isfinite(sizes).all():
        raise GeometryOutOfRange(
            f"the stage-{k} figure of initiator length {L0:g} leaves the float range"
        )
    return SegmentSet(coords=coords, stage=k, initiator_length=L0, piece_lengths=lengths)


def total_length(s: SegmentSet) -> float:
    return float(s.lengths().sum())


# --- export ------------------------------------------------------------------

# segments formatted per write: bounds the text and arrays held at once. The
# kernel's arrays take more memory per value than a list of floats, and at
# 4096 segments a chunk raised the process's peak memory by about 1 MB
_EXPORT_CHUNK = 1 << 10

# a CSV point; a row is two of them, the second ending the line
_CSV_POINT = b"%.12g,%.12g\n"
# the separator after an SVG point's y: the next point of its chain, the end
# of its chain (replaced by the polyline boundary), or nothing (the last point)
_SVG_SEPS = b" \n\0"


class SvgStyle(Frozen):
    """Stroke colour and width of the polylines, and the background fill."""

    __slots__ = _fields = ("stroke", "stroke_width", "background")

    def __init__(self, stroke: str = "black", stroke_width: float = 1.0,
                 background: str = "white"):
        super().__init__(stroke, stroke_width, background)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, ...]:
    """Little-endian uint32 words whose four bytes, in memory order, are ASCII:
    for i in 0..9999, `digits` zero-padded ("0042") and `leading` with leading
    zeros as NUL, the units digit kept ("\\0\\042"); for i in 0..999, `dotted`
    (".042") and `tail` ("042\\0"). Read-only, since every caller shares them.
    """
    import numpy as np
    i = np.arange(10_000)
    text = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + ord("0")
    leading = text * (i[:, None] >= [1000, 100, 10, 0])
    dotted = text[:1000].copy()
    dotted[:, 0] = ord(".")
    tail = np.zeros_like(dotted)
    tail[:, :3] = text[:1000, 1:]
    tables = tuple(t.astype(np.uint8).view("<u4").ravel() for t in (text, leading, dotted, tail))
    for t in tables:
        t.flags.writeable = False
    return tables


def _fixed6_rows(values: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """The (n, 20) uint8 text rows of `_fixed6`, separators left out; clears
    ok where a value falls back."""
    import numpy as np
    digits, leading, dotted, tail = _digit_tables()
    # in place where it can be: a is |v|, then xf, then m, then the fraction
    # of m, then its distance from a half; xi and r stay floats until whole
    a = np.abs(values)
    np.copyto(a, 0.0, where=~ok)
    xi = np.floor(a)
    a -= xi
    a *= 1e6
    r = np.floor(a)
    a -= r
    r += a > 0.5
    a -= 0.5
    ok &= np.abs(a, out=a) >= 1e-6
    carry = r == 1e6
    xi += carry
    r[carry] = 0.0
    # a carry to 1e8 needs a ninth digit: it falls back, its digits clamped
    ok &= xi < 1e8
    # only a nonzero result is signed: -0.0 rounds to zero, and nan falls back
    negative = (values < 0.0) & (xi + r > 0.0)
    ip = np.minimum(xi, 99_999_999.0).astype(np.int32)
    r = r.astype(np.int32)
    hi = ip // 10_000
    lo = ip - 10_000 * hi
    f = r // 1000
    rows = np.zeros((len(values), 20), dtype=np.uint8)
    words = rows.view("<u4")
    rows[:, 0] = negative * ord("-")
    words[:, 1] = np.where(hi > 0, leading[hi], 0)
    words[:, 2] = np.where(hi > 0, digits[lo], leading[lo])
    words[:, 3] = dotted[f]
    words[:, 4] = tail[r - 1000 * f]
    return rows


def _fixed6(values: np.ndarray, seps: np.ndarray) -> bytes:
    """'%.6f' % v of every value, each followed by its separator byte from
    `seps` (0 for none), with values that round to zero written unsigned.

    Exact for |v| < 1e8: a = |v| splits into xi = floor(a) and xf = a - xi
    without rounding (Sterbenz), and m = xf * 1e6 is one correctly rounded
    product below 2^20, so within 2^-33 of the exact xf * 10^6. Rounding m
    therefore rounds the exact value unless that lies within 2^-33 of a half;
    a value whose m lies within 1e-6 of a half (a tie, or too close to call)
    falls back. A rounded fraction of 10^6 carries into xi. Each value is one
    row of 20 bytes: the sign, then four-digit words from `_digit_tables` (8
    integer digits with leading zeros as NUL, "." and 3 fraction digits, the
    other 3), then the separator; the NULs are dropped at the end. The rows of
    the other values (|v| >= 1e8, a carry to 1e8, a near tie, nan, inf) read
    "%.6f" and their separator, so the text is itself the template that
    formats those values with one %: no other byte of it is a "%". Of their
    texts, those that round to -0 are then written 0.000000; a "-" only ever
    starts a value, so no other value contains the pattern. When fewer than
    one value in eight is in range, every value falls back, since % costs
    about ten times the kernel per value.
    """
    import numpy as np
    ok = np.abs(values) < 1e8
    if 8 * np.count_nonzero(ok) >= len(values):
        rows = _fixed6_rows(values, ok)
    else:
        ok[:] = False
        rows = np.empty((len(values), 5), dtype=np.uint8)
    # a value that falls back reads "%.6f", then its separator
    rows[~ok, :-1] = np.frombuffer(b"%.6f".ljust(rows.shape[1] - 1, b"\0"), dtype=np.uint8)
    rows[:, -1] = seps
    text = rows.tobytes().translate(None, b"\0")
    if ok.all():
        return text
    return (text % tuple(values[~ok].tolist())).replace(b"-0.000000", b"0.000000")


def _write_chunked(path, head: bytes, n: int, chunk_text, tail: bytes) -> None:
    """Write head, chunk_text(start, stop) for consecutive slices of at most
    _EXPORT_CHUNK of the n segments, then tail."""
    with open(path, "wb") as fh:
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
    of a fixed number of segments, so the text is never built whole. Each
    chunk's coordinates go through `_fixed6`, an array kernel whose bytes
    equal '%.6f' for |v| < 1e8 and which hands larger values, near ties and
    non-finite values to one % format per chunk.
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
    if not all(map(math.isfinite, vb)):
        raise GeometryOutOfRange(f"the SVG view box {vb} is beyond the float range")
    join_tol = 1e-9 * max(xmax - xmin, ymax - ymin, s.initiator_length)
    flip_y = np.array([1.0, -1.0])
    y_seps = np.frombuffer(_SVG_SEPS, dtype=np.uint8)
    # breaks[i]: a chain boundary lies before segment i (always at 0 and n)
    breaks = np.ones(n + 1, dtype=bool)
    breaks[1:-1] = (np.abs(coords[:-1, 2] - coords[1:, 0]) > join_tol) | (
        np.abs(coords[:-1, 3] - coords[1:, 1]) > join_tol
    )
    close = (
        f'" fill="none" stroke="{style.stroke}" stroke-width="{style.stroke_width:g}" '
        'vector-effect="non-scaling-stroke"/>\n'
    ).encode()
    polyline = b'<polyline points="'

    def chunk_text(start: int, stop: int) -> bytes:
        # per segment: its start point, kept only where a chain begins, then
        # its end point, whose separator says whether the chain goes on
        keep = np.ones((stop - start, 2), dtype=bool)
        keep[:, 0] = breaks[start:stop]
        kind = np.zeros((stop - start, 2), dtype=np.int8)
        kind[:, 1] = breaks[start + 1 : stop + 1]
        if stop == n:
            kind[-1, 1] = 2
        points = coords[start:stop].reshape(-1, 2)[keep.ravel()] * flip_y
        seps = np.full(points.shape, ord(","), dtype=np.uint8)
        seps[:, 1] = y_seps[kind[keep]]
        return _fixed6(points.ravel(), seps.ravel()).replace(b"\n", close + polyline)

    x, y, w, h = _fixed6(np.array(vb), np.full(4, ord(" "), dtype=np.uint8)).decode().split()
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x} {y} {w} {h}">\n'
        f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{style.background}"/>\n'
    ).encode() + polyline
    _write_chunked(path, head, n, chunk_text, close + b"</svg>\n")


def export_csv(s: SegmentSet, path) -> None:
    """Dump segments as `x1,y1,x2,y2` lines with 12 significant digits.

    The rows are formatted and written in chunks of a fixed number of
    segments, so the text is never built whole. Each point is formatted once:
    a row whose start equals the end of the row before it, bit for bit (so
    0.0 and -0.0 stay apart), reuses that end's text. Per chunk, one % formats
    the first row's start, the other starts that differ and every end, and
    one more % joins the texts into rows.
    """
    import numpy as np
    coords = s.coords

    def chunk_text(start: int, stop: int) -> bytes:
        c = coords[start:stop]
        bits = c.view(np.int64)
        fresh = np.ones(stop - start, dtype=bool)
        fresh[1:] = (bits[1:, 0] != bits[:-1, 2]) | (bits[1:, 1] != bits[:-1, 3])
        points = np.concatenate((c[fresh, :2], c[:, 2:]))
        texts = (_CSV_POINT * len(points) % tuple(points.ravel().tolist())).split(b"\n")
        # row i: its start text (its own, or the end text of row i - 1), then its end text
        order = np.empty((stop - start, 2), dtype=np.intp)
        order[:, 1] = np.arange(len(points) - (stop - start), len(points))
        order[:, 0] = np.where(fresh, np.cumsum(fresh) - 1, order[:, 1] - 1)
        return b"%s,%s\n" * (stop - start) % operator.itemgetter(*order.ravel().tolist())(texts)

    _write_chunked(path, b"", len(s), chunk_text, b"")


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
        # parallel when the sine of their angle is at most 1e-12, at any scale
        parallel = np.abs(denom) <= 1e-12 * la * lb
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
    real dimension. Tolerance eps is 1e-12 of max(extent, L0), and the
    parallel test compares a sine with 1e-12, so the verdict does not depend
    on the figure's scale.

    The broad phase cuts the plane into horizontal strips of height h, the
    longest segment (at least eps and 1e-6 of the extent). Strip j holds
    y in [(j - 1/2) h, (j + 1/2) h): anchored half a strip off the axis, so
    figures on a lattice of step h, or on the line y = 0, do not straddle
    strip boundaries. Each segment gets one row per strip its eps-padded
    y-range covers, and the rows are sorted by strip, then by padded x-start.
    Within a strip a row is paired with the later rows that start, along x,
    before it ends. Two segments whose padded boxes meet both cover the
    higher of their first strips, and there the one that starts first
    reaches the other; the pair is tested in that strip only. The narrow
    phase keeps the pairs whose padded y-ranges meet and evaluates the exact
    predicate in chunks of a fixed number of pairs, which bounds memory
    however crowded a strip is, and stops at the first overlapping chunk.
    The predicate runs on coordinates scaled by a power of two that brings
    max(extent, L0) into [1, 2): exact, and no product can overflow.
    """
    n = len(s)
    if n > RENDER_SEGMENT_LIMIT:
        raise SegmentBudgetExceeded(n, RENDER_SEGMENT_LIMIT)
    if n < 2:
        return False
    import numpy as np
    extent = float(max(np.ptp(s.coords[:, ::2]), np.ptp(s.coords[:, 1::2])))
    eps = 1e-12 * max(extent, s.initiator_length)
    h = max(float(s.lengths().max()), eps, extent * 1e-6)
    # segments in order of x-start, then their eps-padded boxes and strips
    coords = s.coords[np.argsort(np.minimum(s.coords[:, 0], s.coords[:, 2]))]
    lo = np.minimum(coords[:, :2], coords[:, 2:]) - eps
    hi = np.maximum(coords[:, :2], coords[:, 2:]) + eps
    j0 = np.floor(lo[:, 1] / h + 0.5).astype(np.int64)

    # one row per (segment, covered strip), sorted by strip, then x-start;
    # with at most 1e6 + 2 strips and RENDER_SEGMENT_LIMIT segments the key
    # stays below 1.1e12
    seg, strip = expand_ranges(j0, np.floor(hi[:, 1] / h + 0.5).astype(np.int64))
    j_min = int(j0.min())
    key = (strip - j_min) * n + seg
    order = np.argsort(key)
    seg, strip, key = seg[order], strip[order], key[order]

    # row r pairs with the later rows of its strip whose segment starts no
    # later than it ends; pair p belongs to the row r with
    # first[r] <= p < first[r] + later[r]
    reach = np.searchsorted(lo[:, 0], hi[seg, 0], side="right")
    later = np.searchsorted(key, (strip - j_min) * n + reach) - np.arange(len(key)) - 1
    ends = np.cumsum(later)
    first = ends - later
    shift = 1 - math.frexp(max(extent, s.initiator_length))[1]
    for p0 in range(0, int(ends[-1]), _PAIR_CHUNK):
        p = np.arange(p0, min(p0 + _PAIR_CHUNK, int(ends[-1])))
        r = np.searchsorted(ends, p, side="right")
        a, b = seg[r], seg[r + 1 + (p - first[r])]
        # the lowest strip both cover, and padded y-ranges that meet
        lowest = strip[r] == np.maximum(j0[a], j0[b])
        keep = lowest & (lo[a, 1] <= hi[b, 1]) & (lo[b, 1] <= hi[a, 1])
        a, b = a[keep], b[keep]
        if _pairs_overlap(
            np.ldexp(coords[a], shift), np.ldexp(coords[b], shift), math.ldexp(eps, shift)
        ).any():
            return True
    return False

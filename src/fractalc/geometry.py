"""Materialization of composition schedules as stage-k segment geometry.

Generators replace each segment by scaled/rotated pieces laid tip-to-tail in
the parent segment's local frame; gap pieces advance position without
emitting, removing that portion for all subsequent substages. The module also
provides total length, SVG/CSV export, and an overlap detector backing the
upper-bound caveat for self-intersecting compositions. The schedule, the
segment census and the content closed form live in `schedule`.

numpy is imported only inside the functions that use arrays, so `render`
loads it only once `work` has charged the stage.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

from .errors import GeometryOutOfRange, SegmentBudgetExceeded
from .frozen import Frozen
from .schedule import _check_initiator
from .work import DEFAULT_SEGMENT_BUDGET, RENDER_SEGMENT_LIMIT, charge_geometry

# bench/jobs.py calls these three through `geometry.`
from .schedule import build_schedule, content, segment_census

if TYPE_CHECKING:
    import numpy as np

    from .schedule import CompositionSchedule, Generator


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

    Charges the stage against `budget` first (`work.charge_geometry`). Raises
    GeometryOutOfRange when a coordinate, the figure's extent along x or y, or
    its total length is not finite.
    """
    if k < 0:
        raise ValueError("stage must be >= 0")
    _check_initiator(L0)
    charge_geometry(schedule, k, budget)
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

# the separator after an SVG point's y: the next point of its chain, the end
# of its chain (replaced by the polyline boundary), or nothing (the last point)
_SVG_SEPS = b" \n\0"


@functools.cache
def _digit_tables() -> tuple[np.ndarray, ...]:
    """Little-endian uint32 words whose four bytes, in memory order, are ASCII:
    for i in 0..9999, `digits` zero-padded ("0042") and `leading` with leading
    zeros as NUL, the units digit kept ("\\0\\042"); for i in 0..999, `dotted`
    (".042") and `tail` ("042\\0"). `digits[10000 + i]` and `dotted[1000 + i]`
    write trailing zeros as NUL ("042\\0", ".04\\0"; all NUL for 0), which
    strips them as %g does. `signed[i]` for i in 0..100 is `leading[i]`, and
    `signed[101 + i]` the same with "-" in its second byte. `powers[k]` is
    10^k for k in 0..15, exact. Read-only, since every caller shares them.
    """
    import numpy as np
    i = np.arange(10_000)
    text = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + ord("0")
    leading = text * (i[:, None] >= [1000, 100, 10, 0])
    dotted = text[:1000].copy()
    dotted[:, 0] = ord(".")
    tail = np.zeros_like(dotted)
    tail[:, :3] = text[:1000, 1:]
    # a digit is a trailing zero when it and every digit after it are 0
    digits = np.concatenate((text, text * (i[:, None] % [10_000, 1000, 100, 10] != 0)))
    dotted = np.concatenate((dotted, dotted * (i[:1000, None] % [1000, 1000, 100, 10] != 0)))
    signed = np.concatenate((leading[:101], leading[:101]))
    signed[101:, 1] = ord("-")
    tables = tuple(
        t.astype(np.uint8).view("<u4").ravel() for t in (digits, leading, dotted, tail, signed)
    ) + (np.array([float(10**k) for k in range(16)]),)
    for t in tables:
        t.flags.writeable = False
    return tables


def _fixed6_rows(values: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """The (n, 20) uint8 text rows of `_fixed6`, separators left out; clears
    ok where a value falls back."""
    import numpy as np
    digits, leading, dotted, tail, _, _ = _digit_tables()
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
    starts a value, so no other value contains the pattern.
    """
    import numpy as np
    ok = np.abs(values) < 1e8
    rows = _fixed6_rows(values, ok)
    # a value that falls back reads "%.6f", then its separator
    rows[~ok, :-1] = np.frombuffer(b"%.6f".ljust(rows.shape[1] - 1, b"\0"), dtype=np.uint8)
    text = _render(rows, seps, -1, values[~ok])
    return text if ok.all() else text.replace(b"-0.000000", b"0.000000")


def _g12_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """'%.12g' % v of every value as (n, 20) uint8 text rows whose first byte
    is NUL, left for a separator, and a mask of the values formatted exactly.

    Exact for |v| < 100 that %.12g writes without an exponent, from 1e-4 up:
    a = |v| splits into ip = floor(a) and a - ip without rounding. With
    X = floor(log10 a), %.12g keeps q = 11 - X fraction digits (10 to 15),
    and m = (a - ip) * 10^q, exact 10^q, is one correctly rounded product
    below 10^12 < 2^40, so within 2^-14 of the exact value. Rounding m
    therefore rounds the exact value; a value whose m lies within 2^-12 of a
    half (a tie, or too close to call) falls back. An X off by one, which
    log10 can give only within a few ulps of a power of ten, gives the same
    text (and m stays below 2^40): such a value rounds to that power at
    11, 12 or 13 digits, and the digits that differ are trailing zeros. A
    rounded 10^q carries into ip. The fraction, m * 10^(15 - q), is below
    10^15 and so still exact; its digits go into four words from
    `_digit_tables` (".ddd" and three of 4 digits), each word after the last
    nonzero one all NUL, and that one with its trailing zeros as NUL, so
    nothing is left of a zero fraction, its "." included. Zeros come out as
    "0" and "-0". The sign and the integer part share the first word. Every
    other row (|v| >= 100, a carry to 100, 0 < |v| < 1e-4, a near tie, nan,
    inf) reads "%.12g", for `_render`.
    """
    import numpy as np
    digits, _, dotted, _, signed, powers = _digit_tables()
    # in place where it can be: a is |v|, then its fraction, then m, then the
    # fraction of m, then its distance from a half; ip and r stay floats
    a = np.abs(values)
    ok = (a < 100.0) & ((a >= 1e-4) | (a == 0.0))
    np.copyto(a, 0.0, where=~ok)
    # clamped so that no rounding of log10 takes X below -4; zeros get X = -4
    scale = powers[11 - np.floor(np.log10(np.maximum(a, 1.001e-4))).astype(np.intp)]
    ip = np.floor(a)
    a -= ip
    a *= scale
    r = np.floor(a)
    a -= r
    r += a > 0.5
    a -= 0.5
    ok &= np.abs(a, out=a) >= 2.0**-12
    carry = r == scale
    ip += carry
    r[carry] = 0.0
    ok &= ip < 100.0
    # the fraction as 15 digits: d0 (3), d1, d2 and f (4 each)
    r *= 1e15 / scale
    f = r.astype(np.int64)
    d0 = f // 10**12
    f -= d0 * 10**12
    d1 = f // 10**8
    f -= d1 * 10**8
    d2 = f // 10**4
    f -= d2 * 10**4
    # a word writes its trailing zeros as NUL when every later word is zero
    s2 = f == 0
    s1 = s2 & (d2 == 0)
    s0 = s1 & (d1 == 0)
    # a carry to 100 falls back, but its index stays in the table
    ip += 101.0 * np.signbit(values)
    words = np.empty((len(values), 5), dtype="<u4")
    words[:, 0] = signed[ip.astype(np.intp)]
    words[:, 1] = dotted[d0 + 1000 * s0]
    words[:, 2] = digits[d1 + 10_000 * s1]
    words[:, 3] = digits[d2 + 10_000 * s2]
    words[:, 4] = digits[f + 10_000]
    words[~ok] = np.frombuffer(b"\0%.12g".ljust(20, b"\0"), dtype="<u4")
    return words.view(np.uint8), ok


def _render(rows: np.ndarray, seps: np.ndarray, sep_at: int, fallbacks: np.ndarray) -> bytes:
    """The text of (n, w) uint8 rows, one per value, with each value's
    separator byte from `seps` (0 for none) written at column `sep_at` and the
    NULs dropped. The rows of the values that fall back hold a % specifier,
    so the text is itself the template that formats those values, given in
    text order as `fallbacks`, with one %: no other byte of it is a "%".
    """
    rows[:, sep_at] = seps
    text = rows.tobytes().translate(None, b"\0")
    return text % tuple(fallbacks.tolist()) if len(fallbacks) else text


def _write_chunked(path, head: bytes, n: int, chunk_text, tail: bytes) -> None:
    """Write head, chunk_text(start, stop) for consecutive slices of at most
    _EXPORT_CHUNK of the n segments, then tail."""
    with open(path, "wb") as fh:
        fh.write(head)
        for start in range(0, n, _EXPORT_CHUNK):
            fh.write(chunk_text(start, min(start + _EXPORT_CHUNK, n)))
        fh.write(tail)


def export_svg(s: SegmentSet, path) -> None:
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
        raise SegmentBudgetExceeded(n, RENDER_SEGMENT_LIMIT, "the figure has {count} "
                                    "segments, over the SVG export cap of {limit}")
    import numpy as np
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
        '" fill="none" stroke="black" stroke-width="1" '
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
        f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="white"/>\n'
    ).encode() + polyline
    _write_chunked(path, head, n, chunk_text, close + b"</svg>\n")


def export_csv(s: SegmentSet, path) -> None:
    """Dump segments as `x1,y1,x2,y2` lines with 12 significant digits.

    The rows are formatted and written in chunks of a fixed number of
    segments, so the text is never built whole. Each point is formatted once,
    by `_g12_rows`, an array kernel whose bytes equal '%.12g' for zeros and
    for 1e-4 <= |v| < 100 and which hands near ties and the other values to
    one % format per chunk. A row whose start equals the end of the row
    before it, bit for bit (so 0.0 and -0.0 stay apart), reuses that end's
    text. The points' text rows are gathered into the CSV's rows, each
    value's separator goes into the NUL byte its text row starts with, and
    one `bytes.translate` drops the other NULs.
    """
    import numpy as np
    coords = s.coords
    # the separator before each value of a chunk's rows; none before its first
    seps = np.tile(np.frombuffer(b"\n,,,", dtype=np.uint8), _EXPORT_CHUNK)
    seps[0] = 0

    def chunk_text(start: int, stop: int) -> bytes:
        c = coords[start:stop]
        bits = c.view(np.int64)
        fresh = np.ones(stop - start, dtype=bool)
        fresh[1:] = (bits[1:, 0] != bits[:-1, 2]) | (bits[1:, 1] != bits[:-1, 3])
        points = np.concatenate((c[fresh, :2], c[:, 2:]))
        rows, ok = _g12_rows(points.ravel())
        # row i: its start point (its own, or the end point of row i - 1), then its end point
        order = np.empty((stop - start, 2), dtype=np.intp)
        order[:, 1] = np.arange(len(points) - (stop - start), len(points))
        order[:, 0] = np.where(fresh, np.cumsum(fresh) - 1, order[:, 1] - 1)
        order = order.ravel()
        rows = np.take(rows.reshape(len(points), 40), order, axis=0).reshape(-1, 20)
        fallbacks = np.take(points, order, axis=0)[~np.take(ok.reshape(-1, 2), order, axis=0)]
        return _render(rows, seps[: 4 * (stop - start)], 0, fallbacks) + b"\n"

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
        raise SegmentBudgetExceeded(n, RENDER_SEGMENT_LIMIT, "the figure has {count} "
                                    "segments, over the overlap check's cap of {limit}")
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

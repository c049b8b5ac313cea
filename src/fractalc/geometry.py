"""Materialization of composition schedules as stage-k segment geometry.

Generators replace each segment by scaled/rotated pieces laid tip-to-tail in
the parent segment's local frame; gap pieces advance position without
emitting, removing that portion for all subsequent substages. The module also
provides total length, SVG/CSV export (one digit kernel, `_digit_rows`, writes
the coordinates of both), and an overlap detector backing the upper-bound
caveat for self-intersecting compositions. The schedule and the content
closed form live in `schedule`, the segment census in `census`.

numpy is imported only inside the functions that use arrays, so `render`
loads it only once `work` has charged the stage.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

from .errors import DegenerateGeometry, GeometryOutOfRange, SegmentBudgetExceeded
from .frozen import Frozen
from .schedule import _check_initiator, _check_stage
from .work import DEFAULT_SEGMENT_BUDGET, RENDER_SEGMENT_LIMIT, charge_geometry

# bench/jobs.py calls these three through `geometry.`
from .census import segment_census
from .schedule import build_schedule, content

if TYPE_CHECKING:
    import numpy as np

    from .schedule import CompositionSchedule, Generator


# candidate pairs per chunk of detect_overlap's narrow phase: bounds the
# chunk's index gathers, coordinate copies and predicate temporaries, about
# 200 bytes per pair
_PAIR_CHUNK = 1 << 12


class SegmentSet(Frozen):
    """Stage-k geometry: oriented segments as an (n, 4) array of x1,y1,x2,y2,
    the initiator's length, and each segment's length.

    `iterate` builds the lengths as running products of the applied scale
    factors: endpoint differences lose relative precision once segments get
    much smaller than their coordinates, while the products stay accurate at
    any depth (they are what the census predicts).
    """

    __slots__ = _fields = ("coords", "initiator_length", "lengths")

    def __init__(self, coords: np.ndarray, initiator_length: float, lengths: np.ndarray):
        coords.flags.writeable = False
        lengths.flags.writeable = False
        super().__init__(coords, initiator_length, lengths)

    def __len__(self) -> int:
        return len(self.coords)

    def frame(self) -> tuple[float, float, float, float, float]:
        """Bounding box x0, x1, y0, y1, and size max(x1 - x0, y1 - y0, initiator_length)."""
        x, y = self.coords[:, ::2], self.coords[:, 1::2]
        x0, x1, y0, y1 = float(x.min()), float(x.max()), float(y.min()), float(y.max())
        return x0, x1, y0, y1, max(x1 - x0, y1 - y0, self.initiator_length)


# --- iteration ---------------------------------------------------------------


def _apply_substage(
    coords: np.ndarray, lengths: np.ndarray, gen: Generator
) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np
    ax, ay, bx, by = coords[:, 0], coords[:, 1], coords[:, 2], coords[:, 3]
    dx = bx - ax
    dy = by - ay
    # children of one parent stay consecutive: canonical depth-first order.
    # Each drawn piece writes its block of every parent's children straight
    # into one (n, copies, 4) and one (n, copies) array, so the scratch beside
    # the parents and children is a few arrays of n floats: the parent's
    # direction, and each piece's vector and, for a gap, its end
    new_coords = np.empty((len(coords), gen.copies, 4))
    new_lengths = np.empty((len(coords), gen.copies))
    last_draw = max(i for i, p in enumerate(gen.pieces) if p.draw)
    px, py = ax, ay
    col = 0
    for idx, piece in enumerate(gen.pieces):
        c, s = math.cos(piece.angle), math.sin(piece.angle)
        vx = piece.ratio * (c * dx - s * dy)
        vy = piece.ratio * (s * dx + c * dy)
        if not piece.draw:
            px, py = px + vx, py + vy
            continue
        block = new_coords[:, col]
        block[:, 0], block[:, 1] = px, py
        if gen.connected and idx == last_draw:
            # keep the chain endpoint bit-identical to the parent's
            block[:, 2], block[:, 3] = bx, by
        else:
            np.add(px, vx, out=block[:, 2])
            np.add(py, vy, out=block[:, 3])
        px, py = block[:, 2], block[:, 3]
        np.multiply(piece.ratio, lengths, out=new_lengths[:, col])
        col += 1
    return new_coords.reshape(-1, 4), new_lengths.reshape(-1)


def iterate(
    schedule: CompositionSchedule,
    k: int,
    L0: float = 1.0,
    budget: int = DEFAULT_SEGMENT_BUDGET,
) -> SegmentSet:
    """Materialize k full periods of the schedule on the initiator [(0,0)->(L0,0)].

    Charges the stage against `budget` first (`work.charge_geometry`). Raises
    GeometryOutOfRange when a coordinate, the figure's extent along x or y, or
    its total length is not finite, or 1e-12 of its size (`frame`) reads 0.0.
    """
    _check_stage(k)
    _check_initiator(L0)
    charge_geometry(schedule, k, budget)
    import numpy as np
    coords = np.array([[0.0, 0.0, L0, 0.0]])
    lengths = np.array([L0])
    # overflow shows in the frame and total, not as numpy warnings: an overflowed
    # coordinate stays inf or nan in every later substage
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k):
            for gen, repeat in schedule.items:
                for _ in range(repeat):
                    coords, lengths = _apply_substage(coords, lengths, gen)
        s = SegmentSet(coords, L0, lengths)
        sizes = (*s.frame(), total_length(s))  # x0, x1, y0, y1, size, total
    if not all(map(math.isfinite, sizes)) or 1e-12 * sizes[4] == 0.0:
        raise GeometryOutOfRange(
            f"the stage-{k} figure of initiator length {L0:g} leaves the float range"
        )
    return s


def total_length(s: SegmentSet) -> float:
    return float(s.lengths.sum())


# --- export ------------------------------------------------------------------

# segments formatted per write: bounds the text and arrays held at once. A
# `_digit_rows` call has a fixed cost, and its cost per value rises once its
# arrays leave the cache (best of 7, 2-vCPU Xeon VM, numpy 2.4.6):
#   %.12g   4,096 values (1,024 CSV segments)     189 us, 46 ns a value
#   %.12g  16,384 values (4,096 CSV segments)     570 us, 35 ns a value
#   %.12g  32,768 values (8,192 CSV segments)   2,163 us, 66 ns a value
#   %.6f    2,048 values (1,024 SVG segments)      53 us, 26 ns a value
#   %.6f    8,192 values (4,096 SVG segments)     129 us, 16 ns a value
# so 4,096 segments is the largest chunk short of that cliff. On a
# 65,536-segment figure it raises export_csv's traced peak from 0.41 MiB
# (1,024 segments) to 1.63 MiB; export_svg's stays at 1.13 MiB, set by the
# arrays that find its chain breaks over the whole figure
_EXPORT_CHUNK = 1 << 12

# the two coordinate formats, as `_digit_rows` takes them: the % spec, which
# the kernel's text matches byte for byte, "-" of a negative value that
# rounds to zero included; its fraction digits (None: 11 - floor(log10 |v|),
# as %.12g keeps); whether trailing zeros and a bare "." are dropped; the
# near-tie tolerance; the lowest nonzero |v| written exactly
_FIXED6 = (b"%.6f", 6, False, 1e-6, 0.0)
_G12 = (b"%.12g", None, True, 2.0**-12, 1e-4)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, ...]:
    """Little-endian uint32 words whose four bytes, in memory order, are ASCII.
    `digits[10000 * b + i]` writes i in 0..9999 as four digits: zero-padded
    ("0042") for b = 0, with trailing zeros as NUL for b = 1 ("42\\0\\0" for
    4200, all NUL for 0), and with leading zeros as NUL for b = 2 and 3
    ("\\0\\042"), 0 being all NUL for b = 2 and "\\0\\0\\00" for b = 3.
    `dotted[i]` for i in 0..999 is "." and three digits (".042"), and
    `dotted[1000 + i]` the same with trailing zeros as NUL (".04\\0", all NUL
    for 0). `powers[k]` is 10^k for k in 0..15, exact. Read-only: shared.
    """
    import numpy as np
    # uint16 and uint8 throughout, each table written in place: the build
    # traces 0.33 MiB, its 168 KB of tables included (int64 temporaries take
    # 2.5 MiB)
    i = np.arange(10_000, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)
    text = (i // place % 10 + ord("0")).astype(np.uint8)
    # a digit is a trailing zero when it and every digit after it are 0, and a
    # leading zero when it and every digit before it are
    digits = np.empty((4, 10_000, 4), dtype=np.uint8)
    digits[0] = text
    np.multiply(text, i % np.array([10_000, 1000, 100, 10], dtype=np.uint16) != 0, out=digits[1])
    np.multiply(text, i >= place, out=digits[2])
    np.multiply(text, i >= np.array([1000, 100, 10, 0], dtype=np.uint16), out=digits[3])
    dotted = np.empty((2, 1000, 4), dtype=np.uint8)
    dotted[0] = text[:1000]
    dotted[0, :, 0] = ord(".")
    np.multiply(dotted[0], i[:1000] % np.array([1000, 1000, 100, 10], dtype=np.uint16) != 0,
                out=dotted[1])
    powers = np.array([float(10**k) for k in range(16)])
    tables = (digits.view("<u4").ravel(), dotted.view("<u4").ravel(), powers)
    for t in tables:
        t.flags.writeable = False
    return tables


def _digit_rows(values: np.ndarray, spec: bytes, places: int | None, strip: bool, tie: float,
                lowest: float) -> tuple[np.ndarray, np.ndarray]:
    """`spec % v` of every value as (n, w) uint8 text rows whose first byte is
    NUL, left for a separator, and a mask of the values formatted exactly; the
    other arguments describe the format, as `_FIXED6` and `_G12` give them.

    A row is words from `_digit_tables`: the separator slot, the sign and the
    integer part's two leading digits; as many 4-digit integer words as the
    largest integer part needs; "." and three fraction digits; and as many
    4-digit fraction words as the most fraction digits need. Leading zeros,
    fraction digits past the format's, and trailing zeros where `strip` says
    so (a bare "." with them) are NUL, which `_render` drops. The other rows
    (|v| >= 1e12, a carry to 1e12, 0 < |v| < `lowest`, a near tie, nan, inf)
    read `spec`.

    Exact: a = |v| splits into ip = floor(a) and a - ip without rounding,
    and m = (a - ip) * 10^q for q fraction digits, exact 10^q, is one
    correctly rounded product, below 10^6 < 2^20 for %.6f and below
    10^12 < 2^40 for %.12g (a < 10^(X + 1) for X = floor(log10 a), and
    q = 11 - X), so within 2^-34 or 2^-14 of the exact value. Rounding m
    therefore rounds the exact value unless that lies within the bound of a
    half, and `tie` is above the bound: a value whose m lies within `tie` of
    a half (a tie, or too close to call) falls back. A rounded 10^q carries
    into ip. An X off by one, which log10 can give only within a few ulps of
    a power of ten, gives the same text (and m stays below 2^40): such a
    value rounds to that power at 11, 12 or 13 digits, and the digits that
    differ are trailing zeros. ip and the rounded fraction, scaled to
    3 + 4j digits, are below 10^15, so their digits are exact too.
    """
    import numpy as np
    digits, dotted, powers = _digit_tables()
    # in place where it can be: a is |v|, then its fraction, then m, then its
    # distance from the nearest integer r; ip and r stay floats
    a = np.abs(values)
    ok = a < 1e12
    if lowest:
        ok &= (a >= lowest) | (a == 0.0)
    np.copyto(a, 0.0, where=~ok)
    fraction = places
    if places is None:
        # clamped so that no rounding of log10 takes X out of its range;
        # zeros need no fraction digits
        x = np.minimum(np.maximum(a, 1.001 * lowest), 9.99e11)
        places = 11 - np.floor(np.log10(x, out=x), out=x).astype(np.intp)
        places[a == 0.0] = 0
        fraction = int(places.max())
    scale = powers[places]
    ip = np.floor(a)
    a -= ip
    a *= scale
    r = np.rint(a)
    a -= r
    ok &= np.abs(a, out=a) <= 0.5 - tie
    carry = r == scale
    ip += carry
    r[carry] = 0.0
    ok &= ip < 1e12
    # k more integer words and m more fraction words (a carry to 1e12 fits)
    top = float(ip.max())
    k = (top >= 100.0) + (top >= 1e6) + (top >= 1e10)
    m = fraction // 4
    words = np.empty((len(values), k + m + 2), dtype="<u4")
    # from the last fraction word: one writes its trailing zeros as NUL when
    # every later word is zero
    f = (r * (powers[3 + 4 * m] / scale)).astype(np.int64)
    bare = strip
    for col in range(k + m + 1, k + 1, -1):
        q = f // 10_000
        f -= 10_000 * q
        words[:, col] = digits[f + 10_000 * bare]
        bare = bare & (f == 0)
        f = q
    words[:, k + 1] = dotted[f + 1000 * bare]
    # from the units word: zero-padded below a nonzero word, else with its
    # leading zeros as NUL, the units digit kept
    i = ip.astype(np.int64)
    lead = 30_000
    for col in range(k, 0, -1):
        q = i // 10_000
        i -= 10_000 * q
        words[:, col] = digits[i + lead * (q == 0)]
        lead = 20_000
        i = q
    words[:, 0] = digits[i + lead]
    # the fraction digits past the format's, all zero, are NUL in the last word
    words[:, -1] &= 0xFFFF_FFFF >> 8 * (3 + 4 * m - fraction)
    rows = words.view(np.uint8)
    rows[:, 1][np.signbit(values)] = ord("-")
    if not ok.all():
        words[~ok] = np.frombuffer((b"\0" + spec).ljust(rows.shape[1], b"\0"), dtype="<u4")
    return rows, ok


def _fixed6(values: np.ndarray, seps: np.ndarray) -> bytes:
    """'%.6f' % v of every value, each after its separator byte from `seps`
    (0 for none), with -0.000000 written 0.000000: every |v| <= 5e-7 is
    formatted as 0.0. Those are exactly the values that '%.6f' rounds to
    zero, since the double nearest 5e-7 lies below the decimal 5e-7.
    """
    import numpy as np
    values = np.where(np.abs(values) <= 5e-7, 0.0, values)
    rows, ok = _digit_rows(values, *_FIXED6)
    return _render(rows, seps, values[~ok])


def _render(rows: np.ndarray, seps: np.ndarray, fallbacks: np.ndarray) -> bytes:
    """The text of (n, w) uint8 rows from `_digit_rows`, with seps[i] (0 for
    none) in row i's first byte and the NULs dropped. The rows of the values
    that fall back hold a % specifier, so the text is itself the template that
    formats those values, given in text order as `fallbacks`, with one %: no
    other byte of it is a "%".
    """
    rows[:, 0] = seps
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
    viewBox fitted with a 5% margin, coordinates at 6 decimal places, every
    |v| <= 5e-7 written as 0.000000, with no "-". A segment continues the
    chain of the one before it when its start lies within 1e-9 of the
    figure's size of that one's end, per coordinate. The points are
    formatted and written in chunks of a fixed number of segments, so the
    text is never built whole. Each chunk's coordinates go through `_fixed6`,
    whose digit kernel `_digit_rows` writes '%.6f' for |v| < 1e12 and hands
    larger values, near ties and non-finite values to one % format per chunk.
    """
    n = len(s)
    if n > RENDER_SEGMENT_LIMIT:
        raise SegmentBudgetExceeded(n, RENDER_SEGMENT_LIMIT, "the figure has {count} "
                                    "segments, over the SVG export cap of {limit}")
    if n == 0:
        raise DegenerateGeometry("no segments")
    import numpy as np
    coords = s.coords
    x0, x1, y0, y1, size = s.frame()
    # flip y (to -y1..-y0) so the curve "bumps" point up like the construction sketches
    margin = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    vb = (x0 - margin, -y1 - margin, (x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin)
    if not all(map(math.isfinite, vb)):
        raise GeometryOutOfRange(f"the SVG view box {vb} is beyond the float range")
    join_tol = 1e-9 * size
    flip_y = np.array([1.0, -1.0])
    # breaks[i]: a chain boundary lies before segment i (always at 0)
    breaks = np.ones(n, dtype=bool)
    breaks[1:] = (np.abs(coords[:-1, 2] - coords[1:, 0]) > join_tol) | (
        np.abs(coords[:-1, 3] - coords[1:, 1]) > join_tol
    )
    close = (
        '" fill="none" stroke="black" stroke-width="1" '
        'vector-effect="non-scaling-stroke"/>\n'
    ).encode()
    polyline = b'<polyline points="'

    def chunk_text(start: int, stop: int) -> bytes:
        # per segment: its start point, kept only where a chain begins, whose
        # x follows the polyline boundary (none for the first), then its end
        # point, whose x follows a space
        keep = np.ones(2 * (stop - start), dtype=bool)
        keep[::2] = breaks[start:stop]
        points = np.compress(keep, coords[start:stop].reshape(-1, 2), axis=0) * flip_y
        seps = np.full((stop - start, 2, 2), ord(","), dtype=np.uint8)
        seps[:, :, 0] = (ord("\n"), ord(" "))
        seps = np.compress(keep, seps.reshape(-1, 2), axis=0)
        if start == 0:
            seps[0, 0] = 0
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
    segments, so the text is never built whole. The digit kernel `_digit_rows`
    runs once per written value (a point that two rows share is formatted for
    each) and writes '%.12g' for zeros and for 1e-4 <= |v| < 1e12; it hands
    near ties and the other values to one % format per chunk. `_render`
    writes each value's separator into its row and joins the rows.
    """
    import numpy as np
    coords = s.coords
    # the separator before each value of a chunk's rows; none before its first
    seps = np.tile(np.frombuffer(b"\n,,,", dtype=np.uint8), _EXPORT_CHUNK)
    seps[0] = 0

    def chunk_text(start: int, stop: int) -> bytes:
        values = coords[start:stop].ravel()
        rows, ok = _digit_rows(values, *_G12)
        return _render(rows, seps[: 4 * (stop - start)], values[~ok]) + b"\n"

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
    value = np.arange(len(owner), dtype=np.int64)
    value -= (np.cumsum(sizes) - sizes - lo)[owner]
    return owner, value


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
    real dimension. Tolerance eps is 1e-12 of the figure's size (`frame`),
    and the parallel test compares a sine with 1e-12, so the verdict does not
    depend on the figure's scale.

    The broad phase cuts the plane into horizontal strips of height h, the
    largest |dy| of any segment (at least eps and 1e-6 of the extent), so
    copies stacked closer than a segment's length fall in different strips.
    Strip j holds y in [(j - 1/2) h, (j + 1/2) h): anchored half a strip off
    the axis, so figures on a lattice of step h, or on the line y = 0, do
    not straddle strip boundaries. Each segment gets one row per strip its
    eps-padded y-range covers (at most three unless eps is near h), and the
    rows are sorted by strip, then by padded x-start.
    Within a strip a row is paired with the later rows that start, along x,
    before it ends. Two segments whose padded boxes meet both cover the
    higher of their first strips, and there the one that starts first
    reaches the other; the pair is tested in that strip only. The narrow
    phase keeps the pairs whose padded y-ranges meet and evaluates the exact
    predicate in chunks of _PAIR_CHUNK candidate pairs, which bounds its
    temporaries however crowded a strip is, and stops at the first
    overlapping chunk. Coordinates are gathered per chunk through the
    x-order, so the working memory beside the chunk is each segment's padded
    box, x-order and first strip, and each row's segment, strip and offset.
    The predicate runs on coordinates scaled by a power of two that brings
    the size into [1, 2): exact, and no product can overflow.
    """
    n = len(s)
    if n > RENDER_SEGMENT_LIMIT:
        raise SegmentBudgetExceeded(n, RENDER_SEGMENT_LIMIT, "the figure has {count} "
                                    "segments, over the overlap check's cap of {limit}")
    if n < 2:
        return False
    import numpy as np
    c = s.coords
    x0, x1, y0, y1, size = s.frame()
    eps = 1e-12 * size
    h = max(float(np.abs(c[:, 3] - c[:, 1]).max()), eps, max(x1 - x0, y1 - y0) * 1e-6)
    # segment a is c[perm[a]], in order of x-start; its eps-padded box, and
    # the offsets of its first and last strips from the lowest strip
    perm = np.argsort(np.minimum(c[:, 0], c[:, 2])).astype(np.int32)
    lo = np.take(np.minimum(c[:, :2], c[:, 2:]), perm, axis=0) - eps
    hi = np.take(np.maximum(c[:, :2], c[:, 2:]), perm, axis=0) + eps
    j0, j1 = np.floor(lo[:, 1] / h + 0.5), np.floor(hi[:, 1] / h + 0.5)
    # at most 1e6 + 2 strips: int32 offsets
    j0, j1 = (j0 - j0.min()).astype(np.int32), (j1 - j0.min()).astype(np.int32)

    # one row per (segment, covered strip), sorted by strip, then x-start;
    # the key (strip offset) * n + segment stays below 1.1e12
    seg, key = expand_ranges(j0, j1)
    key *= n
    key += seg
    del seg, j1
    key.sort()
    strip = (key // n).astype(np.int32)
    seg = (key % n).astype(np.int32)

    # row r pairs with the later rows of its strip whose segment starts no
    # later than it ends, the segments before a + reach[a] for segment a;
    # pair p belongs to the row r with first[r] <= p < first[r + 1]
    reach = np.searchsorted(lo[:, 0], hi[:, 0], side="right") - np.arange(n)
    later = np.searchsorted(key, key + reach[seg])
    del key, reach
    later -= np.arange(1, len(later) + 1)
    first = np.concatenate(([0], np.cumsum(later, out=later)))
    del later
    shift = 1 - math.frexp(size)[1]
    pairs = int(first[-1])
    for p0 in range(0, pairs, _PAIR_CHUNK):
        # the chunk's pairs p0..p1 - 1 run through rows r0..r1, first[r0] <= p0
        # and p1 - 1 < first[r1 + 1]; row r repeats once per pair of it in the chunk
        p1 = min(p0 + _PAIR_CHUNK, pairs)
        r0, r1 = np.searchsorted(first, (p0, p1 - 1), side="right") - 1
        r = np.repeat(np.arange(r0, r1 + 1), np.diff(np.clip(first[r0 : r1 + 2], p0, p1)))
        p = np.arange(p0, p1)
        a, b = seg[r], seg[r + 1 + (p - first[r])]
        # the lowest strip both cover, and padded y-ranges that meet
        lowest = strip[r] == np.maximum(j0[a], j0[b])
        keep = lowest & (lo[a, 1] <= hi[b, 1]) & (lo[b, 1] <= hi[a, 1])
        a, b = np.take(c, perm[a[keep]], axis=0), np.take(c, perm[b[keep]], axis=0)
        if _pairs_overlap(np.ldexp(a, shift), np.ldexp(b, shift), math.ldexp(eps, shift)).any():
            return True
    return False

"""Shared deterministic fuzz generators for the test suite, and an in-process
CLI runner."""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np

import fractalc as fc
from fractalc.parser import Angle, PieceExpr, ScheduleExpr, ScheduleItem


class CliResult(NamedTuple):
    """One CLI run: its exit code, both streams, and the exception that ended
    it (a SystemExit with a nonzero code, or a bug's own exception)."""

    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def run_cli(args: list[str]) -> CliResult:
    """Run `fractalc ARGS` in this process through `cli.main`, capturing both streams.

    An exception other than SystemExit escaping `main` is a bug: it is kept in
    `exception`, with exit code 1, as an uncaught exception exits a process.
    """
    from fractalc import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code or 0
            exception = exc if code else None
        except Exception as exc:
            code, exception = 1, exc
    return CliResult(code, stdout.getvalue(), stderr.getvalue(), exception)


def random_uniform_parts(rng: random.Random) -> list[tuple[fc.UniformFractal, int]]:
    """Uniform components: N in [1,12], ratio in (0.05, 0.95), m <= 5, n_i <= 4."""
    m = rng.randint(1, 5)
    return [
        (fc.UniformFractal(rng.randint(1, 12), rng.uniform(0.05, 0.95)), rng.randint(1, 4))
        for _ in range(m)
    ]


def spectrum_of_uniform(parts) -> fc.ScaleSpectrum:
    return fc.ScaleSpectrum([([f.ratio] * f.copies, n) for f, n in parts])


def uniform_dimension(f: fc.UniformFractal) -> float:
    """Dimension of one uniform fractal, by `component_dimension` of its ratios."""
    return fc.component_dimension([f.ratio] * f.copies)


def random_spectrum(rng: random.Random, max_components: int = 4, max_ratios: int = 4) -> fc.ScaleSpectrum:
    components = []
    for _ in range(rng.randint(1, max_components)):
        count = rng.randint(1, max_ratios)
        components.append(
            ([rng.uniform(0.05, 0.95) for _ in range(count)], rng.randint(1, 3))
        )
    return fc.ScaleSpectrum(components)


def mpmath_root(components):
    """50-digit root of sum_i n_i ln sum_j r_ij^a, by bisection on a doubled bracket."""
    with mpmath.workdps(50):
        comps = [([mpmath.mpf(r) for r in ratios], n) for ratios, n in components]

        def g(a):
            return mpmath.fsum(n * mpmath.log(mpmath.fsum(r**a for r in rs)) for rs, n in comps)

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        if g(lo) == 0:  # every component keeps one piece
            return lo
        while g(hi) > 0:
            lo, hi = hi, 2 * hi
        while hi - lo > hi * mpmath.mpf(10) ** -40:
            mid = (lo + hi) / 2
            if g(mid) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def random_cantor_ratios(rng: random.Random) -> list[Fraction]:
    """Small-denominator kept ratios summing to at most 1."""
    while True:
        count = rng.randint(1, 3)
        ratios = [Fraction(1, rng.randint(2, 9)) for _ in range(count)]
        if sum(ratios) <= 1:
            return ratios


def random_generator(rng: random.Random) -> fc.Generator:
    roll = rng.random()
    if roll < 0.4:
        return fc.builtin_generator("K", rng.uniform(0.35, 1.25))
    if roll < 0.55:
        return fc.builtin_generator("Q", math.pi / 2)
    if roll < 0.9:
        return fc.builtin_generator("C", [float(r) for r in random_cantor_ratios(rng)])
    pieces = []
    for _ in range(rng.randint(2, 4)):
        pieces.append((rng.uniform(0.15, 0.4), rng.uniform(-1.2, 1.2), rng.random() > 0.2))
    if not any(draw for _, _, draw in pieces):
        pieces[0] = (pieces[0][0], pieces[0][1], True)
    return fc.builtin_generator("G", pieces)


def random_schedule(rng: random.Random, max_items: int = 3, max_repeat: int = 2) -> fc.CompositionSchedule:
    items = tuple(
        (random_generator(rng), rng.randint(1, max_repeat))
        for _ in range(rng.randint(1, max_items))
    )
    return fc.CompositionSchedule(items)


def feasible_stage(schedule: fc.CompositionSchedule, cap: int, max_stage: int = 4) -> int:
    """Largest stage (at least 1) whose predicted segment count is within cap."""
    stage = 1
    while stage < max_stage and schedule.predicted_count(stage + 1) <= cap:
        stage += 1
    return stage


def census_size(schedule: fc.CompositionSchedule, k: int) -> int:
    """Raw census bucket count before merging: prod_i C(n_i*k + l_i - 1, l_i - 1)."""
    size = 1
    for gen, repeat in schedule.items:
        l = gen.copies
        size *= math.comb(repeat * k + l - 1, l - 1)
    return size


def census_feasible_stage(schedule: fc.CompositionSchedule, cap: int, max_stage: int = 6) -> int:
    """Largest stage (at least 1) whose raw census size stays within cap."""
    stage = 1
    while stage < max_stage and census_size(schedule, stage + 1) <= cap:
        stage += 1
    return stage


# corpus of the incomplete-statistics and agreement checks: (expression, stage)
STATS_CORPUS = (
    [("K[pi/3]", k) for k in range(0, 13)]
    + [("C[1/2,1/3] K[pi/3]", k) for k in (0, 1, 2, 4, 6)]
    + [("C[1/2,1/4,1/6] K[pi/4] K[pi/3]", k) for k in (0, 1, 2, 3)]
)


def fuzz_cases(seed: int, count: int, cap: int = 5_000, max_stage: int = 5):
    """`count` seeded random schedules, each at its largest stage up to `max_stage`
    whose census stays within `cap` compositions."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        sched = random_schedule(rng)
        k = census_feasible_stage(sched, cap, max_stage=max_stage)
        if census_size(sched, k) <= cap:
            cases.append((sched, k))
    return cases


# --- parser expression fuzz --------------------------------------------------


def random_angle_expr(rng: random.Random) -> Angle:
    if rng.random() < 0.6:
        k = rng.randint(2, 9)
        sign = -1.0 if rng.random() < 0.3 else 1.0
        return Angle(value=sign * math.pi / k, pi_k=k)
    return Angle(value=rng.uniform(-3.1, 3.1))


def random_ratio_expr(rng: random.Random):
    if rng.random() < 0.6:
        den = rng.randint(2, 12)
        return Fraction(rng.randint(1, den - 1), den)
    return rng.uniform(0.01, 0.99)


def random_schedule_expr(rng: random.Random) -> ScheduleExpr:
    items = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice("KKQCCG")
        repeat = rng.choice([1, 1, 1, 2, 3, 4])
        if kind == "K":
            item = ScheduleItem("K", repeat, angle=random_angle_expr(rng))
        elif kind == "Q":
            angle = Angle(math.pi / 2, 2) if rng.random() < 0.5 else Angle(math.pi / 2)
            item = ScheduleItem("Q", repeat, angle=angle)
        elif kind == "C":
            ratios = tuple(random_ratio_expr(rng) for _ in range(rng.randint(1, 4)))
            item = ScheduleItem("C", repeat, ratios=ratios)
        else:
            pieces = tuple(
                PieceExpr(random_ratio_expr(rng), random_angle_expr(rng), rng.random() > 0.3)
                for _ in range(rng.randint(1, 3))
            )
            item = ScheduleItem("G", repeat, pieces=pieces)
        items.append(item)
    return ScheduleExpr(tuple(items))


def histogram_of_lengths(lengths, rtol: float = 1e-12) -> list[tuple[float, int]]:
    """Independent census oracle: bucket measured segment lengths by value."""
    ordered = sorted((float(v) for v in lengths), reverse=True)
    buckets: list[tuple[float, int]] = []
    for value in ordered:
        if buckets and buckets[-1][0] - value <= rtol * buckets[-1][0]:
            buckets[-1] = (buckets[-1][0], buckets[-1][1] + 1)
        else:
            buckets.append((value, 1))
    return buckets


# --- loop references for the array code ---------------------------------------


def reference_component_buckets(ratios, t: int) -> list[tuple[float, int]]:
    """Census buckets of one component applied t times, by depth-first recursion."""
    last = len(ratios) - 1
    out: list[tuple[float, int]] = []

    def rec(idx: int, rem: int, value: float, count: int) -> None:
        if idx == last:
            out.append((value * ratios[idx] ** rem, count))
            return
        for g in range(rem + 1):
            rec(idx + 1, rem - g, value * ratios[idx] ** g, count * math.comb(rem, g))

    rec(0, t, 1.0, 1)
    return out


def reference_segment_census(schedule, k: int, L0: float = 1.0) -> list[tuple[float, int]]:
    """Census from the recursive component buckets, crossed left to right, then merged."""
    cross = None
    for gen, repeat in schedule.items:
        comp = reference_component_buckets(gen.draw_ratios, repeat * k)
        cross = comp if cross is None else [(v * w, c * d) for v, c in cross for w, d in comp]
    return reference_merge_buckets((v * L0, c) for v, c in cross)


def reference_occupied_boxes(coords, x0: float, y0: float, eps: float, nx: int, ny: int) -> int:
    """Occupied-box count at one rung, one segment and one strip at a time."""
    inv = 1.0 / eps
    i1 = np.clip(np.floor((coords[:, 0] - x0) * inv).astype(np.int64), 0, nx - 1)
    j1 = np.clip(np.floor((coords[:, 1] - y0) * inv).astype(np.int64), 0, ny - 1)
    i2 = np.clip(np.floor((coords[:, 2] - x0) * inv).astype(np.int64), 0, nx - 1)
    j2 = np.clip(np.floor((coords[:, 3] - y0) * inv).astype(np.int64), 0, ny - 1)

    same = (i1 == i2) & (j1 == j2)
    keys = set((i1[same] * ny + j1[same]).tolist())

    for idx in np.nonzero(~same)[0]:
        ax, ay, bx, by = coords[idx]
        ia, ib = int(i1[idx]), int(i2[idx])
        ja, jb = int(j1[idx]), int(j2[idx])
        if ia == ib:
            for j in range(min(ja, jb), max(ja, jb) + 1):
                keys.add(ia * ny + j)
            continue
        dx = bx - ax
        dy = by - ay
        lo_i, hi_i = (ia, ib) if ia <= ib else (ib, ia)
        for i in range(lo_i, hi_i + 1):
            xl = x0 + i * eps
            xr = x0 + (i + 1) * eps if i < nx - 1 else math.inf
            t_in = (xl - ax) / dx
            t_out = (xr - ax) / dx
            t_lo = max(0.0, min(t_in, t_out))
            t_hi = min(1.0, max(t_in, t_out))
            if t_lo > t_hi:
                continue
            ya = ay + t_lo * dy
            yb = ay + t_hi * dy
            j_lo = min(max(int(math.floor((min(ya, yb) - y0) * inv)), 0), ny - 1)
            j_hi = min(max(int(math.floor((max(ya, yb) - y0) * inv)), 0), ny - 1)
            for j in range(j_lo, j_hi + 1):
                keys.add(i * ny + j)
    return len(keys)


def reference_counts(s: fc.SegmentSet, scales) -> tuple[int, ...]:
    """Per-rung reference counts on the grid estimate_dimension lays for `s`."""
    c = s.coords
    x0, x1 = float(min(c[:, 0].min(), c[:, 2].min())), float(max(c[:, 0].max(), c[:, 2].max()))
    y0, y1 = float(min(c[:, 1].min(), c[:, 3].min())), float(max(c[:, 1].max(), c[:, 3].max()))
    counts = []
    for eps in scales:
        nx = max(1, int(math.ceil((x1 - x0) / eps - 1e-12)))
        ny = max(1, int(math.ceil((y1 - y0) / eps - 1e-12)))
        counts.append(reference_occupied_boxes(c, x0, y0, eps, nx, ny))
    return tuple(counts)


def _reference_pair_overlaps(a, b, eps: float) -> bool:
    ax, ay, bx, by = a
    cx, cy, dx, dy = b
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    la = math.hypot(rx, ry)
    lb = math.hypot(sx, sy)
    if la == 0.0 or lb == 0.0:
        return False  # a zero-length segment overlaps nothing
    qpx, qpy = cx - ax, cy - ay
    denom = rx * sy - ry * sx
    if abs(denom) <= 1e-12 * la * lb:
        if abs(qpx * ry - qpy * rx) > eps * la:
            return False
        t0 = (qpx * rx + qpy * ry) / (la * la)
        t1 = t0 + (sx * rx + sy * ry) / (la * la)
        lo, hi = min(t0, t1), max(t0, t1)
        return min(hi, 1.0) - max(lo, 0.0) > eps / la
    t = (qpx * sy - qpy * sx) / denom
    u = (qpx * ry - qpy * rx) / denom
    ta, tb = eps / la, eps / lb
    if not (-ta <= t <= 1.0 + ta and -tb <= u <= 1.0 + tb):
        return False
    at_a_end = t <= ta or t >= 1.0 - ta
    at_b_end = u <= tb or u >= 1.0 - tb
    return not (at_a_end and at_b_end)


def reference_detect_overlap(s: fc.SegmentSet) -> bool:
    """Overlap verdict from a dict spatial hash and the scalar pair predicate."""
    n = len(s)
    if n < 2:
        return False
    coords = s.coords
    pts = coords.reshape(-1, 2)
    extent = float(max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1])))
    eps = 1e-12 * max(extent, s.initiator_length)
    cell = max(float(s.lengths.max()), eps, extent * 1e-6)
    grid: dict[tuple[int, int], list[int]] = {}
    inv = 1.0 / cell
    for idx in range(n):
        x1, y1, x2, y2 = coords[idx]
        i0 = math.floor((min(x1, x2) - eps) * inv)
        i1 = math.floor((max(x1, x2) + eps) * inv)
        j0 = math.floor((min(y1, y2) - eps) * inv)
        j1 = math.floor((max(y1, y2) + eps) * inv)
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                grid.setdefault((i, j), []).append(idx)
    checked: set[tuple[int, int]] = set()
    for bucket in grid.values():
        for a_pos in range(len(bucket)):
            for b_pos in range(a_pos + 1, len(bucket)):
                pair = (bucket[a_pos], bucket[b_pos])
                if pair in checked:
                    continue
                checked.add(pair)
                if _reference_pair_overlaps(coords[pair[0]], coords[pair[1]], eps):
                    return True
    return False


def brute_force_overlap(s: fc.SegmentSet) -> bool:
    """Overlap verdict from the scalar pair predicate on every pair, with no grid."""
    extent = float(max(np.ptp(s.coords[:, ::2]), np.ptp(s.coords[:, 1::2])))
    eps = 1e-12 * max(extent, s.initiator_length)
    pairs = itertools.combinations(s.coords.tolist(), 2)
    return any(_reference_pair_overlaps(a, b, eps) for a, b in pairs)


def segment_set(rows, initiator_length: float = 1.0) -> fc.SegmentSet:
    """The segments of (n, 4) rows x1,y1,x2,y2, each length measured as the
    hypot of its endpoint differences (inf where that overflows)."""
    coords = np.asarray(rows, dtype=float)
    with np.errstate(over="ignore"):
        lengths = np.hypot(coords[:, 2] - coords[:, 0], coords[:, 3] - coords[:, 1])
    return fc.SegmentSet(coords, initiator_length, lengths)


# lattice steps of the soups: the four axis directions, then the four diagonals
_AXIS_STEPS = [(1, 0), (-1, 0), (0, 1), (0, -1)]
_DIAGONAL_STEPS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
_SOUP_SCALES = (1.0, 0.1, 1 / 3, 1e-7, 1e5)


def segment_soup(rng: random.Random) -> tuple[str, fc.SegmentSet]:
    """A seeded soup of 2-60 segments from one of four families, named first.

    lattice: axis and diagonal steps of one or two units between the points of
    a small lattice, at one of _SOUP_SCALES; strip-edge: unit axis steps on a
    lattice shifted half a step in y, so once one vertical step makes the
    largest |dy| (detect_overlap's strip height h) the unit step, horizontal
    ones lie on the strip edges y = (j - 1/2) h; walk: a chain
    tip to tail, on the lattice or with free turns; lengths: free segments of
    log-uniform lengths from 1e-4 to 3. Any soup may have some segments
    collapsed to one of their endpoints or to the midpoint of another segment.
    """
    n = rng.randint(2, 60)
    family = rng.choice(["lattice", "strip-edge", "walk", "lengths"])
    scale = rng.choice(_SOUP_SCALES)
    side = rng.randint(2, 2 * n)
    rows = []
    if family in ("lattice", "strip-edge"):
        steps = _AXIS_STEPS + (_DIAGONAL_STEPS if family == "lattice" else [])
        y0 = 0.5 if family == "strip-edge" else 0.0
        for _ in range(n):
            i, j = rng.randint(0, side), rng.randint(0, side)
            di, dj = rng.choice(steps)
            m = rng.choice([1, 1, 1, 2]) if family == "lattice" else 1
            ends = (i, j + y0, i + m * di, j + y0 + m * dj)
            rows.append([v * scale for v in ends])
    elif family == "walk":
        x = y = 0.0
        lattice = rng.random() < 0.5
        heading = 0.0
        for _ in range(n):
            if lattice:
                di, dj = rng.choice(_AXIS_STEPS + _DIAGONAL_STEPS)
                nx, ny = x + di * scale, y + dj * scale
            else:
                heading += rng.uniform(-1.0, 1.0)
                step = scale * rng.uniform(0.2, 1.0)
                nx, ny = x + step * math.cos(heading), y + step * math.sin(heading)
            rows.append([x, y, nx, ny])
            x, y = nx, ny
    else:
        for _ in range(n):
            length = scale * 10 ** rng.uniform(-4, math.log10(3))
            angle = rng.uniform(-math.pi, math.pi)
            x, y = scale * rng.uniform(0, 6), scale * rng.uniform(0, 6)
            rows.append([x, y, x + length * math.cos(angle), y + length * math.sin(angle)])
    if rng.random() < 0.25:
        for idx in rng.sample(range(n), rng.randint(1, max(1, n // 4))):
            other = rows[rng.randrange(n)]
            point = rng.choice(
                [rows[idx][:2], other[2:], [(other[0] + other[2]) / 2, (other[1] + other[3]) / 2]]
            )
            rows[idx] = point + point
    return family, segment_set(rows, scale)


def reference_export_svg(s: fc.SegmentSet, path) -> None:
    """SVG export one chain and one formatted value at a time."""
    pts = s.coords.reshape(-1, 2)
    xmin, xmax = float(pts[:, 0].min()), float(pts[:, 0].max())
    ymin, ymax = float(-pts[:, 1].max()), float(-pts[:, 1].min())
    margin = 0.05 * max(xmax - xmin, ymax - ymin, 1e-9)
    vb = (xmin - margin, ymin - margin, (xmax - xmin) + 2 * margin, (ymax - ymin) + 2 * margin)
    join_tol = 1e-9 * max(xmax - xmin, ymax - ymin, s.initiator_length)

    def fmt(v: float) -> str:
        text = f"{v:.6f}"
        return "0.000000" if text == "-0.000000" else text

    coords = s.coords
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
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{fmt(vb[0])} {fmt(vb[1])} {fmt(vb[2])} {fmt(vb[3])}">',
        f'<rect x="{fmt(vb[0])}" y="{fmt(vb[1])}" width="{fmt(vb[2])}" height="{fmt(vb[3])}" fill="white"/>',
    ]
    for chain in chains:
        points = [f"{fmt(chain[0, 0])},{fmt(-chain[0, 1])}"]
        points += [f"{fmt(x)},{fmt(-y)}" for x, y in chain[:, 2:4]]
        lines.append(
            f'<polyline points="{" ".join(points)}" fill="none" '
            'stroke="black" stroke-width="1" '
            f'vector-effect="non-scaling-stroke"/>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_export_csv(s: fc.SegmentSet, path) -> None:
    """CSV export one formatted row at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x1, y1, x2, y2 in s.coords:
            fh.write(f"{x1:.12g},{y1:.12g},{x2:.12g},{y2:.12g}\n")


# --- loop references for the incomplete-statistics layer -----------------------


def reference_merge_buckets(buckets) -> list[tuple[float, int]]:
    """Sort by decreasing value and merge values within 1e-12 relative."""
    ordered = sorted(buckets, key=lambda b: -b[0])
    merged: list[tuple[float, int]] = []
    for value, count in ordered:
        if merged and merged[-1][0] - value <= 1e-12 * merged[-1][0]:
            merged[-1] = (merged[-1][0], merged[-1][1] + count)
        else:
            merged.append((value, count))
    return merged


def assert_merged_close(got, want) -> None:
    """Same counts, bucket count and order; values within the 1e-12 merge tolerance."""
    assert [c for _, c in got] == [c for _, c in want]
    for (v, _), (w, _) in zip(got, want):
        assert abs(v - w) <= 1e-12 * w


def reference_multisets_match(a, b) -> bool:
    """(value, count) lists of one length, counts exact and values within 1e-12
    relative in order; so 0.0 matches only 0.0."""
    if len(a) != len(b):
        return False
    for (va, ca), (vb, cb) in zip(a, b):
        if ca != cb or abs(va - vb) > 1e-12 * max(abs(va), abs(vb)):
            return False
    return True


def reference_probabilities(schedule, k: int, L0: float = 1.0) -> list[tuple[float, int]]:
    """Stage-k (probability, count) buckets: the census lengths divided by L0."""
    return [(v / L0, c) for v, c in fc.segment_census(schedule, k, L0)]


def reference_outer_product(bucket_lists) -> list[tuple[float, int]]:
    """Merged outer product of (probability, count) lists, crossed left to right."""
    cross = None
    for buckets in bucket_lists:
        if cross is None:
            cross = list(buckets)
        else:
            cross = [(v * w, c * m) for v, c in cross for w, m in buckets]
    return reference_merge_buckets(cross)


def _reference_residual(buckets, alpha: float) -> float:
    acc = 0.0
    for p, m in buckets:
        acc += m * p**alpha
    return abs(acc - 1.0)


def reference_stats_report(schedule, k: int) -> dict:
    """stats_report from the census probabilities per stage, and an item-wise
    outer product compared by this module's own multiset match."""
    alpha = fc.dimension(schedule.spectrum()).alpha
    max_resid = 0.0
    for stage in range(1, k + 1):
        max_resid = max(max_resid, _reference_residual(reference_probabilities(schedule, stage), alpha))
    parts = [fc.CompositionSchedule((item,)) for item in schedule.items]
    product = reference_outer_product([reference_probabilities(p, k) for p in parts])
    ok = reference_multisets_match(reference_probabilities(schedule, k), product)
    return {
        "alpha": alpha,
        "max_normalization_residual": max_resid,
        "factorization_ok": ok,
    }

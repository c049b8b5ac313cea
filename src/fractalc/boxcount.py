"""Empirical box-counting dimension estimation for segment geometry.

Counts occupied grid boxes on a dyadic scale ladder and fits the slope of
ln N(eps) against ln(1/eps). Counting intersects segments against boxes
exactly (no point sampling): a box is occupied iff the segment passes through
its half-open cell, with boundary cells clamped so the grid covers the
bounding box exactly. The dyadic ladder anchored at one corner makes coarse
boxes exact unions of fine ones, so N(eps) is nonincreasing in eps.

Only the finest rung is walked, as array code over all segments. A segment
inside one grid column occupies the rows between its endpoint rows; any other
is clipped to each vertical strip it crosses, and each clipped piece occupies
the rows between its ends. Both ragged expansions (strips per segment, rows
per strip) allow a segment to cross any number of gridlines, as segments
longer than the box size do. Occupied cells are distinct int64 keys
`i * ny + j`. Before the walk, the cells it visits, sum(|di| + |dj| + 1), are
checked against the segment budget; no coarser rung would visit more. The
walk takes batches of whole segments of about _CELL_BATCH cells, and each
batch computes its own segments' endpoint cells, as does the pass before it
that counts the cells each segment walks. So beside one batch's temporaries
the walk holds only each segment's running cell count (one float) and the
occupied keys.

Each coarser rung is derived from the keys of the rung below: cell (i, j) at
eps lies in cell (min(i >> 1, nx' - 1), min(j >> 1, ny' - 1)) at 2 eps, where
the coarse grid can have fewer than half as many columns or rows. The counts
are those a walk of each rung would give, in floats too: 1/eps doubles
exactly, so endpoint cells halve exactly; both strip edges come from their
index, so the strip edges at 2 eps are the even ones at eps and the clipped
pieces end at the same points; and the last strip runs on past the grid,
whose size tolerance of 1e-12 cells can leave it just short of the figure.

numpy is imported inside the functions, as in `geometry`, so that importing
this module does not load it (enforced by a test in `tests/test_cli.py`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import (
    DegenerateGeometry,
    GeometryOutOfRange,
    ScaleLadderInvalid,
    SegmentBudgetExceeded,
)
from .frozen import Frozen
from .geometry import SegmentSet, expand_ranges
from .work import DEFAULT_SEGMENT_BUDGET

if TYPE_CHECKING:
    import numpy as np

_KEY_LIMIT = 2**63 - 1  # the largest int64
# grid cells walked per batch of segments: bounds the batch's endpoint cells,
# clipped pieces, row ranges and cell keys, about 130 bytes per cell; also the
# segments per batch of the pass that counts the cells each segment walks
_CELL_BATCH = 1 << 13


class BoxCountReport(Frozen):
    """Scale ladder, occupied-box counts, fitted dimension, and fit quality.

    The slope is fitted by ordinary least squares on (ln 1/eps, ln N); when
    six or more scales are available the two coarsest are excluded from the
    fit to trim boundary effects (counts of order 10 carry little scaling
    signal). All scales and counts are still reported.
    """

    __slots__ = _fields = ("scales", "counts", "slope", "r_squared")

    def __init__(self, scales: tuple[float, ...], counts: tuple[int, ...], slope: float,
                 r_squared: float):
        super().__init__(scales, counts, slope, r_squared)

    def to_json_dict(self) -> dict:
        return {
            "scales": list(self.scales),
            "counts": list(self.counts),
            "slope": self.slope,
            "r_squared": self.r_squared,
        }


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of `keys`, which it sorts in place."""
    import numpy as np
    # sort-based: np.unique on int64 keys is ~20x slower with numpy 2.4
    keys.sort()
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def _endpoint_cells(coords: np.ndarray, x0: float, y0: float, eps: float, nx: int,
                    ny: int) -> np.ndarray:
    """Endpoint cells (i1, j1, i2, j2) per segment, clamped to the grid, as
    floats: int64 could overflow before the budget and key checks."""
    import numpy as np
    cells = coords - [x0, y0, x0, y0]
    cells *= 1.0 / eps
    np.floor(cells, out=cells)
    np.clip(cells, 0.0, [float(nx - 1), float(ny - 1), float(nx - 1), float(ny - 1)], out=cells)
    return cells


def _cell_keys(
    coords: np.ndarray, x0: float, y0: float, eps: float, nx: int, ny: int
) -> np.ndarray:
    """Distinct keys i * ny + j of the cells the segments pass through."""
    import numpy as np
    inv = 1.0 / eps
    i1, j1, i2, j2 = _endpoint_cells(coords, x0, y0, eps, nx, ny).astype(np.int64).T
    # single column: rows between the endpoint rows, all touched
    one = i1 == i2
    cols = [i1[one]]
    row_lo = [np.minimum(j1[one], j2[one])]
    row_hi = [np.maximum(j1[one], j2[one])]

    # otherwise one row per vertical strip crossed: clip the segment to the
    # strip and take the row range of the clipped piece
    many = np.flatnonzero(~one)
    idx, i = expand_ranges(np.minimum(i1[many], i2[many]), np.maximum(i1[many], i2[many]))
    ax, ay, bx, by = np.take(coords, many[idx], axis=0).T
    dx = bx - ax
    dy = by - ay
    # both edges from their index, so the strip edges of scale 2 eps are the
    # even edges of scale eps; the last strip runs on past x0 + nx * eps,
    # which can fall short of the figure
    xl = x0 + i * eps
    xr = np.where(i < nx - 1, x0 + (i + 1) * eps, np.inf)
    t_in = (xl - ax) / dx
    t_out = (xr - ax) / dx
    t_lo = np.maximum(0.0, np.minimum(t_in, t_out))
    t_hi = np.minimum(1.0, np.maximum(t_in, t_out))
    hit = t_lo <= t_hi
    ya = ay + t_lo * dy
    yb = ay + t_hi * dy
    j_lo = np.clip(np.floor((np.minimum(ya, yb) - y0) * inv).astype(np.int64), 0, ny - 1)
    j_hi = np.clip(np.floor((np.maximum(ya, yb) - y0) * inv).astype(np.int64), 0, ny - 1)
    cols.append(i[hit])
    row_lo.append(j_lo[hit])
    row_hi.append(j_hi[hit])

    idx, j = expand_ranges(np.concatenate(row_lo), np.concatenate(row_hi))
    return _distinct(np.concatenate(cols)[idx] * ny + j)


def _occupied_cells(
    coords: np.ndarray, x0: float, y0: float, eps: float, nx: int, ny: int, budget: int
) -> np.ndarray:
    """Sorted distinct keys i * ny + j of the occupied cells at one rung."""
    import numpy as np
    # the cells each segment walks, |di| + |dj| + 1, written into `ends` and
    # summed there into running totals; endpoint cells are built per batch
    ends = np.empty(len(coords))
    for a in range(0, len(coords), _CELL_BATCH):
        cells = _endpoint_cells(coords[a : a + _CELL_BATCH], x0, y0, eps, nx, ny)
        width = ends[a : a + _CELL_BATCH]
        np.abs(np.subtract(cells[:, 2], cells[:, 0], out=width), out=width)
        width += np.abs(cells[:, 3] - cells[:, 1])
        width += 1.0
    np.cumsum(ends, out=ends)
    if ends[-1] > budget:
        raise SegmentBudgetExceeded(
            int(ends[-1]), budget,
            f"box counting at scale {eps:.6g} would walk {{count}} grid cells, over the budget of {{limit}}"
        )
    if nx * ny > _KEY_LIMIT:
        raise ScaleLadderInvalid(
            f"box grid at scale {eps:.6g} has {nx} x {ny} cells, more than 64-bit keys can number"
        )
    # batches of whole segments walking about _CELL_BATCH cells each
    starts = np.searchsorted(ends, np.arange(0.0, ends[-1], _CELL_BATCH), side="right")
    # non-decreasing, so the first of each run of equal starts; np.unique
    # would load numpy.ma for its masked-array check
    bounds = np.append(starts[np.diff(starts, prepend=-1) > 0], len(coords))
    del ends
    keys = [
        _cell_keys(coords[a:b], x0, y0, eps, nx, ny)
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    return _distinct(np.concatenate(keys))


def _cells_along(span: float, eps: float) -> int:
    return max(1, int(math.ceil(span / eps - 1e-12)))


def estimate_dimension(
    s: SegmentSet,
    scale_count: int = 10,
    min_scale: float | None = None,
    budget: int = DEFAULT_SEGMENT_BUDGET,
) -> BoxCountReport:
    """Box-count `s` over a dyadic scale ladder and fit the scaling exponent.

    The ladder starts at bounding-box diagonal / 4 and halves down to
    `min_scale` (default: the smallest segment length, the finest generated
    detail) or until `scale_count` rungs are used, whichever stops first. The
    grid is anchored at the bounding-box min corner. Only the finest rung is
    walked; each coarser count comes from halving the cell indices of the rung
    below. Raises SegmentBudgetExceeded before that walk if it would visit
    more than `budget` cells, and GeometryOutOfRange if the bounding-box
    diagonal is beyond the float range or, with no `min_scale`, the shortest
    length reads 0.0.
    """
    if scale_count < 4:
        raise ScaleLadderInvalid("need at least 4 scales")
    if len(s) == 0:
        raise DegenerateGeometry("no segments")
    import numpy as np
    x0, x1, y0, y1, _ = s.frame()
    diag = math.hypot(x1 - x0, y1 - y0)
    if diag == 0.0:
        raise DegenerateGeometry("all points coincident")
    if not math.isfinite(diag):
        raise GeometryOutOfRange(f"the bounding-box diagonal {diag} is beyond the float range")
    if min_scale is None:
        min_scale = float(s.lengths.min())
        if min_scale == 0.0:
            raise GeometryOutOfRange("the figure's shortest length is below the float range")
    elif not (math.isfinite(min_scale) and min_scale > 0.0):
        raise ScaleLadderInvalid(f"min_scale must be a finite number > 0, got {min_scale!r}")

    eps_top = diag / 4.0
    scales = []
    eps = eps_top
    for _ in range(scale_count):
        if eps < min_scale * (1.0 - 1e-12):
            break
        scales.append(eps)
        # dyadic: the coarser rungs below halve cell indices (i >> 1)
        eps *= 0.5
    if len(scales) < 4:
        raise ScaleLadderInvalid(
            f"ladder from {eps_top:g} down to {min_scale:g} has only {len(scales)} scales"
        )

    # walk the finest rung only and halve its cell indices rung by rung
    nx, ny = _cells_along(x1 - x0, scales[-1]), _cells_along(y1 - y0, scales[-1])
    keys = _occupied_cells(s.coords, x0, y0, scales[-1], nx, ny, budget)
    counts = [len(keys)]
    for eps in reversed(scales[:-1]):
        i, j = np.divmod(keys, ny)
        nx, ny = _cells_along(x1 - x0, eps), _cells_along(y1 - y0, eps)
        keys = _distinct(np.minimum(i >> 1, nx - 1) * ny + np.minimum(j >> 1, ny - 1))
        counts.append(len(keys))
    counts.reverse()

    skip = 2 if len(scales) >= 6 else 0
    log_inv_eps = np.log(1.0 / np.asarray(scales[skip:]))
    log_n = np.log(np.asarray(counts[skip:], dtype=float))
    slope, intercept = np.polyfit(log_inv_eps, log_n, 1)
    predicted = slope * log_inv_eps + intercept
    ss_res = float(np.sum((log_n - predicted) ** 2))
    ss_tot = float(np.sum((log_n - log_n.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot

    return BoxCountReport(
        scales=tuple(scales),
        counts=tuple(counts),
        slope=float(slope),
        r_squared=r_squared,
    )

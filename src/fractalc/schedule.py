"""Composition schedules: generators and the schedule of (generator, repeat
count) items built from a parsed expression, and the content closed form,
which follows from the schedule alone, without geometry. The segment census
lives in `census`.

Nothing here imports numpy or `geometry`, so `dim`, `census`, `stats` and
`limit` run without loading either; a test in `tests/test_cli.py` enforces
this.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Iterable, Sequence

from .errors import InputOutOfRange, InvalidAngle, RatiosExceedUnit, ScheduleSemanticError
from .frozen import Frozen
from .moran import ScaleSpectrum, _check_repeat, _validated_ratios
from .parser import ScheduleExpr, parse


class Piece(Frozen):
    """One generator piece: scale factor, heading relative to the parent, pen state."""

    __slots__ = _fields = ("ratio", "angle", "draw")

    def __init__(self, ratio: float, angle: float, draw: bool):
        super().__init__(ratio, angle, draw)


class Generator(Frozen):
    """One IFS substage: ordered pieces applied to every current segment.

    `draw_ratios`, the draw pieces' scale factors, `copies`, their number,
    and `fold`, the distinct ratios (by exact float equality, in order of
    first appearance) with their multiplicities, are built once: the
    census, its charge and the spectrum read them many times.
    """

    _fields = ("pieces", "connected")
    __slots__ = (*_fields, "draw_ratios", "copies", "fold")

    def __init__(
        self,
        pieces: tuple[Piece, ...],
        connected: bool,  # all-draw chain ending exactly at the parent endpoint
    ):
        super().__init__(pieces, connected)
        draw_ratios = tuple(p.ratio for p in pieces if p.draw)
        object.__setattr__(self, "draw_ratios", draw_ratios)
        object.__setattr__(self, "copies", len(draw_ratios))
        object.__setattr__(self, "fold", tuple(Counter(draw_ratios).items()))


class CompositionSchedule(Frozen):
    """One period of the composition: ordered (generator, repeat count) items.

    `spectrum()` is built on first call and kept in `_spectrum`, which is no
    field: ==, hash, repr, copy and pickle read the items alone.
    """

    _fields = ("items",)
    __slots__ = (*_fields, "_spectrum")

    def __init__(self, items: tuple[tuple[Generator, int], ...]):
        if not items:
            raise ValueError("schedule needs at least one generator")
        for _, repeat in items:
            _check_repeat(repeat)
        super().__init__(items)
        object.__setattr__(self, "_spectrum", None)

    def spectrum(self) -> ScaleSpectrum:
        if self._spectrum is None:
            spectrum = ScaleSpectrum([(gen.draw_ratios, n) for gen, n in self.items])
            object.__setattr__(self, "_spectrum", spectrum)
        return self._spectrum

    def predicted_count(self, k: int) -> int:
        """Exact segment count after k stages: prod_i l_i^(n_i * k)."""
        count = 1
        for gen, n in self.items:
            count *= gen.copies ** (n * k)
        return count


def koch_scale(theta: float) -> float:
    """Scale factor closing the 4-piece Koch chain over the unit segment."""
    return 1.0 / (2.0 * (1.0 + math.cos(theta)))


def _koch_generator(theta: float) -> Generator:
    if not 0.0 < theta < math.pi / 2:
        raise InvalidAngle(f"Koch angle must lie in (0, pi/2), got {theta!r}")
    rho = koch_scale(theta)
    pieces = tuple(Piece(rho, a, True) for a in (0.0, theta, -theta, 0.0))
    return Generator(pieces, connected=True)


def _quadratic_generator(theta: float) -> Generator:
    if theta != math.pi / 2:
        raise InvalidAngle(f"quadratic generator supports only pi/2, got {theta!r}")
    headings = (0.0, math.pi / 2, 0.0, -math.pi / 2, 0.0)
    pieces = tuple(Piece(1.0 / 3.0, a, True) for a in headings)
    return Generator(pieces, connected=True)


def _cantor_generator(ratios: Sequence[float]) -> Generator:
    if not ratios:
        raise ScheduleSemanticError("Cantor generator needs at least one ratio")
    kept = _validated_ratios(ratios)  # a fraction may round to 0.0 or 1.0
    total = math.fsum(kept)
    if total > 1.0:
        raise RatiosExceedUnit(f"kept ratios sum to {total}, over the unit initiator")
    pieces = []
    gap = (1.0 - total) / (len(kept) - 1) if len(kept) > 1 else 0.0
    for idx, r in enumerate(kept):
        if idx > 0 and gap > 0.0:
            pieces.append(Piece(gap, 0.0, False))
        pieces.append(Piece(r, 0.0, True))
    return Generator(tuple(pieces), connected=False)


def _custom_generator(pieces: Iterable[tuple[float, float, bool]]) -> Generator:
    built = tuple(Piece(float(r), float(a), bool(d)) for r, a, d in pieces)
    if not any(p.draw for p in built):
        raise ScheduleSemanticError("custom generator keeps no pieces")
    _validated_ratios(p.ratio for p in built)
    # Connected means the nominal chain is gap-free and closes on (1, 0).
    x = y = 0.0
    for p in built:
        x += p.ratio * math.cos(p.angle)
        y += p.ratio * math.sin(p.angle)
    closes = math.hypot(x - 1.0, y) <= 1e-9
    return Generator(built, connected=closes and all(p.draw for p in built))


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


def _check_stage(k: int) -> None:
    try:
        k = operator.index(k)
    except TypeError:
        raise InputOutOfRange(f"stage must be an integer, got {k!r}") from None
    if k < 0:
        raise InputOutOfRange("stage must be >= 0")


def _check_initiator(L0: float) -> None:
    if not (math.isfinite(L0) and L0 > 0.0):
        raise InputOutOfRange(f"initiator length must be positive and finite, got {L0!r}")


def content(schedule: CompositionSchedule, k: int, beta: float, L0: float = 1.0) -> float:
    """Order-beta content at stage k via the census closed form.

    Constant in k exactly when beta is the composite dimension; at beta = 1 it
    is the stage length. Computed as exp(k ln M(beta) + beta ln L0) from the
    log Moran product M, and math.inf when that exceeds the float range; at
    k = 0 it is L0**beta, without the round trip through the logarithm.
    """
    _check_stage(k)
    _check_initiator(L0)
    if not (math.isfinite(beta) and beta >= 0.0):
        raise InputOutOfRange(f"beta must be finite and >= 0, got {beta!r}")
    try:
        if k == 0:
            return L0**beta
        return math.exp(k * schedule.spectrum().log_moran(beta) + beta * math.log(L0))
    except OverflowError:
        return math.inf

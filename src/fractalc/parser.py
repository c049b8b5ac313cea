"""Composition-schedule expression grammar.

One expression denotes one period of the composition. Grammar (LL(1),
recursive descent, single token of lookahead):

    schedule  := item { item }
    item      := primitive [ "^" INT ]
    primitive := "K[" angle "]" | "Q[" angle "]"
               | "C[" ratio { "," ratio } "]"
               | "G[" piece { ";" piece } "]"
    piece     := "(" ratio "," angle "," ("draw" | "gap") ")"
    ratio     := INT "/" INT | DECIMAL
    angle     := [ "-" ] ( "pi" [ "/" INT ] | DECIMAL | INT )

INT and DECIMAL are ASCII digits, DECIMAL with a "." and at least one digit
after it; `pi/k` with k beyond the float range reads 0.0.

Whitespace between tokens is insignificant. Ratios written as fractions are
kept exact (`fractions.Fraction`); decimals stay floats, and `format` emits
whichever form was parsed. The older subscript notation C_{[1/3 1/3]} puts
spaces between ratios; this grammar standardizes on commas.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple

from .errors import ScheduleSemanticError, ScheduleSyntaxError
from .frozen import Frozen

Ratio = Fraction | float


class Angle(Frozen):
    """An angle in radians, remembering whether it was written as +/-pi/k."""

    __slots__ = _fields = ("value", "pi_k")

    def __init__(self, value: float, pi_k: int | None = None):
        super().__init__(value, pi_k)

    def __str__(self) -> str:
        if self.pi_k is not None:
            sign = "-" if math.copysign(1.0, self.value) < 0 else ""  # -0.0 from -pi/huge
            return f"{sign}pi" if self.pi_k == 1 else f"{sign}pi/{self.pi_k}"
        return repr(self.value)


class PieceExpr(Frozen):
    """One generator piece: scale factor, heading, pen up or down."""

    __slots__ = _fields = ("ratio", "angle", "draw")

    def __init__(self, ratio: Ratio, angle: Angle, draw: bool):
        super().__init__(ratio, angle, draw)

    def __str__(self) -> str:
        pen = "draw" if self.draw else "gap"
        return f"({_format_ratio(self.ratio)},{self.angle},{pen})"


class ScheduleItem(Frozen):
    """One substage term: a generator primitive with a repeat count."""

    __slots__ = _fields = ("kind", "repeat", "angle", "ratios", "pieces", "span")
    _compared = _fields[:-1]  # the span, byte offsets in the text, is not the value

    def __init__(
        self,
        kind: str,  # "K" | "Q" | "C" | "G"
        repeat: int = 1,
        angle: Angle | None = None,
        ratios: tuple[Ratio, ...] | None = None,
        pieces: tuple[PieceExpr, ...] | None = None,
        span: tuple[int, int] = (0, 0),
    ):
        super().__init__(kind, repeat, angle, ratios, pieces, span)

    def __str__(self) -> str:
        if self.kind in ("K", "Q"):
            body = str(self.angle)
        elif self.kind == "C":
            body = ",".join(_format_ratio(r) for r in self.ratios)
        else:
            body = ";".join(str(p) for p in self.pieces)
        text = f"{self.kind}[{body}]"
        if self.repeat > 1:
            text += f"^{self.repeat}"
        return text


class ScheduleExpr(Frozen):
    """Ordered substage terms making up one period of the composition."""

    __slots__ = _fields = ("items",)

    def __init__(self, items: tuple[ScheduleItem, ...]):
        super().__init__(items)

    def __str__(self) -> str:
        return format(self)


def _format_ratio(r: Ratio) -> str:
    if isinstance(r, Fraction):
        return f"{r.numerator}/{r.denominator}"
    return repr(r)


def format(e: ScheduleExpr) -> str:
    """Canonical text form: single spaces between items, ^n only when n > 1."""
    return " ".join(str(item) for item in e.items)


# --- tokenizer -------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # NAME, INT, DECIMAL, one of the punct chars, EOF
    text: str
    pos: int  # character offset


# Optional whitespace (\s is exactly str.isspace), then one token. Digits and
# letters are ASCII. A punct token, the unnamed group, is its own kind; a
# number ending in "." is malformed, any other character unexpected.
_TOKEN = re.compile(
    r"\s*(?:(?P<DECIMAL>[0-9]*\.[0-9]+)|(?P<malformed>[0-9]*\.)|(?P<INT>[0-9]+)"
    r"|(?P<NAME>[A-Za-z]+)|([][(),;^/-])|(?P<EOF>\Z)|(?P<unexpected>.))",
    re.DOTALL,
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        kind, token, pos = match.lastgroup, match[group], match.start(group)
        if kind == "malformed":
            raise ScheduleSyntaxError(
                "malformed number", _byte_offset(text, pos), frozenset({"digit"})
            )
        if kind == "unexpected":
            raise ScheduleSyntaxError(
                f"unexpected character {token!r}", _byte_offset(text, pos), frozenset()
            )
        tokens.append(_Token(kind or token, token, pos))
        if kind == "EOF":  # finditer would match \Z again after trailing whitespace
            return tokens


def _byte_offset(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.tok
        self.i += 1
        return t

    def fail(self, expected: set[str], message: str = "unexpected token") -> None:
        raise ScheduleSyntaxError(
            f"{message} {self.tok.text!r}" if self.tok.kind != "EOF" else "unexpected end of input",
            _byte_offset(self.text, self.tok.pos),
            frozenset(expected),
        )

    def expect(self, kind: str) -> _Token:
        if self.tok.kind != kind:
            self.fail({kind})
        return self.advance()

    def semantic(self, message: str) -> None:
        raise ScheduleSemanticError(message)

    def integer(self) -> int:
        """Consume an INT token and return its value."""
        text = self.expect("INT").text
        try:
            return int(text)
        except ValueError as exc:  # over Python's int-string digit limit
            self.semantic(str(exc))

    def parse_schedule(self) -> ScheduleExpr:
        items = [self.parse_item()]
        while self.tok.kind != "EOF":
            items.append(self.parse_item())
        return ScheduleExpr(tuple(items))

    def parse_item(self) -> ScheduleItem:
        if self.tok.kind != "NAME" or self.tok.text not in ("K", "Q", "C", "G"):
            self.fail({"K", "Q", "C", "G"}, "expected a generator")
        start = self.tok.pos
        name = self.advance().text
        self.expect("[")
        if name in ("K", "Q"):
            angle = self.parse_angle()
            item_args = {"angle": angle}
            if name == "Q" and angle.value != math.pi / 2:
                self.semantic(f"unsupported quadratic angle {angle}; only pi/2 is available")
        elif name == "C":
            ratios = [self.parse_ratio()]
            while self.tok.kind == ",":
                self.advance()
                ratios.append(self.parse_ratio())
            item_args = {"ratios": tuple(ratios)}
        else:
            pieces = [self.parse_piece()]
            while self.tok.kind == ";":
                self.advance()
                pieces.append(self.parse_piece())
            item_args = {"pieces": tuple(pieces)}
        self.expect("]")
        repeat = 1
        if self.tok.kind == "^":
            self.advance()
            repeat = self.integer()
            if repeat < 1:
                self.semantic("repeat count must be >= 1")
        end = self.tokens[self.i - 1].pos + len(self.tokens[self.i - 1].text)
        span = (_byte_offset(self.text, start), _byte_offset(self.text, end))
        return ScheduleItem(kind=name, repeat=repeat, span=span, **item_args)

    def parse_piece(self) -> PieceExpr:
        self.expect("(")
        ratio = self.parse_ratio()
        self.expect(",")
        angle = self.parse_angle()
        self.expect(",")
        pen = self.expect("NAME").text
        if pen not in ("draw", "gap"):
            self.i -= 1
            self.fail({"draw", "gap"}, "expected a pen state")
        self.expect(")")
        return PieceExpr(ratio=ratio, angle=angle, draw=pen == "draw")

    def parse_ratio(self) -> Ratio:
        if self.tok.kind == "DECIMAL":
            value: Ratio = float(self.advance().text)
        elif self.tok.kind == "INT":
            num = self.integer()
            self.expect("/")
            den = self.integer()
            if den == 0:
                self.semantic("ratio denominator must be nonzero")
            value = Fraction(num, den)
        else:
            self.fail({"number"}, "expected a ratio")
        if not 0 < value < 1:
            self.semantic(f"scale factor {_format_ratio(value)} outside (0, 1)")
        return value

    def parse_angle(self) -> Angle:
        sign = 1.0
        if self.tok.kind == "-":
            self.advance()
            sign = -1.0
        if self.tok.kind == "NAME" and self.tok.text == "pi":
            self.advance()
            k = 1
            if self.tok.kind == "/":
                self.advance()
                k = self.integer()
                if k < 1:
                    self.semantic("angle denominator must be >= 1")
            try:
                value = math.pi / k
            except OverflowError:  # k beyond the float range
                value = 0.0
            angle = Angle(value=sign * value, pi_k=k)
        elif self.tok.kind in ("DECIMAL", "INT"):
            angle = Angle(value=sign * float(self.advance().text))
        else:
            self.fail({"pi", "number"}, "expected an angle")
        if abs(angle.value) >= math.pi:
            self.semantic(f"angle {angle} outside (-pi, pi)")
        return angle


def parse(text: str) -> ScheduleExpr:
    """Parse a schedule expression (one period of the composition).

    Raises only ScheduleSyntaxError, with a byte offset and the accepted-token
    set, or ScheduleSemanticError for well-formed text denoting an invalid
    schedule (scale factor outside (0,1), angle at or beyond +/-pi, an
    integer past Python's int-string digit limit, ...).
    """
    return _Parser(text).parse_schedule()

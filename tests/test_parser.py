import math
import random
import sys
from fractions import Fraction

import pytest

import fractalc as fc
from fractalc.errors import ScheduleSemanticError, ScheduleSyntaxError
from fractalc.parser import Angle
from helpers import random_schedule_expr


def test_single_koch_term():
    expr = fc.parse("K[pi/3]")
    assert len(expr.items) == 1
    item = expr.items[0]
    assert item.kind == "K"
    assert item.repeat == 1
    assert item.angle == Angle(math.pi / 3, 3)


def test_cantor_then_repeated_koch():
    expr = fc.parse("C[1/3,1/3] K[pi/3]^2")
    assert [(i.kind, i.repeat) for i in expr.items] == [("C", 1), ("K", 2)]
    assert expr.items[0].ratios == (Fraction(1, 3), Fraction(1, 3))


def test_three_generator_schedule():
    expr = fc.parse("C[1/2,1/4,1/6] K[pi/4] K[pi/3]")
    assert [i.kind for i in expr.items] == ["C", "K", "K"]
    assert expr.items[0].ratios == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 6))
    assert expr.items[1].angle.pi_k == 4


def test_quadratic_koch_term():
    expr = fc.parse("Q[pi/2]")
    assert expr.items[0].kind == "Q"
    assert expr.items[0].angle.value == math.pi / 2


def test_custom_generator_pieces():
    expr = fc.parse("G[(1/3,0,draw);(1/3,pi/3,draw);(1/4,-0.5,gap)]")
    pieces = expr.items[0].pieces
    assert len(pieces) == 3
    assert pieces[0].draw and not pieces[2].draw
    assert pieces[1].angle == Angle(math.pi / 3, 3)
    assert pieces[2].angle == Angle(-0.5)


def test_decimal_ratio_and_angle():
    expr = fc.parse("C[0.25,0.5] K[1.4]")
    assert expr.items[0].ratios == (0.25, 0.5)
    assert isinstance(expr.items[0].ratios[0], float)
    assert expr.items[1].angle == Angle(1.4)


# --- canonical formatting ------------------------------------------------------


def test_format_drops_unit_repeat():
    assert fc.format(fc.parse("  K[pi/3]^1 ")) == "K[pi/3]"


def test_format_normalizes_whitespace():
    assert fc.format(fc.parse("C[1/3, 1/3]K[pi/3]^2")) == "C[1/3,1/3] K[pi/3]^2"


def test_format_keeps_decimal_and_negative_forms():
    assert fc.format(fc.parse("K[-pi/4] C[0.125]")) == "K[-pi/4] C[0.125]"


def test_round_trip_fuzz():
    rng = random.Random(43)
    for _ in range(200):
        expr = random_schedule_expr(rng)
        text = fc.format(expr)
        again = fc.parse(text)
        assert again == expr
        assert fc.format(again) == text  # idempotent on strings


# --- syntax errors ---------------------------------------------------------------


def test_unterminated_bracket_reports_offset():
    with pytest.raises(ScheduleSyntaxError) as err:
        fc.parse("K[pi/3")
    assert err.value.offset == len("K[pi/3")
    assert "]" in err.value.expected


def test_empty_input():
    with pytest.raises(ScheduleSyntaxError) as err:
        fc.parse("")
    assert err.value.offset == 0
    assert {"K", "Q", "C", "G"} <= set(err.value.expected)


def test_unknown_generator_name():
    with pytest.raises(ScheduleSyntaxError) as err:
        fc.parse("X[1/2]")
    assert err.value.offset == 0


def test_missing_bracket_expected_set():
    with pytest.raises(ScheduleSyntaxError) as err:
        fc.parse("K(pi)")
    assert err.value.offset == 1
    assert err.value.expected == frozenset({"["})


def test_byte_offsets_with_multibyte_text():
    with pytest.raises(ScheduleSyntaxError) as err:
        fc.parse("K[π/3]")  # Greek pi is not the keyword
    assert err.value.offset == len("K[".encode("utf-8"))


def test_malformed_number():
    with pytest.raises(ScheduleSyntaxError):
        fc.parse("C[1.]")
    with pytest.raises(ScheduleSyntaxError):
        fc.parse("C[.]")


def test_empty_ratio_list_is_rejected():
    with pytest.raises(ScheduleSyntaxError):
        fc.parse("C[]")


def test_item_spans_cover_source():
    text = "C[1/3,1/3] K[pi/3]^2"
    expr = fc.parse(text)
    raw = text.encode()
    for item in expr.items:
        start, end = item.span
        assert 0 <= start < end <= len(raw)
        assert raw[start : start + 1].decode() == item.kind
    assert raw[expr.items[1].span[0] :].decode() == "K[pi/3]^2"


# --- semantic errors --------------------------------------------------------------


def test_ratio_out_of_range():
    with pytest.raises(ScheduleSemanticError):
        fc.parse("C[3/2]")
    with pytest.raises(ScheduleSemanticError):
        fc.parse("C[0.0,1/3]")
    # a bare INT is not a ratio (ratio := INT "/" INT | DECIMAL): the parser
    # expects the "/", rather than reading 1/1 and rejecting a fraction never written
    for text, offset in (("C[1]", 3), ("C[1/2,1]", 7), ("G[(1,0,draw)]", 4)):
        with pytest.raises(ScheduleSyntaxError) as err:
            fc.parse(text)
        assert (err.value.offset, err.value.expected) == (offset, frozenset({"/"})), text


def test_angle_at_or_beyond_pi():
    with pytest.raises(ScheduleSemanticError):
        fc.parse("K[pi]")
    with pytest.raises(ScheduleSemanticError):
        fc.parse("K[3.5]")
    with pytest.raises(ScheduleSemanticError):
        fc.parse("K[-pi/1]")


def test_quadratic_only_supports_right_angle():
    with pytest.raises(ScheduleSemanticError):
        fc.parse("Q[pi/3]")


def test_zero_repeat_rejected():
    with pytest.raises(ScheduleSemanticError):
        fc.parse("K[pi/3]^0")


def test_zero_angle_denominator():
    with pytest.raises(ScheduleSemanticError):
        fc.parse("K[pi/0]")


# --- robustness --------------------------------------------------------------------


def test_no_crash_on_random_bytes():
    rng = random.Random(47)
    for _ in range(2000):
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
        text = raw.decode("latin-1")
        try:
            fc.parse(text)
        except (ScheduleSyntaxError, ScheduleSemanticError) as err:
            if isinstance(err, ScheduleSyntaxError):
                assert 0 <= err.offset <= len(text.encode("utf-8"))


def test_error_offsets_point_into_input():
    rng = random.Random(53)
    alphabet = "KQCG[](),;^/-pi0123456789. drawgap"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 25)))
        try:
            fc.parse(text)
        except ScheduleSyntaxError as err:
            assert 0 <= err.offset <= len(text.encode("utf-8"))
        except ScheduleSemanticError:
            pass


# --- the parse contract: only the two documented errors ------------------------------

_NINES = "9" * 400


@pytest.mark.parametrize(
    "text",
    ["C[1/²]", "C[¹/3]", "K[pi/²]", "C[1/2]^²", "C[0.5²]", "K[¹]", "C[1/2]^" + "9" * 5000,
     f"K[pi/{_NINES}]", f"G[(1/2,pi/{_NINES},draw);(1/2,0,draw)]"],
    ids=lambda text: text if len(text) < 40 else text[:16] + "...",
)
def test_parse_raises_only_the_documented_errors(text):
    # superscript digits leaked a ValueError, and pi/k past the float range an
    # OverflowError
    try:
        fc.parse(text)
    except (ScheduleSyntaxError, ScheduleSemanticError):
        pass


@pytest.mark.parametrize("text", ["C[1/²]", "C[¹/3]", "C[0.5²]", "C[1/٣]", "C[１/2]", "K[pi/3]^²"])
def test_non_ascii_digits_are_unexpected_characters(text):
    digit = next(c for c in text if c.isdigit() and not c.isascii())
    with pytest.raises(ScheduleSyntaxError) as err:
        fc.parse(text)
    assert str(err.value).startswith(f"unexpected character {digit!r}")
    assert err.value.offset == len(text[: text.index(digit)].encode("utf-8"))


def test_integer_past_the_digit_limit_is_a_semantic_error():
    if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("this Python converts integer literals of any length")
    with pytest.raises(ScheduleSemanticError, match="limit"):
        fc.parse("C[1/2]^" + "9" * (sys.get_int_max_str_digits() + 1))


@pytest.mark.parametrize("sign", ["", "-"])
def test_pi_over_a_denominator_past_the_float_range_reads_zero(sign):
    angle = fc.parse(f"G[(1/2,{sign}pi/{_NINES},draw);(1/2,0,draw)]").items[0].pieces[0].angle
    assert angle.value == 0.0 and math.copysign(1.0, angle.value) == float(f"{sign}1")
    assert angle.pi_k == int(_NINES)
    assert fc.format(fc.parse(f"K[{sign}pi/{_NINES}]")) == f"K[{sign}pi/{_NINES}]"


def test_whitespace_is_what_str_isspace_accepts():
    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    for space in spaces:
        assert fc.parse(f"{space}C[1/3,{space}1/3]{space}K[pi/3]{space}") == fc.parse(
            "C[1/3,1/3] K[pi/3]"
        )
    for other in ("​", "﻿", "_"):  # a zero-width space and a BOM are not spaces
        with pytest.raises(ScheduleSyntaxError):
            fc.parse(f"C[1/3]{other}K[pi/3]")

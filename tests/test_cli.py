import functools
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import mpmath
import numpy as np
import pytest

import fractalc as fc
from fractalc.parser import format as format_expr
from helpers import (
    STATS_CORPUS,
    assert_merged_close,
    census_size,
    fuzz_cases,
    histogram_of_lengths,
    mpmath_root,
    random_schedule_expr,
    reference_counts,
    reference_export_csv,
    reference_export_svg,
    reference_segment_census,
    run_cli,
)


_UNDERFLOW = (
    "warning: the smallest stage-{} lengths fall below the float range while "
    "the census is computed and read 0.0"
)


def invoke_json(args):
    result = run_cli(args)
    assert result.exit_code == 0, result.output
    return json.loads(result.stdout)


# --- dim --------------------------------------------------------------------


def test_dim_koch():
    payload = invoke_json(["dim", "K[pi/3]"])
    assert payload["method"] == "closed-form"
    assert payload["alpha"] == pytest.approx(math.log(4) / math.log(3), abs=1e-12)
    assert set(payload) == {"alpha", "method", "residual", "bounds", "component_dimensions"}


def test_dim_repeated_schedule():
    payload = invoke_json(["dim", "C[1/3,1/3] K[pi/3]^2"])
    assert payload["alpha"] == pytest.approx(1.0515495892857625, abs=1e-12)
    assert payload["method"] == "closed-form"


def test_dim_binary_analytic_with_check():
    payload = invoke_json(["dim", "C[1/2,1/12] K[pi/3]", "--check"])
    assert payload["method"] == "binary-analytic"
    assert payload["alpha"] == pytest.approx(0.8787567721117389, abs=1e-12)
    assert payload["check"]["difference"] <= 1e-9


def test_dim_multifractal_numeric():
    payload = invoke_json(["dim", "C[1/2,1/3] K[pi/3]"])
    assert payload["method"] == "moran-numeric"
    assert payload["alpha"] == pytest.approx(1.053951276533946, abs=1e-9)
    assert abs(payload["residual"]) <= 1e-12
    lo, hi = payload["bounds"]
    assert lo <= payload["alpha"] <= hi


def test_dim_closed_form_only_rejects_multifractal():
    result = run_cli(["dim", "C[1/2,1/3] K[pi/3]", "--closed-form-only"])
    assert result.exit_code == 2
    ok = run_cli(["dim", "K[pi/3]", "--closed-form-only"])
    assert ok.exit_code == 0


def test_dim_parse_error_exits_2():
    result = run_cli(["dim", "K[pi"])
    assert result.exit_code == 2
    result = run_cli(["dim", "Q[pi/3]"])
    assert result.exit_code == 2


def test_dim_human_mode():
    result = run_cli(["dim", "K[pi/3]", "--human"])
    assert result.exit_code == 0
    assert "alpha" in result.output
    assert "1.26186" in result.output


@pytest.mark.parametrize(
    "expression,check",
    [("C[1/2,1/12] K[pi/3]", "numeric 0.878757, difference 0"),  # binary-analytic
     ("C[1/2,1/3] K[pi/3]", "numeric 1.05395")],  # no closed form, no difference
)
def test_dim_check_human_mode(expression, check):
    result = run_cli(["dim", expression, "--check", "--human"])
    assert result.exit_code == 0
    assert result.stdout.splitlines()[-1] == f"{'check':<24} {check}"


def test_dim_deterministic():
    first = run_cli(["dim", "C[1/2,1/3] K[pi/3]"]).output
    second = run_cli(["dim", "C[1/2,1/3] K[pi/3]"]).output
    assert first == second


def _piece_text(piece) -> str:
    # exact decimal expansions: the parser reads them back to the same floats
    pen = "draw" if piece.draw else "gap"
    return f"({format(Decimal(piece.ratio), 'f')},{format(Decimal(piece.angle), 'f')},{pen})"


def _schedule_text(sched) -> str:
    """A G[...] expression with the same pieces as `sched`."""
    items = []
    for gen, n in sched.items:
        text = "G[" + ";".join(_piece_text(p) for p in gen.pieces) + "]"
        items.append(text + (f"^{n}" if n > 1 else ""))
    return " ".join(items)


def _agreement_cases():
    cases = dict(STATS_CORPUS)
    cases.update({"G[(0.5,0,draw);(0.5,0,draw)]": 3, "Q[pi/2]^3": 1})
    for sched, k in fuzz_cases(101, 60):
        text = _schedule_text(sched)
        assert fc.schedule_from_text(text).spectrum() == sched.spectrum()
        cases[text] = k
    return cases


def test_dim_stats_and_validate_report_one_alpha(monkeypatch):
    # every command takes alpha from the one dispatcher, and the component
    # dimensions behind the bounds come from it too
    validated = 0
    for text, k in _agreement_cases().items():
        dim = invoke_json(["dim", text])
        lo, hi = dim["bounds"]
        assert lo <= dim["alpha"] <= hi, text
        stats = invoke_json(["stats", text, "--stage", str(k)])
        assert stats["alpha"] == dim["alpha"], text
        with monkeypatch.context() as env:
            env.setenv("FRACTALC_SEGMENT_BUDGET", "20000")
            result = run_cli(["validate", text, "--stage", "3"])
        if result.exit_code == 0:
            assert json.loads(result.stdout)["theoretical"] == dim["alpha"], text
            validated += 1
    assert validated >= 20
    koch = invoke_json(["dim", "K[pi/3]"])
    assert koch["bounds"] == [koch["alpha"], koch["alpha"]]


def test_overflowing_repeat_count_answers():
    # (1/2^a + 1/3^a)^100000 overflows a double; the log form does not
    alpha = invoke_json(["dim", "C[1/2,1/3]"])["alpha"]
    assert invoke_json(["dim", "C[1/2,1/3]^100000"])["alpha"] == alpha
    stats = invoke_json(["stats", "C[1/2,1/3]^100000", "--stage", "0"])
    assert stats["alpha"] == alpha
    # at repeats this large one ulp of alpha moves ln M by more than 1e-12,
    # so the residual cannot vouch for the root; the certified bracket does
    assert invoke_json(["dim", "C[1/2,1/3]^100000 K[pi/3]"])["method"] == "moran-numeric"
    huge = invoke_json(["dim", "C[0.0632,0.9]^1000000 C[0.5,0.49]^7"])
    assert huge["alpha"] == 0.878474180787576
    # at a repeat of 10^20 the product at alpha is past the float range: the
    # residual reads null, and the output stays strict JSON
    result = run_cli(["dim", "C[1/2,1/3]^100000000000000000000 C[1/2,1/4]"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout, parse_constant=lambda c: pytest.fail(f"{c} in JSON"))
    assert payload["method"] == "moran-numeric"
    assert payload["residual"] is None or math.isfinite(payload["residual"])
    # stage 0 is a single segment, too coarse for a box-counting ladder
    result = run_cli(["validate", "C[1/2,1/3]^100000", "--stage", "0"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ladder")


# --- render -----------------------------------------------------------------


def test_render_writes_deterministic_svg(tmp_path):
    out = tmp_path / "koch.svg"
    payload = invoke_json(["render", "K[pi/3]", "--stage", "3", "-o", str(out)]
    )
    assert payload["segments"] == 64
    assert payload["overlapping"] is False
    first = out.read_bytes()
    invoke_json(["render", "K[pi/3]", "--stage", "3", "-o", str(out)])
    assert out.read_bytes() == first
    assert b"<polyline" in first


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("l0", ["1e20", "1e200"])
def test_render_overlap_verdict_does_not_depend_on_l0(tmp_path, l0):
    out = tmp_path / "koch.svg"
    result = run_cli(["render", "K[pi/3]", "--stage", "3", "--l0", l0, "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["overlapping"] is False
    assert result.stderr == ""


def test_render_three_generator_composition(tmp_path):
    out = tmp_path / "composite.svg"
    payload = invoke_json(
        [
            "render",
            "C[1/2,1/4,1/6] K[pi/4] K[pi/3]",
            "--stage",
            "2",
            "-o",
            str(out),
            "--no-warn-overlap",
        ],
    )
    assert payload["segments"] == (3 * 4 * 4) ** 2
    assert payload["overlapping"] is None
    assert out.read_text().count("<polyline") > 1  # gaps break the chains


def test_render_unwritable_path_exits_2(tmp_path):
    result = run_cli(
        ["render", "K[pi/3]", "--stage", "1", "-o", str(tmp_path / "missing" / "x.svg")],
    )
    assert result.exit_code == 2
    assert "cannot write output" in result.stderr


def test_render_csv_dump(tmp_path):
    out, csv = tmp_path / "c.svg", tmp_path / "c.csv"
    payload = invoke_json(
        ["render", "C[1/2,1/3] K[pi/3]", "--stage", "1", "-o", str(out), "--csv", str(csv)],
    )
    assert payload["csv"] == str(csv)
    assert len(csv.read_text().strip().splitlines()) == 8


def test_render_budget_from_environment(tmp_path, monkeypatch):
    out = tmp_path / "big.svg"
    monkeypatch.setenv("FRACTALC_SEGMENT_BUDGET", "1000")
    result = run_cli(["render", "K[pi/3]", "--stage", "8", "-o", str(out)])
    assert result.exit_code == 4
    assert not out.exists()


def test_render_overlap_warning(tmp_path):
    # a draw piece doubling back across the baseline piece after a gap
    expr = "G[(0.9,0,draw);(0.5,3.1,gap);(0.5,-0.05,draw)]"
    out = tmp_path / "crossing.svg"
    result = run_cli(["render", expr, "--stage", "1", "-o", str(out)])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["overlapping"] is True
    assert "upper bound" in result.stderr
    quiet = run_cli(
        ["render", expr, "--stage", "1", "-o", str(out), "--no-warn-overlap"]
    )
    assert quiet.exit_code == 0
    assert "upper bound" not in quiet.stderr


# --- census -----------------------------------------------------------------


def test_census_json():
    payload = invoke_json(["census", "C[1/2,1/3] K[pi/3]", "--stage", "2"])
    assert payload["total_count"] == 64
    assert [b["count"] for b in payload["buckets"]] == [16, 32, 16]


def test_census_human():
    result = run_cli(["census", "K[pi/3]", "--stage", "2", "--human"])
    assert result.exit_code == 0
    assert "total 16" in result.output


@pytest.mark.parametrize("stage", ["2000", "9" * 1500])
@pytest.mark.parametrize("command", ["census", "stats"])
def test_census_over_budget_exits_4_at_once(command, stage):
    # C(2002, 2) ~ 2e6 buckets of three distinct ratios at stage 2000, over
    # 100 units each, over the default budget of 1e7 units; stats charges its
    # 10^1500 stages, 50 units each, before their buckets
    start = time.perf_counter()
    result = run_cli([command, "C[1/2,1/4,1/8]", "--stage", stage])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 4
    assert result.stdout == ""
    lines = result.stderr.strip().splitlines()
    charged = "build stages" if command == "stats" and stage != "2000" else "enumerate buckets"
    assert len(lines) == 1 and lines[0].startswith(f"error: census would {charged} worth")


_BIG = "9" * 400


def test_integers_beyond_the_float_range_answer_or_exit_at_once(tmp_path):
    # each ended in OverflowError, ran on for minutes, or (render) exited 4, before
    out = tmp_path / "one.svg"
    unreduced = f"C[1/2,1/3]^{_BIG} C[1/2,1/4]"
    repeat_error = "a repeat count is beyond the float range"
    cases = [
        (["render", unreduced, "--stage", "0", "-o", str(out)], 0, None),
        (["dim", unreduced], 2, repeat_error),
        (["dim", f"C[1/2,1/3]^{_BIG}", "--check"], 2, repeat_error),
        (["validate", unreduced], 2, repeat_error),
        (["stats", unreduced, "--stage", "0"], 2, repeat_error),
        # past stage 0 the census budget check of stats comes first
        (["stats", unreduced], 4,
         "census would enumerate buckets worth about 10^800.479 units or more, "
         "over the budget of 10000000"),
        (["census", "C[1/2]", "--stage", _BIG], 0, None),
        (["stats", "C[1/2]", "--stage", _BIG], 4,
         "census would build stages worth about 10^401.699 units, 50 per stage, "
         "over the budget of 10000000"),
    ]
    for args, code, message in cases:
        start = time.perf_counter()
        result = run_cli(args)
        assert time.perf_counter() - start < 1.0, args
        assert result.exit_code == code, (args, result.output)
        if code:
            assert result.stdout == ""
            assert result.stderr == f"error: {message}\n", args
    # stage 0 is the initiator alone, however large the repeats
    assert out.read_bytes().count(b"<polyline") == 1
    # the length 2^-N underflows, as the warning says; the count stays exact
    result = run_cli(["census", "C[1/2]", "--stage", _BIG])
    payload = json.loads(result.stdout)
    assert payload["buckets"] == [{"length": 0.0, "count": 1}]
    assert result.stderr.startswith("warning: the smallest stage-")
    # still reducible by the gcd of the repeats, as before
    assert invoke_json(["dim", f"C[1/2,1/3]^{_BIG}"])["method"] == "moran-numeric"


def test_one_bucket_stages_over_the_budget_exit_as_the_loop_would(monkeypatch):
    # each stage of a one-piece schedule is one bucket, but costs a census and
    # a residual: stages 0..k are charged 50 units each
    monkeypatch.setenv("FRACTALC_SEGMENT_BUDGET", "100")
    result = run_cli(["stats", "C[1/2]", "--stage", "2"])
    assert result.exit_code == 4
    assert result.stderr.strip() == (
        "error: census would build stages worth 150 units, 50 per stage, over the budget of 100"
    )
    result = run_cli(["stats", "C[1/2]", "--stage", "1"])
    assert result.exit_code == 0


@pytest.fixture
def int_digit_limit():
    """Set Python's int-to-text digit limit for one test, and restore it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-text digit limit")
    previous = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize(
    "expression,stage,limit,digits,code",
    [("C[1/2,1/2]", "14284", 4300, 4300, 0),
     ("C[1/2,1/2]", "14285", 4300, 4301, 4),
     ("C[1/2,1/3]^10", "1430", 4300, 4305, 4),  # 45 s to build the census
     ("C[1/2,1/2]", "14285", 0, 4301, 0)],  # 0 means no limit
)
def test_census_total_beyond_the_int_digit_limit_exits_4_at_once(
    int_digit_limit, expression, stage, limit, digits, code
):
    # json.dumps of an int with more digits than the limit raises ValueError
    int_digit_limit(limit)
    start = time.perf_counter()
    result = run_cli(["census", expression, "--stage", stage])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == code, result.output
    if code == 4:
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: the total count has {digits} decimal digits")
    else:
        assert len(str(json.loads(result.stdout)["total_count"])) == digits


def test_census_budget_from_environment(monkeypatch):
    # 9 buckets of 95 units each
    monkeypatch.setenv("FRACTALC_SEGMENT_BUDGET", "100")
    result = run_cli(["census", "C[1/2,1/3] K[pi/3]", "--stage", "8"])
    assert result.exit_code == 4


@pytest.mark.parametrize(
    "args",
    [
        ["census", "K[pi/3]"],
        ["stats", "K[pi/3]"],
        ["validate", "K[pi/3]"],
        ["render", "K[pi/3]", "-o", "never.svg"],
    ],
)
def test_negative_stage_exits_2(args):
    result = run_cli(args + ["--stage", "-1"])
    assert result.exit_code == 2
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "expression,stage",
    [("K[pi/3]", "10000"), ("K[pi/3]^" + "9" * 30, "1"), ("K[pi/3]", "9" * 400)],
)
def test_render_far_over_budget_exits_4(tmp_path, expression, stage):
    out = tmp_path / "big.svg"
    result = run_cli(["render", expression, "--stage", stage, "-o", str(out)])
    assert result.exit_code == 4
    assert result.stdout == "" and not out.exists()
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: stage would produce about 10^")


@pytest.mark.parametrize("expression,stage", [("C[1/3,1/3]", "23"), ("K[pi/3]", "11")])
def test_render_over_the_export_cap_exits_4_before_building(tmp_path, expression, stage):
    # 8.4M and 4.2M segments fit the default budget of 10^7 but not the SVG
    # export cap of 10^6; built first, they took seconds and a gigabyte
    out = tmp_path / "big.svg"
    start = time.perf_counter()
    result = run_cli(["render", expression, "--stage", stage, "-o", str(out)])
    assert time.perf_counter() - start < 0.5
    assert result.exit_code == 4
    assert result.stdout == "" and not out.exists()
    assert result.stderr.strip().endswith(" segments, over the SVG export cap of 1000000")


@pytest.mark.parametrize("command", ["render", "validate"])
def test_one_piece_generator_repeats_exit_4_at_once(tmp_path, command):
    # one segment at every stage, but 2 * (10^20 - 1) substage applications
    out = tmp_path / "one.svg"
    args = [command, "C[1/2]^" + "9" * 20, "--stage", "2"]
    if command == "render":
        args += ["-o", str(out)]
    start = time.perf_counter()
    result = run_cli(args)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 4
    assert result.stdout == "" and not out.exists()
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: stage would apply ")


@pytest.mark.parametrize(
    "budget,limit",
    [("100000000", "the SVG export cap of 1000000"), ("1000000", "the budget of 1000000"),
     ("500000", "the budget of 500000")],
)
def test_render_names_the_limit_that_binds(tmp_path, monkeypatch, budget, limit):
    # the SVG export writes at most 10^6 segments; under a larger budget the
    # message names that cap, not a budget the user did not set
    monkeypatch.setenv("FRACTALC_SEGMENT_BUDGET", budget)
    out = tmp_path / "k.svg"
    result = run_cli(["render", "K[pi/3]", "--stage", "11", "-o", str(out)])
    assert result.exit_code == 4
    assert result.stdout == "" and not out.exists()
    assert result.stderr == f"error: stage would produce 4194304 segments, over {limit}\n"


@pytest.mark.parametrize(
    "args,message",
    [
        # 10^7 one-bucket stages, about a minute of work
        (["stats", "C[1/2]", "--stage", "9999999"],
         "census would build stages worth 500000000 units, 50 per stage"),
        # 10^6 - 1 and 10^7 - 1 one-piece substages, about 30 s and 5 min of work
        (["render", "C[1/2]^999999", "--stage", "1", "-o", "x.svg"],
         "stage would apply substages worth 299999700 units, 300 per substage"),
        (["validate", "C[1/2]^9999999", "--stage", "1"],
         "stage would apply substages worth 2999999700 units, 300 per substage"),
    ],
    ids=["stats", "render", "validate"],
)
def test_stage_and_substage_charges_exit_4_at_once(tmp_path, args, message):
    # a separate process with a timeout, so a missing charge fails, not hangs
    start = time.perf_counter()
    result = _run_python(["-m", "fractalc.cli", *args], tmp_path, timeout=5)
    assert time.perf_counter() - start < 1.0
    assert result.returncode == 4
    assert result.stdout == "" and not (tmp_path / "x.svg").exists()
    assert result.stderr == f"error: {message}, over the budget of 10000000\n"


def _work_started(*args):
    raise AssertionError("work started before the charge")


@pytest.fixture
def no_work(monkeypatch):
    """Fail any census or geometry work: the charge must come first."""
    monkeypatch.setattr(fc.census, "_component_buckets", _work_started)
    monkeypatch.setattr(fc.geometry, "_apply_substage", _work_started)


@pytest.mark.parametrize(
    "budget,args,message",
    [
        (None, ["census", "C[1/2,1/4,1/8]", "--stage", "2000"],
         "census would enumerate buckets worth 428642214 units"),
        ("9", ["census", "K[pi/3]", "--stage", "1"], "census would build stages worth 50 units"),
        (None, ["stats", "C[1/2,1/4,1/8]", "--stage", "2000"],
         "census would enumerate buckets worth 268402134 units"),
        ("20", ["stats", "C[1/2]", "--stage", "2"], "census would build stages worth 150 units"),
        ("1000", ["render", "K[pi/3]", "--stage", "8", "-o", "x.svg"],
         "stage would produce 65536 segments, over the budget of 1000"),
        (None, ["render", "K[pi/3]", "--stage", "11", "-o", "x.svg"],
         "stage would produce 4194304 segments, over the SVG export cap"),
        (None, ["render", "C[1/2]^999999", "--stage", "1", "-o", "x.svg"],
         "stage would apply substages worth 299999700 units"),
        (None, ["validate", "K[pi/3]", "--stage", "12"],
         "stage would produce 16777216 segments, over the budget of 10000000"),
        (None, ["validate", "C[1/2]^9999999", "--stage", "1"],
         "stage would apply substages worth 2999999700 units"),
        # one segment at any stage: only the substage applications are over
        (None, ["render", "C[1/2]", "--stage", _BIG, "-o", "x.svg"],
         "stage would apply substages worth about 10^402.477 units"),
    ],
)
def test_each_kind_of_work_is_charged_before_any_work(
    tmp_path, monkeypatch, no_work, budget, args, message
):
    monkeypatch.chdir(tmp_path)
    if budget:
        monkeypatch.setenv("FRACTALC_SEGMENT_BUDGET", budget)
    result = run_cli(args)
    assert result.exit_code == 4, result.output
    assert result.stderr.startswith(f"error: {message}")
    assert not (tmp_path / "x.svg").exists()


def test_census_digits_are_charged_before_any_work(int_digit_limit, no_work):
    int_digit_limit(4300)
    result = run_cli(["census", "C[1/2,1/2]", "--stage", "14285"])
    assert result.exit_code == 4, result.output
    assert result.stderr.startswith("error: the total count has 4301 decimal digits")


@pytest.mark.parametrize(
    "args",
    [["census", "K[pi/3]", "--stage", "1"], ["stats", "C[1/2]", "--stage", "1"],
     ["render", "K[pi/3]", "--stage", "1", "-o", "x.svg"], ["validate", "K[pi/3]", "--stage", "1"]],
)
def test_work_within_the_budget_reaches_the_patched_work(tmp_path, monkeypatch, no_work, args):
    # the runs above exit 4 before any work, not because the patch is missed
    monkeypatch.chdir(tmp_path)
    result = run_cli(args)
    assert isinstance(result.exception, AssertionError), result.output


@pytest.mark.parametrize("value", ["-1", "0", "nan"])
@pytest.mark.parametrize(
    "args",
    [
        ["census", "K[pi/3]"],
        ["validate", "K[pi/3]"],
        ["render", "K[pi/3]", "-o", "never.svg"],
    ],
)
def test_bad_initiator_length_exits_2(args, value):
    result = run_cli(args + ["--stage", "1", "--l0", value])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "--l0" in result.stderr and "Traceback" not in result.output


# figures whose coordinates overflow to inf or nan within a few stages, and
# one so small that 1e-12 of its size, the overlap check's eps, reads 0.0
_HUGE_FIGURES = [
    ("G[(0.9,3.1,draw);(0.9,0,draw)]", "3", "1.5e308"),
    ("G[(0.9,1.5,draw);(0.9,-1.5,draw)]", "4", "1.7e308"),
    ("K[pi/3]", "2", "5e-324"),
]

# figures with one long piece beside tens of thousands of short ones: an
# overlap check that pairs the short ones quadratically runs past the cap
# (59,049 segments, under the fuzz budget)
_CROWDED_FIGURES = [("G[(0.8,0,draw);(0.1,1.5,draw);(0.1,-1.5,draw)]", "10")]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("expression,stage,l0", _HUGE_FIGURES)
@pytest.mark.parametrize("command", ["render", "validate"])
def test_figure_beyond_float_range_exits_2(tmp_path, command, expression, stage, l0):
    out, csv = tmp_path / "out.svg", tmp_path / "out.csv"
    args = [command, expression, "--stage", stage, "--l0", l0]
    if command == "render":
        args += ["-o", str(out), "--csv", str(csv)]
    result = run_cli(args)
    assert result.exit_code == 2, result.output
    assert result.stdout == "" and not out.exists() and not csv.exists()
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "float range" in lines[0]


@pytest.mark.parametrize("command", ["census", "stats"])
def test_underflowed_lengths_warn_without_traceback(command):
    # stage-110 lengths of C[1/1000] are ~1e-330, below the smallest double
    result = run_cli([command, "C[1/1000] C[1/2,1/4]", "--stage", "110"])
    assert result.exit_code == 0, result.output
    assert result.exception is None
    json.loads(result.stdout)
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning:")
    assert "below the float range" in lines[0]
    quiet = run_cli([command, "C[1/1000] C[1/2,1/4]", "--stage", "80"])
    assert quiet.exit_code == 0 and quiet.stderr == ""


def test_census_warns_when_lengths_underflow_before_scaling():
    # 0.001**110 underflows before the census scales by L0, so the 1e-30
    # length reads 0.0 and must be flagged; at stage 100 it stays 1.0
    result = run_cli(["census", "C[1/1000]", "--stage", "110", "--l0", "1e300"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["buckets"][-1]["length"] == 0.0
    assert result.stderr.startswith("warning:")
    quiet = run_cli(["census", "C[1/1000]", "--stage", "100", "--l0", "1e300"])
    assert quiet.exit_code == 0 and quiet.stderr == ""
    assert json.loads(quiet.stdout)["buckets"][-1]["length"] > 0.0


@pytest.mark.parametrize(
    "expression, stage, l0, underflows",
    [
        # lengths of 4000^-k, scaled after they are formed
        ("C[1/1000] C[1/2,1/4]", 60, "1.0", False),
        ("C[1/1000] C[1/2,1/4]", 110, "1.0", True),
        ("C[1/1000] C[1/2,1/4]", 60, "1e+300", False),
        ("C[1/1000] C[1/2,1/4]", 110, "1e+300", True),
        ("C[1/1000] C[1/2,1/4]", 80, "1e-30", False),  # 1e-318, subnormal
        ("C[1/1000] C[1/2,1/4]", 100, "1e-30", True),
        # 3^-678 rounds to the smallest double, 5e-324; 3^-679 to 0.0
        ("C[1/3]", 678, "1.0", False),
        ("C[1/3]", 679, "1.0", True),
    ],
    ids=["60-1.0", "110-1.0", "60-1e+300", "110-1e+300", "80-1e-30", "100-1e-30", "678", "679"],
)
def test_census_warns_iff_its_last_length_reads_zero(expression, stage, l0, underflows):
    result = run_cli(["census", expression, "--stage", str(stage), "--l0", l0])
    assert result.exit_code == 0, result.output
    lengths = [b["length"] for b in json.loads(result.stdout)["buckets"]]
    assert (lengths[-1] == 0.0) == underflows
    assert 0.0 not in lengths[:-1]
    lines = result.stderr.splitlines()
    assert lines == ([_UNDERFLOW.format(stage)] if underflows else []), result.stderr
    if expression == "C[1/3]":
        assert lengths == [0.0 if underflows else 5e-324]
        stats = run_cli(["stats", expression, "--stage", str(stage)])
        assert stats.exit_code == 0 and stats.stderr.splitlines() == lines


# --- validate -----------------------------------------------------------------


def test_validate_koch_passes():
    payload = invoke_json(["validate", "K[pi/3]", "--stage", "6"])
    assert payload["verdict"] == "PASS"
    assert abs(payload["slope"] - payload["theoretical"]) <= payload["tolerance"]
    assert payload["within_tolerance"] is True


def test_validate_reports_failure_without_error_exit():
    # absurdly tight tolerance: verdict FAIL but exit code stays 0
    payload = invoke_json(["validate", "K[pi/3]", "--stage", "6", "--tolerance", "1e-9"]
    )
    assert payload["verdict"] == "FAIL"


@pytest.mark.parametrize(
    "option,value",
    [("--tolerance", "nan"), ("--tolerance", "-1"), ("--tolerance", "inf"),
     ("--min-scale", "nan"), ("--min-scale", "-1"), ("--min-scale", "0"),
     ("--min-scale", "inf")],
)
def test_validate_rejects_bad_tolerance_and_min_scale(option, value):
    result = run_cli(["validate", "K[pi/3]", "--stage", "4", option, value])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Traceback" not in result.output


@pytest.mark.parametrize("value", ["-1", "0", "ten"])
def test_segment_budget_must_be_a_positive_integer(monkeypatch, value):
    monkeypatch.setenv("FRACTALC_SEGMENT_BUDGET", value)
    result = run_cli(["census", "K[pi/3]", "--stage", "2"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: FRACTALC_SEGMENT_BUDGET must be an integer >= 1")


def test_validate_underflowed_shortest_length_names_no_option():
    # the shortest stage-3 length, about 1e-966 * 0.001, reads 0.0, and no
    # --min-scale was set
    args = ["validate", "C[1/1" + "0" * 322 + ",1/2]", "--stage", "3", "--l0", "0.001"]
    result = run_cli(args)
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == "error: the figure's shortest length is below the float range\n"
    assert run_cli(args + ["--min-scale", "1e-5"]).exit_code == 0


def test_validate_box_grid_over_budget_exits_4():
    # rungs down to 1e-12 would walk ~1e12 grid cells along four segments
    result = run_cli(
        ["validate", "K[pi/3]", "--stage", "1", "--scales", "40", "--min-scale", "1e-12"]
    )
    assert result.exit_code == 4
    assert result.stdout == ""
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: box counting")


# --- stats ----------------------------------------------------------------------


def test_stats_report():
    payload = invoke_json(["stats", "C[1/2,1/3] K[pi/3]", "--stage", "4"])
    assert set(payload) == {"alpha", "max_normalization_residual", "factorization_ok"}
    assert payload["factorization_ok"] is True
    assert payload["max_normalization_residual"] < 1e-9


@pytest.mark.parametrize("expression", ["C[1/2,1/2] C[1/1000]", "C[1/2,1/2]"])
def test_stats_counts_beyond_the_float_range(expression):
    # at stage 1030 a count of 2^1030 does not convert to a float: a length
    # that underflowed to 0.0 adds 0, as the warning says, and a positive one
    # adds exp(ln m + alpha ln p), here exactly 1
    result = run_cli(["stats", expression, "--stage", "1030"])
    assert result.exit_code == 0, result.output
    residual = json.loads(result.stdout)["max_normalization_residual"]
    if "1/1000" in expression:
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning:")
        assert "below the float range" in lines[0]
    else:
        assert result.stderr == "" and residual == 0.0


# --- limit ----------------------------------------------------------------------


def test_limit_toward_one_half():
    payload = invoke_json(["limit", "--base", "K[pi/3]", "--target", "1/2", "--n", "1000000"]
    )
    assert payload["error"] <= 0.04
    assert payload["base_dimension"] == pytest.approx(math.log(4) / math.log(3))


def test_limit_rejects_bad_inputs():
    assert run_cli(["limit", "--base", "C[1/2,1/3]", "--target", "1/2", "--n", "100"]).exit_code == 2
    assert run_cli(["limit", "--base", "K[pi/3]", "--target", "x", "--n", "100"]).exit_code == 2
    assert run_cli(["limit", "--base", "K[pi/3]", "--target", "1/2", "--n", "1"]).exit_code == 2
    assert run_cli(["limit", "--base", "K[pi/3] K[pi/4]", "--target", "1/2", "--n", "100"]).exit_code == 2


@pytest.mark.parametrize(
    "target,n",
    [("1e400", "10"), ("1e-400", "10"), ("1/" + "9" * 400, "10"), ("1e308", "1" + "0" * 22)],
    ids=["numerator", "denominator", "fraction", "product"],
)
def test_limit_target_beyond_float_range_exits_2(target, n):
    result = run_cli(["limit", "--base", "K[pi/3]", "--target", target, "--n", n])
    assert result.exit_code == 2
    assert result.stdout == ""
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "float range" in lines[0]


@pytest.mark.parametrize("target", ["1e10000000", "1e-10000000", "2.5e99999999"])
def test_limit_huge_target_exponent_exits_2_at_once(target):
    start = time.perf_counter()
    result = run_cli(["limit", "--base", "K[pi/3]", "--target", target, "--n", "10"])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: a1 * ln n or a2 * ln n is beyond the float range\n"


@pytest.mark.parametrize(
    "target,n,message",
    [("0e10000000", "10", "target must be a positive rational"),
     ("-1e10000000", "10", "target must be a positive rational"),
     ("3/2e10000000", "10", "target must be a positive rational"),
     ("1e10000000", "1", "n must be >= 2")],
)
def test_limit_huge_target_exponent_keeps_the_first_error(target, n, message):
    result = run_cli(["limit", "--base", "K[pi/3]", "--target", target, "--n", n])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {message}")


def test_limit_tiny_base_ratio():
    d = str(10**322)
    payload = invoke_json(["limit", "--base", f"C[1/{d},1/{d}]", "--target", "3/2", "--n", "10"]
    )
    with mpmath.workdps(50):
        ln10 = mpmath.log(10)
        want = (mpmath.log(2) + 3 * ln10) / (-mpmath.log(mpmath.mpf(1e-322)) + 2 * ln10)
    assert payload["alpha"] == pytest.approx(float(want), rel=4e-16)
    assert payload["error"] == pytest.approx(1.5 - float(want), rel=1e-15)


def test_usage_error_exit_code(tmp_path):
    assert run_cli(["dim"]).exit_code == 2
    assert run_cli(["nonsense"]).exit_code == 2
    # an output path that names an existing directory is argparse's error
    for out in (["-o", str(tmp_path)], ["-o", "out.svg", "--csv", str(tmp_path)]):
        result = run_cli(["render", "K[pi/3]", *out])
        assert result.exit_code == 2 and result.stdout == ""
        assert f"{str(tmp_path)!r} is a directory" in result.stderr


# --- one boundary maps library errors to exits; any other exception is a bug -----

@pytest.mark.parametrize(
    "expression,message",
    [(f"C[1/{_BIG}]", "invalid schedule: scale factor 0.0 outside (0, 1)"),
     (f"G[(1/{_BIG},0,draw)]", "invalid schedule: scale factor 0.0 outside (0, 1)"),
     (f"K[pi/{_BIG}]", "invalid schedule: Koch angle must lie in (0, pi/2), got 0.0"),
     ("G[(1/2,0,pen)]",
      "cannot parse expression: expected a pen state 'pen' at byte 9 (expected draw, gap)"),
     ("C[1/0]", "cannot parse expression: ratio denominator must be nonzero"),
     ("C[1/²]", "cannot parse expression: unexpected character '²' at byte 4")],
    ids=lambda text: text if len(text) < 30 else text[:12] + "...",
)
def test_rejected_expressions_exit_2_with_one_error_line(tmp_path, monkeypatch,
                                                        expression, message):
    monkeypatch.chdir(tmp_path)
    for command, *options in (["dim"], ["census"], ["stats"], ["validate"],
                              ["render", "-o", "out.svg"]):
        result = run_cli([command, expression, *options])
        assert result.exit_code == 2, (command, result.output, result.exception)
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"


def _raiser(exc):
    def raise_it(*args, **kwargs):
        raise exc

    return raise_it


def test_the_boundary_lets_other_exceptions_through(monkeypatch):
    # a ValueError from the library is a bug, not "invalid schedule: boom"
    bug = ValueError("boom")
    monkeypatch.setattr(fc.schedule, "schedule_from_text", _raiser(bug))
    result = run_cli(["dim", "K[pi/3]"])
    assert result.exception is bug
    assert result.exit_code == 1 and result.stderr == ""


def test_render_reports_only_its_writes_as_unwritable(tmp_path, monkeypatch):
    bug = OSError("disk on fire")
    monkeypatch.setattr(fc.geometry, "iterate", _raiser(bug))
    result = run_cli(["render", "K[pi/3]", "-o", str(tmp_path / "k.svg")])
    assert result.exception is bug
    assert "cannot write output" not in result.stderr


# --- each command loads only the modules it runs ----------------------------------

_SRC = str(Path(fc.__file__).resolve().parent.parent)
# where numpy is installed: on the path of a run under -S, which skips `site`
_NUMPY_HOME = str(Path(np.__file__).resolve().parent.parent)


def _run_python(args, cwd, timeout=60):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, _NUMPY_HOME, env.get("PYTHONPATH")]))
    env.pop("FRACTALC_SEGMENT_BUDGET", None)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout
    )


def _imported_modules(importtime_stderr: str) -> list[str]:
    """The modules of `-X importtime` lines, in the order their imports ended."""
    return [
        line.rsplit("|", 1)[1].strip()
        for line in importtime_stderr.splitlines()
        if line.startswith("import time:")
    ]


_NUMPY, _GEOMETRY, _BOXCOUNT, _INCSTATS, _CENSUS = (
    "numpy", "fractalc.geometry", "fractalc.boxcount", "fractalc.incstats", "fractalc.census"
)
_ANALYTIC = (_NUMPY, _GEOMETRY, _BOXCOUNT, _INCSTATS)
# no command starts with click or dataclasses; inspect is checked only where
# numpy, which imports it, stays unloaded
_FRONT_END = ("click", "dataclasses")
_INSPECT = "inspect"
# a site hook may load typing before fractalc, so the probe runs under -S,
# and only the imports from fractalc's own line on count for it
_TYPING = "typing"
# np.unique would load numpy.ma for its masked-array check; numpy 1.x imports
# it with numpy itself, so there it is not checked
_NUMPY_MA = ("numpy.ma",) if int(np.__version__.split(".")[0]) >= 2 else ()


@pytest.mark.parametrize(
    "args,code,unloaded",
    [
        (["dim", "C[1/2,1/3] K[pi/3]"], 0,
         (*_ANALYTIC, _CENSUS, *_FRONT_END, _INSPECT, _TYPING)),
        (["census", "C[1/2,1/3] K[pi/3]", "--stage", "6"], 0,
         (*_ANALYTIC, *_FRONT_END, _INSPECT, _TYPING)),
        (["stats", "C[1/2,1/3] K[pi/3]", "--stage", "4"], 0,
         (_NUMPY, _GEOMETRY, _BOXCOUNT, *_FRONT_END, _INSPECT, _TYPING)),
        (["limit", "--base", "K[pi/3]", "--target", "3/2", "--n", "1000"], 0,
         (*_ANALYTIC, _CENSUS, *_FRONT_END, _INSPECT, _TYPING)),
        (["dim", "C[1/2,1/3] K[pi/3"], 2,
         (*_ANALYTIC, _CENSUS, *_FRONT_END, _INSPECT, _TYPING)),
        (["render", "K[pi/3]", "--stage", "12", "-o", "big.svg"], 4,
         (*_ANALYTIC, _CENSUS, *_FRONT_END, _INSPECT, _TYPING)),
        (["render", "K[pi/3]", "--stage", "2", "-o", "k.svg", "--csv", "k.csv"], 0,
         (_BOXCOUNT, _INCSTATS, *_FRONT_END, *_NUMPY_MA)),
        (["validate", "K[pi/3]", "--stage", "5"], 0, (_INCSTATS, *_FRONT_END, *_NUMPY_MA)),
    ],
    ids=["dim", "census", "stats", "limit", "dim-parse-error", "render-over-budget", "render",
         "validate"],
)
def test_analytic_commands_do_not_import_numpy(tmp_path, args, code, unloaded):
    result = _run_python(["-S", "-X", "importtime", "-m", "fractalc.cli", *args], tmp_path)
    assert result.returncode == code, result.stderr
    modules = _imported_modules(result.stderr)
    assert "fractalc.schedule" in modules
    # the commands that build a census load it, so a renamed module fails here
    assert (_CENSUS in modules) == (_CENSUS not in unloaded)
    late = modules[modules.index("fractalc"):]
    assert not [m for u in unloaded for m in (late if u == _TYPING else modules)
                if m == u or m.startswith(u + ".")]


def test_package_import_leaves_numpy_unloaded(tmp_path):
    script = (
        "import sys\n"
        "import fractalc as fc\n"
        "assert not [m for m in sys.modules if m.startswith('fractalc.')], sorted(sys.modules)\n"
        "for name in fc.__all__:\n"
        "    getattr(fc, name)\n"
        "assert set(fc.__all__) <= set(dir(fc))\n"
        "assert fc.geometry.build_schedule is fc.build_schedule\n"
        "assert fc.geometry.segment_census is fc.segment_census\n"
        "assert not hasattr(fc, 'no_such_name')\n"
        "assert 'numpy' not in sys.modules\n"
        "s = fc.iterate(fc.schedule_from_text('K[pi/3]'), 4)\n"
        "print(len(s), fc.estimate_dimension(s).slope)\n"
    )
    result = _run_python(["-c", script], tmp_path)
    assert result.returncode == 0, result.stderr
    count, slope = result.stdout.split()
    assert int(count) == 256
    assert float(slope) == pytest.approx(math.log(4) / math.log(3), abs=0.1)


# --- CLI fuzz: every accepted input answers or exits 2 or 4 ------------------------

_FUZZ_CAP_S = 5.0
_FUZZ_BUDGET = 200_000
# the largest stage-3 figure whose lengths the census check builds
_FUZZ_FIGURE_CAP = 50_000
_FUZZ_FIGURE_SUBSTAGES = 100
# absolute: the stats residual against its 50-digit sum, and the validate
# slope against its least-squares fit; the largest gaps over the fuzz's 52
# stats and 17 validate answers were 5.1e-16 and 8.9e-16
_RESIDUAL_TOLERANCE = 1e-13
_SLOPE_TOLERANCE = 1e-12
_TINY = "1/" + str(10**322)

# huge repeats, one-piece components, tiny ratios
_EDGE_EXPRESSIONS = [
    "K[pi/3]^" + "9" * 30,
    "C[1/2,1/3]^100000",
    "C[1/2,1/3]^100000 K[pi/3]",
    "C[1/2,1/3]^100000000000000000000 C[1/2,1/4]",
    "C[1/2]",
    "C[1/2]^" + "9" * 20,
    "C[1/2]^1000 K[pi/3]",
    "G[(0.5,0,draw)]",
    "G[(0.5,0,draw);(0.3,1,gap)]",
    f"C[{_TINY},{_TINY}]",
    f"C[{_TINY}] C[1/2,1/4]",
    "C[1/1000] C[1/2,1/4]",
    "C[0.999999999]",
    "K[0.000001]",
    "G[(0.999,0,draw);(0.001,3.14,draw)]",
    f"K[pi/{_BIG}]",
    f"G[(1/2,pi/{_BIG},draw);(1/2,0,draw)]",
    "C[1/²]",
]

# the initiator lengths of the stage-3 census calls, drawn by the fuzz's rng,
# and of the stage-3 render calls, drawn by their own so that the census draws
# stay as they were
_CENSUS_L0 = ("1e-3", "0.4", "1.0", "2.5", "1e3")
_RENDER_L0 = ("1e-3", "1.0", "1e3", "1e9", "1e11")

_LIMIT_EDGES = [
    ["--base", "K[pi/3]", "--target", "1e400", "--n", "10"],
    ["--base", "K[pi/3]", "--target", "1e-400", "--n", "10"],
    ["--base", "K[pi/3]", "--target", "1e308", "--n", "1" + "0" * 22],
    ["--base", "K[pi/3]", "--target", "1e10000000", "--n", "10"],
    ["--base", "K[pi/3]", "--target", "1e-10000000", "--n", "10"],
    ["--base", "K[pi/3]", "--target", "3/2", "--n", "1" + "0" * 300],
    ["--base", "K[pi/3]", "--target", "3/2", "--n", "9" * 5000],
    ["--base", "K[pi/3]", "--target", "0/1", "--n", "10"],
    ["--base", "K[pi/3]", "--target", "1/0", "--n", "10"],
    ["--base", f"C[{_TINY},{_TINY}]", "--target", "3/2", "--n", "10"],
    ["--base", f"C[{_TINY}]", "--target", "3/2", "--n", "10"],
    ["--base", "C[1/2]^" + "9" * 20, "--target", "3/2", "--n", "10"],
]


def _fuzz_invocations():
    rng = random.Random(2024)
    render_rng = random.Random(2025)
    expressions = [format_expr(random_schedule_expr(rng)) for _ in range(120)] + _EDGE_EXPRESSIONS
    for text in expressions:
        yield ["dim", text]
        yield ["census", text, "--stage", "3", "--l0", rng.choice(_CENSUS_L0)]
        yield ["stats", text, "--stage", "3"]
        yield ["validate", text, "--stage", "4"]
        yield ["render", text, "--stage", "3", "--l0", render_rng.choice(_RENDER_L0),
               "-o", "fuzz.svg", "--csv", "fuzz.csv"]
    for text in _EDGE_EXPRESSIONS:
        yield ["census", text, "--stage", "110"]
        yield ["stats", text, "--stage", "110"]
    for text, stage, l0 in _HUGE_FIGURES:
        yield ["validate", text, "--stage", stage, "--l0", l0]
        yield ["render", text, "--stage", stage, "--l0", l0, "-o", "fuzz.svg", "--csv", "fuzz.csv"]
    for text, stage in _CROWDED_FIGURES:
        yield ["render", text, "--stage", stage, "-o", "fuzz.svg", "--csv", "fuzz.csv"]
    for args in _LIMIT_EDGES:
        yield ["limit", *args]
    yield ["dim", f"C[1/2,1/3]^{_BIG} C[1/2,1/4]"]
    yield ["census", "C[1/2]", "--stage", _BIG]
    yield ["stats", "C[1/2]", "--stage", _BIG]


def _check_census_payload(args, stdout) -> bool:
    """A stage-3 `census` payload against the count law; against the lengths of
    `iterate` where the figure has at most _FUZZ_FIGURE_CAP segments and
    _FUZZ_FIGURE_SUBSTAGES substage applications, the one oracle that does not
    share the multinomial law; and against the loop reference where its
    compositions before equal ratios fold are within the fuzz's budget. True
    when the `iterate` check ran."""
    _, text, _, stage, _, l0 = args
    k = int(stage)
    sched = fc.schedule_from_text(text)
    payload = json.loads(stdout)
    buckets = [(b["length"], b["count"]) for b in payload["buckets"]]
    count = sched.predicted_count(k)
    assert payload["total_count"] == sum(c for _, c in buckets) == count, args
    applications = k * sum(n for _, n in sched.items)
    built = count <= _FUZZ_FIGURE_CAP and applications <= _FUZZ_FIGURE_SUBSTAGES
    if built:
        lengths = fc.iterate(sched, k, L0=float(l0)).lengths
        assert_merged_close(buckets, histogram_of_lengths(lengths))
    if census_size(sched, k) <= _FUZZ_BUDGET:
        assert_merged_close(buckets, reference_segment_census(sched, k, float(l0)))
    return built


@functools.cache
def _moran_root(text):
    return mpmath_root(fc.schedule_from_text(text).spectrum().components)


def _check_alpha(args, alpha, method):
    """An alpha against the 50-digit root of the Moran equation: within 4 ulps,
    or 1e-9 relative where `dim` names the binary closed form its method."""
    want = _moran_root(args[1])
    if method == "binary-analytic":
        assert abs(mpmath.mpf(alpha) - want) <= 1e-9 * want, (args, alpha)
    elif want == 0:
        assert alpha == 0.0, args
    else:
        assert abs(mpmath.mpf(alpha) - want) <= 4 * math.ulp(float(want)), (args, alpha)


def _check_dim_payload(args, stdout):
    """A `dim` payload's alpha against the 50-digit root; returns its method."""
    payload = json.loads(stdout)
    _check_alpha(args, payload["alpha"], payload["method"])
    return payload["method"]


def _check_warning(args, stderr, lengths):
    """One underflow `warning:` line on stderr iff a length reads 0.0, else nothing."""
    want = [_UNDERFLOW.format(args[3])] if 0.0 in lengths else []
    assert stderr.splitlines() == want, (args, stderr)


def _check_stats_payload(args, result, method):
    """A `stats` payload: alpha as for `dim`; where the loop reference's
    compositions before equal ratios fold, summed over stages 0..k, are
    within the fuzz's budget, the residual against the largest
    |sum m p^alpha - 1| over the reference census at stages 1..k, summed in 50
    digits at the printed alpha, and the warning against the stage-k reference
    census's lengths."""
    _, text, _, stage = args
    sched, k = fc.schedule_from_text(text), int(stage)
    payload = json.loads(result.stdout)
    alpha = payload["alpha"]
    _check_alpha(args, alpha, method)
    if sum(census_size(sched, s) for s in range(k + 1)) > _FUZZ_BUDGET:
        return
    want = 0
    with mpmath.workdps(50):
        for s in range(1, k + 1):
            census = reference_segment_census(sched, s)
            total = mpmath.fsum(c * mpmath.mpf(v) ** alpha for v, c in census)
            want = max(want, abs(total - 1))
    got = payload["max_normalization_residual"]
    assert abs(got - want) <= _RESIDUAL_TOLERANCE, (args, got, want)
    _check_warning(args, result.stderr, [v for v, _ in census])


def _check_validate_payload(args, stdout, method):
    """A `validate` payload: `theoretical` as for `dim`; the counts against the
    loop box counts over the payload's scales, and the slope against a least-
    squares fit of them, the two coarsest left out from six scales up."""
    _, text, _, stage = args
    payload = json.loads(stdout)
    _check_alpha(args, payload["theoretical"], method)
    scales = payload["scales"]
    counts = reference_counts(fc.iterate(fc.schedule_from_text(text), int(stage)), scales)
    assert payload["counts"] == list(counts), args
    skip = 2 if len(scales) >= 6 else 0
    x = [-math.log(eps) for eps in scales[skip:]]
    y = [math.log(count) for count in counts[skip:]]
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    slope = math.fsum((a - x_mean) * (b - y_mean) for a, b in zip(x, y)) / math.fsum(
        (a - x_mean) ** 2 for a in x
    )
    assert abs(payload["slope"] - slope) <= _SLOPE_TOLERANCE, (args, payload["slope"], slope)


def _check_render_payload(args, stdout):
    """A stage-3 `render` payload against the count law and the loop census,
    and its SVG and CSV files against the loop exports of the same figure."""
    _, text, _, stage, _, l0, *_ = args
    sched, k, L0 = fc.schedule_from_text(text), int(stage), float(l0)
    payload = json.loads(stdout)
    assert payload["segments"] == sched.predicted_count(k), args
    want = math.fsum(v * c for v, c in reference_segment_census(sched, k, L0))
    assert payload["total_length"] == pytest.approx(want, rel=1e-12, abs=0.0), args
    s = fc.iterate(sched, k, L0)
    reference_export_svg(s, "want.svg")
    reference_export_csv(s, "want.csv")
    assert Path("fuzz.svg").read_bytes() == Path("want.svg").read_bytes(), args
    assert Path("fuzz.csv").read_bytes() == Path("want.csv").read_bytes(), args


class _CapExceeded(Exception):
    """Not an OSError (as TimeoutError is), which `render` reports as exit 2."""


def _cap_exceeded(signum, frame):
    raise _CapExceeded(f"over the {_FUZZ_CAP_S} s cap")


def test_cli_fuzz_exits_only_with_documented_codes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FRACTALC_SEGMENT_BUDGET", str(_FUZZ_BUDGET))
    previous = signal.signal(signal.SIGALRM, _cap_exceeded)
    # each expression's `dim` method, from its `dim` run, which comes first
    methods = {}
    built = 0
    try:
        for args in _fuzz_invocations():
            signal.setitimer(signal.ITIMER_REAL, _FUZZ_CAP_S)
            try:
                result = run_cli(args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            assert result.exit_code in (0, 2, 4), (args, result.output, result.exception)
            assert result.exception is None or isinstance(result.exception, SystemExit), args
            assert "Traceback" not in result.output, args
            if result.exit_code != 0:
                continue
            if args[0] == "census":
                lengths = [b["length"] for b in json.loads(result.stdout)["buckets"]]
                _check_warning(args, result.stderr, lengths)
                if args[3] == "3":
                    built += _check_census_payload(args, result.stdout)
            elif args[0] == "stats":
                _check_stats_payload(args, result, methods[args[1]])
            elif args[0] == "validate":
                _check_validate_payload(args, result.stdout, methods[args[1]])
            elif args[0] == "render" and args[3] == "3" and args[4] == "--l0":
                _check_render_payload(args, result.stdout)
            elif args[0] == "dim":
                methods[args[1]] = _check_dim_payload(args, result.stdout)
    finally:
        signal.signal(signal.SIGALRM, previous)
    # the census payloads checked against `iterate`'s lengths
    assert built >= 25

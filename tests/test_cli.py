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
import pytest
from click.testing import CliRunner

import fractalc as fc
from fractalc.cli import main
from fractalc.parser import format as format_expr
from helpers import STATS_CORPUS, fuzz_cases, random_schedule_expr


@pytest.fixture()
def runner():
    # click before 8.2 mixes stderr into the output unless told not to; from
    # 8.2 on stderr is always kept apart and `mix_stderr` is gone
    try:
        return CliRunner(mix_stderr=False)
    except TypeError:
        return CliRunner()


def invoke_json(runner, args, **kwargs):
    result = runner.invoke(main, args, **kwargs)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


# --- dim --------------------------------------------------------------------


def test_dim_koch(runner):
    payload = invoke_json(runner, ["dim", "K[pi/3]"])
    assert payload["method"] == "closed-form"
    assert payload["alpha"] == pytest.approx(math.log(4) / math.log(3), abs=1e-12)
    assert set(payload) == {"alpha", "method", "residual", "bounds", "component_dimensions"}


def test_dim_repeated_schedule(runner):
    payload = invoke_json(runner, ["dim", "C[1/3,1/3] K[pi/3]^2"])
    assert payload["alpha"] == pytest.approx(1.0515495892857625, abs=1e-12)
    assert payload["method"] == "closed-form"


def test_dim_binary_analytic_with_check(runner):
    payload = invoke_json(runner, ["dim", "C[1/2,1/12] K[pi/3]", "--check"])
    assert payload["method"] == "binary-analytic"
    assert payload["alpha"] == pytest.approx(0.8787567721117389, abs=1e-12)
    assert payload["check"]["difference"] <= 1e-9


def test_dim_multifractal_numeric(runner):
    payload = invoke_json(runner, ["dim", "C[1/2,1/3] K[pi/3]"])
    assert payload["method"] == "moran-numeric"
    assert payload["alpha"] == pytest.approx(1.053951276533946, abs=1e-9)
    assert abs(payload["residual"]) <= 1e-12
    lo, hi = payload["bounds"]
    assert lo <= payload["alpha"] <= hi


def test_dim_closed_form_only_rejects_multifractal(runner):
    result = runner.invoke(main, ["dim", "C[1/2,1/3] K[pi/3]", "--closed-form-only"])
    assert result.exit_code == 2
    ok = runner.invoke(main, ["dim", "K[pi/3]", "--closed-form-only"])
    assert ok.exit_code == 0


def test_dim_parse_error_exits_2(runner):
    result = runner.invoke(main, ["dim", "K[pi"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["dim", "Q[pi/3]"])
    assert result.exit_code == 2


def test_dim_human_mode(runner):
    result = runner.invoke(main, ["dim", "K[pi/3]", "--human"])
    assert result.exit_code == 0
    assert "alpha" in result.output
    assert "1.26186" in result.output


def test_dim_deterministic(runner):
    first = runner.invoke(main, ["dim", "C[1/2,1/3] K[pi/3]"]).output
    second = runner.invoke(main, ["dim", "C[1/2,1/3] K[pi/3]"]).output
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


def test_dim_stats_and_validate_report_one_alpha(runner):
    # every command takes alpha from the one dispatcher, and the component
    # dimensions behind the bounds come from it too
    validated = 0
    for text, k in _agreement_cases().items():
        dim = invoke_json(runner, ["dim", text])
        lo, hi = dim["bounds"]
        assert lo <= dim["alpha"] <= hi, text
        stats = invoke_json(runner, ["stats", text, "--stage", str(k)])
        assert stats["alpha"] == dim["alpha"], text
        result = runner.invoke(
            main, ["validate", text, "--stage", "3"], env={"FRACTALC_SEGMENT_BUDGET": "20000"}
        )
        if result.exit_code == 0:
            assert json.loads(result.stdout)["theoretical"] == dim["alpha"], text
            validated += 1
    assert validated >= 20
    koch = invoke_json(runner, ["dim", "K[pi/3]"])
    assert koch["bounds"] == [koch["alpha"], koch["alpha"]]


def test_overflowing_repeat_count_answers(runner):
    # (1/2^a + 1/3^a)^100000 overflows a double; the log form does not
    alpha = invoke_json(runner, ["dim", "C[1/2,1/3]"])["alpha"]
    assert invoke_json(runner, ["dim", "C[1/2,1/3]^100000"])["alpha"] == alpha
    stats = invoke_json(runner, ["stats", "C[1/2,1/3]^100000", "--stage", "0"])
    assert stats["alpha"] == alpha
    result = runner.invoke(main, ["dim", "C[1/2,1/3]^100000 K[pi/3]"])
    assert result.exit_code in (0, 3), result.output
    if result.exit_code == 3:
        assert result.stderr.startswith("error: residual")
    # stage 0 is a single segment, too coarse for a box-counting ladder
    result = runner.invoke(main, ["validate", "C[1/2,1/3]^100000", "--stage", "0"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ladder")


# --- render -----------------------------------------------------------------


def test_render_writes_deterministic_svg(runner, tmp_path):
    out = tmp_path / "koch.svg"
    payload = invoke_json(
        runner, ["render", "K[pi/3]", "--stage", "3", "-o", str(out)]
    )
    assert payload["segments"] == 64
    assert payload["overlapping"] is False
    first = out.read_bytes()
    invoke_json(runner, ["render", "K[pi/3]", "--stage", "3", "-o", str(out)])
    assert out.read_bytes() == first
    assert b"<polyline" in first


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("l0", ["1e20", "1e200"])
def test_render_overlap_verdict_does_not_depend_on_l0(runner, tmp_path, l0):
    out = tmp_path / "koch.svg"
    result = runner.invoke(main, ["render", "K[pi/3]", "--stage", "3", "--l0", l0, "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["overlapping"] is False
    assert result.stderr == ""


def test_render_three_generator_composition(runner, tmp_path):
    out = tmp_path / "composite.svg"
    payload = invoke_json(
        runner,
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


def test_render_unwritable_path_exits_2(runner, tmp_path):
    result = runner.invoke(
        main,
        ["render", "K[pi/3]", "--stage", "1", "-o", str(tmp_path / "missing" / "x.svg")],
    )
    assert result.exit_code == 2
    assert "cannot write output" in result.stderr


def test_render_csv_dump(runner, tmp_path):
    out, csv = tmp_path / "c.svg", tmp_path / "c.csv"
    payload = invoke_json(
        runner,
        ["render", "C[1/2,1/3] K[pi/3]", "--stage", "1", "-o", str(out), "--csv", str(csv)],
    )
    assert payload["csv"] == str(csv)
    assert len(csv.read_text().strip().splitlines()) == 8


def test_render_budget_from_environment(runner, tmp_path):
    out = tmp_path / "big.svg"
    result = runner.invoke(
        main,
        ["render", "K[pi/3]", "--stage", "8", "-o", str(out)],
        env={"FRACTALC_SEGMENT_BUDGET": "1000"},
    )
    assert result.exit_code == 4
    assert not out.exists()


def test_render_overlap_warning(runner, tmp_path):
    # a draw piece doubling back across the baseline piece after a gap
    expr = "G[(0.9,0,draw);(0.5,3.1,gap);(0.5,-0.05,draw)]"
    out = tmp_path / "crossing.svg"
    result = runner.invoke(main, ["render", expr, "--stage", "1", "-o", str(out)])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["overlapping"] is True
    assert "upper bound" in result.stderr
    quiet = runner.invoke(
        main, ["render", expr, "--stage", "1", "-o", str(out), "--no-warn-overlap"]
    )
    assert quiet.exit_code == 0
    assert "upper bound" not in quiet.stderr


# --- census -----------------------------------------------------------------


def test_census_json(runner):
    payload = invoke_json(runner, ["census", "C[1/2,1/3] K[pi/3]", "--stage", "2"])
    assert payload["total_count"] == 64
    assert [b["count"] for b in payload["buckets"]] == [16, 32, 16]


def test_census_human(runner):
    result = runner.invoke(main, ["census", "K[pi/3]", "--stage", "2", "--human"])
    assert result.exit_code == 0
    assert "total 16" in result.output


@pytest.mark.parametrize("stage", ["2000", "9" * 1500])
@pytest.mark.parametrize("command", ["census", "stats"])
def test_census_over_budget_exits_4_at_once(runner, command, stage):
    # C(2003, 3) ~ 1.3e9 compositions, over the default budget of 1e7 buckets;
    # a 1500-digit stage gives a count too long to print in digits
    start = time.perf_counter()
    result = runner.invoke(main, [command, "K[pi/3]", "--stage", stage])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 4
    assert result.stdout == ""
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: census would enumerate")


def test_census_budget_from_environment(runner):
    result = runner.invoke(
        main, ["census", "K[pi/3]", "--stage", "8"], env={"FRACTALC_SEGMENT_BUDGET": "100"}
    )
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
def test_negative_stage_exits_2(runner, args):
    result = runner.invoke(main, args + ["--stage", "-1"])
    assert result.exit_code == 2
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "expression,stage",
    [("K[pi/3]", "10000"), ("K[pi/3]^" + "9" * 30, "1"), ("K[pi/3]", "9" * 400)],
)
def test_render_far_over_budget_exits_4(runner, tmp_path, expression, stage):
    out = tmp_path / "big.svg"
    result = runner.invoke(main, ["render", expression, "--stage", stage, "-o", str(out)])
    assert result.exit_code == 4
    assert result.stdout == "" and not out.exists()
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: stage would produce about 10^")


@pytest.mark.parametrize("command", ["render", "validate"])
def test_one_piece_generator_repeats_exit_4_at_once(runner, tmp_path, command):
    # one segment at every stage, but 2 * (10^20 - 1) substage applications
    out = tmp_path / "one.svg"
    args = [command, "C[1/2]^" + "9" * 20, "--stage", "2"]
    if command == "render":
        args += ["-o", str(out)]
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 4
    assert result.stdout == "" and not out.exists()
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: stage would apply ")


@pytest.mark.parametrize("value", ["-1", "0", "nan"])
@pytest.mark.parametrize(
    "args",
    [
        ["census", "K[pi/3]"],
        ["validate", "K[pi/3]"],
        ["render", "K[pi/3]", "-o", "never.svg"],
    ],
)
def test_bad_initiator_length_exits_2(runner, args, value):
    result = runner.invoke(main, args + ["--stage", "1", "--l0", value])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "--l0" in result.stderr and "Traceback" not in result.output


# figures whose coordinates overflow to inf or nan within a few stages
_HUGE_FIGURES = [
    ("G[(0.9,3.1,draw);(0.9,0,draw)]", "3", "1.5e308"),
    ("G[(0.9,1.5,draw);(0.9,-1.5,draw)]", "4", "1.7e308"),
]

# figures with one long piece beside tens of thousands of short ones: an
# overlap check that pairs the short ones quadratically runs past the cap
# (59,049 segments, under the fuzz budget)
_CROWDED_FIGURES = [("G[(0.8,0,draw);(0.1,1.5,draw);(0.1,-1.5,draw)]", "10")]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("expression,stage,l0", _HUGE_FIGURES)
@pytest.mark.parametrize("command", ["render", "validate"])
def test_figure_beyond_float_range_exits_2(runner, tmp_path, command, expression, stage, l0):
    out, csv = tmp_path / "out.svg", tmp_path / "out.csv"
    args = [command, expression, "--stage", stage, "--l0", l0]
    if command == "render":
        args += ["-o", str(out), "--csv", str(csv)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.stdout == "" and not out.exists() and not csv.exists()
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "float range" in lines[0]


@pytest.mark.parametrize("command", ["census", "stats"])
def test_underflowed_lengths_warn_without_traceback(runner, command):
    # stage-110 lengths of C[1/1000] are ~1e-330, below the smallest double
    result = runner.invoke(main, [command, "C[1/1000] C[1/2,1/4]", "--stage", "110"])
    assert result.exit_code == 0, result.output
    assert result.exception is None
    json.loads(result.stdout)
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning:")
    assert "below the float range" in lines[0]
    quiet = runner.invoke(main, [command, "C[1/1000] C[1/2,1/4]", "--stage", "80"])
    assert quiet.exit_code == 0 and quiet.stderr == ""


def test_census_warns_when_lengths_underflow_before_scaling(runner):
    # 0.001**110 underflows before the census scales by L0, so the 1e-30
    # length reads 0.0 and must be flagged; at stage 100 it stays 1.0
    result = runner.invoke(main, ["census", "C[1/1000]", "--stage", "110", "--l0", "1e300"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["buckets"][-1]["length"] == 0.0
    assert result.stderr.startswith("warning:")
    quiet = runner.invoke(main, ["census", "C[1/1000]", "--stage", "100", "--l0", "1e300"])
    assert quiet.exit_code == 0 and quiet.stderr == ""
    assert json.loads(quiet.stdout)["buckets"][-1]["length"] > 0.0


# --- validate -----------------------------------------------------------------


def test_validate_koch_passes(runner):
    payload = invoke_json(runner, ["validate", "K[pi/3]", "--stage", "6"])
    assert payload["verdict"] == "PASS"
    assert abs(payload["slope"] - payload["theoretical"]) <= payload["tolerance"]
    assert payload["within_tolerance"] is True


def test_validate_reports_failure_without_error_exit(runner):
    # absurdly tight tolerance: verdict FAIL but exit code stays 0
    payload = invoke_json(
        runner, ["validate", "K[pi/3]", "--stage", "6", "--tolerance", "1e-9"]
    )
    assert payload["verdict"] == "FAIL"


@pytest.mark.parametrize(
    "option,value",
    [("--tolerance", "nan"), ("--tolerance", "-1"), ("--tolerance", "inf"),
     ("--min-scale", "nan"), ("--min-scale", "-1"), ("--min-scale", "0"),
     ("--min-scale", "inf")],
)
def test_validate_rejects_bad_tolerance_and_min_scale(runner, option, value):
    result = runner.invoke(main, ["validate", "K[pi/3]", "--stage", "4", option, value])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Traceback" not in result.output


@pytest.mark.parametrize("value", ["-1", "0", "ten"])
def test_segment_budget_must_be_a_positive_integer(runner, value):
    result = runner.invoke(
        main, ["census", "K[pi/3]", "--stage", "2"], env={"FRACTALC_SEGMENT_BUDGET": value}
    )
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: FRACTALC_SEGMENT_BUDGET must be an integer >= 1")


def test_validate_box_grid_over_budget_exits_4(runner):
    # rungs down to 1e-12 would walk ~1e12 grid cells along four segments
    result = runner.invoke(
        main, ["validate", "K[pi/3]", "--stage", "1", "--scales", "40", "--min-scale", "1e-12"]
    )
    assert result.exit_code == 4
    assert result.stdout == ""
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: box counting")


# --- stats ----------------------------------------------------------------------


def test_stats_report(runner):
    payload = invoke_json(runner, ["stats", "C[1/2,1/3] K[pi/3]", "--stage", "4"])
    assert set(payload) == {"alpha", "max_normalization_residual", "factorization_ok"}
    assert payload["factorization_ok"] is True
    assert payload["max_normalization_residual"] < 1e-9


# --- limit ----------------------------------------------------------------------


def test_limit_toward_one_half(runner):
    payload = invoke_json(
        runner, ["limit", "--base", "K[pi/3]", "--target", "1/2", "--n", "1000000"]
    )
    assert payload["error"] <= 0.04
    assert payload["base_dimension"] == pytest.approx(math.log(4) / math.log(3))


def test_limit_rejects_bad_inputs(runner):
    assert runner.invoke(main, ["limit", "--base", "C[1/2,1/3]", "--target", "1/2", "--n", "100"]).exit_code == 2
    assert runner.invoke(main, ["limit", "--base", "K[pi/3]", "--target", "x", "--n", "100"]).exit_code == 2
    assert runner.invoke(main, ["limit", "--base", "K[pi/3]", "--target", "1/2", "--n", "1"]).exit_code == 2
    assert runner.invoke(main, ["limit", "--base", "K[pi/3] K[pi/4]", "--target", "1/2", "--n", "100"]).exit_code == 2


@pytest.mark.parametrize(
    "target,n",
    [("1e400", "10"), ("1e-400", "10"), ("1/" + "9" * 400, "10"), ("1e308", "1" + "0" * 22)],
    ids=["numerator", "denominator", "fraction", "product"],
)
def test_limit_target_beyond_float_range_exits_2(runner, target, n):
    result = runner.invoke(main, ["limit", "--base", "K[pi/3]", "--target", target, "--n", n])
    assert result.exit_code == 2
    assert result.stdout == ""
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "float range" in lines[0]


@pytest.mark.parametrize("target", ["1e10000000", "1e-10000000", "2.5e99999999"])
def test_limit_huge_target_exponent_exits_2_at_once(runner, target):
    start = time.perf_counter()
    result = runner.invoke(main, ["limit", "--base", "K[pi/3]", "--target", target, "--n", "10"])
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
def test_limit_huge_target_exponent_keeps_the_first_error(runner, target, n, message):
    result = runner.invoke(main, ["limit", "--base", "K[pi/3]", "--target", target, "--n", n])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {message}")


def test_limit_tiny_base_ratio(runner):
    d = str(10**322)
    payload = invoke_json(
        runner, ["limit", "--base", f"C[1/{d},1/{d}]", "--target", "3/2", "--n", "10"]
    )
    with mpmath.workdps(50):
        ln10 = mpmath.log(10)
        want = (mpmath.log(2) + 3 * ln10) / (-mpmath.log(mpmath.mpf(1e-322)) + 2 * ln10)
    assert payload["alpha"] == pytest.approx(float(want), rel=4e-16)
    assert payload["error"] == pytest.approx(1.5 - float(want), rel=1e-15)


def test_usage_error_exit_code(runner):
    assert runner.invoke(main, ["dim"]).exit_code == 2
    assert runner.invoke(main, ["nonsense"]).exit_code == 2


# --- numpy stays unloaded on the analytic path -----------------------------------

_SRC = str(Path(fc.__file__).resolve().parent.parent)


def _run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )


def _imported_modules(importtime_stderr: str) -> set[str]:
    return {
        line.rsplit("|", 1)[1].strip()
        for line in importtime_stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "args,code",
    [
        (["dim", "C[1/2,1/3] K[pi/3]"], 0),
        (["census", "C[1/2,1/3] K[pi/3]", "--stage", "6"], 0),
        (["stats", "C[1/2,1/3] K[pi/3]", "--stage", "4"], 0),
        (["limit", "--base", "K[pi/3]", "--target", "3/2", "--n", "1000"], 0),
        (["dim", "C[1/2,1/3] K[pi/3"], 2),
        (["render", "K[pi/3]", "--stage", "12", "-o", "big.svg"], 4),
    ],
    ids=["dim", "census", "stats", "limit", "dim-parse-error", "render-over-budget"],
)
def test_analytic_commands_do_not_import_numpy(tmp_path, args, code):
    result = _run_python(["-X", "importtime", "-m", "fractalc.cli", *args], tmp_path)
    assert result.returncode == code, result.stderr
    modules = _imported_modules(result.stderr)
    assert "fractalc.geometry" in modules
    assert not [m for m in modules if m.split(".")[0] == "numpy"]


def test_package_import_leaves_numpy_unloaded(tmp_path):
    script = (
        "import sys\n"
        "import fractalc as fc\n"
        "assert 'numpy' not in sys.modules\n"
        "s = fc.iterate(fc.schedule_from_text('K[pi/3]'), 4)\n"
        "print(len(s), fc.estimate_dimension(s).slope)\n"
    )
    result = _run_python(["-c", script], tmp_path)
    assert result.returncode == 0, result.stderr
    count, slope = result.stdout.split()
    assert int(count) == 256
    assert float(slope) == pytest.approx(math.log(4) / math.log(3), abs=0.1)


# --- CLI fuzz: every accepted input answers or exits 2, 3 or 4 ---------------------

_FUZZ_CAP_S = 5.0
_TINY = "1/" + str(10**322)

# huge repeats, one-piece components, tiny ratios
_EDGE_EXPRESSIONS = [
    "K[pi/3]^" + "9" * 30,
    "C[1/2,1/3]^100000",
    "C[1/2,1/3]^100000 K[pi/3]",
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
]

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
    expressions = [format_expr(random_schedule_expr(rng)) for _ in range(120)] + _EDGE_EXPRESSIONS
    for text in expressions:
        yield ["dim", text]
        yield ["census", text, "--stage", "3"]
        yield ["stats", text, "--stage", "3"]
        yield ["validate", text, "--stage", "4"]
        yield ["render", text, "--stage", "3", "-o", "fuzz.svg", "--csv", "fuzz.csv"]
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


class _CapExceeded(Exception):
    """Not an OSError (as TimeoutError is), which `render` reports as exit 2."""


def _cap_exceeded(signum, frame):
    raise _CapExceeded(f"over the {_FUZZ_CAP_S} s cap")


def test_cli_fuzz_exits_only_with_documented_codes(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    env = {"FRACTALC_SEGMENT_BUDGET": "200000"}
    previous = signal.signal(signal.SIGALRM, _cap_exceeded)
    try:
        for args in _fuzz_invocations():
            signal.setitimer(signal.ITIMER_REAL, _FUZZ_CAP_S)
            try:
                result = runner.invoke(main, args, env=env)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            assert result.exit_code in (0, 2, 3, 4), (args, result.output, result.exception)
            assert result.exception is None or isinstance(result.exception, SystemExit), args
            assert "Traceback" not in result.output, args
    finally:
        signal.signal(signal.SIGALRM, previous)

import json
import math
import time
from decimal import Decimal

import pytest
from click.testing import CliRunner

import fractalc as fc
from fractalc.cli import main
from helpers import STATS_CORPUS, fuzz_cases


@pytest.fixture()
def runner():
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


def test_usage_error_exit_code(runner):
    assert runner.invoke(main, ["dim"]).exit_code == 2
    assert runner.invoke(main, ["nonsense"]).exit_code == 2

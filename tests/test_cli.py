import json
import math

import pytest
from click.testing import CliRunner

from fractalc.cli import main


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

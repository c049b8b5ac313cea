"""Command-line front end: dim, render, census, validate, stats, limit.

Output is JSON on stdout by default (full double precision); `--human` prints
key/value tables with 6 significant digits. Exit codes: 0 ok, 2 usage or bad
expression, 3 solver failure, 4 segment budget exceeded. The environment
variable FRACTALC_SEGMENT_BUDGET overrides the default segment cap.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from fractions import Fraction

import click

from . import boxcount, geometry, incstats, moran
from .errors import (
    DegenerateGeometry,
    FractalcError,
    GeometryOutOfRange,
    ScaleLadderInvalid,
    ScheduleSemanticError,
    ScheduleSyntaxError,
    SegmentBudgetExceeded,
    SolverError,
)

EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_BUDGET = 4

_OVERLAP_CAVEAT = (
    "warning: overlapping segments detected; the composite dimension is only "
    "an upper bound for this figure"
)
_UNDERFLOW_WARNING = (
    "warning: the smallest stage-{} lengths fall below the float range while "
    "the census is computed and read 0.0"
)
# ln of the smallest positive double, 2**-1074
_LOG_TINIEST = math.log(5e-324)
# the decimal exponent of a `limit --target`, as Fraction's syntax allows it
_TARGET_EXPONENT = re.compile(r"[eE]([-+]?)([\d_]+)\s*\Z")


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_schedule(expression: str) -> geometry.CompositionSchedule:
    try:
        return geometry.schedule_from_text(expression)
    except (ScheduleSyntaxError, ScheduleSemanticError) as exc:
        _fail(EXIT_USAGE, f"cannot parse expression: {exc}")
    except (FractalcError, ValueError) as exc:
        _fail(EXIT_USAGE, f"invalid schedule: {exc}")


def _segment_budget() -> int:
    raw = os.environ.get("FRACTALC_SEGMENT_BUDGET")
    if raw is None:
        return geometry.DEFAULT_SEGMENT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        _fail(EXIT_USAGE, f"FRACTALC_SEGMENT_BUDGET must be an integer >= 1, got {raw!r}")
    return budget


def _initiator_length(ctx, param, value: float) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise click.BadParameter(f"must be a finite number > 0, got {value!r}")
    return value


def _tolerance(ctx, param, value: float) -> float:
    if not (math.isfinite(value) and value >= 0.0):
        raise click.BadParameter(f"must be a finite number >= 0, got {value!r}")
    return value


def _warn_underflow(sched: geometry.CompositionSchedule, stage: int, l0: float = 1.0) -> None:
    if geometry.census_log_floor(sched, stage, l0) < _LOG_TINIEST:
        click.echo(_UNDERFLOW_WARNING.format(stage), err=True)


def _emit(payload: dict, human: bool) -> None:
    if not human:
        click.echo(json.dumps(payload, indent=2))
        return
    for key, value in payload.items():
        if isinstance(value, float):
            text = f"{value:.6g}"
        elif isinstance(value, (list, tuple)):
            text = ", ".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in value)
        else:
            text = str(value)
        click.echo(f"{key:<24} {text}")


@click.group()
def main():
    """Composite fractal dimensions from composition-schedule expressions."""


@main.command()
@click.argument("expression")
@click.option("--human", is_flag=True, help="Table output instead of JSON.")
@click.option("--check", is_flag=True, help="Cross-validate closed form against the numeric solver.")
@click.option(
    "--closed-form-only", is_flag=True, help="Fail unless a closed form applies."
)
def dim(expression: str, human: bool, check: bool, closed_form_only: bool):
    """Composite dimension of EXPRESSION (analytic where possible)."""
    sched = _load_schedule(expression)
    spectrum = sched.spectrum()
    try:
        report = moran.dimension(spectrum)
        component_dims = [moran.component_dimension(g.draw_ratios) for g, _ in sched.items]
    except SolverError as exc:
        _fail(EXIT_SOLVER, str(exc))
    closed = report.method != "moran-numeric"
    if closed_form_only and not closed:
        _fail(EXIT_USAGE, "no closed form applies to this schedule")

    payload = {
        "alpha": report.alpha,
        "method": report.method,
        "residual": report.residual,
        "bounds": list(moran.dimension_bounds(component_dims)),
        "component_dimensions": component_dims,
    }
    if check:
        try:
            numeric = moran.solve_moran(spectrum)
        except SolverError as exc:
            _fail(EXIT_SOLVER, str(exc))
        difference = abs(report.alpha - numeric.alpha) if closed else None
        payload["check"] = {
            "closed_form": report.alpha if closed else None,
            "numeric": numeric.alpha,
            "difference": difference,
        }
        if human:
            payload["check"] = (
                f"numeric {numeric.alpha:.6g}"
                + (f", difference {difference:.3g}" if difference is not None else "")
            )
    _emit(payload, human)


@main.command()
@click.argument("expression")
@click.option("--stage", "-k", default=3, show_default=True, type=click.IntRange(min=0),
              help="Full periods to apply.")
@click.option("--output", "-o", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Also dump segments as x1,y1,x2,y2 lines.")
@click.option("--l0", default=1.0, show_default=True, callback=_initiator_length,
              help="Initiator length.")
@click.option("--warn-overlap/--no-warn-overlap", default=True,
              help="Check for self-intersection and print the upper-bound caveat.")
def render(expression: str, stage: int, out_path: str, csv_path: str | None,
           l0: float, warn_overlap: bool):
    """Materialize EXPRESSION at a stage and write an SVG."""
    sched = _load_schedule(expression)
    try:
        segments = geometry.iterate(sched, stage, L0=l0, budget=_segment_budget())
        geometry.export_svg(segments, out_path)
        if csv_path:
            geometry.export_csv(segments, csv_path)
    except SegmentBudgetExceeded as exc:
        _fail(EXIT_BUDGET, str(exc))
    except GeometryOutOfRange as exc:
        _fail(EXIT_USAGE, str(exc))
    except OSError as exc:
        _fail(EXIT_USAGE, f"cannot write output: {exc}")
    overlapping = None
    if warn_overlap:
        overlapping = geometry.detect_overlap(segments)
        if overlapping:
            click.echo(_OVERLAP_CAVEAT, err=True)
    payload = {
        "svg": out_path,
        "stage": stage,
        "segments": len(segments),
        "total_length": geometry.total_length(segments),
        "overlapping": overlapping,
    }
    if csv_path:
        payload["csv"] = csv_path
    _emit(payload, human=False)


@main.command()
@click.argument("expression")
@click.option("--stage", "-k", default=3, show_default=True, type=click.IntRange(min=0))
@click.option("--l0", default=1.0, show_default=True, callback=_initiator_length)
@click.option("--human", is_flag=True)
def census(expression: str, stage: int, l0: float, human: bool):
    """Exact (length, count) table at a stage, via multinomial expansion."""
    sched = _load_schedule(expression)
    try:
        buckets = geometry.segment_census(sched, stage, l0, budget=_segment_budget())
    except SegmentBudgetExceeded as exc:
        _fail(EXIT_BUDGET, str(exc))
    _warn_underflow(sched, stage, l0)
    total = sum(count for _, count in buckets)
    if human:
        click.echo(f"{'length':>24} {'count':>16}")
        for value, count in buckets:
            click.echo(f"{value:>24.12g} {count:>16}")
        click.echo(f"total {total}")
        return
    payload = {
        "stage": stage,
        "total_count": total,
        "buckets": [{"length": value, "count": count} for value, count in buckets],
    }
    click.echo(json.dumps(payload, indent=2))


@main.command()
@click.argument("expression")
@click.option("--stage", "-k", default=8, show_default=True, type=click.IntRange(min=0))
@click.option("--scales", default=10, show_default=True, help="Max rungs of the dyadic ladder.")
@click.option("--min-scale", default=None, type=float,
              help="Finest box size (default: smallest segment length).")
@click.option("--tolerance", default=0.05, show_default=True, callback=_tolerance)
@click.option("--l0", default=1.0, show_default=True, callback=_initiator_length)
@click.option("--human", is_flag=True)
def validate(expression: str, stage: int, scales: int, min_scale: float | None,
             tolerance: float, l0: float, human: bool):
    """Cross-validate the theoretical dimension against empirical box counting."""
    sched = _load_schedule(expression)
    try:
        alpha = moran.dimension(sched.spectrum()).alpha
    except SolverError as exc:
        _fail(EXIT_SOLVER, str(exc))
    budget = _segment_budget()
    try:
        segments = geometry.iterate(sched, stage, L0=l0, budget=budget)
        report = boxcount.estimate_dimension(
            segments, scales, min_scale, theoretical=alpha, budget=budget
        )
    except SegmentBudgetExceeded as exc:
        _fail(EXIT_BUDGET, str(exc))
    except (GeometryOutOfRange, ScaleLadderInvalid, DegenerateGeometry) as exc:
        _fail(EXIT_USAGE, str(exc))
    within = abs(report.slope - alpha) <= tolerance
    payload = {
        **report.to_json_dict(),
        "tolerance": tolerance,
        "within_tolerance": within,
        "verdict": "PASS" if within else "FAIL",
    }
    _emit(payload, human)


@main.command()
@click.argument("expression")
@click.option("--stage", "-k", default=4, show_default=True, type=click.IntRange(min=0))
@click.option("--human", is_flag=True)
def stats(expression: str, stage: int, human: bool):
    """Incomplete-statistics report: normalization and factorization checks."""
    sched = _load_schedule(expression)
    try:
        payload = incstats.stats_report(sched, stage, budget=_segment_budget())
    except SolverError as exc:
        _fail(EXIT_SOLVER, str(exc))
    except SegmentBudgetExceeded as exc:
        _fail(EXIT_BUDGET, str(exc))
    _warn_underflow(sched, stage)
    _emit(payload, human)


def _target_ratio(target: str) -> tuple[int, int]:
    """Numerator and denominator of `target` as Fraction reads it.

    Fraction builds 10**exponent for a decimal exponent, which takes seconds
    for `1e10000000`. An exponent beyond 310 plus the length of the text puts
    the numerator (positive exponent) or the denominator (negative) past
    10**310, more than any double holds; the mantissa scaled by 10**310 then
    stands in, and rational_limit_dimension rejects it the same way.
    """
    match = _TARGET_EXPONENT.search(target)
    if match is not None:
        sign, digits = match.groups()
        exponent = int(sign + digits)
        if abs(exponent) > len(target) + 310:
            # the exponent's digits zeroed, so Fraction still checks the syntax
            zeroed = re.sub(r"\d", "0", digits)
            mantissa = Fraction(target[: match.start(2)] + zeroed + target[match.end(2) :])
            if exponent > 0:
                return mantissa.numerator * 10**310, mantissa.denominator
            return mantissa.numerator, mantissa.denominator * 10**310
    frac = Fraction(target)
    return frac.numerator, frac.denominator


@main.command()
@click.option("--base", required=True, help="Single uniform-generator expression.")
@click.option("--target", required=True, help="Rational target dimension a1/a2.")
@click.option("--n", "n_value", required=True, type=int,
              help="Copies n^a1 at scale n^-a2 for the auxiliary fractal.")
@click.option("--human", is_flag=True)
def limit(base: str, target: str, n_value: int, human: bool):
    """Compose BASE toward a rational dimension with an (n^a1, n^-a2) fractal."""
    sched = _load_schedule(base)
    if len(sched.items) != 1 or sched.items[0][1] != 1:
        _fail(EXIT_USAGE, "base must be a single generator without repeats")
    gen = sched.items[0][0]
    ratios = gen.draw_ratios
    if any(r != ratios[0] for r in ratios):
        _fail(EXIT_USAGE, "base must be a uniform generator (equal scale factors)")
    fractal = moran.UniformFractal(len(ratios), ratios[0])
    try:
        a1, a2 = _target_ratio(target)
        if a1 < 1:
            raise ValueError
    except (ValueError, ZeroDivisionError):
        _fail(EXIT_USAGE, f"target must be a positive rational like 3/2, got {target!r}")
    try:
        alpha = moran.rational_limit_dimension(fractal, a1, a2, n_value)
    except ValueError as exc:
        _fail(EXIT_USAGE, str(exc))
    payload = {
        "alpha": alpha,
        "target": f"{a1}/{a2}",
        "error": abs(alpha - a1 / a2),
        "n": n_value,
        "base_dimension": moran.single_dimension(fractal),
    }
    _emit(payload, human)


if __name__ == "__main__":
    main()

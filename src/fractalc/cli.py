"""Command-line front end: dim, render, census, validate, stats, limit.

Output is JSON on stdout by default (full double precision); `--human` prints
key/value tables with 6 significant digits. Exit codes: 0 ok, 2 usage or bad
expression, 4 segment budget exceeded; the Moran solver cannot fail.
FRACTALC_SEGMENT_BUDGET overrides the budget `work` charges commands against.

The front end is the standard library's argparse, so that a process starts
with no more imports than its command runs. Library errors map to exit codes
in one place, `main`: SegmentBudgetExceeded exits 4, any other FractalcError
2, each with one `error:` line. Any other exception is a bug and ends in a
traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import moran, schedule, work
from .errors import (
    FractalcError,
    ScheduleSemanticError,
    ScheduleSyntaxError,
    SegmentBudgetExceeded,
)

EXIT_USAGE = 2
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
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _load_schedule(expression: str) -> schedule.CompositionSchedule:
    try:
        return schedule.schedule_from_text(expression)
    except (ScheduleSyntaxError, ScheduleSemanticError) as exc:
        _fail(EXIT_USAGE, f"cannot parse expression: {exc}")
    except FractalcError as exc:
        _fail(EXIT_USAGE, f"invalid schedule: {exc}")


def _segment_budget() -> int:
    raw = os.environ.get("FRACTALC_SEGMENT_BUDGET")
    try:
        return work.DEFAULT_SEGMENT_BUDGET if raw is None else _budget(raw)
    except argparse.ArgumentTypeError as exc:
        _fail(EXIT_USAGE, f"FRACTALC_SEGMENT_BUDGET {exc}")


def _checked(convert, accept, requirement: str):
    """An argparse type: `convert` the text, and refuse a value `accept` rejects."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    return parse


_stage = _checked(int, lambda v: v >= 0, "an integer >= 0")
_budget = _checked(int, lambda v: v >= 1, "an integer >= 1")
_initiator_length = _checked(float, lambda v: math.isfinite(v) and v > 0.0, "a finite number > 0")
_tolerance = _checked(float, lambda v: math.isfinite(v) and v >= 0.0, "a finite number >= 0")


def _file_path(text: str) -> str:
    """An output file: refused when it names an existing directory."""
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


def _warn_underflow(sched: schedule.CompositionSchedule, stage: int, l0: float = 1.0) -> None:
    if work.census_log_floor(sched, stage, l0) < _LOG_TINIEST:
        print(_UNDERFLOW_WARNING.format(stage), file=sys.stderr)


def _emit(payload: dict, human: bool) -> None:
    if not human:
        print(json.dumps(payload, indent=2))
        return
    for key, value in payload.items():
        if isinstance(value, float):
            text = f"{value:.6g}"
        elif isinstance(value, (list, tuple)):
            text = ", ".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in value)
        else:
            text = str(value)
        print(f"{key:<24} {text}")


def dim(expression: str, human: bool, check: bool, closed_form_only: bool):
    """Composite dimension of EXPRESSION (analytic where possible)."""
    sched = _load_schedule(expression)
    spectrum = sched.spectrum()
    report = moran.dimension(spectrum)
    numeric = moran.solve_moran(spectrum) if check else None
    component_dims = [moran.component_dimension(g.draw_ratios) for g, _ in sched.items]
    closed = report.method != "moran-numeric"
    if closed_form_only and not closed:
        _fail(EXIT_USAGE, "no closed form applies to this schedule")

    payload = {
        "alpha": report.alpha,
        "method": report.method,
        # inf, from a product past the float range, has no strict-JSON form
        "residual": report.residual if math.isfinite(report.residual) else None,
        "bounds": list(moran.dimension_bounds(component_dims)),
        "component_dimensions": component_dims,
    }
    if check:
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


def render(expression: str, stage: int, out_path: str, csv_path: str | None,
           l0: float, warn_overlap: bool):
    """Materialize EXPRESSION at a stage and write an SVG."""
    from . import geometry
    sched = _load_schedule(expression)
    budget = _segment_budget()
    work.charge_export(sched, stage, budget)
    segments = geometry.iterate(sched, stage, L0=l0, budget=budget)
    try:
        geometry.export_svg(segments, out_path)
        if csv_path:
            geometry.export_csv(segments, csv_path)
    except OSError as exc:
        _fail(EXIT_USAGE, f"cannot write output: {exc}")
    overlapping = None
    if warn_overlap:
        overlapping = geometry.detect_overlap(segments)
        if overlapping:
            print(_OVERLAP_CAVEAT, file=sys.stderr)
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


def census(expression: str, stage: int, l0: float, human: bool):
    """Exact (length, count) table at a stage, via multinomial expansion."""
    sched = _load_schedule(expression)
    work.charge_census(sched, stage, _segment_budget(), printed=True)
    buckets = schedule.build_census(sched, stage, l0)
    _warn_underflow(sched, stage, l0)
    total = sum(count for _, count in buckets)
    if human:
        print(f"{'length':>24} {'count':>16}")
        for value, count in buckets:
            print(f"{value:>24.12g} {count:>16}")
        print(f"total {total}")
        return
    payload = {
        "stage": stage,
        "total_count": total,
        "buckets": [{"length": value, "count": count} for value, count in buckets],
    }
    print(json.dumps(payload, indent=2))


def validate(expression: str, stage: int, scales: int, min_scale: float | None,
             tolerance: float, l0: float, human: bool):
    """Cross-validate the theoretical dimension against empirical box counting."""
    from . import boxcount, geometry
    sched = _load_schedule(expression)
    alpha = moran.dimension(sched.spectrum()).alpha
    budget = _segment_budget()
    segments = geometry.iterate(sched, stage, L0=l0, budget=budget)
    report = boxcount.estimate_dimension(segments, scales, min_scale, budget=budget)
    within = abs(report.slope - alpha) <= tolerance
    payload = {
        **report.to_json_dict(),
        "theoretical": alpha,
        "tolerance": tolerance,
        "within_tolerance": within,
        "verdict": "PASS" if within else "FAIL",
    }
    _emit(payload, human)


def stats(expression: str, stage: int, human: bool):
    """Incomplete-statistics report: normalization and factorization checks."""
    from . import incstats
    sched = _load_schedule(expression)
    payload = incstats.stats_report(sched, stage, budget=_segment_budget())
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
    alpha = moran.rational_limit_dimension(fractal, a1, a2, n_value)
    payload = {
        "alpha": alpha,
        "target": f"{a1}/{a2}",
        "error": abs(alpha - a1 / a2),
        "n": n_value,
        "base_dimension": moran.component_dimension(ratios),
    }
    _emit(payload, human)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that refuses abbreviated options, has `--help` but no
    `-h`, and reads an argument starting with "-" and a digit (`--target
    -3/2`, `--l0 -1e5`) as a value, which the option's own check then refuses
    with its own message; by default argparse reads only plain negative
    numbers so. No option name starts with a digit."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fractalc",
        description="Composite fractal dimensions from composition-schedule expressions.",
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run):
        sub = commands.add_parser(run.__name__, help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    human = {"action": "store_true", "help": "Table output instead of JSON."}
    l0 = {"type": _initiator_length, "default": 1.0,
          "help": "Initiator length. (default: %(default)s)"}

    sub = command(dim)
    sub.add_argument("expression", metavar="EXPRESSION")
    sub.add_argument("--human", **human)
    sub.add_argument("--check", action="store_true",
                     help="Cross-validate closed form against the numeric solver.")
    sub.add_argument("--closed-form-only", action="store_true",
                     help="Fail unless a closed form applies.")

    sub = command(render)
    sub.add_argument("expression", metavar="EXPRESSION")
    sub.add_argument("--stage", "-k", type=_stage, default=3,
                     help="Full periods to apply. (default: %(default)s)")
    sub.add_argument("--output", "-o", dest="out_path", metavar="PATH", required=True,
                     type=_file_path)
    sub.add_argument("--csv", dest="csv_path", metavar="PATH", type=_file_path,
                     help="Also dump segments as x1,y1,x2,y2 lines.")
    sub.add_argument("--l0", **l0)
    sub.add_argument("--warn-overlap", action=argparse.BooleanOptionalAction, default=True,
                     help="Check for self-intersection and print the upper-bound caveat.")

    sub = command(census)
    sub.add_argument("expression", metavar="EXPRESSION")
    sub.add_argument("--stage", "-k", type=_stage, default=3, help="default: %(default)s")
    sub.add_argument("--l0", **l0)
    sub.add_argument("--human", **human)

    sub = command(validate)
    sub.add_argument("expression", metavar="EXPRESSION")
    sub.add_argument("--stage", "-k", type=_stage, default=8, help="default: %(default)s")
    sub.add_argument("--scales", type=int, default=10,
                     help="Max rungs of the dyadic ladder. (default: %(default)s)")
    sub.add_argument("--min-scale", type=float,
                     help="Finest box size (default: smallest segment length).")
    sub.add_argument("--tolerance", type=_tolerance, default=0.05, help="default: %(default)s")
    sub.add_argument("--l0", **l0)
    sub.add_argument("--human", **human)

    sub = command(stats)
    sub.add_argument("expression", metavar="EXPRESSION")
    sub.add_argument("--stage", "-k", type=_stage, default=4, help="default: %(default)s")
    sub.add_argument("--human", **human)

    sub = command(limit)
    sub.add_argument("--base", required=True, help="Single uniform-generator expression.")
    sub.add_argument("--target", required=True, help="Rational target dimension a1/a2.")
    sub.add_argument("--n", dest="n_value", required=True, type=int,
                     help="Copies n^a1 at scale n^-a2 for the auxiliary fractal.")
    sub.add_argument("--human", **human)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command in `argv` (default: sys.argv[1:]); 0 when it succeeds.

    Any other exit is a SystemExit: 2 for a usage error, with argparse's
    usage lines, and the one boundary from library errors to exit codes.
    """
    args = vars(_parser().parse_args(argv))
    run = args.pop("run")
    try:
        run(**args)
    except SegmentBudgetExceeded as exc:
        _fail(EXIT_BUDGET, str(exc))
    except FractalcError as exc:
        _fail(EXIT_USAGE, str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them all
live; pytest shows captured output for failing tests regardless).
"""

import json
import math
import random
import time

import pytest

import fractalc as fc
from fractalc.errors import ScheduleSemanticError, ScheduleSyntaxError
from helpers import (
    census_feasible_stage,
    census_size,
    feasible_stage,
    histogram_of_lengths,
    random_schedule,
    random_schedule_expr,
    random_spectrum,
    random_uniform_parts,
    run_cli,
    segment_set,
    spectrum_of_uniform,
    uniform_dimension,
)

KOCH_DIM = math.log(4) / math.log(3)
CANTOR_DIM = math.log(2) / math.log(3)


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def _dim(expression: str, *flags: str) -> dict:
    result = run_cli(["dim", expression, *flags])
    assert result.exit_code == 0, result.output
    return json.loads(result.stdout)


def test_criterion_1_reference_dimension_regressions():
    cases = [
        ("K[pi/3]", 1.26),
        ("K[pi/4] K[pi/3]", 1.19),
        ("C[1/3,1/3] Q[pi/2] K[pi/3]", 1.12),
        ("C[1/2,1/12] K[pi/3]", 0.88),
        ("C[1/3,1/3] K[pi/3]^2", 1.05),
    ]
    start = time.perf_counter()
    failures = []
    for expression, reported in cases:
        payload = _dim(expression)
        if abs(payload["alpha"] - reported) > 0.005:
            failures.append(f"{expression}: {payload['alpha']:.4f} vs {reported}")
    # the binary special case must agree between closed form and solver
    checked = _dim("C[1/2,1/12] K[pi/3]", "--check")
    if checked["method"] != "binary-analytic":
        failures.append("binary schedule not solved analytically")
    if checked["check"]["difference"] > 1e-9:
        failures.append("closed form and solver disagree beyond 1e-9")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s over 1s budget")
    _criterion(
        "criterion 1: reference-dimension regressions (±0.005, <1s)",
        not failures,
        "; ".join(failures) or f"5 schedules in {elapsed * 1000:.0f}ms",
    )


def test_criterion_2_oracle_equivalence():
    rng = random.Random(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        parts = random_uniform_parts(rng)
        closed = fc.composite_dimension_uniform(parts)
        solved = fc.solve_moran(spectrum_of_uniform(parts)).alpha
        worst = max(worst, abs(closed - solved))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _criterion(
        "criterion 2: solver vs closed form on 1000 uniform spectra (1e-9, <5s)",
        ok,
        f"worst gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_property_suites():
    start = time.perf_counter()
    failures = []

    rng = random.Random(103)
    for _ in range(500):  # bounds
        spectrum = random_spectrum(rng)
        alpha = fc.solve_moran(spectrum).alpha
        lo, hi = fc.dimension_bounds([fc.component_dimension(r) for r, _ in spectrum.components])
        if not lo <= alpha <= hi:
            failures.append("bounds")
            break

    rng = random.Random(107)
    for _ in range(500):  # order invariance
        components = [
            ([rng.uniform(0.05, 0.95) for _ in range(rng.randint(1, 4))], rng.randint(1, 3))
            for _ in range(rng.randint(2, 4))
        ]
        spectrum = fc.ScaleSpectrum(components)
        shuffled = [(list(r), n) for r, n in components]
        rng.shuffle(shuffled)
        for ratios, _ in shuffled:
            rng.shuffle(ratios)
        permuted = fc.ScaleSpectrum(shuffled)
        if spectrum != permuted or fc.solve_moran(spectrum).alpha != fc.solve_moran(permuted).alpha:
            failures.append("order invariance")
            break

    rng = random.Random(109)
    for _ in range(500):  # arithmetic average at equal scale factors
        rho = rng.uniform(0.05, 0.95)
        parts = [(fc.UniformFractal(rng.randint(1, 12), rho), 1) for _ in range(rng.randint(2, 5))]
        mean = sum(uniform_dimension(f) for f, _ in parts) / len(parts)
        if abs(fc.composite_dimension_uniform(parts) - mean) > 1e-12:
            failures.append("arithmetic average")
            break

    rng = random.Random(113)
    for _ in range(500):  # harmonic average at equal copy counts
        copies = rng.randint(2, 12)
        parts = [
            (fc.UniformFractal(copies, rng.uniform(0.05, 0.95)), 1)
            for _ in range(rng.randint(2, 5))
        ]
        inv_mean = sum(1 / uniform_dimension(f) for f, _ in parts) / len(parts)
        if abs(1 / fc.composite_dimension_uniform(parts) - inv_mean) > 1e-12:
            failures.append("harmonic average")
            break

    rng = random.Random(127)
    for _ in range(500):  # repetition consistency, exact
        ratios = [rng.uniform(0.05, 0.95) for _ in range(rng.randint(1, 4))]
        doubled = fc.ScaleSpectrum([(ratios, 2)])
        twice = fc.ScaleSpectrum([(ratios, 1), (ratios, 1)])
        if doubled != twice or fc.solve_moran(doubled).alpha != fc.solve_moran(twice).alpha:
            failures.append("repetition consistency")
            break

    rng = random.Random(131)
    tol = 1e-12
    checked = 0
    while checked < 500:  # residual sign change around the root
        spectrum = random_spectrum(rng)
        if spectrum.is_degenerate:
            continue
        checked += 1
        alpha = fc.solve_moran(spectrum).alpha
        if not (
            spectrum.moran_product(alpha - 10 * tol) > 1.0
            and spectrum.moran_product(alpha + 10 * tol) < 1.0
        ):
            failures.append("residual sign change")
            break

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s over 30s budget")
    _criterion(
        "criterion 3: six property suites at 500 cases each (<30s)",
        not failures,
        "; ".join(failures) or f"{elapsed:.2f}s",
    )


def test_criterion_4_geometry_laws():
    rng = random.Random(137)
    failures = []
    checked = 0
    while checked < 200:
        sched = random_schedule(rng)
        k = min(
            feasible_stage(sched, 100_000, max_stage=4),
            census_feasible_stage(sched, 20_000, max_stage=4),
        )
        if sched.predicted_count(k) > 100_000 or census_size(sched, k) > 20_000:
            continue
        checked += 1
        census = fc.segment_census(sched, k)
        segs = fc.iterate(sched, k)
        measured = histogram_of_lengths(segs.lengths)
        if [c for _, c in measured] != [c for _, c in census]:
            failures.append(f"census counts mismatch (case {checked})")
            break
        if any(
            abs(got - want) > 1e-12 * want
            for (want, _), (got, _) in zip(census, measured)
        ):
            failures.append(f"census lengths beyond 1e-12 (case {checked})")
            break
        total = fc.total_length(segs)
        predicted = fc.content(sched, k, 1.0)
        if abs(total - predicted) > 1e-9 * predicted:
            failures.append(f"length law beyond 1e-9 (case {checked})")
            break
        alpha = fc.solve_moran(sched.spectrum()).alpha
        contents = [fc.content(sched, stage, alpha) for stage in range(1, 11)]
        if any(abs(c - contents[0]) > 1e-9 * contents[0] for c in contents):
            failures.append(f"content not constant at alpha (case {checked})")
            break
    _criterion(
        "criterion 4: census/length/content laws on 200 fuzzed schedules",
        not failures,
        "; ".join(failures) or f"{checked} schedules",
    )


def test_criterion_5_empirical_validation():
    start = time.perf_counter()
    failures = []

    koch = fc.iterate(fc.schedule_from_text("K[pi/3]"), 8)
    koch_slope = fc.estimate_dimension(koch).slope
    if abs(koch_slope - KOCH_DIM) > 0.05:
        failures.append(f"Koch stage 8 slope {koch_slope:.4f}")

    cantor = fc.iterate(fc.schedule_from_text("C[1/3,1/3]"), 10)
    cantor_slope = fc.estimate_dimension(cantor).slope
    if abs(cantor_slope - CANTOR_DIM) > 0.05:
        failures.append(f"Cantor stage 10 slope {cantor_slope:.4f}")

    line = segment_set([[0.0, 0.0, 1.0, 0.0]])
    line_slope = fc.estimate_dimension(line, scale_count=8, min_scale=1 / 512).slope
    if abs(line_slope - 1.0) > 0.02:
        failures.append(f"line slope {line_slope:.4f}")

    elapsed = time.perf_counter() - start
    if elapsed >= 20.0:
        failures.append(f"runtime {elapsed:.1f}s over 20s budget")
    _criterion(
        "criterion 5: box-count slopes (Koch/Cantor ±0.05, line ±0.02, <20s)",
        not failures,
        "; ".join(failures)
        or f"koch {koch_slope:.3f}, cantor {cantor_slope:.3f}, line {line_slope:.3f}, {elapsed:.1f}s",
    )


def test_criterion_6_incomplete_statistics():
    failures = []
    binary_koch = fc.schedule_from_text("C[1/2,1/3] K[pi/3]")
    three_gen = fc.schedule_from_text("C[1/2,1/4,1/6] K[pi/4] K[pi/3]")
    for name, sched in (("binary+koch", binary_koch), ("three-generator", three_gen)):
        residual = fc.stats_report(sched, 6)["max_normalization_residual"]
        if residual >= 1e-9:
            failures.append(f"{name} normalization at k<=6: {residual:.2e}")

    rng = random.Random(139)
    checked = 0
    while checked < 100:
        a = random_schedule(rng, max_items=2, max_repeat=2)
        b = random_schedule(rng, max_items=2, max_repeat=2)
        joint = fc.CompositionSchedule(a.items + b.items)
        k = census_feasible_stage(joint, 20_000, max_stage=3)
        if census_size(joint, k) > 20_000:
            continue
        checked += 1
        report = fc.stats_report(joint, k)
        if not report["factorization_ok"]:
            failures.append(f"factorization failed (pair {checked})")
            break
        if report["max_normalization_residual"] >= 1e-9:
            failures.append(f"joint normalization {report['max_normalization_residual']:.2e}")
            break
    _criterion(
        "criterion 6: incomplete statistics (residual <1e-9, 100 fuzzed pairs)",
        not failures,
        "; ".join(failures) or f"{checked} pairs",
    )


def test_criterion_7_rational_limit():
    base = fc.UniformFractal(4, 1 / 3)
    errors = [
        abs(fc.rational_limit_dimension(base, 1, 2, n) - 0.5) for n in (10**2, 10**4, 10**6)
    ]
    ok = errors[0] > errors[1] > errors[2]
    _criterion(
        "criterion 7: rational-limit error shrinks over n = 1e2, 1e4, 1e6",
        ok,
        " > ".join(f"{e:.4f}" for e in errors),
    )


def test_criterion_8_parser_robustness():
    rng = random.Random(149)
    failures = []
    for _ in range(1000):
        expr = random_schedule_expr(rng)
        text = fc.format(expr)
        if fc.parse(text) != expr or fc.format(fc.parse(text)) != text:
            failures.append(f"round trip failed for {text!r}")
            break

    crashes = 0
    for _ in range(100_000):
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 32)))
        try:
            fc.parse(raw.decode("latin-1"))
        except (ScheduleSyntaxError, ScheduleSemanticError):
            pass
        except Exception:  # noqa: BLE001 - the point is "no other exception"
            crashes += 1
            break
    if crashes:
        failures.append("parser crashed on random bytes")
    _criterion(
        "criterion 8: parser round trips (1000) and byte fuzz (100000)",
        not failures,
        "; ".join(failures) or "no crashes",
    )

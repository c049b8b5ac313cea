import math
import random

import mpmath
import pytest

import fractalc as fc
from fractalc.errors import InputOutOfRange
from helpers import (
    mpmath_root,
    random_spectrum,
    random_uniform_parts,
    spectrum_of_uniform,
    uniform_dimension,
)

LN = math.log

# frozen oracle values (independent bisection / closed forms, see test bodies)
BINARY_KOCH_ALPHA = 1.053951276533946
DIM_HALF_QUARTER = 0.6942419136306172
BINARY_SPECIAL_ALPHA = 0.8787567721117389


def bisect_root(f, lo=0.0, hi=8.0):
    """Plain bisection oracle on a decreasing f with f(root) = 1."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- component_dimension of a uniform fractal ---------------------------------


def test_koch_dimension():
    alpha = uniform_dimension(fc.UniformFractal(4, 1 / 3))
    assert alpha == pytest.approx(LN(4) / LN(3), rel=1e-15)
    assert abs(alpha - 1.26) <= 0.005


def test_two_halves_make_a_line():
    assert uniform_dimension(fc.UniformFractal(2, 1 / 2)) == pytest.approx(1.0)


def test_cantor_dimension():
    assert uniform_dimension(fc.UniformFractal(2, 1 / 3)) == pytest.approx(LN(2) / LN(3))


def test_single_copy_is_zero_dimensional():
    assert uniform_dimension(fc.UniformFractal(1, 0.7)) == 0.0


def test_uniform_fractal_validation():
    with pytest.raises(InputOutOfRange):
        fc.UniformFractal(0, 0.5)
    with pytest.raises(InputOutOfRange):
        fc.UniformFractal(4, 1.0)
    with pytest.raises(InputOutOfRange):
        fc.UniformFractal(4, 0.0)


# --- composite_dimension_uniform ----------------------------------------------


def test_modified_koch_composition():
    parts = [(fc.UniformFractal(4, 1 / (2 + math.sqrt(2))), 1), (fc.UniformFractal(4, 1 / 3), 1)]
    alpha = fc.composite_dimension_uniform(parts)
    assert alpha == pytest.approx(1.1917119518312635, rel=1e-14)
    assert abs(alpha - 1.19) <= 0.005


def test_three_way_composition():
    parts = [
        (fc.UniformFractal(2, 1 / 3), 1),
        (fc.UniformFractal(5, 1 / 3), 1),
        (fc.UniformFractal(4, 1 / 3), 1),
    ]
    alpha = fc.composite_dimension_uniform(parts)
    assert alpha == pytest.approx(LN(40) / (3 * LN(3)), rel=1e-14)
    assert abs(alpha - 1.12) <= 0.005


def test_repeated_substage_composition():
    parts = [(fc.UniformFractal(2, 1 / 3), 1), (fc.UniformFractal(4, 1 / 3), 2)]
    alpha = fc.composite_dimension_uniform(parts)
    assert alpha == pytest.approx(1.0515495892857625, rel=1e-14)
    assert abs(alpha - 1.05) <= 0.005


def test_self_composition_is_idempotent():
    koch = fc.UniformFractal(4, 1 / 3)
    assert fc.composite_dimension_uniform([(koch, 1), (koch, 1)]) == pytest.approx(
        uniform_dimension(koch), rel=1e-15
    )


def test_barycentric_form_agrees():
    # same number as the weighted average of component dimensions
    rng = random.Random(7)
    for _ in range(50):
        parts = random_uniform_parts(rng)
        alpha = fc.composite_dimension_uniform(parts)
        num = sum(n * uniform_dimension(f) * LN(1 / f.ratio) for f, n in parts)
        den = sum(n * LN(1 / f.ratio) for f, n in parts)
        assert alpha == pytest.approx(num / den, abs=1e-12)


def test_all_single_copies_gives_zero():
    parts = [(fc.UniformFractal(1, 0.3), 2), (fc.UniformFractal(1, 0.8), 1)]
    assert fc.composite_dimension_uniform(parts) == 0.0


def test_tiny_uniform_ratio_matches_mpmath():
    # 1/rho overflows to inf below about 5.6e-309; the denominators are written out
    d = str(10**322)
    sched = fc.schedule_from_text(f"C[1/{d},1/{d}]")
    rho = sched.items[0][0].draw_ratios[0]
    assert 0.0 < rho < 1e-321
    report = fc.dimension(sched.spectrum())
    with mpmath.workdps(50):
        want = float(mpmath.log(2) / -mpmath.log(mpmath.mpf(rho)))
    assert report.method == "closed-form"
    assert report.alpha == pytest.approx(want, rel=4e-16)
    assert abs(report.residual) < 1e-12
    assert fc.composite_dimension_uniform([(fc.UniformFractal(2, rho), 1)]) == report.alpha


# --- solve_moran ---------------------------------------------------------------


def test_binary_plus_koch_schedule():
    spectrum = fc.ScaleSpectrum([([1 / 2, 1 / 3], 1), ([1 / 3] * 4, 1)])
    report = fc.solve_moran(spectrum)
    # oracle: bisection on the explicit equation (r1^a + r2^a) * 4 * (1/3)^a = 1
    oracle = bisect_root(lambda a: (0.5**a + (1 / 3) ** a) * 4 * (1 / 3) ** a)
    assert report.alpha == pytest.approx(oracle, abs=1e-12)
    assert report.alpha == pytest.approx(BINARY_KOCH_ALPHA, abs=1e-12)
    assert abs(report.alpha - 1.054) <= 0.005
    assert report.method == "moran-numeric"
    assert abs(report.residual) <= 1e-12
    # direct substitution lands within tolerance of 1
    assert abs(spectrum.moran_product(report.alpha) - 1.0) <= 1e-12


def test_uniform_spectrum_reduces_to_single_fractal():
    spectrum = fc.ScaleSpectrum([([1 / 3] * 4, 1)])
    report = fc.solve_moran(spectrum)
    assert abs(report.alpha - uniform_dimension(fc.UniformFractal(4, 1 / 3))) <= 1e-9


def test_three_component_schedule_self_consistency():
    # no published value for this composition: check the solver's own contract
    rho = 1 / (2 + math.sqrt(2))
    spectrum = fc.ScaleSpectrum(
        [([1 / 2, 1 / 4, 1 / 6], 1), ([rho] * 4, 1), ([1 / 3] * 4, 1)]
    )
    report = fc.solve_moran(spectrum)
    assert abs(report.residual) <= 1e-12
    lo, hi = fc.dimension_bounds([fc.component_dimension(r) for r, _ in spectrum.components])
    assert lo <= report.alpha <= hi


def test_degenerate_spectrum_returns_zero():
    report = fc.solve_moran(fc.ScaleSpectrum([([0.5], 1)]))
    assert report.alpha == 0.0
    assert report.method == "closed-form"
    report = fc.solve_moran(fc.ScaleSpectrum([([0.5], 1), ([0.3], 2)]))
    assert report.alpha == 0.0
    assert report.method == "closed-form"
    assert report.bracket == (0.0, 0.0) and report.iterations == 0


def test_solver_validation():
    with pytest.raises(ValueError):
        fc.ScaleSpectrum([])
    with pytest.raises(InputOutOfRange):
        fc.ScaleSpectrum([([0.5, 1.5], 1)])
    with pytest.raises(InputOutOfRange):
        fc.ScaleSpectrum([([0.5], 0)])


# --- log_moran ------------------------------------------------------------------


def test_log_moran_matches_direct_product():
    # oracle: the plain float product, for repeats small enough not to overflow
    rng = random.Random(37)
    for _ in range(150):
        spectrum = random_spectrum(rng)
        alpha = rng.uniform(0.0, 3.0)
        direct = 1.0
        for ratios, n in spectrum.components:
            direct *= sum(r**alpha for r in ratios) ** n
        assert spectrum.log_moran(alpha) == pytest.approx(math.log(direct), rel=1e-12, abs=1e-13)
        assert spectrum.moran_product(alpha) == pytest.approx(direct, rel=1e-12)


def _mpmath_log_moran(components, alpha):
    with mpmath.workdps(50):
        return mpmath.fsum(
            n * mpmath.log(mpmath.fsum(mpmath.mpf(r) ** mpmath.mpf(alpha) for r in ratios))
            for ratios, n in components
        )


def test_log_moran_interval_holds_the_exact_value():
    # oracle: ln M of the same float ratios at 50 digits, at random alphas and
    # at alphas within a few ulps of the root, where the sign is rounding noise
    rng = random.Random(43)
    for _ in range(60):
        components = []
        for _ in range(rng.randint(1, 3)):
            ratios = [_stress_ratio(rng) for _ in range(rng.randint(1, 4))]
            components.append((ratios, rng.choice([1, 2, 7, 1000, 10**5, 10**6])))
        spectrum = fc.ScaleSpectrum(components)
        alpha = fc.solve_moran(spectrum).alpha
        near_root = [alpha, math.nextafter(alpha, 0.0), math.nextafter(alpha, math.inf),
                     alpha * (1 + 1e-15), alpha * (1 - 1e-15)]
        # a degenerate spectrum's root is 0, and the bound holds from 1e-290 up
        for a in [rng.uniform(0.0, 3.0), 0.0] + (near_root if alpha else []):
            low, high = spectrum.log_moran_interval(a)
            assert low <= spectrum.log_moran(a) <= high
            want = _mpmath_log_moran(spectrum.components, a)
            assert low <= want <= high, (spectrum, a, low, high, want)


def test_log_moran_does_not_overflow():
    spectrum = fc.ScaleSpectrum([([1 / 2, 1 / 3], 10**6), ([1e-300, 1e-290], 10**6)])
    assert spectrum.log_moran(0.0) == pytest.approx(2e6 * LN(2), rel=1e-12)
    assert spectrum.log_moran(1.0) == pytest.approx(1e6 * (LN(5 / 6) + LN(1e-300 + 1e-290)), rel=1e-12)


# --- dimension (the dispatcher) ---------------------------------------------------


def test_dimension_picks_the_exact_method():
    koch = [1 / 3] * 4
    closed = fc.dimension(fc.ScaleSpectrum([(koch, 1), ([1 / 3] * 2, 2)]))
    assert closed.method == "closed-form"
    assert closed.alpha == fc.composite_dimension_uniform(
        [(fc.UniformFractal(2, 1 / 3), 2), (fc.UniformFractal(4, 1 / 3), 1)]
    )
    assert closed.iterations == 0
    binary = fc.dimension(fc.ScaleSpectrum([([1 / 2, 1 / 12], 1), (koch, 1)]))
    assert binary.method == "binary-analytic"
    assert binary.alpha == fc.binary_special_dimension(1 / 2, fc.UniformFractal(4, 1 / 3))
    assert abs(binary.residual) <= 1e-12
    numeric = fc.dimension(fc.ScaleSpectrum([([1 / 2, 1 / 3], 1), (koch, 1)]))
    assert numeric.method == "moran-numeric"
    assert numeric == fc.solve_moran(fc.ScaleSpectrum([([1 / 2, 1 / 3], 1), (koch, 1)]))
    assert fc.dimension(fc.ScaleSpectrum([([0.5], 3), ([0.3], 1)])).alpha == 0.0
    # every method's bracket holds the 50-digit root
    for report, spectrum in [(closed, [(koch, 1), ([1 / 3] * 2, 2)]),
                             (binary, [([1 / 2, 1 / 12], 1), (koch, 1)]),
                             (numeric, [([1 / 2, 1 / 3], 1), (koch, 1)])]:
        lo, hi = report.bracket
        assert lo <= mpmath_root(spectrum) <= hi, report
        assert lo < hi and hi - lo <= 1e-12 * report.alpha, report


def test_binary_closed_form_only_where_it_is_the_root():
    # r2 == r1 * r1 * rho exactly in floats: the closed form is the spectrum's
    # root; off it, by however little, the solver answers, within 4 ulps
    exact = ["C[1/2,1/12] K[pi/3]", "C[1/3,1/27] Q[pi/2]", "C[1/4,1/48] K[pi/3]"]
    near = ["C[0.5,0.08333333333336] K[pi/3]", "C[0.5,0.08333333333330] K[pi/3]",
            "C[0.5,0.0833333333334] K[pi/3]"]
    spectra = [fc.schedule_from_text(text).spectrum() for text in exact + near]
    rng = random.Random(15)
    for _ in range(40):
        r1, copies = rng.uniform(0.2, 0.8), rng.randint(2, 6)
        rho = rng.uniform(0.05, 1.0 / copies)
        r2 = r1 * r1 * rho * (1.0 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-15.5, -12))
        spectra.append(fc.ScaleSpectrum([([r1, r2], 1), ([rho] * copies, 1)]))
    for index, spectrum in enumerate(spectra):
        report = fc.dimension(spectrum)
        if index < len(exact):
            assert report.method == "binary-analytic"
        elif index < len(exact + near):
            assert report.method == "moran-numeric"
        root = mpmath_root(spectrum.components)
        assert abs(mpmath.mpf(report.alpha) - root) <= 4 * math.ulp(report.alpha), spectrum


def test_dimension_divides_repeats_by_their_gcd():
    koch = [1 / (2 * (1 + math.cos(math.pi / 3)))] * 4
    assert fc.dimension(fc.ScaleSpectrum([(koch, 3)])).alpha == fc.component_dimension(koch)
    # the product (r1^a + r2^a)^100000 overflows a double before the root
    huge = fc.dimension(fc.ScaleSpectrum([([1 / 2, 1 / 3], 100_000)]))
    assert huge == fc.dimension(fc.ScaleSpectrum([([1 / 2, 1 / 3], 1)]))
    pair = fc.dimension(fc.ScaleSpectrum([([1 / 2, 1 / 12], 2), ([1 / 3] * 4, 2)]))
    assert pair.method == "binary-analytic"
    assert pair.alpha == fc.binary_special_dimension(1 / 2, fc.UniformFractal(4, 1 / 3))


def _stress_ratio(rng):
    roll = rng.random()
    if roll < 0.3:
        return 1.0 - 10.0 ** -rng.uniform(1, 15)  # near 1
    if roll < 0.6:
        return 10.0 ** -rng.uniform(250, 300)  # near 1e-300
    return rng.uniform(0.01, 0.99)


def test_dimension_matches_mpmath_on_stress_spectra():
    # repeats up to 10^6 move ln M by more than 1e-12 per ulp of alpha, so only
    # the bracket, not the residual, can vouch for the root
    rng = random.Random(41)
    for _ in range(150):
        components = []
        for _ in range(rng.randint(1, 3)):
            ratios = [_stress_ratio(rng) for _ in range(rng.randint(1, 4))]
            components.append((ratios, rng.choice([1, 2, 7, 1000, 10**5, 10**6])))
        spectrum = fc.ScaleSpectrum(components)
        report = fc.dimension(spectrum)
        want = mpmath_root(spectrum.components)
        lo, hi = report.bracket
        if want == 0:
            assert report.alpha == lo == hi == 0.0
        else:
            assert abs(mpmath.mpf(report.alpha) - want) <= 1e-9 * want, spectrum
            assert lo <= want <= hi, (spectrum, report)
            assert hi - lo <= 1e-12 * report.alpha, (spectrum, report)


# --- component_dimension --------------------------------------------------------


def test_component_dimension_cantor():
    assert fc.component_dimension([1 / 3, 1 / 3]) == pytest.approx(LN(2) / LN(3), abs=1e-12)


def test_component_dimension_interval():
    assert fc.component_dimension([1 / 2, 1 / 2]) == pytest.approx(1.0, abs=1e-12)


def test_component_dimension_half_quarter():
    # oracle: substitute x = (1/2)^a, solve x + x^2 = 1, x = (sqrt(5)-1)/2
    x = (math.sqrt(5) - 1) / 2
    oracle = LN(x) / LN(1 / 2)
    alpha = fc.component_dimension([1 / 2, 1 / 4])
    assert alpha == pytest.approx(oracle, abs=1e-12)
    assert alpha == pytest.approx(DIM_HALF_QUARTER, abs=1e-12)


def test_component_dimension_single_ratio():
    assert fc.component_dimension([0.37]) == 0.0


# --- binary_special_dimension ----------------------------------------------------


def test_binary_special_reference_value():
    alpha = fc.binary_special_dimension(1 / 2, fc.UniformFractal(4, 1 / 3))
    assert alpha == pytest.approx(BINARY_SPECIAL_ALPHA, abs=1e-12)
    assert abs(alpha - 0.88) <= 0.005


def test_binary_special_cross_checks_numerically():
    r1, f = 1 / 2, fc.UniformFractal(4, 1 / 3)
    closed = fc.binary_special_dimension(r1, f)
    r2 = r1 * r1 * f.ratio
    assert r2 == pytest.approx(1 / 12, rel=1e-15)
    numeric = fc.solve_moran(fc.ScaleSpectrum([([r1, r2], 1), ([f.ratio] * f.copies, 1)]))
    assert abs(closed - numeric.alpha) <= 1e-9


def test_binary_special_within_bounds():
    r1, f = 0.6, fc.UniformFractal(5, 0.25)
    alpha = fc.binary_special_dimension(r1, f)
    comp = [fc.component_dimension([r1, r1 * r1 * f.ratio]), uniform_dimension(f)]
    lo, hi = fc.dimension_bounds(comp)
    assert lo <= alpha <= hi


def test_binary_special_validation():
    with pytest.raises(InputOutOfRange):
        fc.binary_special_dimension(1.2, fc.UniformFractal(4, 1 / 3))


# --- dimension_bounds -------------------------------------------------------------


def test_bounds_are_min_max():
    assert fc.dimension_bounds([0.6309, 1.2618]) == (0.6309, 1.2618)


def test_bounds_contain_reference_compositions():
    three_way = LN(40) / (3 * LN(3))
    assert LN(2) / LN(3) <= three_way <= LN(5) / LN(3)
    repeated = (LN(2) + 2 * LN(4)) / (3 * LN(3))
    assert LN(2) / LN(3) <= repeated <= LN(4) / LN(3)


def test_bounds_validation():
    with pytest.raises(ValueError):
        fc.dimension_bounds([])


# --- rational_limit_dimension -------------------------------------------------------


def test_rational_limit_value():
    base = fc.UniformFractal(4, 1 / 3)
    alpha = fc.rational_limit_dimension(base, 1, 1, 10**6)
    # oracle: evaluate (ln 4 + 6 ln 10) / (ln 3 + 6 ln 10) directly
    assert alpha == pytest.approx((LN(4) + 6 * LN(10)) / (LN(3) + 6 * LN(10)), rel=1e-15)
    assert abs(alpha - 1.0) <= 0.04


def test_rational_limit_approaches_target():
    base = fc.UniformFractal(4, 1 / 3)
    errors = [abs(fc.rational_limit_dimension(base, 1, 2, n) - 0.5) for n in (100, 10**4, 10**6)]
    assert errors[0] > errors[1] > errors[2]


def test_rational_limit_no_overflow():
    # naive n**a1 would overflow a double; the log form must not
    alpha = fc.rational_limit_dimension(fc.UniformFractal(4, 1 / 3), 500, 700, 10**6)
    assert math.isfinite(alpha)
    assert alpha == pytest.approx(500 / 700, abs=1e-3)


def test_rational_limit_validation():
    base = fc.UniformFractal(4, 1 / 3)
    with pytest.raises(ValueError):
        fc.rational_limit_dimension(base, 0, 1, 100)
    with pytest.raises(ValueError):
        fc.rational_limit_dimension(base, 1, 1, 1)
    # a1 or a2 too large for a float, or a1 * ln n overflowing: no silent inf
    for a1, a2, n in [(10**400, 1, 10), (1, 10**400, 10), (10**308, 1, 10**22)]:
        with pytest.raises(ValueError, match="float range"):
            fc.rational_limit_dimension(base, a1, a2, n)


def test_rational_limit_tiny_base_ratio_matches_mpmath():
    # 1/rho overflows to inf below about 5.6e-309; -ln rho does not
    rho = 1e-322
    for a1, a2, n in [(3, 2, 10), (1, 2, 10**6), (7, 3, 2)]:
        alpha = fc.rational_limit_dimension(fc.UniformFractal(2, rho), a1, a2, n)
        with mpmath.workdps(50):
            log_n = mpmath.log(n)
            want = (mpmath.log(2) + a1 * log_n) / (-mpmath.log(mpmath.mpf(rho)) + a2 * log_n)
        assert alpha == pytest.approx(float(want), rel=4e-16)


# --- properties (seeded fuzz; the full-size suites live in test_acceptance) ---------


def test_property_oracle_equivalence_uniform():
    rng = random.Random(11)
    for _ in range(150):
        parts = random_uniform_parts(rng)
        closed = fc.composite_dimension_uniform(parts)
        solved = fc.solve_moran(spectrum_of_uniform(parts)).alpha
        assert abs(closed - solved) <= 1e-9


def test_property_bounds():
    rng = random.Random(13)
    for _ in range(150):
        spectrum = random_spectrum(rng)
        alpha = fc.solve_moran(spectrum).alpha
        lo, hi = fc.dimension_bounds([fc.component_dimension(r) for r, _ in spectrum.components])
        assert lo <= alpha <= hi


def test_property_order_invariance():
    rng = random.Random(17)
    for _ in range(150):
        components = []
        for _ in range(rng.randint(2, 4)):
            ratios = [rng.uniform(0.05, 0.95) for _ in range(rng.randint(1, 4))]
            components.append((ratios, rng.randint(1, 3)))
        spectrum = fc.ScaleSpectrum(components)
        shuffled = [(list(r), n) for r, n in components]
        rng.shuffle(shuffled)
        for ratios, _ in shuffled:
            rng.shuffle(ratios)
        permuted = fc.ScaleSpectrum(shuffled)
        assert spectrum == permuted  # bit-identical canonical form
        assert fc.solve_moran(spectrum).alpha == fc.solve_moran(permuted).alpha


def test_property_arithmetic_average_law():
    rng = random.Random(19)
    for _ in range(150):
        rho = rng.uniform(0.05, 0.95)
        parts = [(fc.UniformFractal(rng.randint(1, 12), rho), 1) for _ in range(rng.randint(2, 5))]
        alpha = fc.composite_dimension_uniform(parts)
        mean = sum(uniform_dimension(f) for f, _ in parts) / len(parts)
        assert alpha == pytest.approx(mean, abs=1e-12)


def test_property_harmonic_average_law():
    rng = random.Random(23)
    for _ in range(150):
        copies = rng.randint(2, 12)
        parts = [(fc.UniformFractal(copies, rng.uniform(0.05, 0.95)), 1) for _ in range(rng.randint(2, 5))]
        alpha = fc.composite_dimension_uniform(parts)
        harmonic_mean_inv = sum(1 / uniform_dimension(f) for f, _ in parts) / len(parts)
        assert 1 / alpha == pytest.approx(harmonic_mean_inv, abs=1e-12)


def test_property_repetition_consistency():
    rng = random.Random(29)
    for _ in range(150):
        ratios = [rng.uniform(0.05, 0.95) for _ in range(rng.randint(1, 4))]
        doubled = fc.ScaleSpectrum([(ratios, 2)])
        listed_twice = fc.ScaleSpectrum([(ratios, 1), (ratios, 1)])
        assert doubled == listed_twice
        assert fc.solve_moran(doubled).alpha == fc.solve_moran(listed_twice).alpha


def test_property_residual_sign_change():
    rng = random.Random(31)
    tol = 1e-12
    for _ in range(150):
        spectrum = random_spectrum(rng)
        if spectrum.is_degenerate:
            continue
        alpha = fc.solve_moran(spectrum).alpha
        assert spectrum.moran_product(alpha - 10 * tol) > 1.0
        assert spectrum.moran_product(alpha + 10 * tol) < 1.0

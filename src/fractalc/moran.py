"""Dimension algebra for composition schedules.

`dimension` is the one dispatcher behind every reported dimension: the closed
form for uniform components, the binary-multifractal analytic case, otherwise
the generalized Moran-product root from `solve_moran`. Also the dimension
bounds and the rational-dimension limit construction. The Moran product is
evaluated only through its logarithm (`ScaleSpectrum.log_moran`), so huge
repeat counts do not overflow; one past the float range, which log_moran
cannot multiply by, is an InputOutOfRange (a ValueError).

Everything here is a pure function over immutable values; all arithmetic is
double precision on logarithms.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .errors import InputOutOfRange
from .frozen import Frozen

MAX_BISECT_ITER = 200


def _validated_ratios(ratios: Iterable[float]) -> tuple[float, ...]:
    out = tuple(float(r) for r in ratios)
    if not out:
        raise ValueError("component needs at least one scale factor")
    for r in out:
        if not 0.0 < r < 1.0:
            raise ValueError(f"scale factor {r!r} outside (0, 1)")
    return out


class UniformFractal(Frozen):
    """An IFS whose contractions share one scale factor: `copies` pieces at `ratio`."""

    __slots__ = _fields = ("copies", "ratio")

    def __init__(self, copies: int, ratio: float):
        if not (isinstance(copies, int) and copies >= 1):
            raise ValueError(f"copies must be a positive integer, got {copies!r}")
        if not 0.0 < ratio < 1.0:
            raise ValueError(f"ratio {ratio!r} outside (0, 1)")
        super().__init__(copies, ratio)


class ScaleSpectrum(Frozen):
    """Canonical multiset of (scale factors, repeat count) per component.

    The spectrum is the sole input to the Moran solver: substage order carries
    no dimensional information, so construction canonicalizes it away. Ratios
    are sorted within each component, identical components are merged by
    summing repeats, and components are sorted. Two schedules that differ only
    by permutation or by splitting a repeated component therefore produce
    bit-identical spectra.
    """

    # components: ((sorted ratios), n_i) pairs; _log_terms, derived from them:
    # per component (n_i, ln m_i, ln(r_ij / m_i) of the other ratios), m_i = max_j r_ij
    _fields = ("components",)
    __slots__ = (*_fields, "_log_terms")

    def __init__(self, components: Iterable[tuple[Sequence[float], int]]):
        merged: dict[tuple[float, ...], int] = {}
        for ratios, repeat in components:
            if not (isinstance(repeat, int) and repeat >= 1):
                raise ValueError(f"repeat count must be a positive integer, got {repeat!r}")
            key = tuple(sorted(_validated_ratios(ratios)))
            merged[key] = merged.get(key, 0) + repeat
        if not merged:
            raise ValueError("spectrum needs at least one component")
        canon = tuple(sorted((ratios, n) for ratios, n in merged.items()))
        super().__init__(canon)
        # sorted ratios end with the largest; ln r - ln m keeps what r / m loses near 1
        logs = [(n, [math.log(r) for r in ratios]) for ratios, n in canon]
        terms = tuple((n, lg[-1], tuple(x - lg[-1] for x in lg[:-1])) for n, lg in logs)
        object.__setattr__(self, "_log_terms", terms)

    def log_moran(self, alpha: float) -> float:
        """ln of the Moran product at `alpha` >= 0; strictly decreasing.

        sum_i n_i (alpha ln m_i + log1p(sum_{j != max} (r_ij/m_i)^alpha)), with
        m_i = max_j r_ij: no term overflows or underflows at any repeat count.
        """
        total = 0.0
        for n, log_max, log_rel in self._log_terms:
            s = 0.0
            for x in log_rel:
                s += math.exp(alpha * x)
            total += n * (alpha * log_max + math.log1p(s))
        return total

    def log_moran_interval(self, alpha: float) -> tuple[float, float]:
        """`log_moran(alpha)` -/+ the rounding bound of `solve_moran`, for alpha 0 or >= 1e-290."""
        total = err = 0.0
        for n, log_max, log_rel in self._log_terms:
            s = ds = 0.0
            for x in log_rel:
                t = math.exp(alpha * x)
                s += t
                ds += t * (2.0 - 4.0 * alpha * x)
            lp = math.log1p(s)
            total += n * (alpha * log_max + lp)
            err += n * (5.0 * lp - 10.0 * alpha * log_max + (ds + len(log_rel) * s) / (1.0 + s))
            err += abs(total)
        return total - 2.0**-52 * err, total + 2.0**-52 * err

    def moran_product(self, alpha: float) -> float:
        """The Moran product prod_i (sum_j r_ij^alpha)^n_i, as exp(log_moran);
        math.inf when that exceeds the float range."""
        try:
            return math.exp(self.log_moran(alpha))
        except OverflowError:
            return math.inf

    @property
    def is_degenerate(self) -> bool:
        """True when every component keeps a single piece (dimension 0)."""
        return all(len(ratios) == 1 for ratios, _ in self.components)


class DimensionReport(Frozen):
    """Solved composite dimension plus how it was obtained."""

    __slots__ = _fields = ("alpha", "method", "residual", "bracket", "iterations")

    def __init__(
        self,
        alpha: float,
        method: str,  # "closed-form" | "moran-numeric" | "binary-analytic"
        residual: float,  # Moran product minus 1, evaluated at alpha; inf past the float range
        # holds the exact root: the sign of ln M is certified at both ends
        bracket: tuple[float, float],
        iterations: int,
    ):
        super().__init__(alpha, method, residual, bracket, iterations)


def composite_dimension_uniform(parts: Sequence[tuple[UniformFractal, int]]) -> float:
    """Composite dimension of uniform components, each repeated n_i times per stage.

    Returns sum(n_i ln N_i) / sum(n_i ln(1/rho_i)); the barycentric-average
    form over component dimensions is the same number by algebra. ln(1/rho)
    is taken as -ln rho, since 1/rho overflows for rho below about 5.6e-309.
    """
    if not parts:
        raise ValueError("need at least one component")
    num = 0.0
    den = 0.0
    for fractal, repeat in parts:
        if repeat < 1:
            raise ValueError("repeat count must be >= 1")
        num += repeat * math.log(fractal.copies)
        den += repeat * -math.log(fractal.ratio)
    return num / den


def component_dimension(ratios: Sequence[float]) -> float:
    """Unique alpha with sum_j r_j^alpha = 1; zero for a single ratio."""
    return dimension(ScaleSpectrum([(ratios, 1)])).alpha


def dimension(spectrum: ScaleSpectrum) -> DimensionReport:
    """Composite dimension of `spectrum` by the most exact method that applies.

    Repeats are divided by their gcd first, which leaves the root unchanged;
    the report describes the reduced spectrum. "closed-form" when every
    component has equal ratios; "binary-analytic" for a [r1, r1^2 rho]
    component beside a uniform (N, rho) one, each with repeat 1; otherwise
    `solve_moran` ("moran-numeric"). Every method reports a certified bracket.
    Raises InputOutOfRange when a reduced repeat is beyond the float range.
    """
    gcd = math.gcd(*(n for _, n in spectrum.components))
    if gcd > 1:
        spectrum = ScaleSpectrum([(ratios, n // gcd) for ratios, n in spectrum.components])
    _check_repeats(spectrum)
    comps = spectrum.components
    if all(ratios[0] == ratios[-1] for ratios, _ in comps):
        parts = [(UniformFractal(len(ratios), ratios[0]), n) for ratios, n in comps]
        alpha = composite_dimension_uniform(parts)
        return _report(spectrum, "closed-form", alpha, alpha, 0)
    if len(comps) == 2 and all(n == 1 for _, n in comps):
        for (binary, _), (other, _) in (comps, comps[::-1]):
            if len(binary) != 2 or other[0] != other[-1]:
                continue
            r2, r1 = binary
            rho = other[0]
            if abs(r2 - r1 * r1 * rho) <= 1e-12 * r2:
                alpha = binary_special_dimension(r1, UniformFractal(len(other), rho))
                return _report(spectrum, "binary-analytic", alpha, alpha, 0)
    return solve_moran(spectrum)


def _check_repeats(s: ScaleSpectrum) -> None:
    """Raise InputOutOfRange for a repeat count beyond the float range, which
    `log_moran` cannot multiply by."""
    try:
        for _, n in s.components:
            float(n)
    except OverflowError:
        raise InputOutOfRange("a repeat count is beyond the float range") from None


def _report(s: ScaleSpectrum, method: str, lo: float, hi: float, iters: int) -> DimensionReport:
    """Report (lo + hi) / 2, with [lo, hi] walked out until ln M >= 0 at lo, <= 0 at hi."""
    alpha = 0.5 * (lo + hi)
    down = up = 32.0 * (hi - lo or math.ulp(lo))
    while s.log_moran_interval(lo)[0] < 0.0:
        lo, down = max(lo - down, 0.0), 2.0 * down
    while s.log_moran_interval(hi)[1] > 0.0:
        hi, up = hi + up, 2.0 * up
    return DimensionReport(alpha, method, s.moran_product(alpha) - 1.0, (lo, hi), iters)


def solve_moran(s: ScaleSpectrum) -> DimensionReport:
    """Solve the generalized Moran product prod_i (sum_j r_ij^alpha)^n_i = 1.

    Bisection on the sign of `log_moran`, which is strictly decreasing;
    chosen over Newton because it is unconditionally convergent. Component
    i's own root lies in [ln l_i/ln(1/min_j r_ij), ln l_i/ln(1/max_j r_ij)]
    and the composite root between the component roots, so the search starts
    on [min_i ln l_i/ln(1/min_j r_ij), max_i ln l_i/ln(1/max_j r_ij)] and runs
    until the bracket cannot shrink in double precision; alpha is its midpoint.

    Near the root that sign is rounding noise, so `_report` walks the ends out
    by steps doubling from 32 ulps, the usual reach of the bound, until each
    end's sign is certified: `log_moran` is within 2^-52 sum_i [|total_i| +
    n_i (5 log1p s_i + 10 alpha |ln m_i| + (d_i s_i + sum_j t_ij (2 + 4 alpha
    |x_ij|)) / (1 + s_i))] of ln M, twice its first-order rounding error with
    log, exp and log1p within 1 ulp, in its running sums total_i and d_i terms
    t_ij = exp(alpha x_ij) of sum s_i. The walk ends: ln M(0) = sum_i n_i ln
    l_i > 0, and ln M falls linearly while the bound grows as 2^-52 times it.
    """
    _check_repeats(s)
    lo = min(math.log(len(ratios)) / -math.log(ratios[0]) for ratios, _ in s.components)
    hi = max(math.log(len(ratios)) / -math.log(ratios[-1]) for ratios, _ in s.components)
    f = s.log_moran
    iterations = 0
    for _ in range(MAX_BISECT_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        iterations += 1
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    # ln 1 = 0 puts a degenerate spectrum's search, and root, at [0, 0]
    return _report(s, "closed-form" if s.is_degenerate else "moran-numeric", lo, hi, iterations)


def binary_special_dimension(r1: float, f: UniformFractal) -> float:
    """Analytic composite dimension for a binary multifractal with r2 = r1^2 * rho.

    Composing [r1, r1^2*rho] with a uniform (N, rho) fractal reduces the Moran
    product to a quadratic in (r1*rho)^alpha, giving
    alpha = ln((-1 + sqrt(1 + 4/N)) / 2) / ln(r1*rho).
    """
    if not 0.0 < r1 < 1.0:
        raise ValueError(f"r1 {r1!r} outside (0, 1)")
    x = (-1.0 + math.sqrt(1.0 + 4.0 / f.copies)) / 2.0
    return math.log(x) / math.log(r1 * f.ratio)


def dimension_bounds(component_dimensions: Sequence[float]) -> tuple[float, float]:
    """(min, max) of the component dimensions; the composite always lies inside."""
    if not component_dimensions:
        raise ValueError("need at least one component dimension")
    return (min(component_dimensions), max(component_dimensions))


def rational_limit_dimension(base: UniformFractal, a1: int, a2: int, n: int) -> float:
    """Composite dimension of `base` with an (N = n^a1, rho = n^-a2) fractal.

    As n grows the value tends to a1/a2, so any rational dimension can be
    approached from any starting fractal. Computed with logarithms directly
    (a1 * ln n), never by materializing n^a1, and ln(1/rho) as -ln rho, since
    1/rho overflows for rho below about 5.6e-309. Raises InputOutOfRange when
    n < 2 or a1 * ln n or a2 * ln n is beyond the float range.
    """
    if a1 < 1 or a2 < 1:
        raise ValueError("a1 and a2 must be positive integers")
    if n < 2:
        raise InputOutOfRange("n must be >= 2")
    log_n = math.log(n)
    try:
        num = math.log(base.copies) + a1 * log_n
        den = -math.log(base.ratio) + a2 * log_n
    except OverflowError:
        num = den = math.inf
    if not math.isfinite(num + den):
        raise InputOutOfRange("a1 * ln n or a2 * ln n is beyond the float range")
    return num / den

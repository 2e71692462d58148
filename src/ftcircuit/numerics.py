"""Shared numerical routines: the log binomial pmf in Loader's
saddle-point form and the log binomial tail built on it, bisection,
golden-section optimization, Wilson confidence intervals, a least-squares
line, and an inverse complementary error function.  The least-squares
line is centred and summed in math.fsum, without numpy; the inverse error
function is the standard library's normal quantile.

The root finders here bracket.  The package's two Newton iterations are
in analytic: the tangency solve in delta, and the pseudothreshold's
safeguarded Newton in eps_p around it, which checks its answer against
the golden-section window search before returning it.
"""
from __future__ import annotations

import math
from statistics import NormalDist
from typing import Callable

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _stirlerr(j: int) -> float:
    """ln j! - ln(sqrt(2 pi j) (j/e)^j) for j >= 1: a table to j = 15
    (entry 0 is never read), then the Stirling series."""
    if j <= 15:
        return (0.0, 0.08106146679532726, 0.0413406959554093,
                0.02767792568499834, 0.020790672103765093,
                0.016644691189821193, 0.013876128823070748,
                0.01189670994589177, 0.010411265261972096,
                0.009255462182712733, 0.00833056343336287,
                0.007573675487951841, 0.00694284010720953,
                0.006408994188004207, 0.0059513701127588475,
                0.005554733551962801)[j]
    jj = j * j
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / jj) / jj)
                      / jj) / jj) / j


def _bd0(x: float, mean: float) -> float:
    """x ln(x/mean) + mean - x for x, mean > 0; near the mean by its
    series in v = (x - mean)/(x + mean), which does not cancel."""
    d = x - mean
    if abs(d) >= 0.1 * (x + mean):
        ratio = x / mean    # overflows only for a mean near underflow
        return (x * (math.log(ratio) if ratio < math.inf
                     else math.log(x) - math.log(mean)) + mean - x)
    v = d / (x + mean)
    s, term, j = d * v, 2.0 * x * v, 1
    while True:
        term, j = term * v * v, j + 2
        s, last = s + term / j, s
        if s == last:
            return s


def log_binom_pmf(n: int, p: float, k: int) -> float:
    """log Pr[Binomial(n, p) = k] for 0 < p < 1 and 0 <= k <= n, in
    Loader's saddle-point form (C. Loader, 2000, the method of R's
    dbinom): Stirling errors and the deviances bd0 of k from np and of
    n - k from nq, so no terms near n ln n cancel."""
    if k == 0:
        return n * math.log1p(-p)
    if k == n:
        return n * math.log(p)
    return (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
            - _bd0(k, n * p) - _bd0(n - k, n * (1.0 - p))
            - 0.5 * math.log(2.0 * math.pi * k * (n - k) / n))


def _log_falling_sum(a: int, b: int, odds: float) -> float:
    """log(1 + sum over t >= 1 of the product of (a - s)/(b + 1 + s) odds
    over s < t): a tail over its lead term, with a terms past the lead,
    whose ratio of consecutive terms falls from r = a/(b + 1) odds < 1.
    Past 1 + (39.2 + ln(1/(1-r)))/(-ln r) products the rest total less
    than 1e-17 of the lead term, and are left out."""
    r = a / (b + 1) * odds
    if r == 0.0:
        return 0.0
    count = min(a, 1 + math.ceil((39.2 - math.log1p(-r)) / -math.log(r)))
    ratios = np.arange(a, a - count, -1) / np.arange(b + 1, b + 1 + count)
    return math.log1p(float(np.cumprod(ratios * odds).sum()))


def log_binom_tail(n: int, p: float, k: int) -> float:
    """log of Pr[Binomial(n, p) >= k], finite far below float underflow;
    -inf for p = 0 with k > 0.  Above the mode it is log_binom_pmf at k
    plus the falling sum of the term ratios from k up; at or below it,
    log1p of minus the lower tail Pr[X <= k - 1], summed the same way
    from k - 1 down, so it is never above 0.  Against a 40-digit sum it
    is within 1e-13 + 4e-15 |ln tail|."""
    if k <= 0:
        return 0.0
    if k > n or p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return 0.0
    q = 1.0 - p
    if (n - k) / (k + 1) * (p / q) < 1.0:
        return log_binom_pmf(n, p, k) + _log_falling_sum(n - k, k, p / q)
    return math.log1p(-math.exp(log_binom_pmf(n, p, k - 1)
                                + _log_falling_sum(k - 1, n - k + 1, q / p)))


def binom_tail(n: int, p: float, k: int) -> float:
    """Pr[Binomial(n, p) >= k] without intermediate underflow."""
    return math.exp(log_binom_tail(n, p, k))


def bisect(f: Callable[[float], float], lo: float, hi: float,
           tol: float = 1e-10, max_iter: int = 200) -> tuple[float, float]:
    """Bracket (a, b) of a root of f on [lo, hi] by bisection, with
    b - a <= tol, f(a) of the sign of f(lo) and f(b) of the sign of
    f(hi); f(lo) and f(hi) must differ in sign.  An exact zero x, at an
    end or at a midpoint, returns (x, x).

    Raises RuntimeError when max_iter halvings leave the bracket wider
    than tol.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo, lo
    if fhi == 0.0:
        return hi, hi
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        if hi - lo <= tol:
            return lo, hi
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid, mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    if hi - lo > tol:
        raise RuntimeError(
            f"bisection did not narrow [{lo}, {hi}] to tol={tol} in "
            f"{max_iter} iterations")
    return lo, hi


def golden_min(f: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section minimum of a unimodal f on [lo, hi].

    Returns (argmin, min value) with the argmin located to within tol.
    """
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = f(x2)
    x = 0.5 * (lo + hi)
    return x, f(x)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson-score 95% confidence interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = 1.959963984540054  # the two-sided 95% normal quantile
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials
                                   + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def inverse_erfc(y: float) -> float:
    """x such that erfc(x) = y, for y in (0, 2).  The smallest subnormal
    y, whose half rounds to 0, raises statistics.StatisticsError, a
    ValueError."""
    if not 0.0 < y < 2.0:
        raise ValueError(f"inverse_erfc domain is (0, 2), got {y}")
    return -NormalDist().inv_cdf(0.5 * y) / math.sqrt(2.0)


def ols_fit(x, y) -> tuple[float, float, float]:
    """Ordinary least squares y = a x + b; returns (slope, intercept, r^2).

    The fit is centred: x and y less their means, with each sum of
    products taken exactly by math.fsum and rounded once, so x near 10^6
    loses no digits of the slope.  Raises ValueError for fewer than two
    points or all x equal."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    if len(x) < 2 or min(x) == max(x):
        raise ValueError("need >= 2 distinct x values")
    mean_x, mean_y = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [v - mean_x for v in x]
    dy = [v - mean_y for v in y]
    slope = (math.fsum(a * b for a, b in zip(dx, dy))
             / math.fsum(a * a for a in dx))
    ss_res = math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))
    ss_tot = math.fsum(b * b for b in dy)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, mean_y - slope * mean_x, r2

"""Shared numerical routines: binomial pmfs and log-space tails,
bracketing root finders, golden-section optimization, Wilson confidence
intervals, and an inverse complementary error function.

Root finders are bracketing throughout: robustness is preferred over
iteration count at the problem sizes involved here.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.special import erfcinv, gammaln, logsumexp

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def log_binom_tail(n: int, p: float, k: int) -> float:
    """log of Pr[Binomial(n, p) >= k], summed in log space.

    Accurate down to tails around exp(-700) per term; returns -inf for
    p = 0 with k > 0.  Above the mode only the terms that count are
    summed: the ratio r of consecutive terms falls from k on, so the
    terms past k + 1 + (39.2 + ln(1/(1-r)))/(-ln r) total less than
    1e-17 of the term at k.
    """
    if k <= 0:
        return 0.0
    if k > n:
        return -math.inf
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return 0.0
    r = (n - k) / (k + 1) * (p / (1.0 - p))
    if r >= 1.0:
        last = n
    elif r == 0.0:
        last = k
    else:
        last = min(n, k + 1 + math.ceil((39.2 - math.log1p(-r))
                                        / -math.log(r)))
    return float(logsumexp(_log_binom_terms(n, p, np.arange(k, last + 1))))


def _log_binom_terms(n: int, p: float, ks: np.ndarray) -> np.ndarray:
    """log Pr[Binomial(n, p) = k] for each k in ks, for 0 < p < 1."""
    return (gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1)
            + ks * math.log(p) + (n - ks) * math.log1p(-p))


def binom_pmf(n: int, p: float) -> np.ndarray:
    """Pr[Binomial(n, p) = k] for k = 0..n; a point mass at p = 0 or 1."""
    if p <= 0.0 or p >= 1.0:
        pmf = np.zeros(n + 1)
        pmf[n if p >= 1.0 else 0] = 1.0
        return pmf
    return np.exp(_log_binom_terms(n, p, np.arange(n + 1)))


def binom_tail(n: int, p: float, k: int) -> float:
    """Pr[Binomial(n, p) >= k] without intermediate underflow."""
    return math.exp(log_binom_tail(n, p, k))


def bisect(f: Callable[[float], float], lo: float, hi: float,
           tol: float = 1e-10, max_iter: int = 200) -> float:
    """Root of f on [lo, hi] by bisection; f(lo) and f(hi) must differ
    in sign (zero endpoints count as roots).

    Raises RuntimeError when max_iter halvings leave the bracket wider
    than tol.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo <= tol:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    if hi - lo > tol:
        raise RuntimeError(
            f"bisection did not narrow [{lo}, {hi}] to tol={tol} in "
            f"{max_iter} iterations")
    return 0.5 * (lo + hi)


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


def golden_max(f: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-10) -> tuple[float, float]:
    x, v = golden_min(lambda t: -f(t), lo, hi, tol)
    return x, -v


def wilson_interval(successes: int, trials: int,
                    z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson-score 95% confidence interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials
                                   + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def inverse_erfc(y: float) -> float:
    """x such that erfc(x) = y, for y in (0, 2)."""
    if not 0.0 < y < 2.0:
        raise ValueError(f"inverse_erfc domain is (0, 2), got {y}")
    return float(erfcinv(y))


def ols_fit(x, y) -> tuple[float, float, float]:
    """Ordinary least squares y = a x + b; returns (slope, intercept, r^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or np.allclose(x, x[0]):
        raise ValueError("need >= 2 distinct x values")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2

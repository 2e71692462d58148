"""Shared numerical routines: log-space binomial tails, bisection,
golden-section optimization, Wilson confidence intervals, and an inverse
complementary error function.

The root finders here bracket.  The one Newton iteration in the package,
the pseudothreshold's tangency solve in analytic, checks its answer
against the golden-section window search before returning it.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.special import erfcinv, gammaln

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
    if k > n or p <= 0.0:
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
    return _log_sum_exp(_log_binom_terms(n, p, k, last))


def _log_sum_exp(a: np.ndarray) -> float:
    """log(sum(exp(a))) for finite a, by the steps of
    scipy.special.logsumexp: the m maxima are split out of the sum of
    the shifted exponentials, which is divided by m when it is not 0.
    With one maximum, the usual case, the maximum is zeroed by its index
    and the division by 1 and the log(1) = 0 are left out: the same
    double."""
    i = a.argmax()
    a_max = a[i]
    top = a == a_max
    m = np.count_nonzero(top)
    shifted = np.exp(a - a_max)
    if m == 1:
        shifted[i] = 0.0
        return float(np.log1p(shifted.sum()) + a_max)
    shifted[top] = 0.0
    s = shifted.sum()
    if s != 0.0:
        s = s / m
    return float(np.log1p(s) + np.log(m) + a_max)


def _log_binom_terms(n: int, p: float, k: int, last: int) -> np.ndarray:
    """log Pr[Binomial(n, p) = j] for j = k..last, for 0 < p < 1."""
    ks = np.arange(k, last + 1)
    return (_log_factorials(n, n)[0] - _log_factorials(k, last)
            - _log_factorials(n - last, n - k)[::-1]
            + ks * math.log(p) + (n - ks) * math.log1p(-p))


# gammaln(j + 1) at index j, read-only once published; a call that needs
# a longer table builds a new one, up to twice its need and at most the
# cap, and swaps it in, so a reader never sees an entry being built.  Two
# threads may race to swap; the loser's table is complete too, and a
# shorter one swapped in last only costs a later rebuild
_LOG_FACTORIAL_CAP = 1 << 17
_log_factorial_table = np.empty(0)
_log_factorial_table.flags.writeable = False


def _log_factorials(lo: int, hi: int) -> np.ndarray:
    """gammaln(j + 1) for j = lo..hi: a view of the table below the cap,
    computed directly at or above it."""
    global _log_factorial_table
    if hi >= _LOG_FACTORIAL_CAP:
        return gammaln(np.arange(lo + 1.0, hi + 2.0))
    table = _log_factorial_table
    if hi >= table.size:
        size = min(2 * (hi + 1), _LOG_FACTORIAL_CAP)
        table = gammaln(np.arange(1.0, size + 1.0))
        table.flags.writeable = False
        _log_factorial_table = table
    return table[lo:hi + 1]


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

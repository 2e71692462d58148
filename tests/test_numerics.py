import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from ftcircuit import numerics
from ftcircuit.numerics import bisect, log_binom_tail


def log_binom_terms(n: int, p: float, ks: np.ndarray) -> np.ndarray:
    """log Pr[Binomial(n, p) = k] for each k in ks, from gammaln itself
    rather than the package's table."""
    return (gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1)
            + ks * math.log(p) + (n - ks) * math.log1p(-p))


def full_log_tail(n: int, p: float, k: int) -> float:
    """Every term k..n of the tail, summed in log space."""
    return float(logsumexp(log_binom_terms(n, p, np.arange(k, n + 1))))


def tail_cases():
    rng = random.Random(7)
    cases = []
    for _ in range(80):
        n = rng.randint(2, 100_000)
        p = 10.0 ** rng.uniform(-4.0, math.log10(0.45))
        mode = math.floor((n + 1) * p)
        sd = math.sqrt(n * p * (1.0 - p)) + 1.0
        # just above the mode, where the window is longest
        cases.append((n, p, min(n, mode + 1 + rng.randint(0, 3))))
        # further above it, where it is shortest
        above = int(rng.uniform(1.0, 12.0) * sd)
        cases.append((n, p, min(n, mode + 1 + above)))
        # at or below the mode, where every term counts
        cases.append((n, p, max(1, mode - int(rng.uniform(0.0, 3.0) * sd))))
        cases.append((n, p, n))
        cases.append((n, 1e-7, rng.randint(1, min(n, 50))))
    return cases


def test_log_binom_tail_matches_full_sum():
    off = []
    for n, p, k in tail_cases():
        want = full_log_tail(n, p, k)
        if abs(log_binom_tail(n, p, k) - want) > 1e-14 * abs(want):
            off.append((n, p, k))
    assert not off


def test_log_binom_tail_lies_between_its_ratio_bounds():
    # from k on the ratio of consecutive terms falls from r = (n - k)/(k + 1)
    # p/(1 - p), so for r < 1 the tail lies between its term at k and that
    # term over 1 - r; r stays below 0.99 so the tail sums a few thousand
    # terms at most.  The logs of the bound and of the tail subtract
    # log-gammas near lgamma(n + 1), so they may part by a few of its ulps
    # beside the relative 1e-12
    checked = 0
    for n in (5, 9, 31, 101, 1_001, 7_689, 50_001, 220_161, 3_400_000_001):
        ks = {1, 2, 3, 10, 35, 1_000, 10**5, 10**8}
        ks |= {max(1, round(n * x)) for x in np.linspace(0.0, 1.0, 21)}
        for p in np.geomspace(1e-9, 0.2, 13):
            for k in sorted(k for k in ks if k <= n):
                r = (n - k) / (k + 1) * (p / (1.0 - p))
                if r >= 0.99:
                    continue
                term = (math.lgamma(n + 1) - math.lgamma(k + 1)
                        - math.lgamma(n - k + 1) + k * math.log(p)
                        + (n - k) * math.log1p(-p))
                tail = log_binom_tail(n, p, k)
                tol = 1e-12 * abs(tail) + 4 * math.ulp(math.lgamma(n + 1))
                assert term - tol <= tail <= term - math.log1p(-r) + tol, (
                    n, p, k)
                checked += 1
    assert checked > 2000


def test_log_binom_tail_edges():
    assert log_binom_tail(10, 0.3, 0) == 0.0
    assert log_binom_tail(10, 0.3, -2) == 0.0
    assert log_binom_tail(10, 1.0, 4) == 0.0
    assert log_binom_tail(10, 0.3, 11) == -math.inf
    assert log_binom_tail(10, 0.0, 1) == -math.inf
    # k = n: the single term n log p
    assert log_binom_tail(1, 0.01, 1) == full_log_tail(1, 0.01, 1)
    assert log_binom_tail(7, 0.2, 7) == pytest.approx(7 * math.log(0.2),
                                                      rel=1e-15)


@pytest.mark.parametrize("n,p,k,last", [
    (40, 0.3, 5, 40),             # r >= 1: below the mode every term counts
    (3, 5e-324, 2, 2),            # r = 0: (n - k)/(k + 1) * p underflows
    (7, 0.2, 7, 7),               # k = n: the single term n log p
    (200_000, 0.05, 9_000, 200_000),    # r >= 1, n - k past the cap
])
def test_log_binom_tail_edge_branches_sum_the_oracle_terms(n, p, k, last):
    # the terms k..last the branch keeps, each the same double as
    # gammaln's own, through the same log-sum-exp
    want = numerics._log_sum_exp(log_binom_terms(n, p,
                                                 np.arange(k, last + 1)))
    assert log_binom_tail(n, p, k) == want


def test_log_sum_exp_single_maximum_shortcut_is_the_same_double():
    # the steps with the m maxima split out, written for any m
    def log_sum_exp_steps(a):
        a_max = a.max()
        top = a == a_max
        m = np.count_nonzero(top)
        shifted = np.exp(a - a_max)
        shifted[top] = 0.0
        s = shifted.sum()
        if s != 0.0:
            s = s / m
        return float(np.log1p(s) + np.log(m) + a_max)

    rng = np.random.default_rng(5)
    for size in (1, 2, 3, 17, 114, 1000):
        for _ in range(200):
            a = rng.normal(-700.0, rng.uniform(1e-3, 300.0), size)
            if size > 1 and rng.random() < 0.3:
                a[rng.integers(size)] = a.max()    # tied maxima
            assert numerics._log_sum_exp(a) == log_sum_exp_steps(a)


@pytest.mark.parametrize("lo,hi", [
    (0, numerics._LOG_FACTORIAL_CAP - 1),
    (numerics._LOG_FACTORIAL_CAP - 9, numerics._LOG_FACTORIAL_CAP),
    (10**8 - 9, 10**8),
    (5, 5),
])
def test_log_factorials_are_gammaln(lo, hi):
    got = numerics._log_factorials(lo, hi)
    want = gammaln(np.arange(lo, hi + 1) + 1.0)
    assert got.tobytes() == want.tobytes()
    # the published table is read-only and never grows past its cap
    assert not numerics._log_factorial_table.flags.writeable
    assert numerics._log_factorial_table.size <= numerics._LOG_FACTORIAL_CAP


def test_log_factorials_fill_is_safe_across_threads(monkeypatch):
    # an empty table grown by more threads than cores, each reading
    # ranges that others are extending; no reader may see an entry that
    # is still being built
    monkeypatch.setattr(numerics, "_log_factorial_table", np.empty(0))
    want = gammaln(np.arange(1.0, 60_002.0))
    bad = []

    def reader(seed):
        # each thread walks up in its own steps, so that its calls
        # extend the table and read just below where others extend it
        for hi in range(seed, 60_000, 29 + seed):
            lo = max(0, hi - 64)
            if not np.array_equal(numerics._log_factorials(lo, hi),
                                  want[lo:hi + 1]):
                bad.append((lo, hi))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(seed,))
                   for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2)])
def test_log_binom_tail_tied_maxima(n, k):
    # at p = 1/2 the terms C(n, k) and C(n, k + 1) are the two largest;
    # the sum splits both out of the shifted exponentials
    terms = log_binom_terms(n, 0.5, np.arange(k, n + 1))
    assert np.count_nonzero(terms == terms.max()) == 2
    exact = sum(Fraction(math.comb(n, j), 2 ** n) for j in range(k, n + 1))
    assert log_binom_tail(n, 0.5, k) == pytest.approx(math.log(exact),
                                                      rel=4e-15)


def test_bisect_raises_when_out_of_iterations():
    with pytest.raises(RuntimeError, match=r"tol=1e-10"):
        bisect(lambda x: x - 0.3, 0.0, 1.0, tol=1e-10, max_iter=3)
    a, b = bisect(lambda x: x - 0.3, 0.0, 1.0, tol=1e-10)
    assert a < 0.3 < b
    assert 0.5 * (a + b) == pytest.approx(0.3, abs=1e-10)


@pytest.mark.parametrize("f,lo,hi", [
    (lambda x: x - 0.3, 0.0, 1.0),           # rising
    (math.cos, 0.0, 3.0),                    # falling
    (lambda x: x ** 3 - 2.0, -1.0, 5.0),
])
def test_bisect_bracket(f, lo, hi):
    for tol in (1e-3, 1e-7, 1e-12):
        a, b = bisect(f, lo, hi, tol=tol)
        assert lo <= a < b <= hi and b - a <= tol
        # each end keeps the sign of f at its side
        assert f(a) * f(lo) > 0.0 and f(b) * f(hi) > 0.0


def test_bisect_exact_zero():
    # zero at an end, and at the first midpoint
    assert bisect(lambda x: x - 0.25, 0.25, 1.0) == (0.25, 0.25)
    assert bisect(lambda x: x - 1.0, 0.25, 1.0) == (1.0, 1.0)
    assert bisect(lambda x: x - 0.5, 0.0, 1.0) == (0.5, 0.5)
    # a midpoint a few halvings in
    assert bisect(lambda x: x - 0.375, 0.0, 1.0, tol=1e-12) == (0.375, 0.375)


def test_bisect_refuses_a_bracket_without_sign_change():
    with pytest.raises(ValueError) as exc:
        bisect(lambda x: x * x + 1.0, 0.0, 1.0)
    assert str(exc.value) == "no sign change on [0.0, 1.0]"


def test_wilson_interval_refuses_zero_trials():
    with pytest.raises(ValueError) as exc:
        numerics.wilson_interval(0, 0)
    assert str(exc.value) == "trials must be positive"

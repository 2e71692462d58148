import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from ftcircuit import numerics
from ftcircuit.numerics import bisect, log_binom_pmf, log_binom_tail


def decimal_log_tail(n: int, p: float, k: int, last: int | None = None
                     ) -> float:
    """ln of the sum of Pr[Binomial(n, p) = j] over j = k..last (n by
    default), in 40-digit decimal arithmetic from the exact binomial
    coefficient at k and the ratios of consecutive terms.  Once the ratio
    r is below 1 the terms left total at most term r/(1 - r), and the sum
    stops when that is below 1e-42 of it."""
    last = n if last is None else last
    with localcontext() as ctx:
        ctx.prec = 40
        p_ = Decimal(p)
        odds = p_ / (1 - p_)
        term = Decimal(math.comb(n, k)) * p_ ** k * (1 - p_) ** (n - k)
        total = term
        for j in range(k, last):
            r = (n - j) / Decimal(j + 1) * odds
            term *= r
            total += term
            if r < 1 and term * r / (1 - r) < Decimal("1e-42") * total:
                break
        return float(total.ln())


def within_stated_accuracy(got: float, want: float) -> bool:
    """|got - want| <= 1e-13 + 4e-15 |want|, log_binom_tail's accuracy."""
    return abs(got - want) <= 1e-13 + 4e-15 * abs(want)


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
        got = log_binom_tail(n, p, k)
        if got > 0.0 or not within_stated_accuracy(
                got, decimal_log_tail(n, p, k)):
            off.append((n, p, k))
    assert not off


def test_log_binom_tail_lies_between_its_ratio_bounds():
    # from k on the ratio of consecutive terms falls from r = (n - k)/(k + 1)
    # p/(1 - p), so for r < 1 the tail lies between its term at k and that
    # term over 1 - r; r stays below 0.99 so the tail sums a few thousand
    # terms at most.  The term here subtracts log-gammas near
    # lgamma(n + 1), so it may be off by a few of its ulps beside the
    # relative 1e-12
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
    assert log_binom_tail(1, 0.01, 1) == math.log(0.01)
    assert log_binom_tail(7, 0.2, 7) == pytest.approx(7 * math.log(0.2),
                                                      rel=1e-15)


@pytest.mark.parametrize("n,p,k,last", [
    (40, 0.3, 5, 40),             # r >= 1: below the mode every term counts
    (3, 5e-324, 2, 2),            # r = 0: (n - k)/(k + 1) * p underflows
    (7, 0.2, 7, 7),               # k = n: the single term n log p
    (200_000, 0.05, 9_000, 200_000),    # r >= 1 at a large n
])
def test_log_binom_tail_edge_branches_sum_the_oracle_terms(n, p, k, last):
    # the terms k..last that the branch stands for, in decimal
    got = log_binom_tail(n, p, k)
    assert got <= 0.0
    assert within_stated_accuracy(got, decimal_log_tail(n, p, k, last))


# k <= 15 reads the Stirling table, then each length of its series: to
# 35, 80, 500 and past; k near np takes bd0's series, far from it its log
PMF_CASES = [
    (1, 0.3, 0), (1, 0.3, 1), (9, 0.4, 0), (9, 0.4, 9), (9, 0.4, 4),
    (30, 0.5, 15), (30, 0.5, 16), (30, 0.02, 1), (60, 0.5, 30),
    (60, 0.5, 36), (150, 0.3, 45), (150, 0.3, 90), (1_000, 0.3, 300),
    (1_000, 0.3, 501), (120_001, 0.00292, 6_963), (120_001, 0.00292, 350),
    (3_400_000_001, 3e-9, 35), (200_000, 1e-7, 1), (50, 0.45, 49),
]


@pytest.mark.parametrize("n,p,k", PMF_CASES)
def test_log_binom_pmf_matches_decimal(n, p, k):
    assert within_stated_accuracy(log_binom_pmf(n, p, k),
                                  decimal_log_tail(n, p, k, k))


def test_log_binom_tail_never_exceeds_one_below_the_mode():
    # at or below the mode the tail is 1 less a lower tail, so its log
    # is at most 0 however the terms round
    cases = [(n, p, k) for n in (1_000, 4_001, 20_000, 100_001, 400_000)
             for p in (0.01, 0.05, 0.2, 0.45)
             for k in {1, 2, 3, 5, 8, 13, *(max(1, int(n * p * x)) for x in
                                            (0.1, 0.5, 0.9, 0.99, 1.0))}]
    assert max(log_binom_tail(n, p, k) for n, p, k in cases) <= 0.0
    assert numerics.binom_tail(1_000, 0.05, 1) <= 1.0


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2)])
def test_log_binom_tail_tied_maxima(n, k):
    # at p = 1/2 the terms C(n, k) and C(n, k + 1) are the two largest
    # and tie, so the ratio of the terms at k is exactly 1, where the tail
    # turns from the upper sum to the lower one
    assert math.comb(n, k) == math.comb(n, k + 1)
    exact = sum(Fraction(math.comb(n, j), 2 ** n) for j in range(k, n + 1))
    assert log_binom_tail(n, 0.5, k) == pytest.approx(math.log(exact),
                                                      rel=4e-15)


def test_bisect_raises_when_out_of_iterations():
    with pytest.raises(RuntimeError, match=r"tol=1e-10"):
        bisect(lambda x: x - 0.3, 0.0, 1.0, tol=1e-10, max_iter=3)
    a, b = bisect(lambda x: x - 0.3, 0.0, 1.0, tol=1e-10)
    assert a < 0.3 < b
    assert 0.5 * (a + b) == pytest.approx(0.3, abs=1e-10)


def test_bisect_returns_the_bracket_of_its_last_halving():
    # the 200th halving is the first to reach tol; no iteration is left to
    # see it, so the bracket is returned after the loop
    assert bisect(lambda x: x - 2.0**-300, 0.0, 1.0,
                  tol=2.0**-200) == (0.0, 2.0**-200)


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


def _fraction_ols(x, y):
    """The exact least-squares line of integer data in rationals:
    (slope, intercept, r^2, Sxx, Syy, mean x, mean y)."""
    mx, my = Fraction(sum(x), len(x)), Fraction(sum(y), len(y))
    sxx = sum((a - mx) ** 2 for a in x)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    syy = sum((b - my) ** 2 for b in y)
    slope = sxy / sxx
    r2 = Fraction(1) if syy == 0 else sxy * sxy / (sxx * syy)
    return slope, my - slope * mx, r2, sxx, syy, mx, my


def test_ols_fit_matches_fraction_oracle():
    # integer data of 2 to 12 points with x up to 2e6, some lines with
    # +-1 noise; the slope is checked on the scale of the data's spread,
    # sqrt(Syy / Sxx), and the intercept on that of its terms
    rng = random.Random(33)
    for _ in range(2000):
        m = rng.randint(2, 12)
        scale = rng.choice([10, 1000, 10 ** 6])
        shift = rng.choice([0, 0, 10 ** 6])
        x = [v + shift for v in rng.sample(range(-scale, scale), m)]
        if rng.random() < 0.3:
            y = [3 * a - 7 + rng.randint(-1, 1) for a in x]
        else:
            y = [rng.randint(-scale, scale) for _ in x]
        slope, icpt, r2 = numerics.ols_fit(x, y)
        want, want_icpt, want_r2, sxx, syy, mx, my = _fraction_ols(x, y)
        spread = math.sqrt(syy / sxx)
        assert (abs(Fraction(slope) - want)
                <= 1e-15 * max(spread, abs(float(want)))), (x, y)
        assert (abs(Fraction(icpt) - want_icpt)
                <= 1e-15 * max(abs(float(my)), spread * abs(float(mx)), 1.0))
        assert abs(Fraction(r2) - want_r2) <= 1e-15, (x, y)


def test_ols_fit_keeps_the_digits_of_large_x():
    # x near 10^6 are distinct, and x near 2e5 lose no digits of the slope
    assert numerics.ols_fit([1000001, 1000003, 1000005, 1000007],
                            [1, 2, 3, 4])[0] == 0.5
    slope = numerics.ols_fit([200001, 200003, 200005, 200007],
                             [1, 2, 3, 4])[0]
    assert abs(slope - 0.5) <= 1e-15


@pytest.mark.parametrize("x,y", [([3.0], [1.0]), ([], []),
                                 ([5, 5, 5], [1, 2, 3])])
def test_ols_fit_refuses_fewer_than_two_distinct_x(x, y):
    with pytest.raises(ValueError) as exc:
        numerics.ols_fit(x, y)
    assert str(exc.value) == "need >= 2 distinct x values"

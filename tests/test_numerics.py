import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import logsumexp

from ftcircuit.numerics import _log_binom_terms, bisect, log_binom_tail


def full_log_tail(n: int, p: float, k: int) -> float:
    """Every term k..n of the tail, summed in log space."""
    return float(logsumexp(_log_binom_terms(n, p, np.arange(k, n + 1))))


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


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2)])
def test_log_binom_tail_tied_maxima(n, k):
    # at p = 1/2 the terms C(n, k) and C(n, k + 1) are the two largest;
    # the sum splits both out of the shifted exponentials
    terms = _log_binom_terms(n, 0.5, np.arange(k, n + 1))
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

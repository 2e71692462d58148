import pytest

from ftcircuit.chi import (ConstructionFailure, estimate_chi,
                           fit_effective_slope)
from ftcircuit.transform import WIRING_SHARED


def test_fit_synthetic_line():
    points = [(n, 10.0 ** (-n / 100.0)) for n in (5, 7, 9, 11, 13)]
    fit = fit_effective_slope(points)
    assert fit.slope == pytest.approx(-0.01, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_requires_enough_points():
    with pytest.raises(ValueError):
        fit_effective_slope([(5, 0.1), (7, 0.01), (9, 0.001)])
    with pytest.raises(ValueError):
        fit_effective_slope([(5, 0.1)] * 4)
    with pytest.raises(ValueError):
        fit_effective_slope([(5, 0.1), (7, -0.01), (9, 0.001), (11, 1e-4)])


def test_fit_analytic_formula_points():
    from ftcircuit import analytic
    point = analytic.fixed_points(2, 0.005).point()
    points = [(n, 10.0 ** analytic.log10_logical_error(n, point))
              for n in range(201, 802, 100)]
    fit = fit_effective_slope(points)
    # finite-n slope of the exact binomial; the asymptotic rate is 1/642
    assert 500 < -1.0 / fit.slope < 800


def test_chi_depth2_band():
    est = estimate_chi(2, 0.005)
    assert 0.42 <= est.chi <= 0.52
    assert est.ci_low == est.ci_high == est.chi  # exact engine points
    assert abs(642.0 / est.chi - 1360.0) <= 136.0


def test_chi_depth4_band():
    est = estimate_chi(4, 0.005)
    assert 0.29 <= est.chi <= 0.39
    assert abs(642.0 / est.chi - 1880.0) <= 188.0


def test_chi_depth2_at_least_quarter():
    assert estimate_chi(2, 0.005).chi >= 0.25


def test_chi_formula_variant_is_one():
    est = estimate_chi(2, 0.005, variant="formula")
    assert est.chi == pytest.approx(1.0, abs=1e-9)


def test_chi_formula_variant_sums_each_tail_once(monkeypatch):
    # the formula variant is its own reference: one binomial tail per n
    from ftcircuit import noisy
    sizes = []
    tail = noisy.binom_tail

    def counted(n, p, k):
        sizes.append(n)
        return tail(n, p, k)

    monkeypatch.setattr(noisy, "binom_tail", counted)
    est = estimate_chi(2, 0.005, variant="formula")
    assert sorted(sizes) == [5, 7, 9, 11, 13]
    assert est.chi == pytest.approx(1.0, abs=1e-9)


def test_chi_stable_across_ranges():
    a = estimate_chi(2, 0.005, n_range=(5, 7, 9, 11))
    b = estimate_chi(2, 0.005, n_range=(9, 11, 13, 15))
    assert abs(a.chi - b.chi) < 0.08


def test_chi_rejects_even_sizes():
    with pytest.raises(ValueError):
        estimate_chi(2, 0.005, n_range=(4, 6, 8, 10))


def test_chi_explicit_delta():
    est = estimate_chi(2, 0.005, delta=0.058)
    assert 0.4 <= est.chi <= 0.55


def test_pathological_wiring_fails():
    # every output reads the same two wires: errors cannot decay with n
    with pytest.raises(ConstructionFailure):
        estimate_chi(2, 0.005, wiring=WIRING_SHARED)


def test_chi_monte_carlo_agrees():
    exact = estimate_chi(2, 0.005, n_range=(5, 7, 9, 11))
    mc = estimate_chi(2, 0.005, n_range=(5, 7, 9, 11), method="monte_carlo",
                      samples=400_000, seed=5)
    assert mc.ci_low - 0.05 <= exact.chi <= mc.ci_high + 0.05
    assert abs(mc.chi - exact.chi) < 0.1

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erfc

from ftcircuit import analytic
from ftcircuit.numerics import bisect, inverse_erfc
from ftcircuit.resource import (EXPONENTIAL, GAUSSIAN, PARETO,
                                REGIME_FT, REGIME_INVALID, REGIME_MARGINAL,
                                REGIME_NON_FT, TailModel, asymptotic_overhead,
                                classify_asymptotic, error_from_signal,
                                overhead_ratio, phase_grid, resource_tradeoff)


def test_inverse_erfc_center():
    assert inverse_erfc(1.0) == 0.0
    assert inverse_erfc(0.5) == pytest.approx(0.476936, abs=1e-6)
    assert inverse_erfc(1.5) == pytest.approx(-inverse_erfc(0.5), rel=1e-12)


def test_inverse_erfc_against_bisection_oracle():
    for y in (0.9, 0.5, 0.1, 1e-3, 1e-8):
        a, b = bisect(lambda x: erfc(x) - y, 0.0, 10.0, tol=1e-14)
        assert b - a <= 1e-14
        assert inverse_erfc(y) == pytest.approx(0.5 * (a + b), rel=1e-10)


def test_inverse_erfc_roundtrip_log_grid():
    for y in np.logspace(-300, -0.001, 120):
        x = inverse_erfc(float(y))
        assert erfc(x) == pytest.approx(y, rel=1e-12)


def test_inverse_erfc_domain():
    for bad in (0.0, 2.0, -0.1, 2.5):
        with pytest.raises(ValueError):
            inverse_erfc(bad)


def test_tail_model_validation():
    with pytest.raises(ValueError):
        TailModel("weibull")
    with pytest.raises(ValueError):
        TailModel(PARETO, gamma=-1.0)
    with pytest.raises(ValueError):
        TailModel(EXPONENTIAL, w_p=0.0)
    for value in (math.inf, math.nan):
        for name in ("gamma", "w_p"):
            with pytest.raises(ValueError, match=(
                    f"{name} must be positive and finite, got {value}")):
                TailModel(PARETO, **{name: value})


def test_error_from_signal_anchors():
    pareto = TailModel(PARETO, gamma=2.0)
    assert error_from_signal(pareto, 0.0) == 0.5
    exp = TailModel(EXPONENTIAL, alpha=1.0, C=0.5)
    assert error_from_signal(exp, math.log(5.0)) == pytest.approx(0.1)
    gauss = TailModel(GAUSSIAN)
    values = [error_from_signal(gauss, r) for r in np.linspace(0, 30, 40)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-30


def test_error_from_signal_clamps_with_warning():
    exp = TailModel(EXPONENTIAL, C=2.0)
    with pytest.warns(UserWarning, match="clamp"):
        assert error_from_signal(exp, 0.0) == 0.5
    with pytest.raises(ValueError):
        error_from_signal(exp, -1.0)


def test_resource_tradeoff_anchors():
    exp = TailModel(EXPONENTIAL, alpha=1.0, A=1.0)
    assert resource_tradeoff(exp, math.exp(-10.0)) == pytest.approx(10.0)
    pareto = TailModel(PARETO, gamma=2.0, A=1.0, beta=1.0)
    assert resource_tradeoff(pareto, 0.499999999) == pytest.approx(0.0, abs=1e-8)
    gauss = TailModel(GAUSSIAN, sigma=1.0, A=1.0)
    assert resource_tradeoff(gauss, 0.25) == pytest.approx(
        math.sqrt(2.0) * 0.476936, abs=1e-5)


def test_resource_tradeoff_inverts_error_from_signal():
    # W = A*R, so error_from_signal(W/A) must give back eps for every C
    for C in (0.5, 1.0, 2.0):
        for model in (TailModel(EXPONENTIAL, A=3.0, alpha=0.7, C=C),
                      TailModel(GAUSSIAN, A=3.0, sigma=0.7, C=C),
                      TailModel(PARETO, A=3.0, beta=0.7, gamma=1.5, C=C)):
            for eps in (0.2, 0.01, 1e-6, 1e-15, 1e-30):
                r = resource_tradeoff(model, eps) / model.A
                assert error_from_signal(model, r) == pytest.approx(
                    eps, rel=1e-12)


def test_resource_tradeoff_unreachable_eps():
    # the prefactor caps the error rate at zero signal: C, C/2, C/2
    point = analytic.fixed_points(2, 0.005).point(0.058)
    with pytest.raises(ValueError, match="cannot reach"):
        resource_tradeoff(TailModel(EXPONENTIAL, C=0.25), 0.3)
    for kind in (GAUSSIAN, PARETO):
        model = TailModel(kind, C=0.5)
        assert resource_tradeoff(model, 0.25) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError, match="cannot reach"):
            resource_tradeoff(model, 0.3)
        with pytest.raises(ValueError, match="cannot reach"):
            asymptotic_overhead(TailModel(kind, C=0.5, w_p=1.0), 0.3,
                                point, 0.47)


def test_pareto_overhead_carries_prefactor():
    # asymptotic and exact eta share W(eps_l) = A beta ((2 eps_l/C)^(-1/gamma) - 1)
    point = analytic.fixed_points(2, 0.005).point()
    for C in (0.5, 2.0):
        model = TailModel(PARETO, gamma=2.0, w_p=3e2, C=C)
        w_l = (2.0 * 1e-20 / C) ** -0.5 - 1.0
        eta = asymptotic_overhead(model, 1e-20, point, 0.47)
        assert eta == pytest.approx(
            3e2 / w_l * 3 / 0.47 * point.coefficient * math.log(1e20),
            rel=1e-12)
        report = overhead_ratio(model, 1e-20, point, 0.47)
        assert report.eta == pytest.approx(3e2 / w_l * report.eta_number,
                                           rel=1e-12)


def test_resource_tradeoff_monotone():
    grid = np.logspace(-30, math.log10(0.49), 200)
    for model in (TailModel(EXPONENTIAL), TailModel(GAUSSIAN),
                  TailModel(PARETO, gamma=2.0)):
        w = [resource_tradeoff(model, float(e)) for e in grid]
        assert all(b <= a + 1e-12 for a, b in zip(w, w[1:]))
        assert min(w) >= 0.0


def test_classify_asymptotic():
    assert classify_asymptotic(TailModel(GAUSSIAN)) == REGIME_NON_FT
    assert classify_asymptotic(TailModel(PARETO)) == REGIME_FT
    assert classify_asymptotic(TailModel(EXPONENTIAL)) == REGIME_MARGINAL


def test_exponential_overhead_constant_in_eps_l():
    point = analytic.fixed_points(2, 0.005).point()
    model = TailModel(EXPONENTIAL, w_p=1.0)
    etas = {asymptotic_overhead(model, 10.0 ** -k, point, 0.47)
            for k in range(5, 31)}
    assert len(etas) == 1
    assert etas.pop() == pytest.approx(3 * 279 / 0.47, rel=0.02)


def test_gaussian_overhead_grows_unbounded():
    point = analytic.fixed_points(2, 0.005).point()
    model = TailModel(GAUSSIAN, w_p=2e-4)
    etas = [asymptotic_overhead(model, 10.0 ** (-2 * k), point, 0.47)
            for k in range(5, 16)]
    assert all(b > a for a, b in zip(etas, etas[1:]))
    assert etas[-1] > 1.0
    assert etas[-1] > etas[0] * 1.5


def test_pareto_overhead_vanishes():
    point = analytic.fixed_points(2, 0.005).point()
    model = TailModel(PARETO, gamma=2.0, w_p=3e2)
    etas = [asymptotic_overhead(model, 10.0 ** (-2 * k), point, 0.47)
            for k in range(5, 16)]
    assert all(b < a for a, b in zip(etas, etas[1:]))
    assert etas[-1] < 1.0


def test_exact_and_asymptotic_agree_deep():
    point = analytic.fixed_points(2, 0.005).point()
    for model in (TailModel(EXPONENTIAL, w_p=1.0),
                  TailModel(GAUSSIAN, w_p=2e-4),
                  TailModel(PARETO, gamma=2.0, w_p=3e2)):
        report = overhead_ratio(model, 1e-20, point, 0.47)
        assert report.eta == pytest.approx(report.eta_asymptotic, rel=0.2)


def test_overhead_ratio_validation():
    model = TailModel(EXPONENTIAL, w_p=1.0)
    point = analytic.fixed_points(2, 0.005).point()
    with pytest.raises(ValueError):
        overhead_ratio(model, 1e-10, point, 0.0)
    with pytest.raises(ValueError):
        overhead_ratio(model, 0.01, point, 0.47)


def test_phase_grid_pareto_ft_region():
    model = TailModel(PARETO, gamma=2.0)
    grid = phase_grid(model, "eps_p", [0.003, 0.005, 0.008],
                      "eps_l", [1e-25, 1e-20, 1e-15],
                      {"chi": 0.47, "w_p": 3e2})
    flat = [r for row in grid.regime for r in row]
    assert REGIME_FT in flat
    # the FT region grows toward smaller eps_l
    for row in grid.eta_exact:
        values = [v for v in row if not math.isnan(v)]
        assert values == sorted(values)


def test_phase_grid_one_search_per_code_size_input(monkeypatch):
    searches = []
    search = analytic.required_code_size

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(analytic, "required_code_size", counted)
    model = TailModel(PARETO, w_p=3e2)
    gammas, eps_ls = [1.5, 2.0, 3.0], [1e-12, 1e-10]
    grid = phase_grid(model, "gamma", gammas, "eps_l", eps_ls,
                      {"eps_p": 0.005, "chi": 0.47})
    # n depends on (eps_l, eps_p) alone; gamma only rescales eta
    assert len(searches) == len(eps_ls)
    point = analytic.fixed_points(2, 0.005).point()
    for i, gamma in enumerate(gammas):
        for j, eps_l in enumerate(eps_ls):
            report = overhead_ratio(replace(model, gamma=gamma), eps_l,
                                    point, 0.47)
            assert grid.eta_exact[i][j] == report.eta
            assert grid.eta_asymptotic[i][j] == report.eta_asymptotic
            assert grid.regime[i][j] == report.regime


def test_phase_grid_one_window_per_eps_p(monkeypatch):
    windows, thresholds = [], []
    solve = analytic.fixed_points

    def counted(*args):
        windows.append(args)
        return solve(*args)

    monkeypatch.setattr(analytic, "fixed_points", counted)
    monkeypatch.setattr(analytic, "pseudothreshold",
                        lambda *args: thresholds.append(args))
    model = TailModel(GAUSSIAN, w_p=2e-4)
    # 0.012 lies above the depth-2 pseudothreshold, and eps_l = 5e-3 is
    # at or above eps_p = 0.004 but below 0.006
    grid = phase_grid(model, "eps_l", [1e-12, 1e-6, 5e-3], "eps_p",
                      [0.004, 0.006, 0.012], {"chi": 0.47})
    assert thresholds == []
    assert sorted(windows) == [(2, 0.004), (2, 0.006), (2, 0.012)]
    assert [row[2] for row in grid.regime] == [REGIME_INVALID] * 3
    assert grid.regime[2][0] == REGIME_INVALID
    assert REGIME_INVALID not in grid.regime[0][:2] + grid.regime[2][1:2]


def test_phase_grid_eps_p_domain():
    # an eps_p outside [0, 1/2) has no window to mark invalid
    model = TailModel(EXPONENTIAL, w_p=1.0)
    for eps_p in (-0.001, 0.5, 0.7):
        with pytest.raises(ValueError, match=r"eps_p must be in \[0, 1/2\)"):
            phase_grid(model, "eps_p", [0.005, eps_p], "eps_l", [1e-10],
                       {"chi": 0.47})


def test_phase_grid_gamma_axis_needs_pareto():
    for kind in (EXPONENTIAL, GAUSSIAN):
        for axes in (("gamma", "eps_l"), ("eps_l", "gamma")):
            with pytest.raises(ValueError, match="pareto tail only"):
                phase_grid(TailModel(kind), axes[0], [1.5, 3.0], axes[1],
                           [1e-20, 1e-10], {"eps_p": 0.005, "chi": 0.47})


def test_phase_grid_needs_eps_l(monkeypatch):
    monkeypatch.setattr(analytic, "fixed_points", None)  # no cell is reached
    with pytest.raises(ValueError,
                       match="eps_l must be fixed or a grid axis"):
        phase_grid(TailModel(PARETO), "eps_p", [0.005, 0.006], "w_p",
                   [1.0, 10.0], {"chi": 0.47})


def test_phase_grid_fixed_delta_matches_overhead_ratio():
    model = TailModel(EXPONENTIAL, w_p=1.0)
    grid = phase_grid(model, "eps_p", [0.003, 0.005], "eps_l",
                      [1e-12, 1e-6], {"chi": 0.47, "delta": 0.058})
    for i, eps_p in enumerate(grid.values1):
        point = analytic.fixed_points(2, eps_p).point(0.058)
        for j, eps_l in enumerate(grid.values2):
            report = overhead_ratio(model, eps_l, point, 0.47)
            assert grid.eta_exact[i][j] == report.eta
            assert grid.eta_asymptotic[i][j] == report.eta_asymptotic


def test_phase_grid_gaussian_all_non_ft_when_wp_large():
    model = TailModel(GAUSSIAN)
    grid = phase_grid(model, "eps_p", [0.003, 0.005],
                      "eps_l", [1e-10, 1e-20],
                      {"chi": 0.47, "w_p": 10.0})
    flat = [r for row in grid.regime for r in row]
    assert set(flat) <= {REGIME_NON_FT, REGIME_INVALID}


def test_phase_grid_marks_invalid_cells():
    model = TailModel(EXPONENTIAL)
    grid = phase_grid(model, "eps_p", [0.005, 0.05],
                      "eps_l", [1e-10], {"chi": 0.47, "w_p": 1.0})
    assert grid.regime[1][0] == REGIME_INVALID
    assert math.isnan(grid.eta_exact[1][0])


@pytest.mark.parametrize("chi", [5.0, 7.0])
def test_phase_grid_refuses_chi_when_every_cell_is_invalid(chi):
    # eps_p = 0.02 and 0.03 lie above the depth-2 pseudothreshold
    model = TailModel(PARETO)
    with pytest.raises(ValueError,
                       match=rf"chi must be in \(0, 1\], got {chi}"):
        phase_grid(model, "eps_p", [0.02, 0.03], "eps_l", [1e-10, 1e-9],
                   {"chi": chi})


@pytest.mark.parametrize("axis2, values2, fixed", [
    ("eps_l", [0.0, 1e-10], {}),
    ("eps_l", [1e-10, -1e-12], {}),
    ("w_p", [100.0, 300.0], {"eps_l": 0.0}),
])
def test_phase_grid_refuses_eps_l_at_or_below_zero(monkeypatch, axis2,
                                                   values2, fixed):
    # refused by name before any cell, not by the code-size search
    def no_search(*args):
        raise AssertionError("the code-size search was reached")

    monkeypatch.setattr(analytic, "required_code_size", no_search)
    with pytest.raises(ValueError, match="eps_l must be > 0, got "):
        phase_grid(TailModel(PARETO), "eps_p", [0.005], axis2, values2,
                   {"chi": 0.47, **fixed})


def test_phase_grid_exponential_constant_along_eps_l():
    model = TailModel(EXPONENTIAL)
    grid = phase_grid(model, "eps_p", [0.005],
                      "eps_l", [1e-10, 1e-20], {"chi": 0.47, "w_p": 1.0})
    assert grid.eta_asymptotic[0][0] == grid.eta_asymptotic[0][1]


def test_phase_grid_contour_crosses_one():
    model = TailModel(GAUSSIAN)
    grid = phase_grid(model, "eps_p", [0.002, 0.004, 0.006, 0.008],
                      "eps_l", [1e-4, 1e-3], {"chi": 0.47, "w_p": 2e-4})
    assert grid.contour  # eta crosses 1 between 0.004 and 0.006
    for a1, a2 in grid.contour:
        assert 0.002 <= a1 <= 0.008 or 1e-4 <= a2 <= 1e-3


@pytest.mark.parametrize("eps_p", [0.0, 0.5])
def test_resource_tradeoff_refuses_eps_p_outside_the_open_interval(eps_p):
    with pytest.raises(ValueError) as exc:
        resource_tradeoff(TailModel(EXPONENTIAL), eps_p)
    assert str(exc.value) == f"eps_p must be in (0, 1/2), got {eps_p}"


def test_phase_grid_refuses_an_unknown_axis():
    with pytest.raises(ValueError) as exc:
        phase_grid(TailModel(EXPONENTIAL), "bogus", [1.0], "eps_l", [1e-10],
                   {"eps_p": 0.005})
    assert str(exc.value) == "unknown grid axis: bogus"

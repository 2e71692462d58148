"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single CRITERION line with the measured values so a
full run doubles as a summary report.
"""
import itertools
import math
import time

import numpy as np

from ftcircuit import analytic, chi as chi_mod, noisy, resource
from ftcircuit.numerics import binom_tail
from ftcircuit.transform import FtParams, build_formula_gadget

import conftest
from test_analytic import brute_force_depth2_stage_error


def report(num: int, label: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {num} [{label}]: {status} ({detail})"
    print(line)
    conftest.CRITERION_LINES.append(line)
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_pseudothresholds():
    start = time.perf_counter()
    p2 = analytic.pseudothreshold(2)
    p4 = analytic.pseudothreshold(4)
    elapsed = time.perf_counter() - start
    ok = (abs(p2 - 0.01077) <= 2e-4 and abs(p4 - 0.02515) <= 2e-4
          and elapsed < 2.0)
    report(1, "pseudothresholds", ok,
           f"D=2: {p2:.6f}, D=4: {p4:.6f}, {elapsed:.2f}s")


def test_criterion_2_fixed_points():
    start = time.perf_counter()
    w2 = analytic.fixed_points(2, 0.005)
    w4 = analytic.fixed_points(4, 0.005)
    elapsed = time.perf_counter() - start
    ok = (abs(w2.delta_lo - 0.0181) <= 5e-4 and abs(w2.delta_hi - 0.132) <= 5e-4
          and abs(w4.delta_lo - 0.0155) <= 5e-4
          and abs(w4.delta_hi - 0.254) <= 5e-4 and elapsed < 1.0)
    report(2, "fixed points", ok,
           f"D=2: ({w2.delta_lo:.4f}, {w2.delta_hi:.4f}), "
           f"D=4: ({w4.delta_lo:.4f}, {w4.delta_hi:.4f}), {elapsed:.2f}s")


def test_criterion_3_optimal_fiducials():
    start = time.perf_counter()
    d2 = analytic.optimal_fiducial(2, 0.005)
    d4 = analytic.optimal_fiducial(4, 0.005)
    elapsed = time.perf_counter() - start
    ok = (abs(d2 - 0.0580) <= 1e-3 and abs(d4 - 0.104) <= 2e-3
          and elapsed < 1.0)
    report(3, "optimal fiducials", ok,
           f"D=2: {d2:.4f}, D=4: {d4:.4f}, {elapsed:.2f}s")


def test_criterion_4_code_size_coefficients():
    start = time.perf_counter()
    c2 = analytic.fixed_points(2, 0.005).point().coefficient
    c4 = analytic.fixed_points(4, 0.005).point().coefficient
    log10_slope = c2 * math.log(10.0)
    elapsed = time.perf_counter() - start
    ok = (abs(c2 - 279) <= 3 and abs(c4 - 11.4) <= 0.3
          and abs(log10_slope - 642) <= 7 and elapsed < 1.0)
    report(4, "code-size coefficients", ok,
           f"D=2: {c2:.1f}, D=4: {c4:.2f}, log10 slope: {log10_slope:.1f}, "
           f"{elapsed:.2f}s")


def test_criterion_5_independency():
    start = time.perf_counter()
    est2 = chi_mod.estimate_chi(2, 0.005)
    est4 = chi_mod.estimate_chi(4, 0.005)
    elapsed = time.perf_counter() - start
    slope2 = 642.0 / est2.chi
    slope4 = 642.0 / est4.chi
    ok = (0.42 <= est2.chi <= 0.52 and 0.29 <= est4.chi <= 0.39
          and abs(slope2 - 1360) <= 136 and abs(slope4 - 1880) <= 188
          and elapsed < 600.0)
    report(5, "independency", ok,
           f"chi(2)={est2.chi:.3f}, chi(4)={est4.chi:.3f}, "
           f"642/chi: {slope2:.0f} vs 1360, {slope4:.0f} vs 1880, "
           f"{elapsed:.1f}s")


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    agreements = []
    for n, depth in [(5, 2), (9, 2), (5, 4)]:
        delta = 0.058 if depth == 2 else 0.104
        params = FtParams(n, depth, 0.005, delta)
        dist = noisy.exact_stage_error(params)
        threshold = noisy.failure_threshold(n, delta)
        exact_tail = noisy.tail_probability(dist, threshold)
        net = noisy.gadget_network(params)
        est = noisy.monte_carlo_logical_error(net, delta, samples=10_000_000,
                                              seed=42)
        agreements.append(est.ci_low <= exact_tail <= est.ci_high)

    tree_diffs = []
    for n in (3, 5, 9):
        params = FtParams(n, 2, 0.005, 0.058)
        gadget = build_formula_gadget(params)
        net = noisy.induce_network(gadget.circuit, 0.005, 0.058,
                                   {w: 1 for w in gadget.circuit.inputs})
        marginals = noisy.tree_error_marginals(net)
        p = next(iter(marginals.values()))
        threshold = noisy.failure_threshold(n, 0.058)
        via_circuit = binom_tail(n, p, threshold)
        via_formula = noisy.circuit_logical_error(
            params, variant="formula", delta_threshold=0.058).mean
        tree_diffs.append(abs(via_circuit - via_formula))
    elapsed = time.perf_counter() - start
    ok = all(agreements) and max(tree_diffs) < 1e-12 and elapsed < 300.0
    report(6, "oracle equivalence", ok,
           f"MC-in-CI: {agreements}, tree max diff: {max(tree_diffs):.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_7_stage_error_identity():
    start = time.perf_counter()
    worst_grid = 0.0
    for eps_p, delta in itertools.product(np.linspace(0.0, 0.49, 100),
                                          np.linspace(0.0, 0.49, 100)):
        diff = abs(analytic.stage_error(2, eps_p, delta)
                   - analytic.stage_error_depth2_closed_form(eps_p, delta))
        worst_grid = max(worst_grid, diff)
    worst_brute = 0.0
    for eps_p, delta in [(0.005, 0.058), (0.02, 0.1), (0.1, 0.3)]:
        diff = abs(analytic.stage_error(2, eps_p, delta)
                   - brute_force_depth2_stage_error(eps_p, delta))
        worst_brute = max(worst_brute, diff)
    elapsed = time.perf_counter() - start
    ok = worst_grid < 1e-12 and worst_brute < 1e-12 and elapsed < 60.0
    report(7, "stage-error identity", ok,
           f"grid max diff: {worst_grid:.2e}, brute-force max diff: "
           f"{worst_brute:.2e}, {elapsed:.1f}s")


def test_criterion_8_exponential_regime():
    start = time.perf_counter()
    point = analytic.fixed_points(2, 0.005).point()
    model = resource.TailModel(resource.EXPONENTIAL, w_p=1.0)
    etas = {resource.asymptotic_overhead(model, 10.0 ** -k, point, 0.47)
            for k in range(5, 31)}
    elapsed = time.perf_counter() - start
    ok = len(etas) == 1 and elapsed < 1.0
    report(8, "exponential regime", ok,
           f"eta constant across eps_l: {len(etas) == 1} "
           f"(eta={next(iter(etas)):.1f}), {elapsed:.2f}s")


def test_criterion_8_gaussian_regime():
    start = time.perf_counter()
    point = analytic.fixed_points(2, 0.005).point()
    model = resource.TailModel(resource.GAUSSIAN, w_p=2e-4)
    deep = [resource.asymptotic_overhead(model, 10.0 ** -k, point, 0.47)
            for k in range(30, 61, 5)]
    increasing = all(b > a for a, b in zip(deep, deep[1:]))
    above_one = all(v > 1.0 for v in deep)
    moderate = resource.asymptotic_overhead(model, 1e-2, point, 0.47)
    elapsed = time.perf_counter() - start
    ok = increasing and above_one and moderate < 1.0 and elapsed < 1.0
    report(8, "gaussian regime", ok,
           f"increasing: {increasing}, >1 deep: {above_one}, "
           f"FT at moderate eps_l: eta(1e-2)={moderate:.3f}, {elapsed:.2f}s")


def test_criterion_8_pareto_regime():
    # the paper promises FT only in the limit eps_l -> 0; at this operating
    # point the model puts the eta = 1 crossover near eps_l = 1.5e-15, so
    # the bound eta < 1 holds at the deep keys and fails at the shallow ones
    start = time.perf_counter()
    eps_p, depth, chi = 0.005, 2, 0.47
    point = analytic.fixed_points(depth, eps_p).point()
    d2 = point.delta
    model = resource.TailModel(resource.PARETO, gamma=2.0, w_p=3e2)
    keys = (6, 10, 16, 20)
    etas = {k: resource.asymptotic_overhead(model, 10.0 ** -k, point, chi)
            for k in keys}
    elapsed = time.perf_counter() - start

    # hand evaluation of the closed form w_p (D+1)/chi 2f(1-f)/(f-delta)^2
    # ln(1/eps_l) / ((2 eps_l)^(-1/gamma) - 1), f from the depth-2 oracle
    f = analytic.stage_error_depth2_closed_form(eps_p, d2)
    coeff = 2.0 * f * (1.0 - f) / (f - d2) ** 2

    def hand(eps_l):
        w_l = (2.0 * eps_l) ** (-1.0 / model.gamma) - 1.0
        return (model.w_p * (depth + 1) / chi * coeff * math.log(1.0 / eps_l)
                / w_l)

    hand_diff = max(abs(etas[k] - hand(10.0 ** -k)) / hand(10.0 ** -k)
                    for k in keys)
    exact_regimes = {k: resource.overhead_ratio(model, 10.0 ** -k, point,
                                                chi).regime
                     for k in keys}
    regimes_agree = all(
        exact_regimes[k] == (resource.REGIME_FT if etas[k] < 1.0
                             else resource.REGIME_NON_FT)
        for k in keys)
    non_ft = all(etas[k] > 1.0 for k in (6, 10))
    ft = all(etas[k] < 1.0 for k in (16, 20))
    decreasing = all(etas[b] < etas[a] for a, b in zip(keys, keys[1:]))
    ok = (hand_diff < 1e-12 and non_ft and ft and decreasing
          and regimes_agree and elapsed < 1.0)
    detail = ", ".join(f"eta(1e-{k})={v:.3g}" for k, v in etas.items())
    report(8, "pareto regime", ok,
           f"bracket: eta(1e-10)={etas[10]:.3g} > 1 > "
           f"eta(1e-16)={etas[16]:.3g}; {detail}; decreasing: {decreasing}; "
           f"hand closed-form max rel diff: {hand_diff:.2e}; exact regimes "
           f"agree: {regimes_agree}, {elapsed:.2f}s")


def test_criterion_9_figure_substitutes():
    # exact figure layouts are not reproducible (axes unstated); the
    # regime checks of criterion 8 and the fitted-slope agreement of
    # criterion 5 stand in for Figs. 4-6 and the deep tail of Fig. 3
    grid = resource.phase_grid(
        resource.TailModel(resource.PARETO, gamma=2.0),
        "eps_p", [0.003, 0.005, 0.008], "eps_l", [1e-25, 1e-20, 1e-15],
        {"chi": 0.47, "w_p": 3e2})
    flat = [r for row in grid.regime for r in row]
    ok = resource.REGIME_FT in flat
    report(9, "figure substitutes", ok,
           f"pareto grid FT region nonempty: {ok}; deep-tail behavior "
           "covered by slope extrapolation in criterion 5")

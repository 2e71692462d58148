import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from ftcircuit import analytic
from ftcircuit.analytic import (fixed_points, logical_error_formula,
                                optimal_fiducial, pseudothreshold,
                                required_code_size, stage_error,
                                stage_error_depth2_closed_form)
from ftcircuit.numerics import _log_binom_terms, ols_fit
from ftcircuit.resource import EXPONENTIAL, TailModel, overhead_ratio

EVANS_PIPPENGER = (3.0 - math.sqrt(7.0)) / 4.0


def brute_force_depth2_stage_error(eps_p: float, delta: float) -> float:
    """Exhaustive flip-pattern enumeration on the depth-2 stage tree.

    Per output wire: 4 computation NANDs on independent input copies
    (each copy wrong with probability delta against encoded 1) feeding a
    2-layer majority tree; every gate output flips with probability
    eps_p.  Sums the exact probability that the final wire differs from
    its noiseless value.
    """
    gates = [("c0", "a0", "b0"), ("c1", "a1", "b1"),
             ("c2", "a2", "b2"), ("c3", "a3", "b3"),
             ("t0", "c0", "c1"), ("t1", "c2", "c3"),
             ("out", "t0", "t1")]

    def run(values, flips):
        for i, (name, x, y) in enumerate(gates):
            values[name] = (1 - (values[x] & values[y])) ^ ((flips >> i) & 1)
        return values["out"]

    reference = run({w: 1 for w in "a0 a1 a2 a3 b0 b1 b2 b3".split()}, 0)
    total = 0.0
    wires = "a0 a1 a2 a3 b0 b1 b2 b3".split()
    for wrong_bits in range(1 << 8):
        p_in = 1.0
        values = {}
        for i, w in enumerate(wires):
            wrong = (wrong_bits >> i) & 1
            p_in *= delta if wrong else 1.0 - delta
            values[w] = 1 ^ wrong
        if p_in == 0.0:
            continue
        for flips in range(1 << 7):
            p_flip = 1.0
            for i in range(7):
                p_flip *= eps_p if (flips >> i) & 1 else 1.0 - eps_p
            if run(dict(values), flips) != reference:
                total += p_in * p_flip
    return total


def test_stage_error_noiseless():
    assert stage_error(2, 0.0, 0.0) == 0.0
    assert stage_error(4, 0.0, 0.0) == 0.0


def test_stage_error_fixed_point_anchor():
    v = stage_error(2, 0.005, 0.0181)
    assert abs(v - 0.0181) < 2e-4


def test_stage_error_domain():
    with pytest.raises(ValueError):
        stage_error(3, 0.005, 0.1)
    with pytest.raises(ValueError):
        stage_error(2, 0.6, 0.1)
    with pytest.raises(ValueError):
        stage_error(2, 0.005, 0.5)


def test_recursion_matches_closed_form_on_grid():
    eps_grid = np.linspace(0.0, 0.49, 100)
    delta_grid = np.linspace(0.0, 0.49, 100)
    worst = 0.0
    for eps_p, delta in itertools.product(eps_grid, delta_grid):
        diff = abs(stage_error(2, eps_p, delta)
                   - stage_error_depth2_closed_form(eps_p, delta))
        worst = max(worst, diff)
    assert worst < 1e-12


def test_recursion_matches_brute_force_enumeration():
    for eps_p, delta in [(0.005, 0.058), (0.02, 0.1), (0.0, 0.3),
                         (0.1, 0.0), (0.3, 0.45)]:
        brute = brute_force_depth2_stage_error(eps_p, delta)
        assert abs(stage_error(2, eps_p, delta) - brute) < 1e-12


def test_stage_error_depth4_matches_tree_marginals():
    # independent oracle: exact marginal propagation on the built
    # fan-out-1 gadget circuit
    from ftcircuit.noisy import induce_network, tree_error_marginals
    from ftcircuit.transform import FtParams, build_formula_gadget
    for depth, delta in [(2, 0.058), (4, 0.104)]:
        gadget = build_formula_gadget(FtParams(1, depth, 0.005, delta))
        net = induce_network(gadget.circuit, 0.005, delta,
                             {w: 1 for w in gadget.circuit.inputs})
        marginals = tree_error_marginals(net)
        want = stage_error(depth, 0.005, delta)
        assert all(abs(v - want) < 1e-12 for v in marginals.values())


def test_stage_error_monotone():
    # monotone in delta everywhere; monotone in eps_p on the
    # sub-pseudothreshold domain where f is a meaningful error level
    deltas = np.linspace(0.0, 0.49, 200)
    for depth in (2, 4):
        values = [stage_error(depth, 0.005, d) for d in deltas]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        limit = pseudothreshold(depth)
        eps_values = [stage_error(depth, e, 0.1)
                      for e in np.linspace(0.0, limit, 200)]
        assert all(b >= a - 1e-15 for a, b in zip(eps_values, eps_values[1:]))


def test_fixed_points_anchors():
    w2 = fixed_points(2, 0.005)
    assert w2.exists
    assert abs(w2.delta_lo - 0.0181) < 5e-4
    assert abs(w2.delta_hi - 0.132) < 5e-4
    w4 = fixed_points(4, 0.005)
    assert abs(w4.delta_lo - 0.0155) < 5e-4
    assert abs(w4.delta_hi - 0.254) < 5e-4


def test_fixed_points_above_threshold():
    assert not fixed_points(2, 0.02).exists


def test_window_sign_structure():
    w = fixed_points(2, 0.005)
    for d in np.linspace(1e-4, 0.49, 1000):
        gap = stage_error(2, 0.005, d) - d
        if w.delta_lo + 1e-6 < d < w.delta_hi - 1e-6:
            assert gap < 0.0
        elif d < w.delta_lo - 1e-6 or d > w.delta_hi + 1e-6:
            assert gap > 0.0


def test_pseudothreshold_anchors():
    assert abs(pseudothreshold(2) - 0.01077) < 1e-4
    assert abs(pseudothreshold(4) - 0.02515) < 1e-4


def test_pseudothreshold_ordering():
    p2, p4 = pseudothreshold(2), pseudothreshold(4)
    assert p4 > p2
    assert p2 < EVANS_PIPPENGER
    assert p4 < EVANS_PIPPENGER


def test_optimal_fiducial_anchors():
    assert abs(optimal_fiducial(2, 0.005) - 0.0580) < 1e-3
    assert abs(optimal_fiducial(4, 0.005) - 0.104) < 2e-3


def test_optimal_fiducial_interior():
    for depth in (2, 4):
        w = fixed_points(depth, 0.005)
        d = optimal_fiducial(depth, 0.005)
        assert w.delta_lo < d < w.delta_hi


def test_optimal_fiducial_above_threshold():
    with pytest.raises(ValueError):
        optimal_fiducial(2, 0.02)


def test_optimal_fiducial_agrees_with_coefficient_minimum():
    # maximizing the sqrt(n) normal coefficient and minimizing the
    # code-size coefficient pick the same operating point
    from ftcircuit.numerics import golden_min
    for depth in (2, 4):
        w = fixed_points(depth, 0.005)
        d_coeff, _ = golden_min(
            lambda d: analytic.code_size_coefficient(depth, 0.005, d),
            w.delta_lo + 1e-6, w.delta_hi - 1e-6, tol=1e-8)
        assert abs(d_coeff - optimal_fiducial(depth, 0.005)) < 1e-5


def test_code_size_coefficients():
    d2 = optimal_fiducial(2, 0.005)
    d4 = optimal_fiducial(4, 0.005)
    c2 = analytic.code_size_coefficient(2, 0.005, d2)
    c4 = analytic.code_size_coefficient(4, 0.005, d4)
    assert abs(c2 - 279) < 3
    assert abs(c4 - 11.4) < 0.3
    assert abs(c2 * math.log(10) - 642) < 7


def test_logical_error_n1():
    d = 0.058
    exact, _ = logical_error_formula(1, 2, 0.005, d)
    assert abs(exact - stage_error(2, 0.005, d)) < 1e-15


def test_logical_error_outside_window():
    with pytest.raises(ValueError, match="amplification"):
        logical_error_formula(5, 2, 0.005, 0.3)


def test_logical_error_decays_with_n():
    # the failure threshold ceil(delta*n) jumps every ~1/delta steps, so
    # the exact tail is a sawtooth in n; it decays over whole periods
    # even though adjacent odd n may tick upward
    checkpoints = [401, 801, 2001, 4001]
    values = [logical_error_formula(n, 2, 0.005, 0.058)[0]
              for n in checkpoints]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_logical_error_slope_near_asymptotic_rate():
    # the fitted log10 slope over n in [201, 801] sits near the
    # asymptotic rates (normal-approximation 1/642, large-deviation
    # 1/720); as n grows it converges to the large-deviation rate
    d2 = optimal_fiducial(2, 0.005)
    ns = list(range(201, 802, 100))
    ys = [analytic.log10_logical_error(n, 2, 0.005, d2) for n in ns]
    slope, _, r2 = ols_fit(ns, ys)
    assert r2 > 0.97
    assert 500 < -1.0 / slope < 800
    big = list(range(5001, 20002, 2500))
    ys_big = [analytic.log10_logical_error(n, 2, 0.005, d2) for n in big]
    slope_big, _, _ = ols_fit(big, ys_big)
    assert abs(-1.0 / slope_big - 720) < 25


def test_normal_approximation_close_for_large_n():
    d2 = optimal_fiducial(2, 0.005)
    for n in (201, 401, 801):
        exact, normal = logical_error_formula(n, 2, 0.005, d2)
        assert 0.2 < normal / exact < 5.0


def test_required_code_size_minimal():
    d2 = optimal_fiducial(2, 0.005)
    res = required_code_size(1e-10, 2, 0.005, d2)
    assert res.n % 2 == 1
    assert res.eps_l_achieved <= 1e-10
    worse, _ = logical_error_formula(res.n - 2, 2, 0.005, d2)
    assert worse > 1e-10
    assert abs(res.coefficient - 279) < 3


def step_walk_code_size(eps_l: float, depth: int, eps_p: float,
                        delta: float) -> tuple[int, float]:
    """The step-by-step search: a +-2 walk from the ln(1/eps_l) guess,
    one full tail sum over k..n per candidate n."""
    f = stage_error(depth, eps_p, delta)

    def log10_tail(n: int) -> float:
        k = max(math.ceil(delta * n), 1)
        terms = _log_binom_terms(n, f, np.arange(k, n + 1))
        return float(logsumexp(terms)) / math.log(10.0)

    target = math.log10(eps_l)
    coeff = 2.0 * f * (1.0 - f) / (f - delta) ** 2
    guess = max(1, int(coeff * math.log(1.0 / eps_l)))
    n = guess if guess % 2 == 1 else guess + 1
    while n > 1 and log10_tail(n - 2) <= target:
        n -= 2
    while log10_tail(n) > target:
        n += 2
    return n, 10.0 ** log10_tail(n)


# (depth, eps_p, delta: the optimum or the midpoint toward a window edge,
# eps_l); n runs from 261 to 5,933
STEP_WALK_POINTS = [
    (2, 0.002, "opt", 1e-12), (2, 0.002, "hi", 1e-12),
    (2, 0.002, "lo", 1e-6), (2, 0.005, "opt", 1e-6),
    (2, 0.005, "opt", 1e-9), (2, 0.005, "lo", 1e-4),
    (2, 0.007, "opt", 1e-3), (4, 0.002, "opt", 1e-12),
    (4, 0.005, "opt", 1e-9), (4, 0.005, "hi", 1e-12),
    (4, 0.007, "opt", 1e-6), (4, 0.007, "lo", 1e-12),
]


@pytest.mark.parametrize("depth,eps_p,where,eps_l", STEP_WALK_POINTS)
def test_required_code_size_matches_step_walk(depth, eps_p, where, eps_l):
    delta = optimal_fiducial(depth, eps_p)
    if where != "opt":
        window = fixed_points(depth, eps_p)
        edge = window.delta_hi if where == "hi" else window.delta_lo
        delta = 0.5 * (delta + edge)
    n, achieved = step_walk_code_size(eps_l, depth, eps_p, delta)
    res = required_code_size(eps_l, depth, eps_p, delta)
    assert res.n == n
    assert res.eps_l_achieved == pytest.approx(achieved, rel=1e-13, abs=0.0)


def test_required_code_size_long_threshold_runs():
    # delta = 1e-8 keeps k = ceil(delta n) fixed over 5e7 odd n at a time
    res = required_code_size(1e-3, 2, 1e-9, 1e-8)
    assert res.n % 2 == 1
    assert res.eps_l_achieved <= 1e-3
    assert analytic.log10_logical_error(res.n - 2, 2, 1e-9, 1e-8) > -3.0


def test_number_overhead():
    d2 = optimal_fiducial(2, 0.005)
    n = required_code_size(1e-10, 2, 0.005, d2).n
    model = TailModel(EXPONENTIAL)

    def number_overhead(chi):
        return overhead_ratio(model, 1e-10, 0.005, d2, 2, chi).eta_number

    assert number_overhead(1.0) == 3 * n
    assert number_overhead(0.47) == pytest.approx(3 * n / 0.47)
    with pytest.raises(ValueError):
        number_overhead(0.0)


def test_amplification_window_is_f_below_delta():
    # both entry points reject a delta outside the window and an eps_p
    # above the depth-2 pseudothreshold (about 0.01077)
    for depth, eps_p, delta in ((2, 0.005, 0.3), (2, 0.012, 0.058)):
        with pytest.raises(ValueError, match="amplification"):
            logical_error_formula(5, depth, eps_p, delta)
        with pytest.raises(ValueError, match="amplification"):
            required_code_size(1e-6, depth, eps_p, delta)

    # f(delta) < delta holds exactly between the fixed points
    compared = 0
    for depth in (2, 4, 6):
        threshold = pseudothreshold(depth)
        for scale in (0.01, 0.3, 0.7, 0.95, 0.999, 1.05):
            eps_p = scale * threshold
            window = fixed_points(depth, eps_p)
            for i in range(1, 250):
                delta = i / 500.0 + 1.3e-4
                if window.exists and min(abs(delta - window.delta_lo),
                                         abs(delta - window.delta_hi)) <= 1e-9:
                    continue
                inside = (window.exists
                          and window.delta_lo < delta < window.delta_hi)
                try:
                    f = analytic.amplified_stage_error(depth, eps_p, delta)
                except ValueError:
                    assert not inside, (depth, eps_p, delta)
                else:
                    assert inside, (depth, eps_p, delta)
                    assert f == stage_error(depth, eps_p, delta)
                compared += 1
    assert compared > 4000


def test_required_code_size_skips_fixed_points(monkeypatch):
    calls = []
    solve = analytic.fixed_points

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    d2 = optimal_fiducial(2, 0.005)
    monkeypatch.setattr(analytic, "fixed_points", counted)
    for eps_l in (1e-6, 1e-12, 1e-20):
        required_code_size(eps_l, 2, 0.005, d2)
    with pytest.raises(ValueError):
        required_code_size(1e-6, 2, 0.005, 0.3)
    assert calls == []

import itertools
import math
import sys

import numpy as np
import pytest

from ftcircuit import analytic
from ftcircuit.analytic import (fixed_points, log10_logical_error,
                                optimal_fiducial, pseudothreshold,
                                required_code_size, stage_error,
                                stage_error_depth2_closed_form)
from ftcircuit.numerics import bisect, ols_fit
from ftcircuit.resource import EXPONENTIAL, TailModel, overhead_ratio
from test_numerics import full_log_tail, log_binom_terms

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


@pytest.mark.parametrize("depth", [2, 4, 6, 8])
def test_pseudothreshold_is_the_window_edge(depth):
    # the window exists at the reported value and not 2e-7 above it
    threshold = pseudothreshold(depth)
    assert fixed_points(depth, threshold).exists
    assert not fixed_points(depth, threshold + 2e-7).exists


def bisection_pseudothreshold(depth: int) -> float:
    """The window edge by bisection over eps_p of the window search's
    minimum gap, to 1e-7: the bracket end that has a window."""
    return bisect(lambda eps_p: analytic._min_gap(depth, eps_p)[1],
                  0.0, 0.25, tol=1e-7)[0]


@pytest.mark.parametrize("depth", [*range(2, 42, 2), 80, 100])
def test_pseudothreshold_matches_bisection_oracle(depth):
    assert abs(pseudothreshold(depth)
               - bisection_pseudothreshold(depth)) <= 1e-7


@pytest.mark.parametrize("depth", [2, 4, 6, 8])
def test_stage_error_derivatives_match_central_differences(depth):
    def f(eps_p, delta):
        return stage_error(depth, eps_p, delta)

    for eps_p in (0.001, 0.005, 0.02, 0.04):
        for delta in (0.01, 0.07, 0.2, 0.3, 0.45):
            value, d1, d2, d_eps = analytic._stage_error_derivatives(
                depth, eps_p)(delta)
            assert value == f(eps_p, delta)
            h = 1e-6
            assert d1 == pytest.approx(
                (f(eps_p, delta + h) - f(eps_p, delta - h)) / (2 * h),
                rel=1e-7, abs=1e-9)
            assert d_eps == pytest.approx(
                (f(eps_p + h, delta) - f(eps_p - h, delta)) / (2 * h),
                rel=1e-7, abs=1e-9)
            h = 1e-4
            assert d2 == pytest.approx(
                (f(eps_p, delta + h) - 2.0 * f(eps_p, delta)
                 + f(eps_p, delta - h)) / (h * h), rel=1e-4, abs=1e-6)


def _oracle_layer(e, eps_p, fed_one):
    # one layer without q hoisted, rounding (q e) e when fed 0
    if fed_one:
        return eps_p + (1.0 - 2.0 * eps_p) * (2.0 * e - e * e)
    return eps_p + (1.0 - 2.0 * eps_p) * e * e


def test_layer_association_is_pinned():
    # a fed-0 layer that rounded q (e e) instead of (q e) e changes the
    # last bit of the stage error at about one of these points in ten;
    # == catches it
    rng = np.random.default_rng(20240)
    for _ in range(10_000):
        depth = int(rng.choice([2, 4, 6, 8, 10]))
        eps_p, delta = rng.uniform(0.0, 0.5, 2)
        eps_p, delta = float(eps_p), float(delta)
        comp = _oracle_layer(delta, eps_p, True)
        ec, stage = delta, comp
        for layer in range(1, depth + 1):
            ec = _oracle_layer(ec, eps_p, layer % 2 == 0)
            stage = _oracle_layer(stage, eps_p, layer % 2 == 0)
        assert analytic.computation_error(delta, eps_p) == comp
        assert analytic.ec_error(depth, eps_p, delta) == ec
        assert stage_error(depth, eps_p, delta) == stage
        assert analytic._stage_error_derivatives(
            depth, eps_p)(delta)[0] == stage


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
            lambda d: w.point(d).coefficient,
            w.delta_lo + 1e-6, w.delta_hi - 1e-6, tol=1e-8)
        assert abs(d_coeff - optimal_fiducial(depth, 0.005)) < 1e-5


def test_code_size_coefficients():
    c2 = fixed_points(2, 0.005).point().coefficient
    c4 = fixed_points(4, 0.005).point().coefficient
    assert abs(c2 - 279) < 3
    assert abs(c4 - 11.4) < 0.3
    assert abs(c2 * math.log(10) - 642) < 7


def test_logical_error_n1():
    d = 0.058
    exact = 10 ** log10_logical_error(1, fixed_points(2, 0.005).point(d))
    assert abs(exact - stage_error(2, 0.005, d)) < 1e-15


def test_logical_error_outside_window():
    with pytest.raises(ValueError, match="amplification"):
        fixed_points(2, 0.005).point(0.3)


def test_operating_point_fields():
    # the point carries its window's (depth, eps_p), f(delta) and the
    # code-size coefficient 2f(1-f)/(f-delta)^2, for a given or optimal delta
    for depth, eps_p in ((2, 0.005), (4, 0.002), (6, 0.008)):
        window = fixed_points(depth, eps_p)
        assert (window.depth, window.eps_p) == (depth, eps_p)
        for delta in ("optimal", 0.5 * (window.delta_lo + window.delta_hi)):
            point = window.point(delta)
            f = stage_error(depth, eps_p, point.delta)
            assert (point.depth, point.eps_p, point.f) == (depth, eps_p, f)
            coefficient = 2.0 * f * (1.0 - f) / (f - point.delta) ** 2
            assert point.coefficient == coefficient
        assert window.point().delta == optimal_fiducial(depth, eps_p)
        assert window.point("0.05").delta == 0.05


def test_logical_error_decays_with_n():
    # the failure threshold ceil(delta*n) jumps every ~1/delta steps, so
    # the exact tail is a sawtooth in n; it decays over whole periods
    # even though adjacent odd n may tick upward
    checkpoints = [401, 801, 2001, 4001]
    point = fixed_points(2, 0.005).point(0.058)
    values = [10 ** log10_logical_error(n, point) for n in checkpoints]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_logical_error_slope_near_asymptotic_rate():
    # the fitted log10 slope over n in [201, 801] sits near the
    # asymptotic rates (normal-approximation 1/642, large-deviation
    # 1/720); as n grows it converges to the large-deviation rate
    point = fixed_points(2, 0.005).point()
    ns = list(range(201, 802, 100))
    ys = [analytic.log10_logical_error(n, point) for n in ns]
    slope, _, r2 = ols_fit(ns, ys)
    assert r2 > 0.97
    assert 500 < -1.0 / slope < 800
    big = list(range(5001, 20002, 2500))
    ys_big = [analytic.log10_logical_error(n, point) for n in big]
    slope_big, _, _ = ols_fit(big, ys_big)
    assert abs(-1.0 / slope_big - 720) < 25


def test_normal_approximation_close_for_large_n():
    # the paper's normal tail Pr[Z >= sqrt(n)(delta - f)/sqrt(f(1-f))]
    # is erfc(sqrt(n / coefficient))/2, with the code-size coefficient
    # 2f(1-f)/(f-delta)^2 of the operating point
    point = fixed_points(2, 0.005).point()
    for n in (201, 401, 801):
        exact = 10 ** log10_logical_error(n, point)
        normal = 0.5 * math.erfc(math.sqrt(n / point.coefficient))
        assert 0.2 < normal / exact < 5.0


def test_required_code_size_minimal():
    point = fixed_points(2, 0.005).point()
    n = required_code_size(1e-10, point)
    assert n % 2 == 1
    assert 10.0 ** log10_logical_error(n, point) <= 1e-10
    worse = 10 ** log10_logical_error(n - 2, point)
    assert worse > 1e-10
    assert abs(point.coefficient - 279) < 3


def smallest_code_size(eps_l: float, depth: int, eps_p: float,
                       delta: float) -> tuple[int, float]:
    """The smallest odd n whose tail reaches eps_l, and that tail, by a
    step-by-step walk up from n = 1: each odd n where k = ceil(delta n)
    steps up starts a threshold run and gets one full tail sum over k..n,
    unless its term at k alone already exceeds eps_l.  Within a run the
    tail rises with n, so no other n can be the first to pass."""
    f = stage_error(depth, eps_p, delta)
    target = math.log(eps_l)
    n, run_k = 1, 0
    while True:
        k = max(math.ceil(delta * n), 1)
        if k > run_k and log_binom_terms(n, f, k) <= target:
            tail = full_log_tail(n, f, k)
            if tail <= target:
                return n, math.exp(tail)
        run_k = k
        n += 2


def window_delta(depth: int, eps_p: float, where: str,
                 fraction: float = 0.5) -> float:
    """The optimal delta ("opt"), or the delta the fraction of the way
    from it to the window's upper ("hi") or lower ("lo") edge."""
    window = fixed_points(depth, eps_p)
    delta = window.point().delta
    if where == "opt":
        return delta
    edge = window.delta_hi if where == "hi" else window.delta_lo
    return delta + fraction * (edge - delta)


# (depth, eps_p, delta: the optimum or the midpoint toward a window edge,
# eps_l); n runs from 261 to 5,869
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
    delta = window_delta(depth, eps_p, where)
    n, achieved = smallest_code_size(eps_l, depth, eps_p, delta)
    point = fixed_points(depth, eps_p).point(delta)
    assert required_code_size(eps_l, point) == n
    assert 10.0 ** log10_logical_error(n, point) == pytest.approx(
        achieved, rel=1e-13, abs=0.0)


# D = 2 at the optimal delta: (eps_p, eps_l, the smallest n); a target
# above f is met by n = 1
SMALLEST_CODE_SIZES = [
    (0.005, 1e-6, 3_465), (0.005, 1e-10, 6_275), (0.005, 1e-12, 7_689),
    (0.005, 1e-15, 9_809), (0.006, 1e-6, 5_447), (0.006, 1e-15, 15_363),
    (0.007, 1e-6, 9_323), (0.007, 1e-20, 35_643), (0.005, 0.05, 1),
]


@pytest.mark.parametrize("eps_p,eps_l,n", SMALLEST_CODE_SIZES)
def test_required_code_size_is_the_smallest(eps_p, eps_l, n):
    point = fixed_points(2, eps_p).point()
    assert smallest_code_size(eps_l, 2, eps_p, point.delta)[0] == n
    assert required_code_size(eps_l, point) == n


def test_required_code_size_near_the_upper_window_edge():
    # run-start tails need not fall with k between the optimum and
    # delta_hi: here 26,299, 26,317 and 26,335 reach the target and the
    # run starts between them do not, so a search over k may return any
    # of them; the n it returns still ends a failing n - 2
    delta = window_delta(2, 0.005, "hi", 0.75)
    point = fixed_points(2, 0.005).point(delta)
    n = required_code_size(1e-6, point)
    passing = [m for m in (26_299, 26_309, 26_317, 26_327, 26_335)
               if log10_logical_error(m, point) <= -6.0]
    assert passing == [26_299, 26_317, 26_335]
    assert n == 26_299
    assert log10_logical_error(n, point) <= -6.0
    assert log10_logical_error(n - 2, point) > -6.0


def test_required_code_size_long_threshold_runs():
    # delta = 1e-8 keeps k = ceil(delta n) fixed over 5e7 odd n at a
    # time; f = 3.0e-9 is below 1e-3, so n = 1 reaches it, and 1e-9 is
    # first reached where k steps up to 35
    point = fixed_points(2, 1e-9).point(1e-8)
    assert required_code_size(1e-3, point) == 1
    n = required_code_size(1e-9, point)
    assert n == 3_400_000_001
    assert 10.0 ** log10_logical_error(n, point) <= 1e-9
    assert log10_logical_error(n - 2, point) > -9.0


def test_required_code_size_reaches_the_smallest_normal_target():
    point = fixed_points(2, 0.005).point()
    n = required_code_size(sys.float_info.min, point)
    assert n == 220_161
    assert 0.0 < 10.0 ** log10_logical_error(n, point) <= sys.float_info.min
    for target in (sys.float_info.min / 2, 5e-324, 0.0, 1.0):
        with pytest.raises(ValueError, match="target must be in"):
            required_code_size(target, point)


def plain_bisection_code_size(eps_l: float,
                              point: analytic.OperatingPoint) -> int:
    """The code-size search without tail bounds: n = 1, then doubling and
    bisection over k from that of the guess coeff * ln(1/eps_l), with an
    exact tail at every run start it probes."""
    log10_target = math.log10(eps_l)

    def passes(k):
        n = analytic._run_start(k, point.delta)
        return log10_logical_error(n, point) <= log10_target

    if passes(1):
        return 1
    guess = int(point.coefficient * math.log(1.0 / eps_l))
    fail, k = 1, analytic.failure_threshold(guess, point.delta)
    while not passes(k):
        fail, k = k, 2 * k
    while k - fail > 1:
        mid = (fail + k) // 2
        if passes(mid):
            k = mid
        else:
            fail = mid
    return analytic._run_start(k, point.delta)


# the optimal delta at each (D, eps_p), with targets down to the smallest
# normal
BOUNDED_SEARCH_POINTS = list(itertools.product(
    (2, 4, 6), (0.002, 0.005, 0.007),
    (1e-6, 1e-12, 1e-20, 1e-100, sys.float_info.min)))


def counted_tails(monkeypatch) -> list:
    """The (n, p, k) of every exact tail analytic sums from now on."""
    calls = []
    tail = analytic.log_binom_tail

    def counted(n, p, k):
        calls.append((n, p, k))
        return tail(n, p, k)

    monkeypatch.setattr(analytic, "log_binom_tail", counted)
    return calls


@pytest.mark.parametrize("depth,eps_p,eps_l", BOUNDED_SEARCH_POINTS)
def test_required_code_size_spends_at_most_three_exact_tails(
        monkeypatch, depth, eps_p, eps_l):
    # one tail at n = 1, then one each at a k that passes and at k - 1,
    # where the bisection without bounds pays one per probe; both searches
    # return the same n
    point = fixed_points(depth, eps_p).point()
    want = plain_bisection_code_size(eps_l, point)
    calls = counted_tails(monkeypatch)
    assert required_code_size(eps_l, point) == want
    assert len(calls) <= 3, calls


def test_required_code_size_matches_the_plain_bisection_at_1e_300():
    # the n that CI's overhead check at eps_l = 1e-300 looks for
    point = fixed_points(2, 0.005).point()
    assert plain_bisection_code_size(1e-300, point) == 214_645
    assert required_code_size(1e-300, point) == 214_645


@pytest.mark.parametrize("skew", [-8.0, 8.0])
def test_required_code_size_is_decided_by_exact_tails(monkeypatch, skew):
    # a log-gamma off by skew moves both tail bounds by -skew nats, so
    # every bracket they give misses: the exact tails that confirm it
    # widen it up or down to the same n
    lgamma = math.lgamma
    monkeypatch.setattr(math, "lgamma", lambda x: lgamma(x) + skew)
    for depth, eps_p in ((2, 0.005), (2, 0.007), (4, 0.005)):
        point = fixed_points(depth, eps_p).point()
        for eps_l in (1e-6, 1e-20, 1e-300):
            assert (required_code_size(eps_l, point)
                    == plain_bisection_code_size(eps_l, point))


def test_required_code_size_near_the_window_edge_spends_no_more_tails(
        monkeypatch):
    # 0.9 of the way to delta_hi the tail bounds bracket a wide run of k;
    # the plain bisection spends 15 exact tails here
    delta = window_delta(2, 0.002, "hi", 0.9)
    point = fixed_points(2, 0.002).point(delta)
    calls = counted_tails(monkeypatch)
    plain_bisection_code_size(1e-9, point)
    assert len(calls) == 15
    calls.clear()
    n = required_code_size(1e-9, point)
    assert len(calls) <= 15
    assert log10_logical_error(n, point) <= -9.0
    assert log10_logical_error(n - 2, point) > -9.0


def test_number_overhead():
    point = fixed_points(2, 0.005).point()
    n = required_code_size(1e-10, point)
    model = TailModel(EXPONENTIAL)

    def number_overhead(chi):
        return overhead_ratio(model, 1e-10, point, chi).eta_number

    assert number_overhead(1.0) == 3 * n
    assert number_overhead(0.47) == pytest.approx(3 * n / 0.47)
    with pytest.raises(ValueError):
        number_overhead(0.0)


def test_amplification_window_is_f_below_delta():
    # the operating point rejects a delta outside the window and one at
    # an eps_p above the depth-2 pseudothreshold (about 0.01077)
    for depth, eps_p, delta in ((2, 0.005, 0.3), (2, 0.012, 0.058)):
        with pytest.raises(ValueError, match="amplification"):
            fixed_points(depth, eps_p).point(delta)

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
                    f = window.point(delta).f
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

    window = fixed_points(2, 0.005)
    point = window.point()
    monkeypatch.setattr(analytic, "fixed_points", counted)
    for eps_l in (1e-6, 1e-12, 1e-20):
        required_code_size(eps_l, point)
    with pytest.raises(ValueError):
        window.point(0.3)
    assert calls == []

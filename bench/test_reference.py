"""Checks of reference.py against exact rational arithmetic at small n.

    python3 -m pytest bench/test_reference.py

The brute-force engine here keeps the joint wrong-bit law as a dict of
Fractions and applies i.i.d. noise as a full XOR convolution over every
flip pattern, and the computation layer as the combine of two i.i.d.
input bundles: a different route from the per-bit mixing and product
state that reference.py takes.
"""
from __future__ import annotations

import math
import random
import sys
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference as ref  # noqa: E402


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * abs(b)


# ---------------------------------------------------------------------------
# brute force over tuples of wrong bits, in Fractions


def bf_iid(n, q):
    return {bits: math.prod(q if b else 1 - q for b in bits)
            for bits in product((0, 1), repeat=n)}


def bf_noise(state, n, eps):
    out = dict.fromkeys(state, F(0))
    for bits, w in state.items():
        for flips in product((0, 1), repeat=n):
            k = sum(flips)
            target = tuple(b ^ f for b, f in zip(bits, flips))
            out[target] += w * eps ** k * (1 - eps) ** (n - k)
    return out


def gate(rule, a, b):
    return a | b if rule == ref.EITHER else a & b


def bf_layer(state, n, offset, rule):
    out = dict.fromkeys(state, F(0))
    for bits, w in state.items():
        out[tuple(gate(rule, bits[i], bits[(i - offset) % n])
                  for i in range(n))] += w
    return out


def bf_combine(p, q, rule):
    out = dict.fromkeys(p, F(0))
    for a, wa in p.items():
        for b, wb in q.items():
            out[tuple(gate(rule, x, y) for x, y in zip(a, b))] += wa * wb
    return out


def bf_counts(state, n):
    out = [F(0)] * (n + 1)
    for bits, w in state.items():
        out[sum(bits)] += w
    return out


def bf_block(n, depth, eps, delta, block, stages):
    def ec(state, first):
        rule = first
        for layer in range(1, depth + 1):
            state = bf_noise(bf_layer(state, n, (1 << (layer - 1)) % n, rule),
                             n, eps)
            rule = ref.BOTH if rule == ref.EITHER else ref.EITHER
        return state

    if block == "ec":
        return bf_counts(ec(bf_iid(n, delta), ref.BOTH), n)
    inputs = bf_iid(n, delta)
    rule = ref.EITHER
    state = ec(bf_noise(bf_combine(inputs, inputs, rule), n, eps), ref.BOTH)
    for _ in range(stages - 1):
        rule = ref.BOTH if rule == ref.EITHER else ref.EITHER
        state = bf_noise(bf_combine(state, state, rule), n, eps)
        state = ec(state, ref.BOTH if rule == ref.EITHER else ref.EITHER)
    return bf_counts(state, n)


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,depth,eps,delta,block,stages", [
    (3, 2, F(1, 100), F(3, 50), "gadget", 1),
    (5, 4, F(1, 50), F(7, 50), "gadget", 1),
    (7, 2, F(1, 200), F(29, 500), "gadget", 1),
    (7, 2, F(1, 10000), F(1, 1000), "gadget", 1),
    (6, 2, F(1, 100), F(3, 50), "ec", 1),
    (7, 4, F(1, 20000), F(1, 2000), "ec", 1),
    (4, 2, F(1, 200), F(29, 500), "gadget", 3),
    (5, 2, F(1, 10000), F(1, 1000), "gadget", 2),
])
def test_block_distribution_matches_fractions(n, depth, eps, delta, block,
                                              stages):
    exact = bf_block(n, depth, eps, delta, block, stages)
    assert sum(exact) == 1
    approx = ref.block_count_distribution(n, depth, float(eps), float(delta),
                                          block, stages)
    assert (approx >= 0.0).all()
    for a, e in zip(approx, exact):
        assert rel_close(a, float(e))
    tail = exact[n // 2 + 1:]
    assert rel_close(ref.majority_tail(approx), float(sum(tail)))
    # in rational arithmetic the reference is exact
    assert list(ref.block_count_distribution(n, depth, eps, delta, block,
                                             stages)) == exact


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("rule", [ref.EITHER, ref.BOTH])
def test_combine_matches_pairwise_fractions(n, rule):
    # 2^7 and 2^8 entries put the top one and two levels of the split
    # above the direct pairwise base case
    rng = random.Random(n)
    weights = [rng.random() ** 8 for _ in range(1 << n)]
    total = sum(weights)
    p = np.array([w / total for w in weights])
    exact = {bits: F(w) for bits, w in zip(product((0, 1), repeat=n), p)}
    # tuple index with the first wire as the highest bit
    pairs = bf_combine(exact, exact, rule)
    approx = ref.combine_iid(p, rule)
    for bits, w in pairs.items():
        index = int("".join(map(str, bits)), 2)
        assert rel_close(approx[index], float(w))


@pytest.mark.parametrize("p", [F(1, 1000), F(1, 10), F(1, 2), F(9, 10)])
def test_log_binom_tail_matches_fractions(p):
    for n in range(1, 8):
        for k in range(0, n + 2):
            exact = ref.binom_tail(n, p, k)
            got = ref.log_binom_tail(n, float(p), k)
            if exact == 0:
                assert got == -math.inf
            else:
                assert rel_close(math.exp(got), float(exact))


@pytest.mark.parametrize("n,p,k", [(401, F(3, 100), 41), (999, F(1, 50), 120),
                                   (300, F(2, 5), 100)])
def test_log_binom_tail_deep_and_central(n, p, k):
    exact = ref.binom_tail(n, p, k)
    log_exact = (math.log(exact.numerator) - math.log(exact.denominator))
    assert abs(ref.log_binom_tail(n, float(p), k) - log_exact) <= 1e-12 * max(
        1.0, abs(log_exact))


@pytest.mark.parametrize("eps,delta", [(F(1, 200), F(29, 500)),
                                       (F(1, 100), F(7, 100))])
def test_stage_error_matches_depth2_closed_form(eps, delta):
    g = 2 * eps - 1
    inner = g * ((delta - 2) * delta * g + eps) ** 2 - eps + 1
    assert ref.stage_error(2, eps, delta) == 1 - eps + g * inner * inner
    f = ref.stage_error(2, eps, delta)
    assert rel_close(ref.code_size_coefficient(2, float(eps), float(delta)),
                     float(2 * f * (1 - f) / (f - delta) ** 2))


def test_ec_tree_error_is_the_formula_marginal():
    # one output of the depth-2 majority formula: NAND(NAND(x0,x1), NAND(x2,x3))
    eps, delta = F(1, 100), F(1, 20)
    gates = (("t0", "NAND", ("x0", "x1")), ("t1", "NAND", ("x2", "x3")),
             ("y", "NAND", ("t0", "t1")))
    inputs = ("x0", "x1", "x2", "x3")
    exact = ref.netlist_error(inputs, gates, ("y",), {"NAND": (1, 1, 1, 0)},
                              dict.fromkeys(inputs, 0), delta, eps, 1)
    assert ref.ec_tree_error(2, eps, delta) == exact


def test_netlist_error_single_and_gate():
    table = {"AND": (0, 0, 0, 1)}
    gates = (("g", "AND", ("a", "b")),)
    ones = {"a": 1, "b": 1}
    assert ref.netlist_error(("a", "b"), gates, ("g",), table, ones,
                             F(0), F(1, 100), 1) == F(1, 100)
    q, eps = F(1, 20), F(1, 100)
    wrong_in = 1 - (1 - q) ** 2
    assert ref.netlist_error(("a", "b"), gates, ("g",), table, ones,
                             q, eps, 1) == ref.flip(wrong_in, eps)


@pytest.mark.parametrize("y", [0.5, 2e-6, 2e-12, 2e-20, 2e-100])
def test_erfc_inverse_is_within_one_ulp(y):
    x = ref.erfc_inverse(y)
    assert (math.erfc(math.nextafter(x, 0.0)) >= y
            >= math.erfc(math.nextafter(x, math.inf)))


def test_pareto_closed_form_reproduces_criterion_8():
    # gamma = 2, W_P/(A beta) = 300, eps_p = 0.005, D = 2, chi = 0.47 at
    # the optimal delta; eta = 1.04e4, 174, 0.278, 0.00348 to 3 figures
    delta = 0.05801714430243068
    for eps_l, eta in ((1e-6, 1.04e4), (1e-10, 174.0), (1e-16, 0.278),
                       (1e-20, 0.00348)):
        got = ref.eta_closed_form("pareto", 2.0, 300.0, eps_l, 0.005, delta,
                                  2, 0.47)
        assert rel_close(got, eta, 5e-3)


def test_ols_slope_and_min_gap():
    xs = [F(n) for n in (5, 7, 9, 11)]
    assert ref.ols_slope(xs, [3 * x - 2 for x in xs]) == 3
    rng = random.Random(3)
    ys = [rng.random() for _ in xs]
    assert rel_close(ref.ols_slope([float(x) for x in xs], ys),
                     np.polyfit([float(x) for x in xs], ys, 1)[0])
    assert ref.min_gap(2, 0.005) < 0.0 < ref.min_gap(2, 0.02)


@pytest.mark.parametrize("successes,trials", [(0, 10000), (17, 10000),
                                              (500, 1000)])
def test_wilson_bounds_solve_the_score_equation(successes, trials):
    z = 1.959963984540054
    phat = successes / trials
    lo, hi = ref.wilson(successes, trials)
    # at zero successes the lower bound is 0 up to rounding
    assert 0.0 <= lo <= phat + 1e-15 and phat <= hi <= 1.0
    for bound in (lo, hi) if successes else (hi,):
        score = abs(phat - bound) / math.sqrt(bound * (1 - bound) / trials)
        assert rel_close(score, z, 1e-9)

import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import ftcircuit
from ftcircuit import noisy, transform
from ftcircuit.circuit import CircuitError, GateLabel, parse_circuit
from ftcircuit.noisy import (BundleState, ErrorEstimate, ExactEngineError,
                             circuit_logical_error, exact_stage_error,
                             failure_threshold, formula_wrong_count_distribution,
                             gadget_network, induce_network,
                             monte_carlo_logical_error, tail_probability,
                             tree_error_marginals)
from ftcircuit.transform import FtParams, build_formula_gadget, build_ft_gadget
from ftcircuit.circuit import NAND
from ftcircuit.numerics import binom_tail


def test_single_gate_network_error_rate():
    c = parse_circuit("in a\nin b\ng1 NAND a b\nout g1\n")
    net = induce_network(c, eps_p=0.02, input_error=0.0,
                         reference={"a": 1, "b": 1})
    est = monte_carlo_logical_error(net, None, samples=200_000, seed=1)
    assert est.ci_low <= 0.02 <= est.ci_high


def test_monte_carlo_rejects_non_nand_labels():
    # the sampler evaluates NAND only; an AND gate must not be simulated
    # as one (that returns about 0.99 where the error is 0.01)
    and_label = GateLabel("AND", 2, (0, 0, 0, 1))
    c = parse_circuit("in a\nin b\ng AND a b\nout g\n",
                      labels={"NAND": NAND, "AND": and_label})
    net = induce_network(c, eps_p=0.01, input_error=0.0,
                         reference={"a": 1, "b": 1})
    with pytest.raises(CircuitError, match="AND"):
        monte_carlo_logical_error(net, None, samples=10_000, seed=0)


def test_network_validation():
    c = parse_circuit("in a\nin b\ng1 NAND a b\nout g1\n")
    with pytest.raises(ValueError):
        induce_network(c, 0.7, 0.0, {"a": 1, "b": 1})
    with pytest.raises(ValueError):
        induce_network(c, 0.0, 0.6, {"a": 1, "b": 1})


def test_formula_network_is_tree_and_circuit_is_not():
    p = FtParams(3, 2, 0.005, 0.058)
    tree_net = induce_network(build_formula_gadget(p).circuit, 0.005, 0.058,
                              {w: 1 for w in build_formula_gadget(p).circuit.inputs})
    assert tree_net.is_tree()
    circ = build_ft_gadget(NAND, p).circuit
    circ_net = induce_network(circ, 0.005, 0.058,
                              {w: 1 for w in circ.inputs})
    assert not circ_net.is_tree()


def test_tree_marginals_require_tree():
    p = FtParams(5, 2, 0.005, 0.058)
    net = gadget_network(p)
    with pytest.raises(ExactEngineError):
        tree_error_marginals(net)


def test_exact_n1_is_three_flip_convolution():
    eps = 0.03
    dist = exact_stage_error(FtParams(1, 2, eps, 0.0))
    expected = 3 * eps * (1 - eps) ** 2 + eps ** 3
    assert abs(dist[1] - expected) < 1e-15


def test_exact_noiseless_point_mass():
    dist = exact_stage_error(FtParams(5, 2, 0.0, 0.0))
    assert dist[0] == pytest.approx(1.0)
    assert dist[1:].sum() == pytest.approx(0.0, abs=1e-15)


def test_exact_distribution_normalized_nonnegative():
    for n, depth in [(5, 2), (9, 2), (5, 4), (7, 4)]:
        dist = exact_stage_error(FtParams(n, depth, 0.005, 0.058))
        assert abs(dist.sum() - 1.0) < 1e-12
        assert (dist >= 0.0).all()


def test_exact_engine_cap():
    with pytest.raises(ExactEngineError, match="Monte Carlo"):
        exact_stage_error(FtParams(16, 2, 0.005, 0.058))


def test_exact_vs_monte_carlo():
    p = FtParams(5, 2, 0.005, 0.058)
    dist = exact_stage_error(p)
    exact_tail = tail_probability(dist, failure_threshold(5, 0.058))
    net = gadget_network(p)
    est = monte_carlo_logical_error(net, 0.058, samples=300_000, seed=11)
    assert est.ci_low <= exact_tail <= est.ci_high


def test_monte_carlo_deterministic():
    p = FtParams(5, 2, 0.005, 0.058)
    net = gadget_network(p)
    a = monte_carlo_logical_error(net, 0.058, samples=50_000, seed=7)
    b = monte_carlo_logical_error(net, 0.058, samples=50_000, seed=7)
    assert a == b
    c = monte_carlo_logical_error(net, 0.058, samples=50_000, seed=8)
    assert c.mean != a.mean or c.seed != a.seed


def test_monte_carlo_noiseless():
    p = FtParams(5, 2, 0.0, 0.0)
    net = gadget_network(p)
    est = monte_carlo_logical_error(net, 0.058, samples=20_000, seed=0)
    assert est.mean == 0.0
    assert est.ci_high > 0.0


def test_monte_carlo_sample_floor():
    net = gadget_network(FtParams(5, 2, 0.005, 0.058))
    with pytest.raises(ValueError):
        monte_carlo_logical_error(net, 0.058, samples=100, seed=0)


@pytest.mark.parametrize("rate", [1e-20, 5e-324])
def test_monte_carlo_tiny_rates(rate):
    # geometric gaps saturate at 2^63 - 1 below about 1e-19; the sampler
    # must neither overflow nor warn
    net = gadget_network(FtParams(5, 2, rate, rate))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = monte_carlo_logical_error(net, 0.058, samples=20_000, seed=3)
    assert est.mean == 0.0


@pytest.mark.parametrize("block", ["gadget", "ec"])
@pytest.mark.parametrize("flip", [0, 1])
def test_monte_carlo_padding_lanes(block, flip):
    # 10,007 samples leave 25 padding bits in the last word; noiseless
    # gates must count none of them, whichever value the outputs carry
    base = gadget_network(FtParams(5, 2, 0.0, 0.0), block=block)
    reference = {w: v ^ flip for w, v in base.reference.items()}
    net = induce_network(base.circuit, 0.0, 0.0, reference)
    outputs = {net.reference_values[w] for w in net.circuit.outputs}
    assert outputs == {flip}
    est = monte_carlo_logical_error(net, 0.058, samples=10_007, seed=4)
    assert est.mean == 0.0


def _unpack(words):
    """Sample bits of packed words, bit j of word w at index 64w + j."""
    return np.unpackbits(words.astype("<u8").view(np.uint8),
                         bitorder="little")


@pytest.mark.parametrize("p", [1e-6, 0.01,
                               np.nextafter(noisy._SPARSE_BELOW, 0.0),
                               noisy._SPARSE_BELOW, 0.0716, 0.136, 0.4999])
def test_bernoulli_words_law(p):
    m = (1 << 22) + 37
    words = noisy._bernoulli_words(np.random.default_rng(12), p, m)
    assert words.shape == ((m + 63) // 64,)
    assert words[-1] >> np.uint64(37) == 0
    bits = _unpack(words).reshape(-1, 64)
    assert abs(bits.sum() / m - p) <= 5 * np.sqrt(p * (1 - p) / m)
    lane_n = bits.shape[0] - 1
    if p * lane_n >= 10:
        # at 1e-6 a lane expects 0.07 ones, too few for a 5 sigma band
        lanes = bits[:-1].sum(axis=0) / lane_n
        assert (abs(lanes - p) <= 5 * np.sqrt(p * (1 - p) / lane_n)).all()


@pytest.mark.parametrize("count", [1, 3, 7, 8, 21])
def test_at_least_counts_like_a_loop(count):
    rng = np.random.default_rng(count)
    wrong = [rng.bit_generator.random_raw(50) for _ in range(count)]
    per_lane = sum(_unpack(w).astype(int) for w in wrong)
    for threshold in range(1, count + 2):
        got = noisy._at_least(wrong, threshold, noisy._lanes(64 * 50))
        assert (_unpack(got) == (per_lane >= threshold)).all()


@pytest.mark.parametrize("n,depth,delta", [(5, 2, 0.058), (7, 2, 0.058),
                                           (5, 4, 0.104)])
def test_monte_carlo_matches_exact_whole_law(n, depth, delta):
    # one seeded sample set, read at every threshold k = 1..n
    samples = 1_000_000
    p = FtParams(n, depth, 0.005, delta)
    dist = exact_stage_error(p)
    net = gadget_network(p)
    for k in range(1, n + 1):
        est = monte_carlo_logical_error(net, (k - 0.5) / n, samples,
                                        seed=2026)
        tail = tail_probability(dist, k)
        assert abs(est.mean - tail) <= 5 * np.sqrt(tail * (1 - tail)
                                                   / samples), k


def test_formula_variant_matches_binomial():
    from ftcircuit.analytic import stage_error
    for n in (3, 5, 9):
        p = FtParams(n, 2, 0.005, 0.058)
        dist = formula_wrong_count_distribution(p, block="gadget")
        f = stage_error(2, 0.005, 0.058)
        t = failure_threshold(n, 0.058)
        assert abs(tail_probability(dist, t) - binom_tail(n, f, t)) < 1e-12


def test_circuit_error_exceeds_formula_error():
    for n in (5, 7, 9, 11, 13, 15):
        p = FtParams(n, 2, 0.005, 0.058)
        circ = circuit_logical_error(p, method="exact").mean
        form = circuit_logical_error(p, variant="formula").mean
        assert circ >= form


def test_n1_circuit_is_serial_chain():
    # at n = 1 every EC gate is NAND(x, x), a plain inverter, so the
    # stage is a 3-gate chain and the error is the serial flip recursion
    eps, delta = 0.005, 0.058
    p = FtParams(1, 2, eps, delta)
    circ = circuit_logical_error(p, method="exact").mean
    e = eps + (1 - 2 * eps) * (2 * delta - delta * delta)
    for _ in range(2):
        e = eps + (1 - 2 * eps) * e
    assert abs(circ - e) < 1e-14


def test_auto_method_selection():
    small = circuit_logical_error(FtParams(5, 2, 0.005, 0.058))
    assert small.method == "exact"
    big = circuit_logical_error(FtParams(17, 2, 0.005, 0.058),
                                samples=20_000, seed=1)
    assert big.method == "monte_carlo"
    assert big.samples == 20_000


def test_cyclic_symmetry():
    # the circulant EC wiring commutes with wire rotation, so rotating
    # an asymmetric input distribution leaves the count law unchanged
    base = BundleState.iid(5, 0.1)
    base.probs[3] += 0.01
    base.probs /= base.probs.sum()
    # wire i becomes wire (i + 2) mod 5
    idx = np.arange(1 << 5)
    rotated = BundleState(5, np.zeros(1 << 5))
    rotated.probs[((idx << 2) | (idx >> 3)) & 31] = base.probs
    for state in (base, rotated):
        noisy._apply_ec_block(state, 2, 0.005, "offset-doubling")
    diff = np.abs(base.wrong_count_distribution(0)
                  - rotated.wrong_count_distribution(0)).max()
    assert diff < 1e-12


def test_multistage_chain():
    p = FtParams(7, 2, 0.005, 0.058)
    one = exact_stage_error(p, stages=1)
    four = exact_stage_error(p, stages=4)
    assert abs(four.sum() - 1.0) < 1e-12
    # chained stages stay amplified: the failure tail does not grow
    assert tail_probability(four, 4) <= tail_probability(one, 4)
    assert tail_probability(four, 4) < 1e-3


def test_error_estimate_record():
    p = FtParams(5, 2, 0.005, 0.058)
    est = circuit_logical_error(p, method="exact")
    record = est.to_record(p)
    assert record["n"] == 5 and record["D"] == 2
    assert record["method"] == "exact"
    assert record["estimate"] == record["ci_low"] == record["ci_high"]
    assert record["samples"] == 0


def test_error_estimate_invariants():
    with pytest.raises(ValueError):
        ErrorEstimate(0.5, 0.6, 0.7, "exact")


def _fraction_block_law(n, depth, eps_p, delta, block="gadget",
                        wiring="offset-doubling", stages=1):
    """Wrong-count law at the output of a gadget chain (or a bare EC
    block), pushed forward in exact rational arithmetic on the wrong-bit
    indicators from the definitions: product input law, EC wiring, the
    wire-by-wire NAND of two i.i.d. copies between stages, and the XOR
    convolution with i.i.d. flips.  A NAND whose inputs encode 1 is
    wrong when either input is; one whose inputs encode 0, when both
    are."""
    eps, d = Fraction(eps_p), Fraction(delta)
    size = 1 << n

    def weight(bits, p):
        k = bin(bits).count("1")
        return p ** k * (1 - p) ** (n - k)

    def noise(law):
        return [sum(law[s ^ f] * weight(f, eps) for f in range(size))
                for s in range(size)]

    def nand(either, a, b):
        return a | b if either else a & b

    if block == "ec":
        e = d
    else:
        # computation layer: inputs encode 1, either wrong input corrupts
        e = eps + (1 - 2 * eps) * (2 * d - d * d)
    probs = [weight(s, e) for s in range(size)]
    either = False  # the bundle now encodes 0
    for stage in range(stages):
        if stage > 0:
            combined = [Fraction(0)] * size
            for s, p in enumerate(probs):
                for t, q in enumerate(probs):
                    combined[nand(either, s, t)] += p * q
            probs = noise(combined)
            either = not either
        for layer in range(1, depth + 1):
            off = (1 << (layer - 1) if wiring == "offset-doubling" else 1) % n
            wired = [Fraction(0)] * size
            for s, p in enumerate(probs):
                t = 0
                for i in range(n):
                    a, b = (s >> i) & 1, (s >> ((i - off) % n)) & 1
                    t |= nand(either, a, b) << i
                wired[t] += p
            probs = noise(wired)
            either = not either
    law = [Fraction(0)] * (n + 1)
    for s, p in enumerate(probs):
        law[bin(s).count("1")] += p
    return law


def test_exact_engine_deep_tail_matches_fraction_oracle():
    n, depth, eps_p, delta = 5, 2, 1e-6, 1e-5
    law = _fraction_block_law(n, depth, eps_p, delta)
    want = float(sum(law[n // 2 + 1:]))
    got = circuit_logical_error(FtParams(n, depth, eps_p, delta),
                                method="exact").mean
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("block,wiring,stages", [
    ("ec", "offset-doubling", 1),
    ("gadget", "unit", 1),
    ("gadget", "offset-doubling", 2),
    ("gadget", "offset-doubling", 3),
])
def test_exact_law_matches_fraction_oracle(request, n, block, wiring,
                                           stages):
    # every tail, for the reads a slip in the encoded value would
    # corrupt: the ec start, the unit wiring, and chains whose output
    # encodes 1 (two stages) or 0 (three)
    if (stages, n) == (3, 5):
        request.applymarker(pytest.mark.xfail(
            strict=True, reason="the combine of two encoded-1 bundles "
            "subtracts superset sums near 1; the all-wrong tail (2.6e-4) "
            "is off by a relative 1.4e-12"))
    p = FtParams(n, 2, 0.005, 0.058)
    dist = exact_stage_error(p, block, wiring, stages)
    law = _fraction_block_law(n, 2, 0.005, 0.058, block, wiring, stages)
    for k in range(1, n + 1):
        want = float(sum(law[k:]))
        assert abs(float(dist[k:].sum()) - want) <= 1e-12 * want, k


def test_formula_distribution_noiseless_edge():
    for block in ("gadget", "ec"):
        dist = formula_wrong_count_distribution(FtParams(5, 2, 0.0, 0.0),
                                                block)
        assert dist.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    est = circuit_logical_error(FtParams(5, 2, 0.0, 0.0), variant="formula")
    assert est.mean == 0.0


def test_formula_chi_leaves_scipy_stats_unimported():
    src = os.path.dirname(os.path.dirname(ftcircuit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, ftcircuit\n"
            "ftcircuit.estimate_chi(2, 0.005, variant='formula')\n"
            "print('scipy.stats' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"


def _random_state(n, seed):
    # a non-product law: every entry independent, none zero
    probs = np.random.default_rng(seed).random(1 << n) + 0.01
    return BundleState(n, probs / probs.sum())


@pytest.mark.parametrize("wiring", ["offset-doubling", "unit", "shared"])
def test_wiring_layer_matches_enumeration(wiring):
    # offsets wrap once 2^(l-1) >= n, and 1 % n is 0 at n = 1
    for n in range(1, 9):
        for layer in range(1, 5):
            offsets = transform.ec_offsets(n, layer, wiring)
            state = _random_state(n, 100 * n + layer)
            want = np.zeros(1 << n)
            for s, p in enumerate(state.probs):
                t = 0
                for i, (a, b) in enumerate(offsets):
                    t |= (1 - ((s >> a) & (s >> b) & 1)) << i
                want[t] += p
            state.apply_wiring_layer(offsets)
            # the same sums in the same order
            np.testing.assert_array_equal(state.probs, want,
                                          err_msg=f"n={n} l={layer}")


def test_noise_matches_per_wire_mixing():
    # the transposed layout does the per-wire mixing's arithmetic
    eps = 0.005
    for n in range(1, 10):
        state = _random_state(n, n)
        want = state.probs.copy()
        for k in range(n):
            for s in range(1 << n):
                if not (s >> k) & 1:
                    lo, hi = want[s], want[s | 1 << k]
                    want[s] = (1.0 - eps) * lo + eps * hi
                    want[s | 1 << k] = (1.0 - eps) * hi + eps * lo
        state.apply_noise(eps)
        np.testing.assert_array_equal(state.probs, want, err_msg=f"n={n}")


def test_popcount_matches_enumeration():
    for n in range(9):
        pop = BundleState(n, np.zeros(1 << n))._popcount
        assert pop.tolist() == [bin(s).count("1") for s in range(1 << n)]


def test_combine_iid_nand_matches_two_copy_enumeration():
    # the law of 1 - (x & y) for independent x, y drawn from the state
    for n in range(1, 7):
        state = _random_state(n, n)
        probs = state.probs.copy()
        want = np.zeros(1 << n)
        for x in range(1 << n):
            for y in range(1 << n):
                want[~(x & y) & ((1 << n) - 1)] += probs[x] * probs[y]
        state.combine_iid_nand()
        big = want > 1e-6
        assert big.any()
        np.testing.assert_allclose(state.probs[big], want[big], rtol=1e-12,
                                   atol=0, err_msg=f"n={n}")

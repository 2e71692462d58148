import itertools
import math
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
                             failure_threshold, gadget_network, induce_network,
                             monte_carlo_logical_error, tail_probability,
                             tree_error_marginals)
from ftcircuit.transform import (FtParams, build_formula_gadget,
                                 build_ft_gadget, build_majority_ec_formula)
from ftcircuit.analytic import fixed_points
from ftcircuit.circuit import NAND


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
    circ = build_ft_gadget(p).circuit
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
    # D = 4 offset-doubling has a 15-bit ring frontier: only the 2^n
    # engine serves it, up to its cap
    with pytest.raises(ExactEngineError, match="Monte Carlo"):
        exact_stage_error(FtParams(16, 4, 0.005, 0.104))
    for n in (16, 17):
        dist = exact_stage_error(FtParams(n, 2, 0.005, 0.058))
        assert dist.shape == (n + 1,)
        est = circuit_logical_error(FtParams(n, 2, 0.005, 0.058),
                                    method="exact")
        assert est.method == "exact"


def test_auto_falls_back_on_exact_engine_error_only(monkeypatch):
    # the error that sends "auto" to Monte Carlo reaches an "exact" caller
    with pytest.raises(ExactEngineError, match="Monte Carlo"):
        circuit_logical_error(FtParams(17, 4, 0.005, 0.104), method="exact")

    def fail(*args):
        raise CircuitError("not an engine limit")

    # any other failure of the exact engine propagates from "auto"
    monkeypatch.setattr(noisy, "exact_stage_error", fail)
    with pytest.raises(CircuitError, match="not an engine limit"):
        circuit_logical_error(FtParams(5, 2, 0.005, 0.058))


def test_exact_vs_monte_carlo():
    p = FtParams(5, 2, 0.005, 0.058)
    dist = exact_stage_error(p)
    exact_tail = tail_probability(dist, failure_threshold(5, 0.058))
    net = gadget_network(p)
    est = monte_carlo_logical_error(net, 0.058, samples=300_000, seed=11)
    assert est.ci_low <= exact_tail <= est.ci_high


@pytest.mark.parametrize("fraction", [1.5, 0.0, -0.1])
def test_failure_threshold_fraction_outside_unit_interval(fraction):
    p = FtParams(5, 2, 0.005, 0.058)
    match = r"failure threshold fraction must be in \(0, 1\]"
    with pytest.raises(ValueError, match=match):
        failure_threshold(5, fraction)
    with pytest.raises(ValueError, match=match):
        circuit_logical_error(p, method="exact", delta_threshold=fraction)
    with pytest.raises(ValueError, match=match):
        monte_carlo_logical_error(gadget_network(p), fraction,
                                  samples=20_000, seed=0)
    # a fraction of 1 fails only when all n wires are wrong; None is the
    # majority
    assert failure_threshold(5, 1.0) == 5
    assert failure_threshold(5, None) == 3


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


def _geometric_mask(rng, p, m):
    """The sparse mask as cumulative rng.geometric(p) gaps, clamped at
    m + 1 and packed by np.packbits: the construction whose stream the
    sampler keeps."""
    hits = np.zeros(64 * ((m + 63) >> 6), dtype=np.uint8)
    chunk = int(m * p + 6.0 * math.sqrt(m * p)) + 16
    last = -1
    while last < m:
        pos = np.cumsum(np.minimum(rng.geometric(p, chunk), m + 1)) + last
        last = int(pos[-1])
        hits[pos[:np.searchsorted(pos, m)]] = 1
    return np.packbits(hits, bitorder="little").view("<u8")


@pytest.mark.parametrize("p", [5e-324, 1e-20, 1e-6, 0.01,
                               np.nextafter(noisy._SPARSE_BELOW, 0.0)])
@pytest.mark.parametrize("m", [10_007, 1 << 20, (1 << 22) + 37])
def test_sparse_masks_keep_the_geometric_stream(p, m):
    for seed in range(3):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            words = noisy._bernoulli_words(rng, p, m)
        assert np.array_equal(words, _geometric_mask(oracle, p, m)), seed
        assert rng.bit_generator.state == oracle.bit_generator.state, seed


def _dense_mask(rng, p, m):
    """The dense mask as a plain level-by-level loop: through level 8 (the
    switch level, part of the stream) every word draws one raw word, after
    it one raw word per word that still has a tied lane, in word order.  Digit i of p is
    read off its exact binary fraction; the loop ends after p's last 1
    digit.  U's digit i is the raw bit: lanes with u_i < p_i take 1, lanes
    with u_i > p_i take 0, equal lanes stay tied."""
    n_words = (m + 63) >> 6
    tied = np.array([(1 << min(64, m - 64 * w)) - 1 for w in range(n_words)],
                    dtype=np.uint64)
    words = np.zeros(n_words, dtype=np.uint64)
    num, den = p.as_integer_ratio()
    last_level = den.bit_length() - 1
    for level in range(1, last_level + 1):
        if level <= 8:
            draw = np.arange(n_words)
        else:
            draw = np.flatnonzero(tied != 0)
            if not draw.size:
                break
        u = rng.bit_generator.random_raw(draw.size)
        if (num >> (last_level - level)) & 1:
            words[draw] |= tied[draw] & ~u
            tied[draw] &= u
        else:
            tied[draw] &= ~u
    return words


@pytest.mark.parametrize("p", [1 / 32, 0.0716, 0.136, 0.25, 0.4999])
@pytest.mark.parametrize("m", [10_007, 1 << 20, (1 << 22) + 37])
def test_dense_masks_keep_the_level_stream(p, m):
    for seed in range(3):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        words = noisy._bernoulli_words(rng, p, m)
        assert np.array_equal(words, _dense_mask(oracle, p, m)), seed
        assert rng.bit_generator.state == oracle.bit_generator.state, seed


@pytest.mark.parametrize("count", [1, 3, 7, 8, 21])
def test_at_least_counts_like_a_loop(count):
    rng = np.random.default_rng(count)
    wrong = [rng.bit_generator.random_raw(50) for _ in range(count)]
    per_lane = sum(_unpack(w).astype(int) for w in wrong)
    for threshold in range(1, count + 2):
        got = noisy._at_least(wrong, threshold, noisy._lanes(64 * 50))
        assert (_unpack(got) == (per_lane >= threshold)).all()


# failure counts of fixed-seed runs: any change to the mask stream (or to
# numpy's) moves them.  The sparse masks serve eps_p, the dense ones delta.
GOLDEN_FAILURES = [
    # block, n, D, eps_p, delta, threshold fraction, samples, seed, failures
    ("gadget", 9, 2, 0.01, 0.07, None, 100_000, 11, 661),
    ("ec", 9, 2, 0.01, 0.07, None, 100_000, 12, 76),
    ("gadget", 13, 4, 0.02, 0.14, None, 100_000, 13, 3040),
    ("ec", 13, 4, 0.02, 0.14, None, 100_000, 14, 350),
    ("gadget", 9, 2, 0.01, 0.07, 0.3, 100_000, 16, 5094),
    # two batches, the last one ending in a partial word
    ("gadget", 9, 2, 0.01, 0.07, None, (1 << 20) + 197, 15, 7571),
]


@pytest.mark.parametrize(
    "block,n,depth,eps_p,delta,fraction,samples,seed,failures",
    GOLDEN_FAILURES)
def test_monte_carlo_golden_failure_counts(block, n, depth, eps_p, delta,
                                           fraction, samples, seed,
                                           failures):
    est = circuit_logical_error(FtParams(n, depth, eps_p, delta),
                                method="monte_carlo",
                                delta_threshold=fraction, block=block,
                                samples=samples, seed=seed)
    assert est.mean == failures / samples


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


def _enumerated_failure(net, threshold):
    """Pr[at least threshold outputs wrong], summed over every flip
    pattern of the inputs and gates of net."""
    c, ref = net.circuit, net.reference_values
    rates = [net.input_error] * len(c.inputs) + [net.eps_p] * len(c.gates)
    total = 0.0
    for flips in itertools.product((0, 1), repeat=len(rates)):
        values = {w: ref[w] ^ f for w, f in zip(c.inputs, flips)}
        gate_flips = dict(zip((g.name for g in c.topological_order),
                              flips[len(c.inputs):]))
        for g in c.topological_order:
            values[g.name] = (g.label.apply([values[w] for w in g.inputs])
                              ^ gate_flips[g.name])
        if sum(values[w] != ref[w] for w in c.outputs) >= threshold:
            total += math.prod(r if f else 1.0 - r
                               for r, f in zip(rates, flips))
    return total


@pytest.mark.parametrize("netlist", [
    # an output wire that also feeds a later gate
    "in a\nin b\ng1 NAND a b\ng2 NAND g1 a\nout g1\nout g2\n",
    # a gate that reads one wire twice
    "in a\nin b\ng1 NAND a a\ng2 NAND g1 b\nout g2\n",
    # an input that is also an output
    "in a\nin b\ng1 NAND a b\nout a\nout g1\nout b\n",
    # wires read by gates in two different layers
    "in a\nin b\ng1 NAND a b\ng2 NAND g1 b\ng3 NAND g2 g1\nout g3\n",
])
@pytest.mark.parametrize("reference", [(1, 1), (0, 1)])
def test_monte_carlo_frees_wires_after_their_last_reader(netlist, reference):
    net = induce_network(parse_circuit(netlist), 0.05, 0.1,
                         dict(zip("ab", reference)))
    samples = 200_000
    est = monte_carlo_logical_error(net, None, samples, seed=11)
    exact = _enumerated_failure(
        net, failure_threshold(len(net.circuit.outputs), None))
    assert abs(est.mean - exact) <= 5 * math.sqrt(exact * (1 - exact)
                                                  / samples)


def test_unknown_block_kind_is_one_error_before_any_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before the block kind was checked")

    monkeypatch.setattr(noisy, "_bernoulli_words", no_sampling)
    messages = set()
    for kwargs in ({"method": "exact"}, {"method": "monte_carlo"},
                   {"variant": "formula"}):
        with pytest.raises(ValueError) as exc:
            circuit_logical_error(FtParams(5, 2, 0.005, 0.058),
                                  block="bogus", samples=10_000, **kwargs)
        assert type(exc.value) is ValueError
        messages.add(str(exc.value))
    assert messages == {"unknown block kind: bogus"}


def _exact_binomial_tail(n: int, p: float, k: int) -> float:
    """Pr[Binomial(n, p) >= k] in exact rationals at the float p."""
    q = Fraction(p)
    return float(sum(math.comb(n, j) * q ** j * (1 - q) ** (n - j)
                     for j in range(k, n + 1)))


def test_formula_variant_matches_binomial():
    # the per-wire rate comes from marginal propagation on the fan-out-1
    # circuit itself: the formula gadget fed encoded 1, or the majority
    # tree fed encoded 0 with delta wrong inputs
    for block, (eps_p, delta) in itertools.product(
            ("gadget", "ec"), ((0.005, 0.058), (0.01, 0.1))):
        if block == "gadget":
            tree = build_formula_gadget(FtParams(1, 2, eps_p, delta)).circuit
            reference = {w: 1 for w in tree.inputs}
        else:
            tree = build_majority_ec_formula(2)
            reference = {w: 0 for w in tree.inputs}
        net = induce_network(tree, eps_p, delta, reference)
        (wire,) = set(tree_error_marginals(net).values())
        for n, fraction in itertools.product(range(1, 10, 2), (None, 0.058)):
            want = _exact_binomial_tail(n, wire, failure_threshold(n, fraction))
            got = circuit_logical_error(FtParams(n, 2, eps_p, delta),
                                        delta_threshold=fraction,
                                        variant="formula", block=block).mean
            assert abs(got - want) <= 1e-12 * want, (block, eps_p, n, fraction)


def test_formula_variant_refuses_monte_carlo():
    # the formula law is exact: there is nothing to sample
    p = FtParams(5, 2, 0.005, 0.058)
    with pytest.raises(ValueError, match="formula variant is exact"):
        circuit_logical_error(p, method="monte_carlo", variant="formula")
    for method in ("auto", "exact"):
        est = circuit_logical_error(p, method=method, variant="formula")
        assert est.method == "exact"


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
    big = circuit_logical_error(FtParams(17, 4, 0.005, 0.104),
                                samples=20_000, seed=1)
    assert big.method == "monte_carlo"
    assert big.samples == 20_000
    # the ring engine serves D = 2 at any n
    for n in (16, 17):
        ring = circuit_logical_error(FtParams(n, 2, 0.005, 0.058))
        assert ring.method == "exact"


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


def test_error_estimate_invariants():
    with pytest.raises(ValueError):
        ErrorEstimate(0.5, 0.6, 0.7, "exact")


def _fraction_noise(law, eps):
    """The XOR convolution of a law over 2^n states with i.i.d.
    Bernoulli(eps) flips of every wire, exact: over one common
    denominator, the products and sums run on integers."""
    n = len(law).bit_length() - 1
    flips = [eps ** k * (1 - eps) ** (n - k) for k in range(n + 1)]
    den = math.lcm(*(x.denominator for x in [*law, *flips]))
    num = [int(x * den) for x in law]
    weight = [int(flips[bin(f).count("1")] * den) for f in range(len(law))]
    return [Fraction(sum(num[s ^ f] * w for f, w in enumerate(weight)),
                     den * den) for s in range(len(law))]


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
            probs = _fraction_noise(combined, eps)
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
            probs = _fraction_noise(wired, eps)
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


_ORACLE_ROWS = [("ec", "offset-doubling", 1), ("gadget", "unit", 1),
                ("gadget", "offset-doubling", 2),
                ("gadget", "offset-doubling", 3)]


@pytest.mark.parametrize("block,wiring,stages,n", [
    row + (n,) for row in _ORACLE_ROWS for n in (2, 3, 4, 5)] + [
    row + (n,) for row in _ORACLE_ROWS[:2] for n in (6, 7)])
def test_exact_law_matches_fraction_oracle(request, n, block, wiring,
                                           stages):
    # every tail, for the reads a slip in the encoded value would
    # corrupt: the ec start, the unit wiring, and chains whose output
    # encodes 1 (two stages) or 0 (three); the one-stage rows run on the
    # ring engine from n = 3 (offset-doubling) and n = 2 (unit)
    if (stages, n) == (3, 5):
        request.applymarker(pytest.mark.xfail(
            strict=True, reason="the combine of two encoded-1 bundles "
            "subtracts superset sums near 1; the all-wrong tail (2.6e-4) "
            "is off by a relative 3.68e-12"))
    p = FtParams(n, 2, 0.005, 0.058)
    dist = exact_stage_error(p, block, wiring, stages)
    law = _fraction_block_law(n, 2, 0.005, 0.058, block, wiring, stages)
    for k in range(1, n + 1):
        want = float(sum(law[k:]))
        assert abs(float(dist[k:].sum()) - want) <= 1e-12 * want, k


def test_formula_distribution_noiseless_edge():
    # with no noise no wire is wrong: even a single wrong wire (threshold
    # 1) has probability 0
    for block in ("gadget", "ec"):
        for fraction in (None, 0.2):
            est = circuit_logical_error(FtParams(5, 2, 0.0, 0.0),
                                        delta_threshold=fraction,
                                        variant="formula", block=block)
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
            # the same sums in the same order, given a tuple or a list
            for given in (offsets, list(offsets)):
                pushed = BundleState(n, state.probs)
                pushed.apply_wiring_layer(given)
                assert pushed.probs.tobytes() == want.tobytes(), (n, layer)


def _per_wire_mixing(probs, n, eps):
    want = probs.copy()
    for k in range(n):
        for s in range(1 << n):
            if not (s >> k) & 1:
                lo, hi = want[s], want[s | 1 << k]
                want[s] = (1.0 - eps) * lo + eps * hi
                want[s | 1 << k] = (1.0 - eps) * hi + eps * lo
    return want


def test_noise_matches_per_wire_mixing():
    # n below, at and past the wires of one noise step, and n that is not
    # a multiple of them; the grouped step and the per-wire mixing both
    # stay within a relative 1e-14 of the exact convolution in every
    # entry, down to entries near 1e-250
    for n in range(1, 10):
        spread = np.random.default_rng(n).permutation(
            np.logspace(-250, 0, 1 << n))
        for eps, probs in ((0.005, _random_state(n, n).probs),
                           (0.005, spread),
                           (0.4999, _random_state(n, 50 + n).probs)):
            want = _fraction_noise([Fraction(p) for p in probs],
                                   Fraction(eps))
            state = BundleState(n, probs.copy())
            state.apply_noise(eps)
            for got in (state.probs, _per_wire_mixing(probs, n, eps)):
                err = max(abs(Fraction(g) / w - 1) for g, w in zip(got, want))
                assert float(err) <= 1e-14, (n, eps)
        state = BundleState(n, spread.copy())
        state.apply_noise(0.0)
        np.testing.assert_array_equal(state.probs, spread)


@pytest.mark.parametrize("p", [0.0, 1e-6, 1e-3, 0.06, 0.49])
def test_iid_is_the_exact_product_law(p):
    # the state with k ones has p^k (1 - p)^(n - k), here in exact
    # rationals of the float p; at p = 0 all mass sits on the all-0 state
    for n in range(1, 16):
        probs = BundleState.iid(n, p).probs
        pop = noisy._popcounts(n)
        for k in range(n + 1):
            exact = Fraction(p) ** k * (1 - Fraction(p)) ** (n - k)
            for got in np.unique(probs[pop == k]):
                if exact == 0:
                    assert got == 0.0, (n, k)
                else:
                    err = float(abs(Fraction(float(got)) - exact) / exact)
                    assert err <= 1e-14, (n, k, err)


def test_popcount_matches_enumeration():
    for n in range(9):
        pop = noisy._popcounts(n)
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


def _reshape_butterfly(probs, n):
    """The combine as in-place folds of each bit k over (-1, 2, 2^k)
    views: the arithmetic the engine's shuffle passes must repeat."""
    t = probs.copy()
    for k in range(n):
        pairs = t.reshape(-1, 2, 1 << k)
        pairs[:, 0, :] += pairs[:, 1, :]
    t *= t
    for k in range(n):
        pairs = t.reshape(-1, 2, 1 << k)
        pairs[:, 0, :] -= pairs[:, 1, :]
    return np.maximum(t[::-1], 0.0)


def test_combine_iid_nand_is_the_reshape_butterfly_bit_for_bit():
    for n in range(1, 16):
        for state in (_random_state(n, 200 + n), BundleState.iid(n, 0.06)):
            want = _reshape_butterfly(state.probs, n)
            state.combine_iid_nand()
            assert state.probs.tobytes() == want.tobytes(), n


def test_index_arrays_are_shared():
    # one popcount per n and one NAND index per (n, offsets), kept from its
    # first use and keyed by the offsets' values
    n = 7
    offsets = tuple(((i + 3) % n, 2 * i % n) for i in range(n))
    first, second, third = (noisy._nand_index(n, tuple(list(offsets)))
                            for _ in range(3))
    assert first is second is third
    fresh = noisy._nand_index.__wrapped__(n, offsets)
    assert first.tobytes() == fresh.tobytes()
    pops = [noisy._popcounts(n) for _ in range(2)]
    assert pops[0] is pops[1]


@pytest.mark.parametrize("stages", [1, 3])
def test_exact_stage_error_repeats_its_bytes(stages):
    # a NAND index is kept from its first use on, so the later calls read
    # it from the cache; a cache that a step wrote into would move them
    p = FtParams(15, 4, 0.005, fixed_points(4, 0.005).point().delta)
    laws = [exact_stage_error(p, "gadget", stages=stages).tobytes()
            for _ in range(3)]
    assert laws[1] == laws[0] and laws[2] == laws[0]


def test_flip_counts_match_fraction_oracle():
    # one state with c ones, every flip pattern enumerated in fractions
    for eps_p in (0.005, 0.3):
        eps = Fraction(eps_p)
        for n in range(7):
            got = noisy._flip_counts(n, eps_p)
            assert got.shape == (n + 1, n + 1) and not got.flags.writeable
            for c in range(n + 1):
                want = [Fraction(0)] * (n + 1)
                for flips in range(1 << n):
                    k = bin(flips).count("1")
                    want[bin(((1 << c) - 1) ^ flips).count("1")] += (
                        eps ** k * (1 - eps) ** (n - k))
                np.testing.assert_allclose(got[c], [float(x) for x in want],
                                           rtol=1e-14, atol=0)


@pytest.mark.parametrize("block,stages", [("ec", 1), ("gadget", 1),
                                          ("gadget", 2), ("gadget", 3)])
@pytest.mark.parametrize("wiring", ["offset-doubling", "unit", "shared"])
def test_folded_last_layer_matches_its_steps(wiring, block, stages):
    # the count read through the last NAND layer and its noise gives the
    # law of the pushforward, noise step and popcount read it replaces;
    # where the 2^n engine serves the input, exact_stage_error is that read
    for n, depth in ((3, 2), (6, 2), (8, 4), (11, 2), (11, 4)):
        p = FtParams(n, depth, 0.005, fixed_points(depth, 0.005).point().delta)
        state = BundleState.iid(n, noisy._block_input_error(p, block))
        for stage in range(1, stages + 1):
            if stage > 1:
                state.combine_iid_nand()
                state.apply_noise(p.eps_p)
            noisy._apply_ec_block(state, depth - (stage == stages), p.eps_p,
                                  wiring)
        last = transform.ec_offsets(n, depth, wiring)
        encoded = (stages - 1) % 2
        folded = state.wrong_count_distribution(encoded, last, p.eps_p)
        state.apply_wiring_layer(last)
        state.apply_noise(p.eps_p)
        want = state.wrong_count_distribution(encoded)
        assert (want > 0.0).all()
        np.testing.assert_allclose(folded, want, rtol=1e-13, atol=0,
                                   err_msg=f"n={n}, D={depth}")
        if noisy._ring_offsets(p, wiring, stages) is None:
            np.testing.assert_allclose(
                exact_stage_error(p, block, wiring, stages), want,
                rtol=1e-13, atol=0, err_msg=f"n={n}, D={depth}")


def _bundle_block_law(p, block, wiring):
    """The one-stage count law on the 2^n engine, outside the dispatch."""
    state = BundleState.iid(p.n, noisy._block_input_error(p, block))
    noisy._apply_ec_block(state, p.depth, p.eps_p, wiring)
    return state.wrong_count_distribution(0)


@pytest.mark.parametrize("eps_p,delta", [(0.005, "optimal"), (1e-4, 1e-3),
                                         (5e-5, 5e-4), (0.0, 0.05)])
@pytest.mark.parametrize("wiring,depth,first", [("offset-doubling", 2, 3),
                                                ("unit", 2, 2),
                                                ("unit", 4, 2)])
@pytest.mark.parametrize("block", ["gadget", "ec"])
def test_ring_engine_matches_bundle_engine(block, wiring, depth, first,
                                           eps_p, delta):
    # the ring engine serves every n from the first whose offsets all lie
    # in [1, n - 1]; wherever it does, it must give the 2^n engine's law
    delta = fixed_points(depth, eps_p).point(delta).delta
    served = []
    for n in range(1, 16):
        p = FtParams(n, depth, eps_p, delta)
        if noisy._ring_offsets(p, wiring, 1) is not None:
            served.append(n)
        want = _bundle_block_law(p, block, wiring)
        got = exact_stage_error(p, block, wiring)
        assert (got >= 0.0).all()
        assert abs(got.sum() - 1.0) <= 1e-12
        big = want > 1e-300
        np.testing.assert_allclose(got[big], want[big], rtol=1e-12, atol=0,
                                   err_msg=f"n={n}")
    assert served == list(range(first, 16))


def test_ring_engine_predicate():
    p = FtParams(9, 2, 0.005, 0.058)
    assert noisy._ring_offsets(p, "offset-doubling", 1) == [1, 2]
    assert noisy._ring_offsets(p, "unit", 1) == [1, 1]
    # multi-stage chains, the shared wiring, a 15-bit frontier (D = 4
    # offset-doubling) and a wrapped offset stay on the 2^n engine
    assert noisy._ring_offsets(p, "offset-doubling", 2) is None
    assert noisy._ring_offsets(p, "shared", 1) is None
    assert noisy._ring_offsets(FtParams(9, 4, 0.005, 0.104),
                               "offset-doubling", 1) is None
    assert noisy._ring_offsets(FtParams(2, 2, 0.005, 0.058),
                               "offset-doubling", 1) is None


def test_ring_step_is_cached_read_only():
    # every n at one input shares the one-wire step and the blocks of
    # several wires, so no caller may write them
    for wires in (1, 4):
        args = ((1, 2), 0.005, 0.01, wires)
        step = noisy._ring_transfer(*args)
        assert noisy._ring_transfer(*args) is step
        assert not step.flags.writeable
        with pytest.raises(ValueError):
            step[0, 0] = 1.0
        fresh = noisy._ring_transfer.__wrapped__(*args)
        assert fresh.tobytes() == step.tobytes()
    laws = [noisy._ring_count_law(9, [1, 2], 0.005, 0.01) for _ in range(2)]
    assert laws[0].tobytes() == laws[1].tobytes()


def _one_wire_ring_law(n, offsets, eps_p, p_one):
    """The ring scan one wire per product, as the engine once ran it:
    q[k] maps to q[k] t0 + q[k - 1] t1 with the same rescales, and no
    scale more than 2^1000 below the one beneath it."""
    step = noisy._ring_transfer(tuple(offsets), eps_p, p_one, 1)
    size = step.shape[0]
    bits = max(1.0, -math.log2(step[step > 0].min()))
    every = max(1, min(32, int(500 / bits)))
    q = np.zeros((n + 1, size, size))
    q[0] = np.eye(size)
    e = np.zeros(n + 1, dtype=np.int64)
    lift = np.ones(n + 1)  # lift[k] = 2^(e[k - 1] - e[k])
    for top in range(1, n + 1):
        if top % every == 0:
            peak = q.max(axis=(1, 2))
            _, shift = np.frexp(peak)
            k = np.arange(n + 1)
            scale = (e + shift)[np.maximum.accumulate(
                np.where(peak > 0.0, k, 0))]
            scale = np.maximum.accumulate(scale + 1000 * k) - 1000 * k
            np.ldexp(q, (e - scale)[:, None, None], out=q)
            e = scale
            lift[1:] = np.ldexp(1.0, e[:-1] - e[1:])
        out = (q[:top].reshape(-1, size) @ step).reshape(top, size, 2, size)
        q[:top] = out[:, :, 0]
        q[1:top + 1] += out[:, :, 1] * lift[1:top + 1, None, None]
    return np.ldexp(np.trace(q, axis1=1, axis2=2), e), every


@pytest.mark.parametrize("offsets,eps_p,p_one,every", [
    ((1, 2), 0.005, 0.06, 25), ((1, 2), 1e-4, 2e-3, 14),
    ((1, 1, 1, 1), 0.005, 0.06, 14), ((1, 1, 1, 1), 1e-4, 2e-3, 8)])
def test_ring_scan_matches_one_wire_recursion(offsets, eps_p, p_one, every):
    # n = 1..40 ends blocks short of four wires and of a rescale, and the
    # deep tails (eps_p = 1e-4) rescale several times within n
    for n in range(1, 41):
        want, at = _one_wire_ring_law(n, offsets, eps_p, p_one)
        assert at == every
        got = noisy._ring_count_law(n, list(offsets), eps_p, p_one)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0,
                                   err_msg=f"n={n}")


def test_ring_scan_lift_guard(monkeypatch):
    # in the ring steps tried, a wrong wire costs one branch, of weight at
    # least 2^-125 when the scan rescales every 4 or more wires, so
    # adjacent counts' scales stay within ~2^127; this synthetic step
    # charges three moves of weight 2^-120 per wrong wire after the first
    # (0 -> 1 -> 2 -> 0, the last one wrong): it rescales every 4 wires,
    # the scales sit about 2^364 apart, and an unguarded 4-wire lift would
    # reach 2^1456
    w = 2.0 ** -120
    step = np.zeros((3, 6))
    step[0, 0] = step[2, 2] = 1.0 - w
    step[0, 1] = step[1, 2] = step[2, 3] = w
    step.flags.writeable = False
    blocks = noisy._ring_transfer.__wrapped__

    def synthetic(offsets, eps_p, p_one, wires):
        return step if wires == 1 else blocks(offsets, eps_p, p_one, wires)

    monkeypatch.setattr(noisy, "_ring_transfer", synthetic)
    for n in (9, 13, 21, 40):
        want, every = _one_wire_ring_law(n, (1, 2), 0.0, 0.0)
        assert every == 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = noisy._ring_count_law(n, [1, 2], 0.0, 0.0)
        assert np.isfinite(got).all()
        big = want > 1e-300
        assert big[:3].all()
        np.testing.assert_allclose(got[big], want[big], rtol=1e-13, atol=0,
                                   err_msg=f"n={n}")


@pytest.mark.parametrize("n", [17, 21])
def test_ring_engine_matches_monte_carlo_beyond_cap(n):
    samples = 1_000_000
    p = FtParams(n, 2, 0.01, fixed_points(2, 0.01).point().delta)
    tail = tail_probability(exact_stage_error(p), n // 2 + 1)
    est = monte_carlo_logical_error(gadget_network(p), None, samples,
                                    seed=2027)
    assert abs(est.mean - tail) <= 5 * np.sqrt(tail * (1 - tail) / samples)


@pytest.mark.parametrize("rate", [1e-200, 5e-324])
def test_ring_engine_extreme_rates(rate):
    # step weights near underflow put consecutive counts' scales more than
    # 2^1024 apart; the law must stay finite, without a warning
    for n in (5, 40):
        for block in ("gadget", "ec"):
            dist = exact_stage_error(FtParams(n, 2, rate, rate), block)
            assert np.isfinite(dist).all() and (dist >= 0.0).all()
            assert abs(dist.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("block", ["gadget", "ec"])
def test_ring_engine_large_n(block):
    tails = []
    for n in (101, 301):
        dist = exact_stage_error(FtParams(n, 2, 0.005, 0.058), block)
        assert dist.shape == (n + 1,)
        assert (dist >= 0.0).all()
        assert abs(dist.sum() - 1.0) <= 1e-12
        tails.append(tail_probability(dist, n // 2 + 1))
    assert 0.0 < tails[1] < tails[0]


@pytest.mark.parametrize("kwargs,message", [
    ({"method": "bogus"}, "unknown method: bogus"),
    ({"variant": "bogus"}, "unknown variant: bogus"),
])
def test_circuit_logical_error_refuses_unknown_names(kwargs, message):
    with pytest.raises(ValueError) as exc:
        circuit_logical_error(FtParams(5, 2, 0.005, 0.058), **kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize("kwargs,message", [
    ({"stages": 0}, "stages must be >= 1"),
    ({"block": "ec", "stages": 2},
     "multi-stage applies to gadget blocks only"),
])
def test_exact_stage_error_refuses_bad_stages(kwargs, message):
    with pytest.raises(ValueError) as exc:
        exact_stage_error(FtParams(5, 2, 0.005, 0.058), **kwargs)
    assert str(exc.value) == message


def test_bundle_state_refuses_a_wrong_size():
    with pytest.raises(ValueError) as exc:
        BundleState(3, np.zeros(4))
    assert str(exc.value) == "state size mismatch"

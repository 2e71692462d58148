"""Noisy-circuit inference: the Bayesian network induced by a circuit
with independently flipping gates, exact layered propagation of the
joint wire values, and seeded Monte Carlo estimation.

The exact engine tracks the joint law of the wire values of one n-wire
bundle (2^n states).  A NAND layer is the pushforward
out_i = 1 - (v_a & v_b), the gate that the circuit evaluator and Monte
Carlo apply; every NAND layer flips the value the bundle encodes, and
the wrong-wire count is read against that value at the end.  i.i.d.
output noise is an XOR convolution, applied one wire at a time as the
positive mixture p <- (1 - eps) p + eps p[wire flipped], so that small
tails keep their relative accuracy.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .analytic import (check_rate, computation_error, ec_error,
                       failure_threshold)
from .circuit import Circuit, CircuitError
from . import transform
from .numerics import binom_pmf, wilson_interval
from .transform import FtParams, WIRING_OFFSET_DOUBLING, require_nand

EXACT_ENGINE_CAP = 15


class ExactEngineError(CircuitError):
    """The exact engine cannot serve the request (use Monte Carlo)."""


@dataclass(frozen=True)
class ErrorEstimate:
    """A logical error probability with a 95% confidence interval."""

    mean: float
    ci_low: float
    ci_high: float
    method: str
    samples: int = 0
    seed: int | None = None

    def __post_init__(self):
        if not self.ci_low <= self.mean <= self.ci_high:
            raise ValueError("confidence interval must contain the mean")

    def to_record(self, params: FtParams) -> dict:
        return {
            "n": params.n, "D": params.depth, "eps_p": params.eps_p,
            "delta": params.delta, "method": self.method,
            "estimate": self.mean, "ci_low": self.ci_low,
            "ci_high": self.ci_high, "samples": self.samples,
            "seed": self.seed,
        }


def exact_estimate(p: float, method: str = "exact") -> ErrorEstimate:
    return ErrorEstimate(p, p, p, method)


@dataclass(frozen=True)
class LayeredNoisyNetwork:
    """The Bayesian network of a noisy circuit: each wire is a node,
    inputs flip from the reference with probability input_error, every
    gate output flips with probability eps_p."""

    circuit: Circuit
    eps_p: float
    input_error: float
    reference: dict[str, int]
    reference_values: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        check_rate("eps_p", self.eps_p)
        check_rate("input_error", self.input_error)
        object.__setattr__(self, "reference_values",
                           self.circuit.evaluate_all(self.reference))

    def is_tree(self) -> bool:
        """True when every wire feeds at most one gate (fan-out <= 1)."""
        fan_out: dict[str, int] = {}
        for g in self.circuit.gates:
            for w in g.inputs:
                fan_out[w] = fan_out.get(w, 0) + 1
                if fan_out[w] > 1:
                    return False
        return True


def induce_network(circuit: Circuit, eps_p: float, input_error: float,
                   reference: Mapping[str, int]) -> LayeredNoisyNetwork:
    """Build the noisy network; the reference assignment fixes the
    intended (noiseless) value of every wire."""
    circuit.check_valid()
    return LayeredNoisyNetwork(circuit, eps_p, input_error, dict(reference))


def tree_error_marginals(net: LayeredNoisyNetwork) -> dict[str, float]:
    """Exact per-wire wrong probabilities for fan-out-1 circuits.

    In a tree the wrong indicators of a gate's inputs are independent,
    so marginals propagate exactly.
    """
    if not net.is_tree():
        raise ExactEngineError("marginal propagation is exact only on trees")
    wrong: dict[str, float] = {w: net.input_error for w in net.circuit.inputs}
    ref = net.reference_values
    for g in net.circuit.topological_order:
        p_out_ref = 0.0
        # sum over joint wrong patterns of the (independent) inputs
        for pattern in range(1 << len(g.inputs)):
            prob = 1.0
            vals = []
            for j, w in enumerate(g.inputs):
                flip = (pattern >> j) & 1
                prob *= wrong[w] if flip else 1.0 - wrong[w]
                vals.append(ref[w] ^ flip)
            if g.label.apply(vals) == ref[g.name]:
                p_out_ref += prob
        wrong[g.name] = net.eps_p + (1.0 - 2.0 * net.eps_p) * (1.0 - p_out_ref)
    return {w: wrong[w] for w in net.circuit.outputs}


# ---------------------------------------------------------------------------
# exact joint engine over one n-wire bundle


def _state_size(n: int) -> int:
    if n > EXACT_ENGINE_CAP:
        raise ExactEngineError(
            f"exact engine caps at n={EXACT_ENGINE_CAP}, got {n}; "
            "use Monte Carlo")
    return 1 << n


def _bit_sums(weights) -> np.ndarray:
    """For each of the 2^n states s, the sum of weights[j] over the set
    bits j of s, built by doubling: the states in [2^j, 2^(j+1)) are
    those below 2^j shifted by weights[j]."""
    out = np.zeros(1 << len(weights), dtype=np.int64)
    for j, w in enumerate(weights):
        np.add(out[:1 << j], w, out=out[1 << j:2 << j])
    return out


def _mix_flips(x: np.ndarray, eps_p: float, runs: list[int]) -> np.ndarray:
    """For each run length r in turn, x <- (1 - eps_p) x + eps_p x[flip],
    where the flip swaps neighbouring runs of r entries.  Overwrites x."""
    out = np.empty_like(x)
    flipped = np.empty_like(x)
    for r in runs:
        pairs = x.reshape(-1, 2, r)
        np.multiply(pairs, 1.0 - eps_p, out=out.reshape(pairs.shape))
        np.multiply(pairs[:, ::-1, :], eps_p, out=flipped.reshape(pairs.shape))
        out += flipped
        x, out = out, x
    return x


class BundleState:
    """Joint law of the wire values of an n-wire bundle: state s sets
    wire i to (s >> i) & 1.

    Index arrays take O(2^n) work, built by doubling over the bits
    (_bit_sums): the popcount, and a NAND layer's pushforward index,
    the complement of (the state's bits moved to the outputs that read
    them as first input) & (the same for the second input)."""

    def __init__(self, n: int, probs: np.ndarray):
        if probs.shape != (_state_size(n),):
            raise ValueError("state size mismatch")
        self.n = n
        self.probs = probs
        self._popcount = _bit_sums([1] * n)

    @classmethod
    def iid(cls, n: int, p_one: float) -> "BundleState":
        """Every wire at 1 independently with probability p_one."""
        state = cls(n, np.empty(_state_size(n)))
        pop = state._popcount
        if p_one <= 0.0:
            state.probs = np.where(pop == 0, 1.0, 0.0)
        elif p_one >= 1.0:
            state.probs = np.where(pop == n, 1.0, 0.0)
        else:
            k = np.arange(n + 1)
            state.probs = np.exp(k * math.log(p_one)
                                 + (n - k) * math.log1p(-p_one))[pop]
        return state

    def apply_noise(self, eps_p: float):
        """XOR-convolve with i.i.d. Bernoulli(eps_p) flips on every wire:
        for each wire k, p <- (1 - eps_p) p + eps_p p[k flipped]."""
        if eps_p == 0.0:
            return
        # the low wires are mixed on a transposed copy, where state
        # hi 2^low + lo sits at lo 2^m + hi: the states that a flip of a
        # low wire pairs then form long contiguous runs
        low = self.n // 2
        m = self.n - low
        x = self.probs.reshape(1 << m, 1 << low).T.copy().reshape(-1)
        x = _mix_flips(x, eps_p, [1 << (m + k) for k in range(low)])
        x = x.reshape(1 << low, 1 << m).T.copy().reshape(-1)
        self.probs = _mix_flips(x, eps_p, [1 << k for k in range(low, self.n)])

    def apply_wiring_layer(self, offsets: tuple[tuple[int, int], ...]):
        """Push forward through one NAND layer; output wire i is the NAND
        of input wires offsets[i] = (a_i, b_i)."""
        # first[j] (second[j]) marks the gates whose first (second)
        # input is wire j; each output bit reads one input bit, so the
        # bit sums are ORs
        first = [0] * self.n
        second = [0] * self.n
        for i, (a, b) in enumerate(offsets):
            first[a] |= 1 << i
            second[b] |= 1 << i
        out = _bit_sums(first) & _bit_sums(second)
        out ^= (1 << self.n) - 1
        self.probs = np.bincount(out, weights=self.probs,
                                 minlength=1 << self.n)

    def combine_iid_nand(self):
        """Replace the state by the NAND-layer output of two i.i.d.
        bundles each distributed as the current state (wire i reads wire
        i of both copies).

        The superset sums of the law of a & b are the squares of those of
        the state; Moebius inversion recovers that law, and reversing the
        array complements every wire.
        """
        t = self.probs.copy()
        for k in range(self.n):
            pairs = t.reshape(-1, 2, 1 << k)
            pairs[:, 0, :] += pairs[:, 1, :]
        t *= t
        for k in range(self.n):
            pairs = t.reshape(-1, 2, 1 << k)
            pairs[:, 0, :] -= pairs[:, 1, :]
        self.probs = np.maximum(t[::-1], 0.0)

    def wrong_count_distribution(self, encoded: int) -> np.ndarray:
        """Distribution of the number of wires that differ from the
        encoded value; length n + 1."""
        probs = self.probs[::-1] if encoded else self.probs
        return np.bincount(self._popcount, weights=probs,
                           minlength=self.n + 1)


def _apply_ec_block(state: BundleState, depth: int, eps_p: float,
                    wiring: str):
    for layer in range(1, depth + 1):
        state.apply_wiring_layer(transform.ec_offsets(state.n, layer, wiring))
        state.apply_noise(eps_p)


def _block_input_error(params: FtParams, block: str) -> float:
    """Per-wire error of the encoded-0 bundle that the EC block reads:
    delta for a bare "ec" block; for a "gadget", the output of the
    computation layer, whose inputs encode 1 (the NAND worst case)."""
    if block == "ec":
        return params.delta
    if block == "gadget":
        return computation_error(params.delta, params.eps_p)
    raise ValueError(f"unknown block kind: {block}")


def exact_stage_error(params: FtParams, block: str = "gadget",
                      wiring: str = WIRING_OFFSET_DOUBLING,
                      stages: int = 1) -> np.ndarray:
    """Exact distribution of the wrong-wire count at the output bundle.

    block "gadget": one computation NAND layer (both input bundles carry
    i.i.d. Bernoulli(delta) wrong wires against encoded 1) followed by
    the depth-D error-correction block.  block "ec": the error-correction
    block alone, fed an encoded-0 bundle with i.i.d. Bernoulli(delta)
    wrong wires.  stages > 1 (gadget only) chains gadgets, each reading
    two independent copies of the previous output.
    """
    if stages < 1:
        raise ValueError("stages must be >= 1")
    if block == "ec" and stages != 1:
        raise ValueError("multi-stage applies to gadget blocks only")
    # the computation layer's outputs are i.i.d., so the joint state
    # starts as a product over an encoded-0 bundle
    state = BundleState.iid(params.n, _block_input_error(params, block))
    for stage in range(stages):
        if stage > 0:
            state.combine_iid_nand()
            state.apply_noise(params.eps_p)
        _apply_ec_block(state, params.depth, params.eps_p, wiring)
    # the first stage ends at encoded 0; each later stage's computation
    # layer flips the encoded value, which its D (even) EC layers keep
    return state.wrong_count_distribution((stages - 1) % 2)


def formula_wrong_count_distribution(params: FtParams,
                                     block: str = "gadget") -> np.ndarray:
    """Wrong-count law of the fan-out-1 (tree) variant of a block, where
    every wire is independent: binomial in the per-wire error."""
    return binom_pmf(params.n, ec_error(params.depth, params.eps_p,
                                        _block_input_error(params, block)))


def tail_probability(dist: np.ndarray, threshold: int) -> float:
    return float(dist[threshold:].sum())


# ---------------------------------------------------------------------------
# Monte Carlo


MC_BATCH = 1 << 20
"""Monte Carlo samples per batch: 16,384 words, 128 KB per packed wire."""

# mask rates below this draw geometric gaps; at and above it, bits of U
_SPARSE_BELOW = 1.0 / 32.0
# the dense branch draws for every word in its first levels and for the
# tied words only after that: a word's 64 lanes are all decided by level
# 5 in 13% of words and by level 8 in 78%, and until then gathering the
# tied words costs more than the draws it saves
_DENSE_ALL_WORDS = 8
_ALL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _lanes(m: int) -> np.ndarray:
    """Packed words with bits 0..m-1 set and the padding past m clear."""
    words = np.full((m + 63) >> 6, _ALL)
    if m & 63:
        words[-1] = (1 << (m & 63)) - 1
    return words


def _bernoulli_words(rng: np.random.Generator, p: float,
                     m: int) -> np.ndarray:
    """Packed i.i.d. Bernoulli(p) mask over m samples: bit j of word w is
    sample 64w + j, and the bits at or past m are 0.

    Sparse p sets the ones at cumulative geometric(p) gaps.  Dense p
    compares a uniform U = 0.u1u2... with p = 0.p1p2... bit by bit: at
    level i a lane still tied with p takes 1 if u_i < p_i and 0 if
    u_i > p_i.  One random_raw word resolves 64 lanes; after the first
    levels only words with a tied lane draw, and the loop ends when no
    lane is tied or p has no 1 bits left (a tie then means U >= p).
    Neither branch rounds p.
    """
    n_words = (m + 63) >> 6
    if p == 0.0:
        return np.zeros(n_words, dtype=np.uint64)
    if p < _SPARSE_BELOW:
        hits = np.zeros(64 * n_words, dtype=np.uint8)
        chunk = int(m * p + 6.0 * math.sqrt(m * p)) + 16
        last = -1
        while last < m:
            # one gap past m ends the mask; clamping there keeps the
            # cumsum finite where geometric saturates at 2^63 - 1
            pos = np.cumsum(np.minimum(rng.geometric(p, chunk), m + 1))
            pos += last
            last = int(pos[-1])
            hits[pos[:np.searchsorted(pos, m)]] = 1
        return np.packbits(hits, bitorder="little").view("<u8")
    words = np.zeros(n_words, dtype=np.uint64)
    raw = rng.bit_generator.random_raw
    tied = _lanes(m)
    idx = None
    rest = p
    for level in itertools.count(1):
        rest *= 2.0
        u = raw(tied.size)
        np.invert(u, out=u)
        if rest >= 1.0:
            # p_i = 1: the tied lanes with u_i = 0 fall below p
            rest -= 1.0
            u &= tied
            if idx is None:
                words |= u
            else:
                words[idx] |= u
            tied ^= u
        else:
            # p_i = 0: the tied lanes with u_i = 1 rise above p
            tied &= u
        if rest == 0.0:
            return words
        if level >= _DENSE_ALL_WORDS:
            keep = np.flatnonzero(tied)
            if not keep.size:
                return words
            idx = keep if idx is None else idx[keep]
            tied = tied[keep]


def _at_least(wrong: list[np.ndarray], threshold: int,
              lanes: np.ndarray) -> np.ndarray:
    """The lanes (a packed mask) in which at least threshold of the
    packed wrong words are set, counted by a bit-sliced adder: planes[i]
    holds bit i of each lane's count."""
    planes: list[np.ndarray] = []
    for k, word in enumerate(wrong, 1):
        carry = word
        for i, plane in enumerate(planes):
            planes[i] = plane ^ carry
            carry = plane & carry
        if k.bit_length() > len(planes):
            planes.append(carry)
    if threshold >> len(planes):
        return np.zeros_like(lanes)
    # count >= threshold, compared from the top bit down
    above = np.zeros_like(lanes)
    equal = lanes.copy()
    for i in reversed(range(len(planes))):
        if (threshold >> i) & 1:
            equal &= planes[i]
        else:
            above |= equal & planes[i]
            equal &= ~planes[i]
    return above | equal


def monte_carlo_logical_error(net: LayeredNoisyNetwork,
                              delta_threshold: float | None,
                              samples: int, seed: int) -> ErrorEstimate:
    """Forward-sample the network and estimate the probability that the
    wrong-output count reaches the failure threshold.  Every gate must be
    a NAND (CircuitError otherwise).

    Samples run in batches of MC_BATCH, packed 64 to a uint64 word:
    sample 64w + j of a batch is bit j of word w on every wire.  A gate
    is ~(a & b) ^ noise on words, with a packed Bernoulli noise mask;
    the padding bits past the last sample are masked out of the count.
    Bit-reproducible for a fixed seed (single threaded); the 95% CI is
    the Wilson score interval.
    """
    if samples < 10_000:
        raise ValueError(f"need >= 10^4 samples, got {samples}")
    circuit = net.circuit
    order = circuit.topological_order
    for g in order:
        require_nand(g.label)
    rng = np.random.default_rng(seed)
    ref = net.reference_values
    threshold = failure_threshold(len(circuit.outputs), delta_threshold)
    failures = 0
    remaining = samples
    while remaining > 0:
        m = min(MC_BATCH, remaining)
        remaining -= m
        values: dict[str, np.ndarray] = {}
        for w in circuit.inputs:
            flips = _bernoulli_words(rng, net.input_error, m)
            values[w] = ~flips if ref[w] else flips
        for g in order:
            a, b = (values[w] for w in g.inputs)
            out = ~(a & b)
            out ^= _bernoulli_words(rng, net.eps_p, m)
            values[g.name] = out
        wrong = [~values[w] if ref[w] else values[w]
                 for w in circuit.outputs]
        # the padding lanes past m stay out of the count
        failed = _at_least(wrong, threshold, _lanes(m))
        failures += int(np.unpackbits(failed.view(np.uint8)).sum())
    mean = failures / samples
    lo, hi = wilson_interval(failures, samples)
    return ErrorEstimate(mean, min(lo, mean), max(hi, mean),
                         "monte_carlo", samples, seed)


def gadget_network(params: FtParams, wiring: str = WIRING_OFFSET_DOUBLING,
                   block: str = "gadget") -> LayeredNoisyNetwork:
    """The noisy network of one gadget (or bare EC block) with the
    worst-case reference: gadget input bundles encode 1, EC inputs 0."""
    if block == "gadget":
        gadget = transform.build_ft_gadget(transform.NAND, params, wiring)
        circuit = gadget.circuit
        reference = {w: 1 for w in circuit.inputs}
    elif block == "ec":
        circuit = transform.build_majority_ec_circuit(params.n, params.depth,
                                                      wiring)
        reference = {w: 0 for w in circuit.inputs}
    else:
        raise ValueError(f"unknown block kind: {block}")
    return induce_network(circuit, params.eps_p, params.delta, reference)


def circuit_logical_error(params: FtParams, method: str = "auto",
                          delta_threshold: float | None = None,
                          variant: str = "circuit",
                          block: str = "gadget",
                          wiring: str = WIRING_OFFSET_DOUBLING,
                          samples: int = 1_000_000,
                          seed: int = 0) -> ErrorEstimate:
    """One-stage logical failure probability of a gadget (or EC block).

    variant "circuit" is the width-n construction; "formula" the
    fan-out-1 tree expansion (independent wires, binomial law).  method
    "auto" uses the exact engine up to its cap, then Monte Carlo.
    """
    threshold = failure_threshold(params.n, delta_threshold)
    if variant == "formula":
        dist = formula_wrong_count_distribution(params, block)
        return exact_estimate(tail_probability(dist, threshold))
    if variant != "circuit":
        raise ValueError(f"unknown variant: {variant}")
    if method == "auto":
        method = "exact" if params.n <= EXACT_ENGINE_CAP else "monte_carlo"
    if method == "exact":
        dist = exact_stage_error(params, block, wiring)
        return exact_estimate(tail_probability(dist, threshold))
    if method != "monte_carlo":
        raise ValueError(f"unknown method: {method}")
    net = gadget_network(params, wiring, block)
    return monte_carlo_logical_error(net, delta_threshold, samples, seed)

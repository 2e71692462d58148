"""Noisy-circuit inference: the Bayesian network induced by a circuit
with independently flipping gates, exact layered propagation of the
joint wire values, and seeded Monte Carlo estimation.

Two exact engines give the wrong-count law of a block; exact_stage_error
picks one from the input alone.  The ring transfer-matrix engine serves
one-stage gadget and EC blocks whose circulant offsets lie in [1, n - 1]
and sum to at most RING_FRONTIER_CAP bits (offset-doubling at D = 2,
unit at D <= 4), at any n: it scans the ring up to four wires per
product, carrying the last off_l values of each layer, and reads the law
off the trace of a product of n one-wire matrices, a sum of nonnegative
terms.  Unit wiring at D = 4 is a different and much weaker construction
than offset-doubling: for the gadget block at eps_p = 0.005 and the
optimal delta = 0.1038, the circuit's mean wrong fraction over the
formula's f is 3.009 for unit wiring at n = 13 and 15, against 0.9961
and 0.9985 for offset-doubling.

The 2^n engine serves every other input (D = 4 offset-doubling, the
shared wiring, multi-stage chains) up to n = EXACT_ENGINE_CAP, a cap
that applies to it alone.  It tracks the joint law of the wire values
of one n-wire bundle (2^n states).  A NAND layer is the pushforward
out_i = 1 - (v_a & v_b), the gate that the circuit evaluator and Monte
Carlo apply; every NAND layer flips the value the bundle encodes, and
the wrong-wire count is read against that value at the end.  i.i.d.
output noise is an XOR convolution, applied a few wires at a time as one
product with their flip matrix, whose entries are all nonnegative, so
that small tails keep their relative accuracy.  The last NAND layer and
its noise go straight into the count law: the state is binned by the
popcount of its image under the layer, and the noise, which moves only
the count, is one product with an (n + 1)-square flip-count matrix.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .analytic import (check_rate, computation_error, ec_error,
                       failure_threshold)
from .circuit import Circuit, CircuitError
from . import transform
from .numerics import binom_tail, wilson_interval
from .transform import FtParams, WIRING_OFFSET_DOUBLING, require_nand

EXACT_ENGINE_CAP = 15
"""Largest n of the 2^n engine (BundleState)."""
RING_FRONTIER_CAP = 4
"""Largest frontier (sum of the EC offsets, in bits) of the ring engine.
Its cost grows as 8^F: at n = 15 on a 2-core x86 machine, in repeated
calls, F = 4 (unit D = 4) took 0.17-0.23 ms against 0.49-0.68 ms on the
2^n engine, F = 6 (unit D = 6) 2.7-3.2 ms against 0.72-0.75 ms."""


class ExactEngineError(CircuitError):
    """No exact engine can serve the request (use Monte Carlo)."""


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


def exact_estimate(p: float) -> ErrorEstimate:
    return ErrorEstimate(p, p, p, "exact")


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
        reads = [w for g in self.circuit.gates for w in g.inputs]
        return len(reads) == len(set(reads))


def induce_network(circuit: Circuit, eps_p: float, input_error: float,
                   reference: Mapping[str, int]) -> LayeredNoisyNetwork:
    """Build the noisy network; the reference assignment fixes the
    intended (noiseless) value of every wire."""
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


def _bit_sums(weights) -> np.ndarray:
    """For each of the 2^n states s, the sum of weights[j] over the set
    bits j of s, built by doubling: the states in [2^j, 2^(j+1)) are
    those below 2^j shifted by weights[j]."""
    out = np.zeros(1 << len(weights), dtype=np.int64)
    for j, w in enumerate(weights):
        np.add(out[:1 << j], w, out=out[1 << j:2 << j])
    return out


# the index arrays below are shared but left writeable: np.bincount copies
# a read-only index on every call


@functools.lru_cache(maxsize=None)
def _popcounts(n: int) -> np.ndarray:
    """The popcount of each of the 2^n states, one array per n; the one
    check of EXACT_ENGINE_CAP, made before any 2^n array is built."""
    if n > EXACT_ENGINE_CAP:
        raise ExactEngineError(
            f"the 2^n exact engine serves n <= {EXACT_ENGINE_CAP}, got "
            f"n={n}; the ring engine serves any n for one-stage blocks with "
            "circulant wiring whose offsets lie in [1, n - 1] and sum to at "
            f"most {RING_FRONTIER_CAP} (offset-doubling at D = 2, unit at "
            "D <= 4); use Monte Carlo for the rest")
    return _bit_sums([1] * n)


@functools.lru_cache(maxsize=64)
def _nand_index(n: int, offsets: tuple[tuple[int, int], ...]) -> np.ndarray:
    """The state each state of an n-wire bundle moves to through the NAND
    layer whose output wire i reads input wires offsets[i]: the complement
    of (the state's bits moved to the outputs that read them as first
    input) & (the same for the second)."""
    # first[j] (second[j]) marks the gates whose first (second) input is
    # wire j; each output bit reads one input bit, so the bit sums are ORs
    first = [0] * n
    second = [0] * n
    for i, (a, b) in enumerate(offsets):
        first[a] |= 1 << i
        second[b] |= 1 << i
    out = _bit_sums(first) & _bit_sums(second)
    out ^= (1 << n) - 1
    return out


@functools.lru_cache(maxsize=64)
def _nand_popcounts(n: int,
                    offsets: tuple[tuple[int, int], ...]) -> np.ndarray:
    """The popcount of each state's image under a NAND layer."""
    return _popcounts(n)[_nand_index(n, offsets)]


# wires mixed per noise step: the noise on n = 11..15 wires took 17, 15, 30,
# 49 and 84 us at 4, 21, 17, 31, 49 and 76 at 3, 13, 19, 28, 51 and 190 at
# 5 (a BLAS slow path); an exact-engine benchmark round takes the same at 3
# and 4 (2-core x86, OpenBLAS 0.3.31, one thread)
_NOISE_WIRES = 4


@functools.lru_cache(maxsize=32)
def _noise_kernel(k: int, eps_p: float) -> np.ndarray:
    """The i.i.d. flip matrix of k wires (read-only, as it is shared)."""
    flip = np.array([[1.0 - eps_p, eps_p], [eps_p, 1.0 - eps_p]])
    mix = functools.reduce(np.kron, [flip] * k)
    mix.flags.writeable = False
    return mix


@functools.lru_cache(maxsize=32)
def _flip_counts(n: int, eps_p: float) -> np.ndarray:
    """Entry [c, c'] is the probability that i.i.d. Bernoulli(eps_p)
    flips take n wires with c ones to c' ones: the convolution of the
    ones each wire ends with ([eps_p, 1 - eps_p] for a 1, reversed for
    a 0), every entry a sum of nonnegative products (read-only, as it
    is shared)."""
    one, zero = [eps_p, 1.0 - eps_p], [1.0 - eps_p, eps_p]
    counts = np.array([functools.reduce(np.convolve,
                                        [one] * c + [zero] * (n - c), [1.0])
                       for c in range(n + 1)])
    counts.flags.writeable = False
    return counts


class BundleState:
    """Joint law of an n-wire bundle: state s sets wire i to (s >> i) & 1.

    The index arrays, built by doubling over the bits (_bit_sums), are
    shared: the popcount once per n, and a NAND layer's pushforward index
    and the popcount of its image once per (n, offsets), so a repeated
    step does only its arithmetic.
    The noise step is one small matrix product per group of _NOISE_WIRES
    wires."""

    def __init__(self, n: int, probs: np.ndarray):
        if probs.shape != _popcounts(n).shape:
            raise ValueError("state size mismatch")
        self.n = n
        self.probs = probs

    @classmethod
    def iid(cls, n: int, p_one: float) -> "BundleState":
        """Every wire at 1 independently with probability p_one: a state
        with k ones has p_one^k (1 - p_one)^(n - k), and 0^0 = 1 covers
        p_one = 0 and 1."""
        k = np.arange(n + 1)
        return cls(n, (p_one**k * (1.0 - p_one)**(n - k))[_popcounts(n)])

    def apply_noise(self, eps_p: float):
        """XOR-convolve with i.i.d. Bernoulli(eps_p) flips on every wire:
        each step mixes the top k wires by a product with their flip matrix
        (nonnegative) and moves them to the bottom; the k sum to n."""
        if eps_p == 0.0:
            return
        for done in range(0, self.n, _NOISE_WIRES):
            k = min(_NOISE_WIRES, self.n - done)
            self.probs = (self.probs.reshape(1 << k, -1).T
                          @ _noise_kernel(k, eps_p)).reshape(-1)

    def apply_wiring_layer(self, offsets: tuple[tuple[int, int], ...]):
        """Push forward through one NAND layer; output wire i is the NAND
        of input wires offsets[i] = (a_i, b_i)."""
        self.probs = np.bincount(_nand_index(self.n, tuple(offsets)),
                                 weights=self.probs, minlength=1 << self.n)

    def combine_iid_nand(self):
        """Replace the state by the NAND-layer output of two i.i.d.
        bundles each distributed as the current state (wire i reads wire
        i of both copies).

        The superset sums of the law of a & b are the squares of those of
        the state; Moebius inversion recovers that law, and reversing the
        array complements every wire.  Each shuffle pass folds the w =
        min(2, n - bit) low bits into a spare buffer, rotating them to the
        top: with t as (m, w, 2) and the spare as (w, 2, m), entry (j, a, b)
        moves to (a, b, j), op(t[j, a, 0], t[j, a, 1]) lands at b = 0 (bit
        `bit`), and for w = 2 op of the halves a = 0 and 1 folds bit
        `bit + 1` in place.  After the passes of one op every bit has been
        folded once, bit 0 first, and every entry is back in place, having
        seen the same operations in the same order as one in-place fold per
        bit; each pass reads with stride 2w and writes contiguously.
        """
        t = self.probs.copy()
        spare = np.empty_like(t)
        for op in (np.add, np.subtract):
            for bit in range(0, self.n, 2):
                w = min(2, self.n - bit)
                quads, out = t.reshape(-1, w, 2).T, spare.reshape(w, 2, -1)
                op(quads[0], quads[1], out=out[:, 0])
                out[:, 1] = quads[1]
                if w == 2:
                    op(out[0], out[1], out=out[0])
                t, spare = spare, t
            if op is np.add:
                t *= t
        self.probs = np.maximum(t[::-1], 0.0)

    def wrong_count_distribution(self, encoded: int,
                                 offsets: tuple[tuple[int, int], ...]
                                 | None = None,
                                 eps_p: float = 0.0) -> np.ndarray:
        """Distribution of the number of wires that differ from the
        encoded value; length n + 1.

        Given offsets, the count is read through one more NAND layer with
        those offsets and its i.i.d. eps_p noise (encoded is then the
        value after it), without their 2^n steps: the state is binned by
        the popcount of its image under the layer, and the noise, which
        moves only the count, is one product with the flip-count
        matrix."""
        if offsets is None:
            ones = np.bincount(_popcounts(self.n), weights=self.probs,
                               minlength=self.n + 1)
        else:
            ones = np.bincount(_nand_popcounts(self.n, tuple(offsets)),
                               weights=self.probs, minlength=self.n + 1
                               ) @ _flip_counts(self.n, eps_p)
        return ones[::-1] if encoded else ones


@functools.lru_cache(maxsize=256)
def _ec_offsets(n: int, layer: int,
                wiring: str) -> tuple[tuple[int, int], ...]:
    """transform.ec_offsets, built once per (n, layer, wiring) and shared:
    the 2^n engine reads them only at n <= EXACT_ENGINE_CAP, and the
    circuit builder builds its own at any n."""
    return transform.ec_offsets(n, layer, wiring)


def _apply_ec_block(state: BundleState, layers: int, eps_p: float,
                    wiring: str):
    """Push the state through the first `layers` EC layers and their
    noise."""
    for layer in range(1, layers + 1):
        state.apply_wiring_layer(_ec_offsets(state.n, layer, wiring))
        state.apply_noise(eps_p)


# ---------------------------------------------------------------------------
# ring transfer-matrix engine for one-stage circulant EC blocks


def _ring_offsets(params: FtParams, wiring: str,
                  stages: int) -> list[int] | None:
    """The EC layer offsets when the ring engine serves the block: one
    stage, circulant wiring, every offset in [1, n - 1] and a frontier of
    at most RING_FRONTIER_CAP bits.  None otherwise."""
    if stages != 1:
        return None
    offsets = [transform.ring_offset(params.n, layer, wiring)
               for layer in range(1, params.depth + 1)]
    if None in offsets or not all(1 <= off < params.n for off in offsets):
        return None
    return offsets if sum(offsets) <= RING_FRONTIER_CAP else None


# wires the ring scan advances per product: at n = 15 the D = 2
# offset-doubling law (F = 3) took 114, 74, 54, 45, 37 and 35 us at 1, 2,
# 3, 4, 6 and 8 wires, the D = 4 unit law (F = 4) 227, 191, 162, 158, 127
# and 133 us, and at n = 101 (F = 3) 1.78, 1.31, 1.00, 0.87, 0.72 and
# 0.66 ms; an exact-engine benchmark round takes the same at 4 and 8, and
# 4 keeps the product buffer at 5 times q and the lift clamp at 2^250
# (2-core x86, OpenBLAS 0.3.31, one thread)
_RING_WIRES = 4


@functools.lru_cache(maxsize=128)
def _ring_transfer(offsets: tuple[int, ...], eps_p: float, p_one: float,
                   wires: int) -> np.ndarray:
    """The step of the ring scan over `wires` wires: [P_0 | ... | P_m],
    where P_d is the coefficient of z^d in (t0 + z t1)^m, the weight of
    moving over m wires with d wrong.

    One wire's step [t0 | t1] has entry [s, z 2^F + s'], the weight of
    moving from frontier s to frontier s' over a wire whose last-layer
    value is z (wrong when 1: the block encodes 0).  Layer l at wire j
    reads layer l - 1 at wires j and j - off_l, so the scan carries the
    frontier s: the last off_l values of each layer l - 1, one shift
    register per layer, newest value in its low bit (F = sum of the
    offsets bits).  A wire takes 2^(1 + D) branches: its input value (1
    with probability p_one) and the eps_p flip of each layer's NAND.
    m wires extend m - 1 by P_d = t0 Q_d + t1 Q_(d - 1), sums of
    nonnegative products.  Read-only: every n at one input shares them."""
    if wires > 1:
        step = _ring_transfer(offsets, eps_p, p_one, 1)
        fewer = _ring_transfer(offsets, eps_p, p_one, wires - 1)
        size = step.shape[0]
        blocks = np.zeros((size, (wires + 1) * size))
        blocks[:, :-size] = step[:, :size] @ fewer
        blocks[:, size:] += step[:, size:] @ fewer
        blocks.flags.writeable = False
        return blocks
    size = 1 << sum(offsets)
    state = np.arange(size)[:, None]
    branch = np.arange(2 << len(offsets))[None, :]
    value = branch & 1
    weight = np.where(value, p_one, 1.0 - p_one)
    after = np.zeros((size, branch.size), dtype=np.int64)
    base = 0
    for layer, off in enumerate(offsets, 1):
        mask = (1 << off) - 1
        reg = (state >> base) & mask
        after |= (((reg << 1) | value) & mask) << base
        flip = (branch >> layer) & 1
        weight = weight * np.where(flip, eps_p, 1.0 - eps_p)
        value = (1 - (value & (reg >> (off - 1)))) ^ flip
        base += off
    index = (2 * state + value) * size + after
    step = np.bincount(index.ravel(),
                       weights=np.broadcast_to(weight, index.shape).ravel(),
                       minlength=2 * size * size).reshape(size, 2 * size)
    step.flags.writeable = False
    return step


@functools.lru_cache(maxsize=128)
def _ring_period(offsets: tuple[int, ...], eps_p: float, p_one: float) -> int:
    """R, the most wires the ring scan runs between two rescales: at most
    32, with w^R >= 2^-500 for the smallest positive weight w of the
    one-wire step.  One per input, as the step is."""
    step = _ring_transfer(offsets, eps_p, p_one, 1)
    bits = max(1.0, -math.log2(step[step > 0].min()))
    return max(1, min(32, int(500 / bits)))


def _ring_count_law(n: int, offsets: list[int], eps_p: float,
                    p_one: float) -> np.ndarray:
    """Wrong-count law of an n-wire circulant EC block fed i.i.d. inputs
    (1 with probability p_one): the coefficients of the trace of
    (t0 + z t1)^n, where [t0 | t1] is the one-wire step, in O(n^2 8^F)
    for an F-bit frontier.

    q[k] 2^e[k] holds, for each start frontier (row) and current frontier
    (column), the weight of the scans so far with k wrong wires.  The
    scan advances up to _RING_WIRES wires per step: m wires map q[k] to
    the sum over d of q[k - d] P_d 2^(e[k - d] - e[k]), two products in
    all: the stacked q times the cached blocks [P_0 | ... | P_m], then,
    for each k, the lifts times a strided view that lines up q[k - d] P_d
    over d.  The trace closes the ring: a scan that ends on its start
    frontier read the values the ring wraps around to.  Every term is a
    sum of products of probabilities.  Every R = _ring_period wires each
    q[k] is rescaled by a power of two (exact) to a maximum in [1/2, 1),
    so deep tails neither underflow nor lose digits; a zero q[k] takes
    the scale of the q below it.  No step runs past a rescale, and none
    advances more than R wires."""
    offsets = tuple(offsets)
    size = _ring_transfer(offsets, eps_p, p_one, 1).shape[0]
    every = _ring_period(offsets, eps_p, p_one)
    wires = min(_RING_WIRES, every)  # the most one step advances
    # no scale sits more than 2^gap below the one beneath it, so the lift
    # over a step stays at most 2^1000; what that drops from q[k] is below
    # 2^-1000 of q[k - 1]
    gap = 1000 // wires
    k = np.arange(n + 1)
    q = np.zeros((n + 1, size, size))
    q[0] = np.eye(size)
    e = np.zeros(n + 1, dtype=np.int64)
    lift = np.ones((n + 1, 1, 1, wires + 1))  # 2^(e[k - d] - e[k])
    # moved[wires + j, :, d] = q[j] P_d; the rows of no j stay 0
    moved = np.zeros((wires + n + 1, size, wires + 1, size))
    sj, sr, sd, sc = moved.strides
    done = 0
    while done < n:
        if (done + 1) % every == 0:
            peak = q.max(axis=(1, 2))
            _, shift = np.frexp(peak)
            scale = (e + shift)[np.maximum.accumulate(
                np.where(peak > 0.0, k, 0))]
            scale = np.maximum.accumulate(scale + gap * k) - gap * k
            np.ldexp(q, (e - scale)[:, None, None], out=q)
            e = scale
            for d in range(1, wires + 1):
                lift[d:, 0, 0, d] = np.ldexp(1.0, e[:-d] - e[d:])
        m = min(wires, n - done, every - (done + 1) % every)
        # the scans over done wires have at most done wrong; the reshape
        # merges axes adjacent in memory, so it is a view of moved
        rows = moved[wires:wires + done + 1, :, :m + 1]
        np.matmul(q[:done + 1].reshape(-1, size),
                  _ring_transfer(offsets, eps_p, p_one, m),
                  out=rows.reshape((done + 1) * size, -1))
        # a view of moved whose [k, :, d] is q[k - d] P_d
        skew = np.ndarray((done + m + 1, size, m + 1, size), buffer=moved,
                          offset=wires * sj,
                          strides=(sj, sr, sd - sj, sc))
        np.matmul(lift[:done + m + 1, :, :, :m + 1], skew,
                  out=q[:done + m + 1, :, None])
        done += m
    return np.ldexp(np.trace(q, axis1=1, axis2=2), e)


# a "gadget" is a computation NAND layer and then the EC block, "ec" the
# EC block alone
BLOCKS = ("gadget", "ec")
# the engine choices of circuit_logical_error
METHODS = ("auto", "exact", "monte_carlo")


def _is_gadget(block: str) -> bool:
    """The one check of the block kind."""
    if block not in BLOCKS:
        raise ValueError(f"unknown block kind: {block}")
    return block == "gadget"


def _block_input_error(params: FtParams, block: str) -> float:
    """Per-wire error of the encoded-0 bundle that the EC block reads:
    delta for a bare "ec" block; for a "gadget", the output of the
    computation layer, whose inputs encode 1 (the NAND worst case)."""
    if _is_gadget(block):
        return computation_error(params.delta, params.eps_p)
    return params.delta


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
    # the computation layer's outputs are i.i.d., so the EC block reads
    # a product law over an encoded-0 bundle
    p_one = _block_input_error(params, block)
    offsets = _ring_offsets(params, wiring, stages)
    if offsets is not None:
        return _ring_count_law(params.n, offsets, params.eps_p, p_one)
    state = BundleState.iid(params.n, p_one)
    for stage in range(stages):
        if stage > 0:
            state.combine_iid_nand()
            state.apply_noise(params.eps_p)
        # the last layer of the chain is read straight into the count law
        _apply_ec_block(state, params.depth - (stage == stages - 1),
                        params.eps_p, wiring)
    # the first stage ends at encoded 0; each later stage's computation
    # layer flips the encoded value, which its D (even) EC layers keep
    return state.wrong_count_distribution(
        (stages - 1) % 2, _ec_offsets(params.n, params.depth, wiring),
        params.eps_p)


def tail_probability(dist: np.ndarray, threshold: int) -> float:
    return float(dist[threshold:].sum())


# ---------------------------------------------------------------------------
# Monte Carlo


MC_BATCH = 1 << 20
"""Monte Carlo samples per batch: 16,384 words, 128 KB per packed wire."""

# mask rates below this draw geometric gaps; at and above it, bits of U
_SPARSE_BELOW = 1.0 / 32.0
# the dense branch draws for every word through this level and for the
# words with a tied lane only after it, a part of the stream.  A word has
# no tied lane left after level 5 with probability (31/32)^64 = 13%,
# after level 8 with 78%; at 2^20 samples, switching at 7 or 8 costs the
# same to within 2% per mask, at 6 or 9 about 5% more, at 5 or 10 about
# 11% more (2-core x86, numpy 2.4).
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

    Sparse p sets the ones at cumulative geometric(p) gaps, drawn as
    ceil(E / -log1p(-p)) from standard exponentials E: numpy's
    Generator.geometric inverts so for p < 1/3, so these are its draws and
    its stream, without its log1p per draw.  E comes in chunks of
    m p + 6 sqrt(m p) + 16 draws into one buffer, where the gaps and then
    their running sums are worked out in place; each set bit is added
    into its word, and distinct bits add as OR.
    Dense p compares a uniform U = 0.u1u2... with p = 0.p1p2... bit by
    bit: at level i a lane still tied with p takes 1 if u_i < p_i and 0 if
    u_i > p_i.  One random_raw word resolves 64 lanes.  Through level
    _DENSE_ALL_WORDS every word draws, after it only the words with a
    tied lane, in word order; the loop ends when no lane is tied or p has
    no 1 bits left (a tie then means U >= p).  Neither branch rounds p.

    _SPARSE_BELOW, _DENSE_ALL_WORDS, the chunk size and the draw order
    are part of the stream: they fix which generator outputs feed which
    samples, so changing any of them moves every fixed-seed estimate.
    At 2^20 samples a mask at p = 0.02 costs about three times its
    exponential draws (cumsum and the scatter hold most of the rest), one
    at p = 0.07 or 0.14 about 1.7 times its eight full levels of
    random_raw (2-core x86, numpy 2.4).
    """
    words = np.zeros((m + 63) >> 6, dtype=np.uint64)
    if p == 0.0:
        return words
    if p < _SPARSE_BELOW:
        rate = -math.log1p(-p)
        chunk = int(m * p + 6.0 * math.sqrt(m * p)) + 16
        pos = np.empty(chunk)
        ones = np.empty(chunk, dtype=np.int64)
        bits = pos.view(np.int64)
        last = -1.0
        while last < m:
            # the positions below m are sums of integer gaps, exact in
            # float64; a gap or sum that overflows to inf (p near the
            # least double) only ends the mask
            rng.standard_exponential(out=pos)
            with np.errstate(over="ignore"):
                pos /= rate
                np.ceil(pos, out=pos)
                pos[0] += last
                np.cumsum(pos, out=pos)
            last = pos[-1]
            k = np.searchsorted(pos, m)
            # the word and the bit of each position below m
            np.copyto(ones[:k], pos[:k], casting="unsafe")
            np.bitwise_and(ones[:k], 63, out=bits[:k])
            np.left_shift(1, bits[:k], out=bits[:k])
            np.right_shift(ones[:k], 6, out=ones[:k])
            np.add.at(words, ones[:k], bits[:k].view(np.uint64))
        return words
    raw = rng.bit_generator.random_raw
    tied = _lanes(m)
    idx = None
    rest = p
    for level in itertools.count(1):
        rest *= 2.0
        # split the tied lanes by u_i, the raw bit
        u1 = raw(tied.size)
        u1 &= tied
        tied ^= u1
        if rest >= 1.0:
            # p_i = 1: u_i = 0 falls below p, u_i = 1 stays tied
            rest -= 1.0
            if idx is None:
                words |= tied
            else:
                words[idx] |= tied
            tied = u1
        # p_i = 0: u_i = 1 rises above p, u_i = 0 stays tied
        if rest == 0.0:
            return words
        if level >= _DENSE_ALL_WORDS:
            keep = (tied != 0).nonzero()[0]
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
    # a wire that is not an output is dropped after its last reader
    last_reader = {w: g for g in order for w in g.inputs
                   if w not in circuit.outputs}
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
            for w in {w for w in g.inputs if last_reader.get(w) is g}:
                del values[w]
        wrong = [~values[w] if ref[w] else values[w]
                 for w in circuit.outputs]
        # the padding lanes past m stay out of the count
        failed = _at_least(wrong, threshold, _lanes(m))
        failed = failed[failed != 0]
        failures += int(np.unpackbits(failed.view(np.uint8)).sum())
    mean = failures / samples
    lo, hi = wilson_interval(failures, samples)
    return ErrorEstimate(mean, min(lo, mean), max(hi, mean),
                         "monte_carlo", samples, seed)


def gadget_network(params: FtParams, wiring: str = WIRING_OFFSET_DOUBLING,
                   block: str = "gadget") -> LayeredNoisyNetwork:
    """The noisy network of one gadget (or bare EC block) with the
    worst-case reference: gadget input bundles encode 1, EC inputs 0."""
    if _is_gadget(block):
        gadget = transform.build_ft_gadget(params, wiring)
        circuit = gadget.circuit
        reference = {w: 1 for w in circuit.inputs}
    else:
        circuit = transform.build_majority_ec_circuit(params.n, params.depth,
                                                      wiring)
        reference = {w: 0 for w in circuit.inputs}
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
    fan-out-1 tree expansion (independent wires, binomial law), which is
    exact and so refuses method "monte_carlo".  method "auto" takes the
    exact engine that exact_stage_error picks and falls back to Monte
    Carlo where it raises ExactEngineError.
    """
    threshold = failure_threshold(params.n, delta_threshold)
    if method not in METHODS:
        raise ValueError(f"unknown method: {method}")
    if variant == "formula":
        if method == "monte_carlo":
            raise ValueError("the formula variant is exact: method "
                             "monte_carlo does not apply (use auto or exact)")
        wire = ec_error(params.depth, params.eps_p,
                        _block_input_error(params, block))
        return exact_estimate(binom_tail(params.n, wire, threshold))
    if variant != "circuit":
        raise ValueError(f"unknown variant: {variant}")
    if method != "monte_carlo":
        try:
            dist = exact_stage_error(params, block, wiring)
        except ExactEngineError:
            if method == "exact":
                raise
        else:
            return exact_estimate(tail_probability(dist, threshold))
    net = gadget_network(params, wiring, block)
    return monte_carlo_logical_error(net, delta_threshold, samples, seed)

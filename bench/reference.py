"""Reference computations the benchmark checks ftcircuit against.

Nothing here imports ftcircuit.  Every routine is written from the model
the package documents, by a different route where one exists:

- the stage recursion and the per-wire tree error rate;
- a binomial tail summed outward from its largest term by term ratios;
- the resource closed forms (exponential, Gaussian, Pareto) and the
  criterion-8 eta closed form;
- the exact joint wrong-bit state of an n-wire bundle, pushed forward with
  additions and multiplications only: wiring as a bincount, noise as
  per-bit mixing p <- (1 - eps) p + eps p[flip k], and the i.i.d. NAND
  combine of the multi-stage gadget as a pairwise OR/AND convolution;
- least-squares slopes, Wilson intervals, and brute-force enumeration of
  small noisy netlists.

Every function accepts Python floats or fractions.Fraction where its
arithmetic allows, so ``test_reference.py`` checks it against exact
rational arithmetic at small n.
"""
from __future__ import annotations

import math
from itertools import product

import numpy as np

EITHER = "either"  # inputs encode 1: one wrong input corrupts the output
BOTH = "both"      # inputs encode 0: both inputs must be wrong


# ---------------------------------------------------------------------------
# formula-level recursion


def flip(e, eps):
    """Wrong probability after an output flip of probability eps."""
    return e * (1 - eps) + (1 - e) * eps


def either_wrong(e):
    """Both inputs independent with wrong probability e, either suffices."""
    return 1 - (1 - e) * (1 - e)


def tree_error(depth: int, eps_p, e0, first_rule: str = BOTH):
    """Per-wire error after `depth` noisy NAND layers of a fan-out-1 tree
    whose layer inputs are independent with wrong probability e0; the
    rule alternates starting from first_rule."""
    e, rule = e0, first_rule
    for _ in range(depth):
        e = flip(either_wrong(e) if rule == EITHER else e * e, eps_p)
        rule = BOTH if rule == EITHER else EITHER
    return e


def stage_error(depth: int, eps_p, delta):
    """Worst-case wire error after a computation NAND (inputs encode 1,
    each wrong with probability delta) and `depth` EC layers."""
    comp = flip(either_wrong(delta), eps_p)
    return tree_error(depth, eps_p, comp, BOTH)


def ec_tree_error(depth: int, eps_p, delta):
    """Wire error of the fan-out-1 EC block fed encoded 0 with i.i.d.
    Bernoulli(delta) wrong wires."""
    return tree_error(depth, eps_p, delta, BOTH)


def min_gap(depth: int, eps_p: float) -> float:
    """min over delta in (0, 1/2) of stage_error - delta: negative iff the
    amplification window exists.  A coarse scan, then ternary refinement
    around the best scan point."""
    grid = [0.5 * i / 2000 for i in range(1, 2000)]
    gaps = [stage_error(depth, eps_p, d) - d for d in grid]
    i = min(range(len(grid)), key=gaps.__getitem__)
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    for _ in range(200):
        a, b = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if stage_error(depth, eps_p, a) - a < stage_error(depth, eps_p, b) - b:
            hi = b
        else:
            lo = a
    d = 0.5 * (lo + hi)
    return stage_error(depth, eps_p, d) - d


def fiducial_coefficient(depth: int, eps_p: float, delta: float) -> float:
    """(delta - f)/sqrt(f(1 - f)): the quantity the optimal delta maximizes."""
    f = stage_error(depth, eps_p, delta)
    return (delta - f) / math.sqrt(f * (1 - f))


def code_size_coefficient(depth: int, eps_p: float, delta: float) -> float:
    f = stage_error(depth, eps_p, delta)
    return 2 * f * (1 - f) / ((f - delta) * (f - delta))


def wrong_threshold(n: int, delta: float) -> int:
    """Bundle fails when at least ceil(delta n) wires are wrong (at least 1)."""
    return max(math.ceil(delta * n), 1)


# ---------------------------------------------------------------------------
# binomial tail


def log_binom_tail(n: int, p: float, k: int) -> float:
    """log Pr[Binomial(n, p) >= k], summed outward from the largest term.

    Terms are generated from their neighbours by the ratio
    t(j+1)/t(j) = (n-j)/(j+1) * p/(1-p), which is monotone in j, so each
    direction decays geometrically away from the largest term and stops
    once a term falls below 1e-18 of the running sum.
    """
    if k <= 0 or p >= 1.0:
        return 0.0
    if k > n or p <= 0.0:
        return -math.inf
    mode = min(max(math.floor((n + 1) * p), k), n)
    log_top = (math.lgamma(n + 1) - math.lgamma(mode + 1)
               - math.lgamma(n - mode + 1)
               + mode * math.log(p) + (n - mode) * math.log1p(-p))
    odds = p / (1.0 - p)
    total, term = 1.0, 1.0
    for j in range(mode, n):
        term *= (n - j) / (j + 1) * odds
        total += term
        if term < 1e-18 * total:
            break
    term = 1.0
    for j in range(mode, k, -1):
        term *= j / (n - j + 1) / odds
        total += term
        if term < 1e-18 * total:
            break
    return log_top + math.log(total)


def binom_tail(n: int, p, k: int):
    """Pr[Binomial(n, p) >= k] as a direct sum; exact for Fraction p."""
    return sum(math.comb(n, j) * p ** j * (1 - p) ** (n - j)
               for j in range(max(k, 0), n + 1))


# ---------------------------------------------------------------------------
# resource model (unit prefactor C = 1, resources in units of the tail scale)


def erfc_inverse(y: float) -> float:
    """x with math.erfc(x) = y for 0 < y < 1, by bisection to the last bit."""
    lo, hi = 0.0, 27.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if math.erfc(mid) > y:
            lo = mid
        else:
            hi = mid


def unit_resource(kind: str, gamma: float, eps: float) -> float:
    """W(eps) / scale: ln(1/eps), erfcinv(2 eps) or (2 eps)^(-1/gamma) - 1."""
    if kind == "exponential":
        return math.log(1.0 / eps)
    if kind == "gaussian":
        return erfc_inverse(2.0 * eps)
    return (2.0 * eps) ** (-1.0 / gamma) - 1.0


def eta_exact(kind: str, gamma: float, w_p: float, eps_l: float, n: int,
              depth: int, chi: float) -> float:
    """(W_P / W(eps_l)) (D+1) n / chi."""
    return w_p / unit_resource(kind, gamma, eps_l) * ((depth + 1) * n / chi)


def eta_closed_form(kind: str, gamma: float, w_p: float, eps_l: float,
                    eps_p: float, delta: float, depth: int,
                    chi: float) -> float:
    """The asymptotic overhead: W_P (D+1)/chi * 2f(1-f)/(f-delta)^2, times
    ln(1/eps_l)/W(eps_l) except for the exponential tail, where the two
    cancel.  For the Pareto tail this is the criterion-8 closed form
    w_p (D+1)/chi * 2f(1-f)/(f-delta)^2 * ln(1/eps_l) / ((2 eps_l)^(-1/gamma) - 1).
    """
    construction = (depth + 1) / chi * code_size_coefficient(depth, eps_p, delta)
    if kind == "exponential":
        return w_p * construction
    return (w_p * construction * math.log(1.0 / eps_l)
            / unit_resource(kind, gamma, eps_l))


# ---------------------------------------------------------------------------
# exact joint wrong-bit state of one n-wire bundle


def popcounts(n: int) -> np.ndarray:
    pop = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        pop = np.concatenate([pop, pop + 1])
    return pop


def iid_state(n: int, q) -> np.ndarray:
    """Product distribution: every wire wrong independently with probability q."""
    state = np.ones(1, dtype=object if not isinstance(q, float) else float)
    one_wire = np.array([1 - q, q], dtype=state.dtype)
    for _ in range(n):
        state = np.kron(one_wire, state)
    return state


def mix_noise(state: np.ndarray, n: int, eps) -> np.ndarray:
    """Flip every wire independently with probability eps, one wire at a
    time: p <- (1 - eps) p + eps p[index xor 2^k]."""
    state = state.copy()
    for k in range(n):
        view = state.reshape(-1, 2, 1 << k)
        low = view[:, 0, :].copy()
        view[:, 0, :] *= 1 - eps
        view[:, 0, :] += eps * view[:, 1, :]
        view[:, 1, :] *= 1 - eps
        view[:, 1, :] += eps * low
    return state


def wire_layer(state: np.ndarray, n: int, offset: int, rule: str) -> np.ndarray:
    """Push the state through a NAND layer in which wire i reads wires i
    and i - offset (mod n): the wrong bits combine by OR (EITHER) or AND
    (BOTH), and the mass moves by bincount."""
    index = np.arange(1 << n, dtype=np.int64)
    mask = (1 << n) - 1
    offset %= n
    shifted = ((index << offset) | (index >> (n - offset))) & mask
    target = index | shifted if rule == EITHER else index & shifted
    if state.dtype == object:
        out = np.zeros(1 << n, dtype=object)
        for src, dst in enumerate(target):
            out[dst] += state[src]
        return out
    return np.bincount(target, weights=state, minlength=1 << n)


def _convolve(p: np.ndarray, q: np.ndarray, rule: str) -> np.ndarray:
    """Law of a|b (EITHER) or a&b (BOTH) for independent a ~ p, b ~ q.

    Split on the top bit: for OR, out0 = p0*q0 and
    out1 = p0*q1 + p1*(q0 + q1); for AND, out1 = p1*q1 and
    out0 = p0*(q0 + q1) + p1*q0.  Three half-size products, 3^n in all,
    every term a product of probabilities.  At 64 entries per side or
    fewer the pairs are summed directly.
    """
    size = p.shape[0]
    if size <= 64 or p.dtype == object:
        if size == 1:
            return p * q
        index = np.arange(size)
        pair = (index[:, None] | index[None, :] if rule == EITHER
                else index[:, None] & index[None, :])
        weights = np.multiply.outer(p, q)
        if p.dtype == object:
            out = np.zeros(size, dtype=object)
            for dst, w in zip(pair.ravel(), weights.ravel()):
                out[dst] += w
            return out
        return np.bincount(pair.ravel(), weights=weights.ravel(),
                           minlength=size)
    half = size // 2
    p0, p1, q0, q1 = p[:half], p[half:], q[:half], q[half:]
    if rule == EITHER:
        low = _convolve(p0, q0, rule)
        high = _convolve(p0, q1, rule) + _convolve(p1, q0 + q1, rule)
    else:
        high = _convolve(p1, q1, rule)
        low = _convolve(p0, q0 + q1, rule) + _convolve(p1, q0, rule)
    return np.concatenate([low, high])


def combine_iid(state: np.ndarray, rule: str) -> np.ndarray:
    """Wrong bits of a NAND layer reading wire i of two independent copies
    of the state."""
    return _convolve(state, state, rule)


def count_distribution(state: np.ndarray, n: int) -> np.ndarray:
    pop = popcounts(n)
    if state.dtype == object:
        out = np.zeros(n + 1, dtype=object)
        for c, w in zip(pop, state):
            out[c] += w
        return out
    return np.bincount(pop, weights=state, minlength=n + 1)


def _ec_block(state, n: int, depth: int, eps_p, first_rule: str):
    rule = first_rule
    for layer in range(1, depth + 1):
        state = mix_noise(wire_layer(state, n, 1 << (layer - 1), rule), n, eps_p)
        rule = BOTH if rule == EITHER else EITHER
    return state


def block_count_distribution(n: int, depth: int, eps_p, delta,
                             block: str = "gadget", stages: int = 1):
    """Wrong-wire count law at the output of a gadget (computation layer,
    inputs encoding 1, then the EC block) or of a bare EC block fed
    encoded 0; offset-doubling wiring.  stages > 1 chains gadgets, each
    reading two independent copies of the previous output bundle."""
    if block == "ec":
        state = _ec_block(iid_state(n, delta), n, depth, eps_p, BOTH)
        return count_distribution(state, n)
    comp_rule = EITHER
    state = mix_noise(iid_state(n, either_wrong(delta)), n, eps_p)
    for stage in range(stages):
        if stage > 0:
            comp_rule = BOTH if comp_rule == EITHER else EITHER
            state = mix_noise(combine_iid(state, comp_rule), n, eps_p)
        ec_first = BOTH if comp_rule == EITHER else EITHER
        state = _ec_block(state, n, depth, eps_p, ec_first)
    return count_distribution(state, n)


def majority_tail(dist) -> float:
    """Pr[more wires wrong than right] of a wrong-count law over n wires."""
    n = len(dist) - 1
    return sum(dist[n // 2 + 1:])


# ---------------------------------------------------------------------------
# statistics and small-netlist enumeration


def ols_slope(xs, ys) -> float:
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) * (x - mx) for x in xs)
    return sxy / sxx


def wilson(successes: int, trials: int) -> tuple[float, float]:
    """Wilson-score 95% interval, z = Phi^-1(0.975)."""
    z = 1.959963984540054
    p = successes / trials
    scale = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / scale
    half = z / scale * math.sqrt(p * (1 - p) / trials
                                 + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def netlist_error(inputs, gates, outputs, tables, reference, input_error,
                  eps_p, threshold: int):
    """Probability that at least `threshold` outputs differ from their
    noiseless value, by enumerating every input-flip and gate-flip pattern.

    gates: (name, label, input wires) in topological order; tables maps
    a label to its truth table indexed by the inputs, first input highest.
    """
    def run(flips):
        values = {w: reference[w] ^ f for w, f in zip(inputs, flips)}
        for (name, label, args), f in zip(gates, flips[len(inputs):]):
            index = 0
            for w in args:
                index = 2 * index + values[w]
            values[name] = tables[label][index] ^ f
        return values

    clean = run((0,) * (len(inputs) + len(gates)))
    total = 0 * eps_p
    for flips in product((0, 1), repeat=len(inputs) + len(gates)):
        weight = 1
        for i, f in enumerate(flips):
            rate = input_error if i < len(inputs) else eps_p
            weight *= rate if f else 1 - rate
        values = run(flips)
        if sum(values[w] != clean[w] for w in outputs) >= threshold:
            total += weight
    return total

"""Formula-level reliability analysis of the fault-tolerant NAND stage.

One stage is a computation NAND followed by D error-correction layers.
The worst-case per-wire error after the stage, as a function of the
input wrong-wire rate Delta, is the stage error curve f(Delta).  Its
fixed points bound the amplification window; the largest physical error
rate for which the window exists is the pseudothreshold.  An operating
point (D, eps_p, delta) in the window carries f(delta) and the code-size
coefficient.  Logical error rates follow from a binomial tail because
formula (fan-out-1) gadgets have independent output wires.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

from .numerics import bisect, golden_min, log_binom_tail


def check_depth(depth: int):
    if depth < 2 or depth % 2 != 0:
        raise ValueError(f"EC depth must be even and >= 2, got {depth}")


def check_rate(name: str, value: float):
    if not 0.0 <= value < 0.5:
        raise ValueError(f"{name} must be in [0, 1/2), got {value}")


def _layers(eps_p: float,
            flags: tuple[bool, ...]) -> Callable[[float], float]:
    """e -> the per-wire error after one noisy NAND layer per flag, the
    first fed wires each wrong with probability e.  A layer maps e to
    eps_p + (1 - 2 eps_p) P(e), where P, the chance the noiseless output
    is wrong, is 2e - e^2 when its inputs encode 1 (flag True: either
    wrong input corrupts the output) and e^2 when they encode 0 (both
    must be wrong); the output then flips with probability eps_p.  The
    closure runs every layer in one frame with q = 1 - 2 eps_p hoisted;
    the association is part of its bits: eps_p + q * e * e rounds
    (q e) e, and q (e e) would differ in the last bit at some e."""
    q = 1.0 - 2.0 * eps_p

    def run(e: float) -> float:
        for fed_one in flags:
            if fed_one:
                e = eps_p + q * (2.0 * e - e * e)
            else:
                e = eps_p + q * e * e
        return e
    return run


def _layer_slopes(e: float, q: float,
                  fed_one: bool) -> tuple[float, float, float]:
    """(d/de, d2/de2, d/deps_p) of one layer of _layers at e, with q =
    1 - 2 eps_p."""
    if fed_one:
        p, p1, p2 = 2.0 * e - e * e, 2.0 - 2.0 * e, -2.0
    else:
        p, p1, p2 = e * e, 2.0 * e, 2.0
    return q * p1, q * p2, 1.0 - 2.0 * p


@functools.cache
def _ec_layers(depth: int) -> tuple[bool, ...]:
    """For each of the D layers of an error-correction block whose input
    wires encode 0, whether that layer is fed wires that encode 1: the
    encoded value alternates layer to layer, so the odd layers are fed 0
    and the even layers 1."""
    return tuple(k % 2 == 0 for k in range(1, depth + 1))


def computation_error(e: float, eps_p: float) -> float:
    """Per-wire error after a noisy NAND layer whose inputs encode 1 and
    are each wrong with probability e."""
    return _layers(eps_p, (True,))(e)


def ec_error(depth: int, eps_p: float, e: float) -> float:
    """Per-wire error after the D layers of a fan-out-1 error-correction
    block fed wires that encode 0 and are each wrong with probability e.
    """
    return _layers(eps_p, _ec_layers(depth))(e)


def _stage_curve(depth: int, eps_p: float) -> Callable[[float], float]:
    """The stage error curve delta -> f(delta) of (depth, eps_p): the
    computation layer and the D EC layers in one closure of _layers, with
    depth and eps_p checked once for all its evaluations; delta is not
    checked."""
    check_depth(depth)
    check_rate("eps_p", eps_p)
    return _layers(eps_p, (True, *_ec_layers(depth)))


def stage_error(depth: int, eps_p: float, delta: float) -> float:
    """Worst-case per-wire error f(delta) after one computation NAND and
    D error-correction layers.

    The computation layer sees the worst case (both inputs encode 1,
    either wrong input corrupts the output); the EC block then starts
    from encoded 0.
    """
    curve = _stage_curve(depth, eps_p)
    check_rate("delta", delta)
    return curve(delta)


def stage_error_depth2_closed_form(eps_p: float, delta: float) -> float:
    """The depth-2 stage error as a single algebraic expression.

    Kept as an independent implementation; it must agree with
    stage_error(2, ...) identically.
    """
    g = 2.0 * eps_p - 1.0
    inner = g * (((delta - 2.0) * delta * g + eps_p) ** 2) - eps_p + 1.0
    return 1.0 - eps_p + g * inner * inner


@dataclass(frozen=True)
class OperatingPoint:
    """A fiducial rate delta at (depth, eps_p) that the stage amplifies,
    f = f(delta) < delta, with the leading coefficient of the code size
    n ~ coefficient * ln(1/eps_l): 2f(1-f)/(f-delta)^2."""

    depth: int
    eps_p: float
    delta: float
    f: float
    coefficient: float


@dataclass(frozen=True)
class AmplificationWindow:
    """Fixed points of the stage error curve of (depth, eps_p); f <
    identity between them."""

    depth: int
    eps_p: float
    exists: bool
    delta_lo: float = math.nan
    delta_hi: float = math.nan

    def point(self, delta="optimal") -> OperatingPoint:
        """The operating point at delta; "optimal" selects the
        delta in the window maximizing (delta - f)/sqrt(f(1-f)), the
        sqrt(n) coefficient of the normal-approximation logical error
        exponent, by minimizing its negative.  Raises ValueError when that
        window does not exist or f(delta) >= delta, which holds exactly
        outside the fixed points."""
        depth, eps_p = self.depth, self.eps_p
        curve = _stage_curve(depth, eps_p)
        if delta == "optimal":
            if not self.exists:
                raise ValueError(f"eps_p={eps_p} is at or above the "
                                 f"depth-{depth} pseudothreshold")

            def score(d: float) -> float:
                f = curve(d)
                return (f - d) / math.sqrt(f * (1.0 - f))

            delta = golden_min(score, self.delta_lo, self.delta_hi,
                               tol=1e-8)[0]
        else:
            delta = float(delta)
            check_rate("delta", delta)
        f = curve(delta)
        if not f < delta:
            raise ValueError(
                f"delta={delta} is outside the amplification window; "
                "the signal is not amplified")
        return OperatingPoint(depth, eps_p, delta, f,
                              2.0 * f * (1.0 - f) / (f - delta) ** 2)


def _min_gap(depth: int, eps_p: float) -> tuple[float, float, Callable]:
    """(argmin, min, gap) of gap(delta) = f(delta) - delta on (0, 1/2),
    by golden section to 1e-12: the one search that decides whether a
    window exists.  gap, built on one stage error curve, is returned for
    the caller's own searches."""
    curve = _stage_curve(depth, eps_p)
    gap = lambda d: curve(d) - d
    return (*golden_min(gap, 0.0, 0.5 - 1e-12, tol=1e-12), gap)


def fixed_points(depth: int, eps_p: float) -> AmplificationWindow:
    """Locate the fixed points of f(delta) = delta by bisection, to 1e-10.

    Returns exists=False when f lies above the identity on all of
    (0, 1/2), i.e. eps_p is above the pseudothreshold.
    """
    d_min, g_min, gap = _min_gap(depth, eps_p)
    if g_min > 0.0:
        return AmplificationWindow(depth, eps_p, False)
    # each fixed point is the midpoint of its bisection bracket
    lo = 0.5 * sum(bisect(gap, 0.0, d_min, tol=1e-10))
    hi = 0.5 * sum(bisect(gap, d_min, 0.5 - 1e-12, tol=1e-10))
    return AmplificationWindow(depth, eps_p, True, lo, hi)


def _stage_error_derivatives(depth: int, eps_p: float) -> Callable:
    """delta -> (f, df/ddelta, d2f/ddelta2, df/deps_p) of the stage error
    curve of (depth, eps_p), by the forward chain rule through its layers;
    f is the curve's own value.  q and each layer's one-layer closure of
    _layers are bound once for all its evaluations."""
    q = 1.0 - 2.0 * eps_p
    walk = tuple((fed_one, _layers(eps_p, (fed_one,)))
                 for fed_one in (True, *_ec_layers(depth)))

    def jet(delta: float) -> tuple[float, float, float, float]:
        e, d1, d2, d_eps = delta, 1.0, 0.0, 0.0
        for fed_one, layer in walk:
            s1, s2, s_eps = _layer_slopes(e, q, fed_one)
            d1, d2, d_eps = s1 * d1, s2 * d1 * d1 + s1 * d2, s_eps + s1 * d_eps
            e = layer(e)
        return e, d1, d2, d_eps
    return jet


# Newton iterations allowed to each of the tangency solves, and the step
# at which one stops
_NEWTON_ITERATIONS = 100
_NEWTON_TOL = 1e-14


def _tangency(depth: int, eps_p: float,
              delta: float) -> tuple[float, float, float] | None:
    """(delta*, f(delta*), df/deps_p there) for the delta* nearest the
    start delta with f'(delta*) = 1 and f convex around it: the minimum
    of f(delta) - delta.  Newton on f' = 1; a step that would leave
    (0, 1/2) or the convex part of f is halved.  None when the start is
    not convex or the solve does not converge."""
    jet = _stage_error_derivatives(depth, eps_p)
    f, d1, d2, d_eps = jet(delta)
    if not d2 > 0.0:
        return None
    for _ in range(_NEWTON_ITERATIONS):
        step = (d1 - 1.0) / d2
        if abs(step) < _NEWTON_TOL:
            return delta, f, d_eps
        for _ in range(60):  # halvings before the solve gives up
            if 0.0 < delta - step < 0.5:
                moved = jet(delta - step)
                if moved[2] > 0.0:
                    break
            step *= 0.5
        else:
            return None
        delta -= step
        f, d1, d2, d_eps = moved
    return None


def pseudothreshold(depth: int) -> float:
    """The largest eps_p at which an amplification window exists, less
    5e-8: the eps_p* where the stage error curve touches the identity,
    f(delta*) = delta* with f'(delta*) = 1.

    Safeguarded Newton on h(eps_p) = f(delta*) - delta*, whose derivative
    is df/deps_p at delta* (the envelope theorem), around the tangency
    solve of _tangency.  It starts at eps_p = 0.03, delta = 0.2 and keeps
    eps_p inside a bracket [lo, hi] with h(lo) <= 0 < h(hi), first
    [0, 1/4].  Where the tangency solve fails, the window search _min_gap
    gives the sign of h and, when a window exists, the delta from which
    the next solve starts; where that happens or a Newton step would
    leave the bracket, eps_p bisects it instead.  The answer is returned
    only when _min_gap finds a window 5e-8 below eps_p* and none 5e-8
    above it, so fixed_points finds a window at the returned value;
    otherwise this raises RuntimeError.
    """
    check_depth(depth)
    lo, hi = 0.0, 0.25
    eps_p, delta = 0.03, 0.2
    for _ in range(_NEWTON_ITERATIONS):
        tangency = _tangency(depth, eps_p, delta)
        if tangency is None:
            d_min, gap, _ = _min_gap(depth, eps_p)
            if gap <= 0.0:
                delta = d_min
            step = math.nan
        else:
            delta, f, f_eps = tangency
            gap = f - delta
            step = gap / f_eps
        if gap <= 0.0:
            lo = eps_p
        else:
            hi = eps_p
        if abs(step) < _NEWTON_TOL:
            eps_p -= step
            break
        eps_p = (eps_p - step if lo < eps_p - step < hi
                 else 0.5 * (lo + hi))
        if hi - lo <= _NEWTON_TOL:
            break
    else:
        raise RuntimeError(f"the depth-{depth} pseudothreshold Newton "
                           f"iteration did not converge (at {eps_p})")
    below, above = eps_p - 5e-8, eps_p + 5e-8
    if not _min_gap(depth, below)[1] <= 0.0 < _min_gap(depth, above)[1]:
        raise RuntimeError(f"the tangency at eps_p={eps_p} is not the "
                           f"depth-{depth} window edge")
    return below


def optimal_fiducial(depth: int, eps_p: float) -> float:
    """The delta of the optimal operating point (AmplificationWindow.point)."""
    return fixed_points(depth, eps_p).point().delta


def failure_threshold(n: int, delta: float | None) -> int:
    """Wrong-wire count at which a bundle stops encoding: majority (more
    wrong than right) when delta is None, else ceil(delta * n); a bundle
    with wrong count r encodes iff r < delta * n, for delta in (0, 1]."""
    if delta is None:
        return n // 2 + 1
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"failure threshold fraction must be in (0, 1], "
                         f"got {delta}")
    return max(math.ceil(delta * n), 1)


def log10_logical_error(n: int, point: OperatingPoint) -> float:
    """log10 of the exact formula logical error; stays finite far below
    float underflow."""
    k = failure_threshold(n, point.delta)
    return log_binom_tail(n, point.f, k) / math.log(10.0)


def _run_start(k: int, delta: float) -> int:
    """The first odd n whose failure threshold is k or more, for k >= 1."""
    # start from the real bound n > (k - 1)/delta; the float product in
    # failure_threshold settles the last bit
    n = int((k - 1) / delta) | 1
    while failure_threshold(n, delta) < k:
        n += 2
    return n


def _lowest_passing(passes: Callable[[int], bool], fail: int, k: int) -> int:
    """The k' > fail at which passes first holds, for a passes that fails
    at fail and is expected to hold from k' on: k doubles until passes(k),
    then the step from the last failing k to it is bisected."""
    while not passes(k):
        fail, k = k, 2 * k
    while k - fail > 1:
        mid = (fail + k) // 2
        if passes(mid):
            k = mid
        else:
            fail = mid
    return k


def required_code_size(eps_l_target: float, point: OperatingPoint) -> int:
    """The odd code size n whose exact formula logical error tail(n) is at
    or below the target while tail(n - 2) is above it (or n = 1).

    The tail is a sawtooth in n: it rises while k = ceil(delta n) holds
    still and drops at each step of k, so only the first odd n of a
    threshold run can be the smallest that passes.  At that n the ratio of
    consecutive terms of Pr[Bin(n, f) >= k] falls from r = (n - k)/(k + 1)
    f/(1 - f) < 1 on, so the tail lies between its first term, term_k, and
    term_k/(1 - r), each a few scalar log-gamma and log calls.  The search
    checks n = 1, then runs doubling-and-bisection over k, from the k of
    the guess coeff * ln(1/eps_l), on each bound: kb is the first k the
    upper bound passes and ka the first the lower bound passes, so no k
    below ka can.  The exact tail sits near the upper bound, so the finish
    probes kb - 1, kb - 2, kb - 4, ... until a k fails or the next would
    leave (ka - 1, kb], and bisects the last step.  The bounds only steer:
    exact tails confirm that the k found passes and k - 1 fails, and where
    one contradicts a bound (log-gamma rounding) the search widens, up by
    doubling k from kb or down by bisecting from k = 1.  The run of k - 1
    ends at n - 2 and its start fails, so tail(n - 2) does.  No k's exact
    tail is summed twice in one call.

    n is the smallest that reaches the target whenever run-start tails
    fall with k, as at every optimal delta checked with eps_p <= 0.007
    (not at D = 2, eps_p = 0.009, eps_l = 1e-6).  Nearer the upper
    window edge they need not: at D = 2, eps_p = 0.005, eps_l = 1e-6, delta
    three quarters of the way from the optimum to delta_hi the run starts
    26,299, 26,317 and 26,335 reach the target while 26,309 and 26,327
    between them do not, so which one a search over k returns depends on
    the k it probes; this one returns 26,299.
    The logical error reached is 10.0 ** log10_logical_error(n, point).
    """
    if not sys.float_info.min <= eps_l_target < 1.0:
        # a subnormal target overflows the guess's 1/eps_l
        raise ValueError(f"target must be in [{sys.float_info.min!r}, 1), "
                         f"got {eps_l_target}")
    log10_target = math.log10(eps_l_target)
    log_target = math.log(eps_l_target)
    delta, f = point.delta, point.f

    @functools.cache
    def passes(k: int) -> bool:
        return (log10_logical_error(_run_start(k, delta), point)
                <= log10_target)

    if passes(1):
        return 1
    log_f, log_1mf, odds = math.log(f), math.log1p(-f), f / (1.0 - f)

    def bound_passes(k: int, upper: bool) -> bool:
        n = _run_start(k, delta)
        log_term = (math.lgamma(n + 1) - math.lgamma(k + 1)
                    - math.lgamma(n - k + 1) + k * log_f + (n - k) * log_1mf)
        if upper:
            r = (n - k) / (k + 1) * odds
            if r >= 1.0:
                return False
            log_term -= math.log1p(-r)
        return log_term <= log_target

    guess = int(point.coefficient * math.log(1.0 / eps_l_target))
    start = failure_threshold(guess, delta)
    kb = _lowest_passing(lambda k: bound_passes(k, True), 1, start)
    ka = _lowest_passing(lambda k: bound_passes(k, False), 1, start)
    # ka - 1 fails by the lower bound and k = 1 by its exact tail
    ok, fail, step = kb, max(min(ka, kb) - 1, 1), 1
    while kb - step > fail and passes(kb - step):
        ok, step = kb - step, 2 * step
    # the k that failed, or the floor; _lowest_passing confirms ok
    k = _lowest_passing(passes, max(fail, kb - step), ok)
    if passes(k - 1):
        k = _lowest_passing(passes, 1, k - 1)
    return _run_start(k, delta)

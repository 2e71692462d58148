"""Formula-level reliability analysis of the fault-tolerant NAND stage.

One stage is a computation NAND followed by D error-correction layers.
The worst-case per-wire error after the stage, as a function of the
input wrong-wire rate Delta, is the stage error curve f(Delta).  Its
fixed points bound the amplification window; the largest physical error
rate for which the window exists is the pseudothreshold.  Logical error
rates follow from a binomial tail because formula (fan-out-1) gadgets
have independent output wires.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import bisect, binom_tail, golden_max, golden_min, log_binom_tail


def check_depth(depth: int):
    if depth < 2 or depth % 2 != 0:
        raise ValueError(f"EC depth must be even and >= 2, got {depth}")


def check_rate(name: str, value: float):
    if not 0.0 <= value < 0.5:
        raise ValueError(f"{name} must be in [0, 1/2), got {value}")


def computation_error(e: float, eps_p: float) -> float:
    """Per-wire error after a noisy NAND layer whose inputs encode 1 and
    are each wrong with probability e: either wrong input corrupts the
    output, which then flips with probability eps_p."""
    return eps_p + (1.0 - 2.0 * eps_p) * (2.0 * e - e * e)


def ec_error(depth: int, eps_p: float, e: float) -> float:
    """Per-wire error after the D layers of a fan-out-1 error-correction
    block fed wires that encode 0 and are each wrong with probability e.

    The encoded value alternates layer to layer: a layer fed encoded 0
    needs both inputs wrong, a layer fed encoded 1 is a computation
    layer.
    """
    for k in range(1, depth + 1):
        if k % 2 == 1:
            e = eps_p + (1.0 - 2.0 * eps_p) * e * e
        else:
            e = computation_error(e, eps_p)
    return e


def stage_error(depth: int, eps_p: float, delta: float) -> float:
    """Worst-case per-wire error f(delta) after one computation NAND and
    D error-correction layers.

    The computation layer sees the worst case (both inputs encode 1,
    either wrong input corrupts the output); the EC block then starts
    from encoded 0.
    """
    check_depth(depth)
    check_rate("eps_p", eps_p)
    check_rate("delta", delta)
    return ec_error(depth, eps_p, computation_error(delta, eps_p))


def stage_error_depth2_closed_form(eps_p: float, delta: float) -> float:
    """The depth-2 stage error as a single algebraic expression.

    Kept as an independent implementation; it must agree with
    stage_error(2, ...) identically.
    """
    g = 2.0 * eps_p - 1.0
    inner = g * (((delta - 2.0) * delta * g + eps_p) ** 2) - eps_p + 1.0
    return 1.0 - eps_p + g * inner * inner


@dataclass(frozen=True)
class AmplificationWindow:
    """Fixed points of the stage error curve; f < identity between them."""

    exists: bool
    delta_lo: float = math.nan
    delta_hi: float = math.nan


def fixed_points(depth: int, eps_p: float, tol: float = 1e-10) -> AmplificationWindow:
    """Locate the fixed points of f(delta) = delta by bisection.

    Returns exists=False when f lies above the identity on all of
    (0, 1/2), i.e. eps_p is at or above the pseudothreshold.
    """
    check_depth(depth)
    check_rate("eps_p", eps_p)
    gap = lambda d: stage_error(depth, eps_p, d) - d
    d_min, g_min = golden_min(gap, 0.0, 0.5 - 1e-12, tol=1e-12)
    if g_min > 0.0:
        return AmplificationWindow(False)
    lo = bisect(gap, 0.0, d_min, tol=tol)
    hi = bisect(gap, d_min, 0.5 - 1e-12, tol=tol)
    return AmplificationWindow(True, lo, hi)


def pseudothreshold(depth: int, tol: float = 1e-7) -> float:
    """Largest eps_p for which the amplification window exists."""
    check_depth(depth)

    def window_gap(eps_p: float) -> float:
        gap = lambda d: stage_error(depth, eps_p, d) - d
        return golden_min(gap, 0.0, 0.5 - 1e-12, tol=1e-10)[1]

    return bisect(window_gap, 0.0, 0.25, tol=tol)


def optimal_fiducial(depth: int, eps_p: float) -> float:
    """The fiducial rate maximizing (delta - f)/sqrt(f(1-f)), the sqrt(n)
    coefficient of the normal-approximation logical error exponent."""
    return _fiducial_in(depth, eps_p, fixed_points(depth, eps_p))


def _fiducial_in(depth: int, eps_p: float,
                 window: AmplificationWindow) -> float:
    """optimal_fiducial, given the window fixed_points returns."""
    if not window.exists:
        raise ValueError(
            f"eps_p={eps_p} is at or above the depth-{depth} pseudothreshold")

    def coeff(d: float) -> float:
        f = stage_error(depth, eps_p, d)
        return (d - f) / math.sqrt(f * (1.0 - f))

    return golden_max(coeff, window.delta_lo, window.delta_hi, tol=1e-8)[0]


def resolve_delta(depth: int, eps_p: float, delta) -> float:
    """delta as a float; "optimal" (or None) selects optimal_fiducial."""
    if delta is None or delta == "optimal":
        return optimal_fiducial(depth, eps_p)
    return float(delta)


def failure_threshold(n: int, delta: float | None) -> int:
    """Wrong-wire count at which a bundle stops encoding: majority (more
    wrong than right) when delta is None, else ceil(delta * n); a bundle
    with wrong count r encodes iff r < delta * n."""
    if delta is None:
        return n // 2 + 1
    return max(math.ceil(delta * n), 1)


def amplified_stage_error(depth: int, eps_p: float, delta: float) -> float:
    """f(delta), after checking that delta lies in the amplification
    window: f(delta) < delta, which holds exactly between the fixed
    points."""
    f = stage_error(depth, eps_p, delta)
    if not f < delta:
        raise ValueError(
            f"delta={delta} is outside the amplification window; "
            "the signal is not amplified")
    return f


def logical_error_formula(n: int, depth: int, eps_p: float,
                          delta: float) -> tuple[float, float]:
    """Logical error of the formula gadget at code size n.

    Returns (exact, normal): the exact binomial tail
    Pr[Binomial(n, f) >= ceil(delta n)] and the paper-style normal
    approximation Pr[Z >= sqrt(n)(delta - f)/sqrt(f(1-f))].
    """
    f = amplified_stage_error(depth, eps_p, delta)
    exact = binom_tail(n, f, failure_threshold(n, delta))
    z = math.sqrt(n) * (delta - f) / math.sqrt(f * (1.0 - f))
    normal = 0.5 * math.erfc(z / math.sqrt(2.0))
    return exact, normal


def log10_logical_error(n: int, depth: int, eps_p: float, delta: float) -> float:
    """log10 of the exact formula logical error; stays finite far below
    float underflow."""
    return _log10_tail(n, stage_error(depth, eps_p, delta), delta)


def _log10_tail(n: int, f: float, delta: float) -> float:
    return log_binom_tail(n, f, failure_threshold(n, delta)) / math.log(10.0)


@dataclass(frozen=True)
class CodeSizeResult:
    """Odd code size reaching a target logical error (see
    required_code_size), with the leading coefficient of its
    ln(1/eps_l) asymptotic."""

    n: int
    coefficient: float
    eps_l_achieved: float


def code_size_coefficient(depth: int, eps_p: float, delta: float) -> float:
    """Leading coefficient of n ~ coeff * ln(1/eps_l): 2f(1-f)/(f-delta)^2."""
    f = stage_error(depth, eps_p, delta)
    return 2.0 * f * (1.0 - f) / (f - delta) ** 2


def _run_end(n: int, delta: float, step: int) -> int:
    """The odd code size farthest from n in the direction of step (+2 or
    -2) whose failure threshold k is still n's; failure_threshold never
    falls as n grows, so the sizes between share k too."""
    k = failure_threshold(n, delta)
    # start from the real bounds (k - 1)/delta < m <= k/delta; the
    # float product in failure_threshold settles the last bit
    if step > 0:
        m = max(n, (int(k / delta) - 1) | 1)
    else:
        m = min(n, int((k - 1) / delta) | 1)
    while failure_threshold(m, delta) != k:
        m -= step
    while m + step >= 1 and failure_threshold(m + step, delta) == k:
        m += step
    return m


def required_code_size(eps_l_target: float, depth: int, eps_p: float,
                       delta: float) -> CodeSizeResult:
    """Odd code size n, found from the guess coeff * ln(1/eps_l), whose
    exact formula logical error tail(n) is at or below the target while
    tail(n - 2) is above it (or n = 1).

    The tail is a sawtooth in n: it rises while k = ceil(delta n) holds
    still and drops at each step of k, so several n can qualify.  The
    search walks down from the guess (made odd) while tail(n - 2)
    passes, then up until tail(n) passes, and returns the n where it
    stops.  Within a run of odd n sharing k the tail rises with n, so a
    passing n vouches for every smaller n of its run and a failing n for
    every larger one: the walk crosses one threshold run per tail
    evaluation and stops where a step-by-step walk would.
    """
    if not 0.0 < eps_l_target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {eps_l_target}")
    log10_target = math.log10(eps_l_target)
    f = amplified_stage_error(depth, eps_p, delta)
    coeff = code_size_coefficient(depth, eps_p, delta)

    n = max(1, int(coeff * math.log(1.0 / eps_l_target))) | 1
    while n > 1 and _log10_tail(n - 2, f, delta) <= log10_target:
        n = _run_end(n - 2, delta, -2)
    while (log10_tail := _log10_tail(n, f, delta)) > log10_target:
        n = _run_end(n, delta, 2) + 2
    return CodeSizeResult(n, coeff, 10.0 ** log10_tail)


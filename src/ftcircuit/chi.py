"""Independency estimation: the slope ratio chi between circuit and
formula log-error-versus-code-size curves.

Circuit outputs share ancestors, so the logical error of a width-n
circuit decays like that of an effective code size chi * n, with
chi in (0, 1]; fan-out-1 formulas have chi = 1 by construction.  chi is
estimated by fitting log10 of the logical error against n for the
error-correction block and dividing by the matching binomial-law slope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .analytic import fixed_points
from .noisy import circuit_logical_error
from .numerics import ols_fit
from .transform import FtParams, WIRING_OFFSET_DOUBLING

DEFAULT_N_RANGE = (5, 7, 9, 11, 13)

# below this slope magnitude the circuit error is treated as
# non-decaying: the construction is not amplifying the signal
MIN_DECAY_SLOPE = 1e-3


class ConstructionFailure(ValueError):
    """Circuit errors do not decay with code size (chi approximately 0)."""


@dataclass(frozen=True)
class SlopeFit:
    """OLS fit of log10(eps_l) against code size n."""

    slope: float
    r_squared: float
    points: tuple[tuple[int, float, float, float], ...]  # (n, eps_l, lo, hi)


@dataclass(frozen=True)
class ChiEstimate:
    chi: float
    ci_low: float
    ci_high: float
    circuit_fit: SlopeFit
    formula_fit: SlopeFit
    methods: tuple[str, ...]  # the engine of each circuit point


def fit_effective_slope(points) -> SlopeFit:
    """Least-squares slope of log10(eps_l) vs n.

    points: iterables (n, eps_l) or (n, eps_l, ci_low, ci_high).
    """
    rows = []
    for p in points:
        n, eps_l = p[0], p[1]
        lo, hi = (p[2], p[3]) if len(p) > 2 else (eps_l, eps_l)
        if eps_l <= 0.0:
            raise ValueError(f"eps_l must be positive, got {eps_l} at n={n}")
        rows.append((int(n), float(eps_l), float(lo), float(hi)))
    if len(rows) < 4:
        raise ValueError(f"need >= 4 points, got {len(rows)}")
    ns = [r[0] for r in rows]
    ys = [math.log10(r[1]) for r in rows]
    slope, _, r2 = ols_fit(ns, ys)
    return SlopeFit(slope, r2, tuple(rows))


def estimate_chi(depth: int, eps_p: float, delta="optimal",
                 n_range=DEFAULT_N_RANGE, method: str = "auto",
                 variant: str = "circuit",
                 wiring: str = WIRING_OFFSET_DOUBLING,
                 samples: int = 1_000_000, seed: int = 0) -> ChiEstimate:
    """Estimate chi at one operating point.

    The measured block is the error-correction circuit fed an encoded
    bundle with i.i.d. Bernoulli(delta) wrong wires; failure is a
    majority-decode error.  The reference slope is the analytic binomial
    law with the matching per-wire tree error rate.  variant "formula"
    measures the fan-out-1 expansion instead (chi = 1 check).  delta is
    resolved by AmplificationWindow.point, so it must lie in the window.
    """
    d = fixed_points(depth, eps_p).point(delta).delta
    ns = sorted(set(int(n) for n in n_range))
    if any(n % 2 == 0 for n in ns):
        raise ValueError("n_range must contain odd code sizes")

    circuit_points, formula_points, methods = [], [], []
    for i, n in enumerate(ns):
        params = FtParams(n, depth, eps_p, d)
        est = circuit_logical_error(params, method=method,
                                    delta_threshold=None, variant=variant,
                                    block="ec", wiring=wiring,
                                    samples=samples, seed=seed + i)
        circuit_points.append((n, est.mean, est.ci_low, est.ci_high))
        methods.append(est.method)
        # the formula variant is its own reference
        ref = est if variant == "formula" else circuit_logical_error(
            params, variant="formula", block="ec")
        formula_points.append((n, ref.mean))

    circuit_fit = fit_effective_slope(circuit_points)
    formula_fit = fit_effective_slope(formula_points)

    if circuit_fit.slope > -MIN_DECAY_SLOPE:
        raise ConstructionFailure(
            "circuit logical error does not decay with code size "
            f"(slope {circuit_fit.slope:.4g}); the construction provides "
            "no protection at this operating point")

    chi = circuit_fit.slope / formula_fit.slope
    lo, hi = _chi_interval(circuit_points, formula_fit.slope, chi)
    return ChiEstimate(chi, lo, hi, circuit_fit, formula_fit,
                       tuple(methods))


def _chi_interval(circuit_points, formula_slope: float,
                  chi: float) -> tuple[float, float]:
    """Propagate per-point CIs through the slope ratio by refitting at
    the interval endpoints (exact points give a degenerate interval)."""
    if all(p[2] == p[3] for p in circuit_points):
        return chi, chi
    low_fit = fit_effective_slope(
        [(n, max(lo, 1e-300)) for n, _, lo, _ in circuit_points])
    high_fit = fit_effective_slope(
        [(n, hi) for n, _, _, hi in circuit_points])
    ratios = sorted((low_fit.slope / formula_slope,
                     high_fit.slope / formula_slope))
    return ratios[0], ratios[1]

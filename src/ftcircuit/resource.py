"""Resource-reliability trade-offs and the fault-tolerance overhead.

A gate driven with signal strength R and additive noise e errs when the
noise crosses the signal; the noise tail therefore fixes how much
resource W = A*R buys a physical error rate eps_p.  The resource
overhead eta compares spending W on better gates against spending it on
the fault-tolerant construction: eta < 1 means fault tolerance wins.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

from . import analytic
from .numerics import inverse_erfc

EXPONENTIAL = "exponential"
GAUSSIAN = "gaussian"
PARETO = "pareto"
TAILS = (EXPONENTIAL, GAUSSIAN, PARETO)

REGIME_FT = "FT"
REGIME_NON_FT = "non-FT"
REGIME_MARGINAL = "marginal"
REGIME_INVALID = "invalid"


@dataclass(frozen=True)
class TailModel:
    """A noise-tail family with its resource constants.

    kind selects the family; alpha/sigma/beta set the noise scale, C the
    tail prefactor, gamma the Pareto exponent, A converts signal
    strength to resource.  w_p is the resource utilization at the
    operating physical error rate, in scale units, used in overhead ratios.

    At signal strength R the error rate is C exp(-R/alpha),
    (C/2) erfc(R/(sqrt(2) sigma)) or (C/2) (beta/(beta+R))^gamma,
    clamped to 1/2.
    """

    kind: str
    A: float = 1.0
    C: float = 1.0
    alpha: float = 1.0
    sigma: float = 1.0
    beta: float = 1.0
    gamma: float = 2.0
    w_p: float = 1.0

    def __post_init__(self):
        if self.kind not in TAILS:
            raise ValueError(f"unknown tail kind: {self.kind}")
        for name in ("A", "C", "alpha", "sigma", "beta", "gamma", "w_p"):
            if not 0.0 < (value := getattr(self, name)) < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value}")

    @property
    def scale(self) -> float:
        """The natural resource unit of the family: alpha*A, sqrt(2)*sigma*A,
        or A*beta."""
        if self.kind == EXPONENTIAL:
            return self.alpha * self.A
        if self.kind == GAUSSIAN:
            return math.sqrt(2.0) * self.sigma * self.A
        return self.A * self.beta


def error_from_signal(t: TailModel, r: float) -> float:
    """Physical error rate of a gate driven at signal strength R."""
    if r < 0.0:
        raise ValueError(f"signal strength must be >= 0, got {r}")
    if t.kind == EXPONENTIAL:
        eps = t.C * math.exp(-r / t.alpha)
    elif t.kind == GAUSSIAN:
        eps = 0.5 * t.C * math.erfc(r / (math.sqrt(2.0) * t.sigma))
    else:
        eps = 0.5 * t.C * (t.beta / (t.beta + r)) ** t.gamma
    if eps > 0.5:
        warnings.warn(
            f"{t.kind} tail value exceeds 1/2; clamping (error "
            "probabilities are at most 1/2 by symmetry)", stacklevel=2)
        eps = 0.5
    return eps


def _unit_resource(t: TailModel, eps: float) -> float:
    """W(eps) in units of the model scale: ln(C/eps), erfcinv(2 eps/C) or
    (2 eps/C)^(-1/gamma) - 1.  An eps above the tail's value at zero
    signal, which no signal strength R >= 0 produces, is rejected."""
    at_zero = t.C if t.kind == EXPONENTIAL else 0.5 * t.C
    if eps > at_zero:
        raise ValueError(
            f"{t.kind} tail with C={t.C} cannot reach eps={eps}; its "
            f"value at zero signal is {at_zero}")
    if t.kind == EXPONENTIAL:
        return math.log(t.C / eps)
    if t.kind == GAUSSIAN:
        return inverse_erfc(2.0 * eps / t.C)
    return (2.0 * eps / t.C) ** (-1.0 / t.gamma) - 1.0


def resource_tradeoff(t: TailModel, eps_p: float) -> float:
    """Resource W(eps_p) needed to run one gate at physical error eps_p;
    the inverse of error_from_signal with W = A*R."""
    if not 0.0 < eps_p < 0.5:
        raise ValueError(f"eps_p must be in (0, 1/2), got {eps_p}")
    return t.scale * _unit_resource(t, eps_p)


def classify_asymptotic(t: TailModel) -> str:
    """Which construction wins as eps_l -> 0: super-exponential tails
    favor better gates, sub-exponential tails favor fault tolerance, and
    the exponential boundary case is decided by the constants."""
    if t.kind == GAUSSIAN:
        return REGIME_NON_FT
    if t.kind == PARETO:
        return REGIME_FT
    return REGIME_MARGINAL


@dataclass(frozen=True)
class OverheadReport:
    """Resource overhead of fault tolerance at one operating point."""

    eta: float
    eta_asymptotic: float
    eta_number: float
    n: int
    regime: str


def asymptotic_overhead(t: TailModel, eps_l: float,
                        point: analytic.OperatingPoint, chi: float) -> float:
    """The closed-form overhead: the resource ratio W_P/W(eps_l) times
    (D+1)/chi times the point's code-size coefficient 2f(1-f)/(f-delta)^2,
    with the ln(1/eps_l) width factor; for the exponential tail that
    factor cancels against W(eps_l) and eta is a constant, computed as
    such."""
    construction = (point.depth + 1) * point.coefficient / chi
    if t.kind == EXPONENTIAL:
        return t.w_p * construction
    return (t.w_p / _unit_resource(t, eps_l) * construction
            * math.log(1.0 / eps_l))


def _check_chi(chi: float):
    if not 0.0 < chi <= 1.0:
        raise ValueError(f"chi must be in (0, 1], got {chi}")


def overhead_ratio(t: TailModel, eps_l: float, point: analytic.OperatingPoint,
                   chi: float) -> OverheadReport:
    """Exact and asymptotic resource overhead eta at one operating point.

    Exact uses the code size of analytic.required_code_size for the
    target and exact W ratios; asymptotic uses the closed forms.  w_p on
    the model is interpreted in units of the model scale (alpha*A etc.),
    matching the constants-ratio convention W_P/(alpha A),
    W_P/(sqrt(2) sigma A), W_P/(A beta).
    """
    _check_chi(chi)
    if not 0.0 < eps_l < point.eps_p:
        raise ValueError(f"need 0 < eps_l < eps_p, got eps_l={eps_l}, "
                         f"eps_p={point.eps_p}")
    n = analytic.required_code_size(eps_l, point)
    return _overhead_report(t, eps_l, point, chi, n)


def _overhead_report(t: TailModel, eps_l: float,
                     point: analytic.OperatingPoint, chi: float,
                     n: int) -> OverheadReport:
    """overhead_ratio at a checked operating point whose code size n is
    already known."""
    eta_number = (point.depth + 1) * n / chi
    eta_exact = t.w_p / _unit_resource(t, eps_l) * eta_number
    eta_asym = asymptotic_overhead(t, eps_l, point, chi)
    regime = REGIME_FT if eta_exact < 1.0 else REGIME_NON_FT
    return OverheadReport(eta_exact, eta_asym, eta_number, n, regime)


@dataclass(frozen=True)
class PhaseGrid:
    """eta evaluated over a 2-parameter grid, with the eta = 1 contour."""

    values1: tuple[float, ...]
    values2: tuple[float, ...]
    eta_exact: tuple[tuple[float, ...], ...]
    eta_asymptotic: tuple[tuple[float, ...], ...]
    regime: tuple[tuple[str, ...], ...]
    contour: tuple[tuple[float, float], ...]


GRID_AXES = ("eps_p", "eps_l", "w_p", "gamma")


def phase_grid(t: TailModel, axis1: str, values1, axis2: str, values2,
               fixed: dict) -> PhaseGrid:
    """Evaluate eta over a grid of two of {eps_p, eps_l, w_p, gamma}.

    fixed supplies the rest (eps_p, eps_l, delta, depth, chi; a w_p or
    gamma there overrides the model's) and may not hold an axis; eps_p
    and eps_l must each be fixed or an axis, and delta may be "optimal".
    Cells whose eps_p has no window, or none amplifying a fixed delta,
    or with eps_l >= eps_p are invalid (eta = nan); an eps_l <= 0, a chi
    outside (0, 1] or a fixed delta outside [0, 1/2) is refused up front.
    """
    for axis in (axis1, axis2):
        if axis not in GRID_AXES:
            raise ValueError(f"unknown grid axis: {axis}")
        if axis in fixed:
            raise ValueError(f"{axis} is a grid axis and cannot be fixed")
    if axis1 == axis2:
        raise ValueError("grid axes must differ")
    if "gamma" in (axis1, axis2) and t.kind != PARETO:
        raise ValueError("the gamma axis applies to the pareto tail only")
    for name in ("eps_p", "eps_l"):
        if name not in (axis1, axis2, *fixed):
            raise ValueError(f"{name} must be fixed or a grid axis")
    values1 = tuple(float(v) for v in values1)
    values2 = tuple(float(v) for v in values2)
    depth = int(fixed.get("depth", 2))
    chi = float(fixed.get("chi", 1.0))
    _check_chi(chi)
    axes = {axis1: values1, axis2: values2}
    for eps_l in (axes["eps_l"] if "eps_l" in axes
                  else (float(fixed["eps_l"]),)):
        if not eps_l > 0.0:
            raise ValueError(f"eps_l must be > 0, got {eps_l}")
    delta = fixed.get("delta", "optimal")
    if delta != "optimal":
        delta = float(delta)
        analytic.check_rate("delta", delta)

    # one window and operating point (or None) per eps_p; n depends only
    # on (eps_l, eps_p), so cells that differ in w_p or gamma share it
    @functools.cache
    def point(eps_p):
        window = analytic.fixed_points(depth, eps_p)  # checks eps_p
        try:
            return window.point(delta)
        except ValueError:  # no window, or delta outside it
            return None

    size = functools.cache(lambda eps_l, eps_p: analytic.required_code_size(
        eps_l, point(eps_p)))
    invalid = OverheadReport(math.nan, math.nan, math.nan, 0, REGIME_INVALID)

    def report(v1, v2) -> OverheadReport:
        cell = {**fixed, axis1: v1, axis2: v2}
        eps_p, eps_l = float(cell["eps_p"]), float(cell["eps_l"])
        model = replace(t, **{k: float(cell[k]) for k in ("w_p", "gamma")
                              if k in cell})
        if point(eps_p) is None or eps_l >= eps_p:
            return invalid
        return _overhead_report(model, eps_l, point(eps_p), chi,
                                size(eps_l, eps_p))

    cells = [[report(v1, v2) for v2 in values2] for v1 in values1]
    eta_exact = tuple(tuple(r.eta for r in row) for row in cells)
    eta_asymptotic = tuple(tuple(r.eta_asymptotic for r in row)
                           for row in cells)
    regime = tuple(tuple(r.regime for r in row) for row in cells)
    contour = _extract_contour(values1, values2, eta_exact)
    return PhaseGrid(values1, values2, eta_exact, eta_asymptotic, regime,
                     tuple(contour))


def _extract_contour(values1, values2, grid) -> list[tuple[float, float]]:
    """eta = 1 crossings by linear interpolation of log eta along rows
    and columns; adequate for monotone eta surfaces."""
    points = []

    def crossings(coords, etas, fixed_coord, axis_first: bool):
        for a, b, xa, xb in zip(etas, etas[1:], coords, coords[1:]):
            if not (a > 0 and b > 0) or math.isnan(a) or math.isnan(b):
                continue
            la, lb = math.log(a), math.log(b)
            if la == 0.0 or la * lb >= 0.0:
                continue
            x = xa + (xb - xa) * (0.0 - la) / (lb - la)
            points.append((x, fixed_coord) if axis_first else (fixed_coord, x))

    for i, v1 in enumerate(values1):
        crossings(values2, grid[i], v1, axis_first=False)
    for j, v2 in enumerate(values2):
        crossings(values1, [row[j] for row in grid], v2, axis_first=True)
    return points

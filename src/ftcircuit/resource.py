"""Resource-reliability trade-offs and the fault-tolerance overhead.

A gate driven with signal strength R and additive noise e errs when the
noise crosses the signal; the noise tail therefore fixes how much
resource W = A*R buys a physical error rate eps_p.  The resource
overhead eta compares spending W on better gates against spending it on
the fault-tolerant construction: eta < 1 means fault tolerance wins.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

from . import analytic
from .numerics import inverse_erfc
from scipy.special import erfc

EXPONENTIAL = "exponential"
GAUSSIAN = "gaussian"
PARETO = "pareto"

REGIME_FT = "FT"
REGIME_NON_FT = "non-FT"
REGIME_MARGINAL = "marginal"
REGIME_INVALID = "invalid"

# reference logical error rate of a contemporary CMOS processor gate
PRESET_TARGETS = {"modern-cmos": 3e-21}


@dataclass(frozen=True)
class TailModel:
    """A noise-tail family with its resource constants.

    kind selects the family; alpha/sigma/beta set the noise scale, C the
    tail prefactor, gamma the Pareto exponent, A converts signal
    strength to resource.  w_p is the resource utilization at the
    operating physical error rate, used in overhead ratios.

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
    w_p: float | None = None

    def __post_init__(self):
        if self.kind not in (EXPONENTIAL, GAUSSIAN, PARETO):
            raise ValueError(f"unknown tail kind: {self.kind}")
        for name in ("A", "C", "alpha", "sigma", "beta", "gamma"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.w_p is not None and self.w_p <= 0.0:
            raise ValueError("w_p must be positive")

    @property
    def scale(self) -> float:
        """The natural resource unit of the family: alpha*A, sqrt(2)*sigma*A,
        or A*beta."""
        if self.kind == EXPONENTIAL:
            return self.alpha * self.A
        if self.kind == GAUSSIAN:
            return math.sqrt(2.0) * self.sigma * self.A
        return self.A * self.beta


def _w_p(t: TailModel) -> float:
    """The model's w_p, 1 (one scale unit) when unset."""
    return t.w_p if t.w_p is not None else 1.0


def error_from_signal(t: TailModel, r: float) -> float:
    """Physical error rate of a gate driven at signal strength R."""
    if r < 0.0:
        raise ValueError(f"signal strength must be >= 0, got {r}")
    if t.kind == EXPONENTIAL:
        eps = t.C * math.exp(-r / t.alpha)
    elif t.kind == GAUSSIAN:
        eps = 0.5 * t.C * erfc(r / (math.sqrt(2.0) * t.sigma))
    else:
        eps = 0.5 * t.C * (t.beta / (t.beta + r)) ** t.gamma
    if eps > 0.5:
        warnings.warn(
            f"{t.kind} tail value exceeds 1/2; clamping (error "
            "probabilities are at most 1/2 by symmetry)", stacklevel=2)
        eps = 0.5
    return eps


def _check_reachable(t: TailModel, eps: float):
    """Reject an error rate above the tail's value at zero signal, which
    no signal strength R >= 0 produces."""
    at_zero = t.C if t.kind == EXPONENTIAL else 0.5 * t.C
    if eps > at_zero:
        raise ValueError(
            f"{t.kind} tail with C={t.C} cannot reach eps={eps}; its "
            f"value at zero signal is {at_zero}")


def _unit_resource(t: TailModel, eps: float) -> float:
    """W(eps) in units of the model scale: ln(C/eps), erfcinv(2 eps/C) or
    (2 eps/C)^(-1/gamma) - 1."""
    _check_reachable(t, eps)
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
    inputs: dict = field(default_factory=dict)


def _tail_factor(t: TailModel, eps_l: float) -> float:
    """W_P / W(eps_l) in units where w_p is relative to the model scale."""
    w_p = _w_p(t)
    if t.kind != PARETO:
        return w_p / _unit_resource(t, eps_l)
    _check_reachable(t, eps_l)
    x = (2.0 * eps_l / t.C) ** (1.0 / t.gamma)
    return w_p * x / (1.0 - x)


def asymptotic_overhead(t: TailModel, eps_l: float, eps_p: float,
                        delta: float, depth: int, chi: float) -> float:
    """The closed-form overhead: the tail-dependent resource ratio times
    (D+1)/chi times the code-size coefficient 2f(1-f)/(f-delta)^2, with
    the ln(1/eps_l) width factor; for the exponential tail that factor
    cancels against W(eps_l) and eta is a constant, computed as such."""
    coeff = analytic.code_size_coefficient(depth, eps_p, delta)
    construction = (depth + 1) * coeff / chi
    if t.kind == EXPONENTIAL:
        return _w_p(t) * construction
    return _tail_factor(t, eps_l) * construction * math.log(1.0 / eps_l)


def overhead_ratio(t: TailModel, eps_l: float, eps_p: float, delta: float,
                   depth: int, chi: float) -> OverheadReport:
    """Exact and asymptotic resource overhead eta at one operating point.

    Exact uses the code size of analytic.required_code_size for the
    target and exact W ratios; asymptotic uses the closed forms.  w_p on
    the model is interpreted in units of the model scale (alpha*A etc.),
    matching the constants-ratio convention W_P/(alpha A),
    W_P/(sqrt(2) sigma A), W_P/(A beta).
    """
    _check_operating_point(eps_l, eps_p, chi)
    size = analytic.required_code_size(eps_l, depth, eps_p, delta)
    return _overhead_report(t, eps_l, eps_p, delta, depth, chi, size)


def _check_operating_point(eps_l: float, eps_p: float, chi: float):
    if not 0.0 < chi <= 1.0:
        raise ValueError(f"chi must be in (0, 1], got {chi}")
    if not 0.0 < eps_l < eps_p:
        raise ValueError(
            f"need 0 < eps_l < eps_p, got eps_l={eps_l}, eps_p={eps_p}")


def _overhead_report(t: TailModel, eps_l: float, eps_p: float, delta: float,
                     depth: int, chi: float,
                     size: analytic.CodeSizeResult) -> OverheadReport:
    """overhead_ratio at a checked operating point whose code size is
    already known."""
    w_p = _w_p(t)
    w_l = resource_tradeoff(t, eps_l) / t.scale
    eta_number = (depth + 1) * size.n / chi
    eta_exact = (w_p / w_l) * eta_number
    eta_asym = asymptotic_overhead(t, eps_l, eps_p, delta, depth, chi)
    regime = REGIME_FT if eta_exact < 1.0 else REGIME_NON_FT
    inputs = {
        "tail": t.kind, "eps_l": eps_l, "eps_p": eps_p, "delta": delta,
        "D": depth, "chi": chi, "w_p": w_p, "gamma": t.gamma,
    }
    return OverheadReport(eta_exact, eta_asym, eta_number, size.n,
                          regime, inputs)


@dataclass(frozen=True)
class PhaseGrid:
    """eta evaluated over a 2-parameter grid, with the eta = 1 contour."""

    axis1: str
    axis2: str
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

    fixed supplies the remaining parameters (eps_p, eps_l, delta, depth,
    chi, w_p as applicable); delta may be "optimal".  Cells where eps_p
    is at or above the pseudothreshold, or eps_l >= eps_p, are marked
    invalid with eta = nan.
    """
    for axis in (axis1, axis2):
        if axis not in GRID_AXES:
            raise ValueError(f"unknown grid axis: {axis}")
    if axis1 == axis2:
        raise ValueError("grid axes must differ")
    depth = int(fixed.get("depth", 2))
    chi = float(fixed.get("chi", 1.0))
    threshold = analytic.pseudothreshold(depth)
    delta_spec = fixed.get("delta", "optimal")

    # delta and depth are fixed per eps_p within one call, so the code
    # size depends only on (eps_l, eps_p): cells that differ only in w_p
    # or gamma share one search
    delta_cache: dict[float, float] = {}
    sizes: dict[tuple[float, float], analytic.CodeSizeResult] = {}

    def delta_for(eps_p: float) -> float:
        if eps_p not in delta_cache:
            delta_cache[eps_p] = analytic.resolve_delta(depth, eps_p,
                                                        delta_spec)
        return delta_cache[eps_p]

    exact_rows, asym_rows, regime_rows = [], [], []
    for v1 in values1:
        exact_row, asym_row, regime_row = [], [], []
        for v2 in values2:
            point = dict(fixed)
            point[axis1] = v1
            point[axis2] = v2
            eps_p = float(point.get("eps_p", 0.005))
            eps_l = float(point["eps_l"])
            model = t
            if "w_p" in point:
                model = replace(model, w_p=float(point["w_p"]))
            if "gamma" in point and model.kind == PARETO:
                model = replace(model, gamma=float(point["gamma"]))
            if eps_p >= threshold or eps_l >= eps_p:
                exact_row.append(math.nan)
                asym_row.append(math.nan)
                regime_row.append(REGIME_INVALID)
                continue
            _check_operating_point(eps_l, eps_p, chi)
            delta = delta_for(eps_p)
            if (eps_l, eps_p) not in sizes:
                sizes[eps_l, eps_p] = analytic.required_code_size(
                    eps_l, depth, eps_p, delta)
            report = _overhead_report(model, eps_l, eps_p, delta, depth,
                                      chi, sizes[eps_l, eps_p])
            exact_row.append(report.eta)
            asym_row.append(report.eta_asymptotic)
            regime_row.append(report.regime)
        exact_rows.append(tuple(exact_row))
        asym_rows.append(tuple(asym_row))
        regime_rows.append(tuple(regime_row))

    contour = _extract_contour(values1, values2, exact_rows)
    return PhaseGrid(axis1, axis2, tuple(float(v) for v in values1),
                     tuple(float(v) for v in values2), tuple(exact_rows),
                     tuple(asym_rows), tuple(regime_rows), tuple(contour))


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
        crossings(list(values2), list(grid[i]), v1, axis_first=False)
    for j, v2 in enumerate(values2):
        crossings(list(values1), [row[j] for row in grid], v2, axis_first=True)
    return points

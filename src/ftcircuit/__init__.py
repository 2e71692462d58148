"""Fault-tolerant NAND circuits over the repetition code: construction,
analytic reliability curves, exact and Monte Carlo noisy simulation,
independency estimation, and resource-overhead analysis."""

__version__ = "0.1.0"

from .circuit import (Circuit, CircuitError, Gate, GateLabel, NAND,
                      NetlistError, parse_circuit, serialize_circuit)
from .transform import (Bundle, FtCircuit, FtGadget, FtParams,
                        apply_ft_construction, build_formula_gadget,
                        build_ft_gadget, build_majority_ec_circuit,
                        build_majority_ec_formula, decode_bits, encode_bit)
from .analytic import (AmplificationWindow, CodeSizeResult, fixed_points,
                       logical_error_formula, optimal_fiducial,
                       pseudothreshold, required_code_size, stage_error)
from .noisy import (ErrorEstimate, LayeredNoisyNetwork, circuit_logical_error,
                    exact_stage_error, induce_network,
                    monte_carlo_logical_error)
from .chi import (ChiEstimate, ConstructionFailure, SlopeFit, estimate_chi,
                  fit_effective_slope)
from .resource import (OverheadReport, TailModel, classify_asymptotic,
                       error_from_signal, overhead_ratio, phase_grid,
                       resource_tradeoff)
from .numerics import inverse_erfc

__all__ = [
    "Circuit", "CircuitError", "Gate", "GateLabel", "NAND", "NetlistError",
    "parse_circuit", "serialize_circuit",
    "Bundle", "FtCircuit", "FtGadget", "FtParams", "apply_ft_construction",
    "build_formula_gadget", "build_ft_gadget", "build_majority_ec_circuit",
    "build_majority_ec_formula", "decode_bits", "encode_bit",
    "AmplificationWindow", "CodeSizeResult", "fixed_points",
    "logical_error_formula", "optimal_fiducial",
    "pseudothreshold", "required_code_size", "stage_error",
    "ErrorEstimate", "LayeredNoisyNetwork", "circuit_logical_error",
    "exact_stage_error", "induce_network", "monte_carlo_logical_error",
    "ChiEstimate", "ConstructionFailure", "SlopeFit", "estimate_chi",
    "fit_effective_slope",
    "OverheadReport", "TailModel", "classify_asymptotic",
    "error_from_signal", "overhead_ratio", "phase_grid", "resource_tradeoff",
    "inverse_erfc",
]

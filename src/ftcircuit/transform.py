"""Fault-tolerant construction: majority error correction over the
[n, 1] repetition code, NAND gadgets, and whole-circuit transformation.

Encoding is bit replication across a bundle of n wires; decoding is
majority vote with ties (even n) broken toward 0.  Error-correction
blocks are D layers of n NAND gates wired with circulant offsets; the
default offset of layer l is 2**(l-1), which maximizes the number of
distinct input ancestors per output (2**D for n >= 2**D).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .analytic import check_depth, check_rate
from .circuit import NAND, Circuit, CircuitError, Gate, GateLabel, serialize_circuit

Bundle = tuple[str, ...]

# wiring rules for the EC block
WIRING_OFFSET_DOUBLING = "offset-doubling"  # layer l reads back 2**(l-1) mod n
WIRING_UNIT = "unit"                        # every layer reads back 1 (literal depth-2 rule)
WIRING_SHARED = "shared"                    # pathological: all gates read wires 0 and 1


@dataclass(frozen=True)
class FtParams:
    """Parameters of the fault-tolerant construction.

    n: repetition-code size; depth: even EC depth D; eps_p: physical
    error rate of a gate; delta: fiducial error rate.
    """

    n: int
    depth: int
    eps_p: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"code size must be >= 1, got {self.n}")
        check_depth(self.depth)
        check_rate("eps_p", self.eps_p)
        check_rate("delta", self.delta)


def require_nand(label: GateLabel):
    """The construction, and the noisy engines built on it, model NAND
    gates only."""
    if label != NAND:
        raise CircuitError(f"unsupported gate label: {label.name}")


def encode_bit(bit: int, n: int) -> tuple[int, ...]:
    """Repetition-code encoder e_n: replicate one bit across n wires."""
    return (bit & 1,) * n


def decode_bits(bits: Sequence[int]) -> int:
    """Majority decoder d_n; ties (even n) break toward 0."""
    return 1 if 2 * sum(bits) > len(bits) else 0


def _layer_offset(layer: int, n: int, wiring: str) -> int:
    if wiring == WIRING_OFFSET_DOUBLING:
        return (1 << (layer - 1)) % n
    if wiring == WIRING_UNIT:
        return 1 % n
    raise ValueError(f"unknown wiring rule: {wiring}")


def _ec_gates(n: int, depth: int, prev: list[str], prefix: str,
              wiring: str) -> list[Gate]:
    gates = []
    for layer in range(1, depth + 1):
        cur = [f"{prefix}{layer}_{i}" for i in range(n)]
        for i in range(n):
            if wiring == WIRING_SHARED:
                a, b = prev[0], prev[1 % n]
            else:
                off = _layer_offset(layer, n, wiring)
                a, b = prev[i], prev[(i - off) % n]
            gates.append(Gate(cur[i], NAND, (a, b)))
        prev[:] = cur
    return gates


def build_majority_ec_circuit(n: int, depth: int,
                              wiring: str = WIRING_OFFSET_DOUBLING) -> Circuit:
    """The depth-D majority restoration circuit: n*D NAND gates in D layers.

    Gate (l, i) reads the outputs of gates (l-1, i) and (l-1, i - off mod n),
    where layer 0 is the n input wires.
    """
    if n < 1:
        raise ValueError(f"code size must be >= 1, got {n}")
    check_depth(depth)
    inputs = [f"x{i}" for i in range(n)]
    prev = list(inputs)
    gates = _ec_gates(n, depth, prev, "m", wiring)
    return Circuit(tuple(inputs), tuple(gates), tuple(prev))


def build_majority_ec_formula(depth: int) -> Circuit:
    """The depth-D majority restoration formula: a full binary NAND tree
    with 2**D leaves and 2**D - 1 gates, fan-out 1 everywhere."""
    check_depth(depth)
    inputs = [f"x{i}" for i in range(1 << depth)]
    gates = []
    prev = list(inputs)
    for layer in range(1, depth + 1):
        cur = [f"t{layer}_{i}" for i in range(len(prev) // 2)]
        for i, name in enumerate(cur):
            gates.append(Gate(name, NAND, (prev[2 * i], prev[2 * i + 1])))
        prev = cur
    return Circuit(tuple(inputs), tuple(gates), (prev[0],))


@dataclass(frozen=True)
class FtGadget:
    """A logical-gate gadget: circuit plus its input/output bundles."""

    circuit: Circuit
    input_bundles: tuple[Bundle, ...]
    output_bundle: Bundle

    def serialize(self) -> str:
        comments = [
            f"bundle in{j}: {' '.join(b)}"
            for j, b in enumerate(self.input_bundles)
        ] + [f"bundle out: {' '.join(self.output_bundle)}"]
        return serialize_circuit(self.circuit, comments)


def build_ft_gadget(label: GateLabel, params: FtParams,
                    wiring: str = WIRING_OFFSET_DOUBLING) -> FtGadget:
    """The fault-tolerant NAND gadget: n computation gates (gate i reads
    wire i of each input bundle) followed by the depth-D EC circuit;
    (D + 1) * n gates in total."""
    require_nand(label)
    n, depth = params.n, params.depth
    bundle_a = tuple(f"a{i}" for i in range(n))
    bundle_b = tuple(f"b{i}" for i in range(n))
    gates = [Gate(f"c{i}", NAND, (bundle_a[i], bundle_b[i])) for i in range(n)]
    prev = [f"c{i}" for i in range(n)]
    gates += _ec_gates(n, depth, prev, "e", wiring)
    circuit = Circuit(bundle_a + bundle_b, tuple(gates), tuple(prev))
    return FtGadget(circuit, (bundle_a, bundle_b), tuple(prev))


def build_formula_gadget(params: FtParams) -> FtGadget:
    """Tree-expanded (fan-out 1) NAND gadget: per output wire, 2**D
    independent computation gates feeding a depth-D majority tree.

    Input bundles have n * 2**D wires (independent signal copies); this
    is the formula representation with independency 1 by construction.
    """
    n, depth = params.n, params.depth
    copies = 1 << depth
    bundle_a = tuple(f"a{j}_{i}" for j in range(n) for i in range(copies))
    bundle_b = tuple(f"b{j}_{i}" for j in range(n) for i in range(copies))
    gates = []
    outs = []
    for j in range(n):
        prev = []
        for i in range(copies):
            name = f"c{j}_{i}"
            gates.append(Gate(name, NAND, (f"a{j}_{i}", f"b{j}_{i}")))
            prev.append(name)
        for layer in range(1, depth + 1):
            cur = [f"t{j}_{layer}_{i}" for i in range(len(prev) // 2)]
            for i, name in enumerate(cur):
                gates.append(Gate(name, NAND, (prev[2 * i], prev[2 * i + 1])))
            prev = cur
        outs.append(prev[0])
    circuit = Circuit(bundle_a + bundle_b, tuple(gates), tuple(outs))
    return FtGadget(circuit, (bundle_a, bundle_b), tuple(outs))


@dataclass(frozen=True)
class FtCircuit:
    """A transformed circuit with the bundle map for its inputs/outputs."""

    circuit: Circuit
    input_bundles: dict[str, Bundle]
    output_bundles: dict[str, Bundle]

    def serialize(self) -> str:
        comments = [
            f"bundle in {w}: {' '.join(b)}" for w, b in self.input_bundles.items()
        ] + [
            f"bundle out {w}: {' '.join(b)}" for w, b in self.output_bundles.items()
        ]
        return serialize_circuit(self.circuit, comments)


def apply_ft_construction(circuit: Circuit, params: FtParams,
                          wiring: str = WIRING_OFFSET_DOUBLING) -> FtCircuit:
    """Replace every gate of ``circuit`` with its fault-tolerant gadget,
    wiring output bundles to input bundles positionally (wire i to wire i).

    The result has |gates| * (D + 1) * n gates; circuit inputs and
    outputs become n-wire bundles.
    """
    circuit.check_valid()
    n, depth = params.n, params.depth

    bundles: dict[str, Bundle] = {}
    for w in circuit.inputs:
        bundles[w] = tuple(f"{w}__{i}" for i in range(n))
    new_inputs = [w for b in bundles.values() for w in b]

    gates: list[Gate] = []
    for g in circuit.topological_order:
        require_nand(g.label)
        src_a, src_b = (bundles[w] for w in g.inputs)
        comp = []
        for i in range(n):
            name = f"{g.name}__c{i}"
            gates.append(Gate(name, NAND, (src_a[i], src_b[i])))
            comp.append(name)
        gates += _ec_gates(n, depth, comp, f"{g.name}__e", wiring)
        bundles[g.name] = tuple(comp)

    out_bundles = {w: bundles[w] for w in circuit.outputs}
    new_outputs = [w for b in out_bundles.values() for w in b]
    ft = Circuit(tuple(new_inputs), tuple(gates), tuple(new_outputs))
    in_bundles = {w: bundles[w] for w in circuit.inputs}
    return FtCircuit(ft, in_bundles, out_bundles)

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


def ec_offsets(n: int, layer: int,
               wiring: str) -> tuple[tuple[int, int], ...]:
    """For each gate i of EC layer l, the two wires of layer l - 1 it
    reads: (i, i - off mod n), or wires 0 and 1 under the shared wiring."""
    if wiring == WIRING_SHARED:
        return ((0, 1 % n),) * n
    if wiring == WIRING_OFFSET_DOUBLING:
        off = (1 << (layer - 1)) % n
    elif wiring == WIRING_UNIT:
        off = 1 % n
    else:
        raise ValueError(f"unknown wiring rule: {wiring}")
    return tuple((i, (i - off) % n) for i in range(n))


def _ec_gates(prev: Bundle, depth: int, prefix: str,
              wiring: str) -> tuple[list[Gate], Bundle]:
    """The depth-D EC block fed the bundle prev; returns its gates and
    output bundle."""
    n = len(prev)
    gates = []
    for layer in range(1, depth + 1):
        cur = tuple(f"{prefix}{layer}_{i}" for i in range(n))
        gates += (Gate(cur[i], NAND, (prev[a], prev[b]))
                  for i, (a, b) in enumerate(ec_offsets(n, layer, wiring)))
        prev = cur
    return gates, prev


def _gadget_gates(a: Bundle, b: Bundle, depth: int, prefix: str,
                  wiring: str) -> tuple[list[Gate], Bundle]:
    """n computation gates (gate i reads wire i of each input bundle)
    followed by the depth-D EC block; returns the gates and the output
    bundle."""
    comp = tuple(f"{prefix}c{i}" for i in range(len(a)))
    gates = [Gate(c, NAND, (x, y)) for c, x, y in zip(comp, a, b)]
    ec, out = _ec_gates(comp, depth, f"{prefix}e", wiring)
    return gates + ec, out


def _nand_tree(leaves: Sequence[str], prefix: str) -> tuple[list[Gate], str]:
    """A full binary NAND tree over 2**D leaves: gate i of layer l reads
    wires 2i and 2i + 1 of layer l - 1.  Returns the gates and the root."""
    gates = []
    prev = list(leaves)
    for layer in range(1, len(leaves).bit_length()):
        cur = [f"{prefix}{layer}_{i}" for i in range(len(prev) // 2)]
        gates += (Gate(name, NAND, (prev[2 * i], prev[2 * i + 1]))
                  for i, name in enumerate(cur))
        prev = cur
    return gates, prev[0]


def build_majority_ec_circuit(n: int, depth: int,
                              wiring: str = WIRING_OFFSET_DOUBLING) -> Circuit:
    """The depth-D majority restoration circuit: n*D NAND gates in D layers.

    Gate (l, i) reads the outputs of gates (l-1, i) and (l-1, i - off mod n),
    where layer 0 is the n input wires.
    """
    if n < 1:
        raise ValueError(f"code size must be >= 1, got {n}")
    check_depth(depth)
    inputs = tuple(f"x{i}" for i in range(n))
    gates, out = _ec_gates(inputs, depth, "m", wiring)
    return Circuit(inputs, tuple(gates), out)


def build_majority_ec_formula(depth: int) -> Circuit:
    """The depth-D majority restoration formula: a full binary NAND tree
    with 2**D leaves and 2**D - 1 gates, fan-out 1 everywhere."""
    check_depth(depth)
    inputs = tuple(f"x{i}" for i in range(1 << depth))
    gates, root = _nand_tree(inputs, "t")
    return Circuit(inputs, tuple(gates), (root,))


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
    bundle_a = tuple(f"a{i}" for i in range(params.n))
    bundle_b = tuple(f"b{i}" for i in range(params.n))
    gates, out = _gadget_gates(bundle_a, bundle_b, params.depth, "", wiring)
    circuit = Circuit(bundle_a + bundle_b, tuple(gates), out)
    return FtGadget(circuit, (bundle_a, bundle_b), out)


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
        comp = [f"c{j}_{i}" for i in range(copies)]
        gates += (Gate(c, NAND, (f"a{j}_{i}", f"b{j}_{i}"))
                  for i, c in enumerate(comp))
        tree, root = _nand_tree(comp, f"t{j}_")
        gates += tree
        outs.append(root)
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
    bundles: dict[str, Bundle] = {
        w: tuple(f"{w}__{i}" for i in range(params.n)) for w in circuit.inputs}
    new_inputs = [w for b in bundles.values() for w in b]

    gates: list[Gate] = []
    for g in circuit.topological_order:
        require_nand(g.label)
        src_a, src_b = (bundles[w] for w in g.inputs)
        body, bundles[g.name] = _gadget_gates(src_a, src_b, params.depth,
                                              f"{g.name}__", wiring)
        gates += body

    out_bundles = {w: bundles[w] for w in circuit.outputs}
    new_outputs = [w for b in out_bundles.values() for w in b]
    ft = Circuit(tuple(new_inputs), tuple(gates), tuple(new_outputs))
    in_bundles = {w: bundles[w] for w in circuit.inputs}
    return FtCircuit(ft, in_bundles, out_bundles)

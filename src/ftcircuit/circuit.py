"""Boolean circuits as labeled DAGs of fixed fan-in gates.

A circuit is a set of named wires: input wires, and gate wires each
carrying the output of one gate.  Gates have a label fixing their fan-in
and truth table; the only built-in label is 2-input NAND, but the type
system admits others.  Circuits are immutable after construction and safe
to share across threads.

The text format is line based, one item per line::

    in a
    in b
    g1 NAND a b
    out g1

Comments start with ``#``.  Forward references are allowed; cycles are
rejected.

A ``Circuit`` is valid once built: construction runs the one netlist
check, ``Circuit.check_valid``, which raises ``CircuitError``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Mapping, Sequence


class CircuitError(ValueError):
    """Structural problem with a circuit or an evaluation request."""


class NetlistError(CircuitError):
    """Netlist syntax or reference error, with a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class GateLabel:
    """A gate type: symbolic name, fan-in, and truth table.

    The truth table is a tuple of 2**fan_in output bits, indexed by the
    input bits read most-significant-first (first input = highest bit).
    """

    name: str
    fan_in: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.fan_in < 1:
            raise CircuitError(f"fan_in must be >= 1, got {self.fan_in}")
        if len(self.table) != 1 << self.fan_in:
            raise CircuitError(
                f"truth table for {self.name} has {len(self.table)} entries, "
                f"expected {1 << self.fan_in}")
        if any(v not in (0, 1) for v in self.table):
            raise CircuitError(f"truth table for {self.name} must be 0/1")

    def apply(self, bits: Sequence[int]) -> int:
        idx = 0
        for b in bits:
            idx = (idx << 1) | (b & 1)
        return self.table[idx]


NAND = GateLabel("NAND", 2, (1, 1, 1, 0))


@dataclass(frozen=True)
class Gate:
    """One gate: its output wire name, label, and ordered input wires."""

    name: str
    label: GateLabel
    inputs: tuple[str, ...]


@dataclass(frozen=True)
class Circuit:
    """An immutable gate-level circuit.

    ``outputs`` defaults to the wires with out-degree zero; an explicit
    tuple may be given (e.g. when parsed from ``out`` lines).
    """

    inputs: tuple[str, ...]
    gates: tuple[Gate, ...]
    outputs: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.outputs:
            used = {w for g in self.gates for w in g.inputs}
            object.__setattr__(self, "outputs", tuple(
                g.name for g in self.gates if g.name not in used))
        self.check_valid()

    @cached_property
    def depths(self) -> dict[str, int]:
        """ASAP depth per wire: inputs at 0, gates at 1 + max(parent depth)."""
        depth: dict[str, int] = {w: 0 for w in self.inputs}
        gates = {g.name: g for g in self.gates}
        sorter = TopologicalSorter(
            {g.name: [w for w in g.inputs if w in gates] for g in self.gates})
        for name in sorter.static_order():
            depth[name] = 1 + max((depth[w] for w in gates[name].inputs),
                                  default=0)
        return depth

    @cached_property
    def topological_order(self) -> tuple[Gate, ...]:
        d = self.depths
        # a stable sort: gates of equal depth keep declaration order
        return tuple(sorted(self.gates, key=lambda g: d[g.name]))

    def check_valid(self):
        """Raise CircuitError listing every violated DAG invariant.  The
        cycle check runs only on an otherwise valid circuit."""
        problems = []
        seen: set[str] = set()
        for w in (*self.inputs, *(g.name for g in self.gates)):
            if w in seen:
                problems.append(f"duplicate wire name: {w}")
            seen.add(w)
        for g in self.gates:
            if len(g.inputs) != g.label.fan_in:
                problems.append(
                    f"fan-in mismatch: {g.name} has {len(g.inputs)} in-edges, "
                    f"label {g.label.name} requires {g.label.fan_in}")
            for w in g.inputs:
                if w not in seen:
                    problems.append(f"undeclared wire: {w} (input of {g.name})")
        outputs: set[str] = set()
        for w in self.outputs:
            if w not in seen:
                problems.append(f"undeclared output wire: {w}")
            elif w in outputs:
                problems.append(f"duplicate output wire: {w}")
            outputs.add(w)
        if not self.outputs:
            problems.append("no output wire")
        if not problems:
            try:
                self.depths
            except CycleError:
                problems.append("circuit is not acyclic")
        if problems:
            raise CircuitError("; ".join(problems))

    def evaluate(self, assignment: Mapping[str, int]) -> dict[str, int]:
        """Noiseless evaluation; returns values of the output wires."""
        values = self.evaluate_all(assignment)
        return {w: values[w] for w in self.outputs}

    def evaluate_all(self, assignment: Mapping[str, int]) -> dict[str, int]:
        """Noiseless evaluation; returns values of every wire."""
        missing = [w for w in self.inputs if w not in assignment]
        if missing:
            raise CircuitError(f"missing input assignment: {', '.join(missing)}")
        values: dict[str, int] = {w: assignment[w] & 1 for w in self.inputs}
        for g in self.topological_order:
            values[g.name] = g.label.apply([values[w] for w in g.inputs])
        return values


def parse_circuit(text: str, labels: Mapping[str, GateLabel] | None = None) -> Circuit:
    """Parse the line-based netlist format into a validated Circuit."""
    if labels is None:
        labels = {NAND.name: NAND}
    inputs: list[str] = []
    gates: list[Gate] = []
    outputs: list[str] = []
    declared: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "in":
            if len(tokens) != 2:
                raise NetlistError("expected 'in <wire>'", lineno)
            if tokens[1] in declared:
                raise NetlistError(f"duplicate wire name: {tokens[1]}", lineno)
            declared.add(tokens[1])
            inputs.append(tokens[1])
        elif tokens[0] == "out":
            if len(tokens) != 2:
                raise NetlistError("expected 'out <wire>'", lineno)
            outputs.append(tokens[1])
        else:
            if len(tokens) < 2:
                raise NetlistError(f"cannot parse: {line!r}", lineno)
            name, label_name, *args = tokens
            label = labels.get(label_name)
            if label is None:
                raise NetlistError(f"unknown gate label: {label_name}", lineno)
            if len(args) != label.fan_in:
                raise NetlistError(
                    f"{label_name} takes {label.fan_in} inputs, got {len(args)}", lineno)
            if name in declared:
                raise NetlistError(f"duplicate wire name: {name}", lineno)
            declared.add(name)
            gates.append(Gate(name, label, tuple(args)))

    try:
        return Circuit(tuple(inputs), tuple(gates), tuple(outputs))
    except CircuitError as exc:
        raise NetlistError(str(exc)) from None


def serialize_circuit(circuit: Circuit, comments: Iterable[str] = ()) -> str:
    """Serialize to the netlist format; inverse of parse_circuit."""
    lines = [f"# {c}" for c in comments]
    lines += [f"in {w}" for w in circuit.inputs]
    for g in circuit.topological_order:
        lines.append(f"{g.name} {g.label.name} {' '.join(g.inputs)}")
    lines += [f"out {w}" for w in circuit.outputs]
    return "\n".join(lines) + "\n"


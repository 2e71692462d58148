import pytest

from ftcircuit.circuit import (NAND, Circuit, CircuitError, Gate, GateLabel,
                               NetlistError, parse_circuit, serialize_circuit)

SIMPLE = "in a\nin b\ng1 NAND a b\nout g1\n"


def test_parse_single_gate():
    c = parse_circuit(SIMPLE)
    assert c.inputs == ("a", "b")
    assert len(c.gates) == 1
    assert c.outputs == ("g1",)


def test_nand_truth_table():
    c = parse_circuit(SIMPLE)
    assert c.evaluate({"a": 1, "b": 1}) == {"g1": 0}
    assert c.evaluate({"a": 0, "b": 1}) == {"g1": 1}
    assert c.evaluate({"a": 1, "b": 0}) == {"g1": 1}
    assert c.evaluate({"a": 0, "b": 0}) == {"g1": 1}


def test_evaluate_is_pure():
    c = parse_circuit(SIMPLE)
    first = c.evaluate({"a": 1, "b": 1})
    for _ in range(3):
        assert c.evaluate({"a": 1, "b": 1}) == first


def test_cycle_rejected():
    text = "in a\nin b\ng1 NAND g2 b\ng2 NAND g1 a\nout g2\n"
    with pytest.raises(CircuitError, match="acyclic"):
        parse_circuit(text)


def test_forward_reference_allowed():
    text = "in a\ng2 NAND g1 g1\ng1 NAND a a\nout g2\n"
    c = parse_circuit(text)
    assert c.evaluate({"a": 1}) == {"g2": 1}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(NetlistError, match="line 2"):
        parse_circuit("in a\nin\n")
    with pytest.raises(NetlistError, match="duplicate"):
        parse_circuit("in a\nin a\n")
    with pytest.raises(NetlistError, match="undeclared"):
        parse_circuit("in a\ng1 NAND a zz\nout g1\n")
    with pytest.raises(NetlistError, match="unknown gate label"):
        parse_circuit("in a\ng1 XOR a a\n")
    with pytest.raises(NetlistError, match="takes 2 inputs"):
        parse_circuit("in a\ng1 NAND a a a\n")


@pytest.mark.parametrize("text,message", [
    ("in a\ng1 NAND a zz\nout g1\n", "undeclared wire: zz (input of g1)"),
    ("in a\ng1 NAND a a\nout zz\n", "undeclared output wire: zz"),
    ("in a\ng1 NAND g2 a\ng2 NAND g1 a\nout g2\n", "circuit is not acyclic"),
    ("in a\nin b\ng1 NAND a b\ng2 NAND a b\nout g1\nout g2\nout g1\n",
     "duplicate output wire: g1"),
    ("in a\n", "no output wire"),
])
def test_netlist_problems_reported_once(text, message):
    # the parser raises Circuit.check_valid's problems, each once
    with pytest.raises(NetlistError) as exc:
        parse_circuit(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("gates,outputs,message", [
    ([("a", ("a", "a"))], ("a",), "duplicate wire name: a"),
    ([("g1", ("a", "a")), ("g1", ("a", "a"))], ("a",),
     "duplicate wire name: g1"),
    ([("g1", ("a", "zz"))], ("a",), "undeclared wire: zz (input of g1)"),
    ([("g1", ("g2", "a")), ("g2", ("g1", "a"))], ("a",),
     "circuit is not acyclic"),
    ([("g1", ("a", "a"))], ("zz",), "undeclared output wire: zz"),
    ([("g1", ("a", "a")), ("g2", ("a", "a"))], ("g1", "g2", "g1"),
     "duplicate output wire: g1"),
    ([], (), "no output wire"),
])
def test_invalid_circuit_refused_at_construction(gates, outputs, message):
    with pytest.raises(CircuitError) as exc:
        Circuit(("a",), tuple(Gate(name, NAND, ins) for name, ins in gates),
                outputs)
    assert str(exc.value) == message


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nin a  # trailing\nin b\ng1 NAND a b  # gate\nout g1\n"
    assert parse_circuit(text) == parse_circuit(SIMPLE)


def test_roundtrip_identity():
    from ftcircuit.transform import build_majority_ec_circuit
    c = build_majority_ec_circuit(5, 2)
    assert parse_circuit(serialize_circuit(c)) == c
    c2 = parse_circuit(SIMPLE)
    assert parse_circuit(serialize_circuit(c2)) == c2


def test_validate_fan_in_mismatch():
    with pytest.raises(CircuitError) as exc:
        Circuit(("a",), (Gate("g1", NAND, ("a",)),))
    assert str(exc.value) == (
        "fan-in mismatch: g1 has 1 in-edges, label NAND requires 2")


def test_validate_ok():
    parse_circuit(SIMPLE).check_valid()


def test_gate_label_invariants():
    with pytest.raises(CircuitError):
        GateLabel("BAD", 2, (1, 0))
    with pytest.raises(CircuitError):
        GateLabel("BAD", 0, ())
    with pytest.raises(CircuitError):
        GateLabel("BAD", 1, (2, 0))


def test_custom_label():
    not_label = GateLabel("NOT", 1, (1, 0))
    c = parse_circuit("in a\ng1 NOT a\nout g1\n",
                      labels={"NOT": not_label, "NAND": NAND})
    assert c.evaluate({"a": 0}) == {"g1": 1}


def _gates_per_depth(c):
    """The number of gates at each depth 1, 2, ..., deepest."""
    depths = [c.depths[g.name] for g in c.gates]
    return [depths.count(d) for d in range(1, max(depths, default=0) + 1)]


def test_depths_single():
    assert _gates_per_depth(parse_circuit(SIMPLE)) == [1]


def test_depths_chain():
    lines = ["in a"]
    prev = "a"
    for i in range(5):
        lines.append(f"g{i} NAND {prev} {prev}")
        prev = f"g{i}"
    c = parse_circuit("\n".join(lines) + "\n")
    assert _gates_per_depth(c) == [1] * 5


def test_depths_respect_edges():
    from ftcircuit.transform import build_ft_gadget, FtParams
    c = build_ft_gadget(FtParams(5, 2)).circuit
    assert _gates_per_depth(c) == [5, 5, 5]
    assert all(c.depths[w] == 0 for w in c.inputs)
    for g in c.gates:
        for w in g.inputs:
            assert c.depths[w] < c.depths[g.name]


def test_missing_input_assignment():
    with pytest.raises(CircuitError, match="missing input"):
        parse_circuit(SIMPLE).evaluate({"a": 1})


def test_default_outputs_are_sinks():
    c = Circuit(("a",), (Gate("g1", NAND, ("a", "a")),
                         Gate("g2", NAND, ("g1", "g1"))))
    assert c.outputs == ("g2",)


@pytest.mark.parametrize("text,message", [
    ("in a\nout\n", "line 2: expected 'out <wire>'"),
    ("in a\ng1\n", "line 2: cannot parse: 'g1'"),
    ("in a\ng1 NAND a a\ng1 NAND a a\n", "line 3: duplicate wire name: g1"),
])
def test_netlist_line_errors(text, message):
    with pytest.raises(NetlistError) as exc:
        parse_circuit(text)
    assert str(exc.value) == message

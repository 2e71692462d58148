import itertools

import pytest

from ftcircuit.circuit import NAND, CircuitError, parse_circuit
from ftcircuit.transform import (FtParams, WIRING_OFFSET_DOUBLING,
                                 WIRING_SHARED, WIRING_UNIT, WIRINGS,
                                 apply_ft_construction, build_formula_gadget,
                                 build_ft_gadget, build_majority_ec_circuit,
                                 build_majority_ec_formula, cone_is_tree,
                                 decode_bits, ec_offsets, encode_bit,
                                 ring_offset)


def input_ancestors(circuit):
    anc = {w: {w} for w in circuit.inputs}
    for g in circuit.topological_order:
        s = set()
        for w in g.inputs:
            s |= anc[w]
        anc[g.name] = s
    return {w: anc[w] for w in circuit.outputs}


def test_ft_params_validation():
    with pytest.raises(ValueError):
        FtParams(0, 2)
    with pytest.raises(ValueError):
        FtParams(5, 3)
    with pytest.raises(ValueError):
        FtParams(5, 0)
    with pytest.raises(ValueError):
        FtParams(5, 2, 0.5)
    with pytest.raises(ValueError):
        FtParams(5, 2, 0.005, 0.6)


def test_encode_decode():
    assert encode_bit(1, 5) == (1, 1, 1, 1, 1)
    assert decode_bits([1, 1, 0]) == 1
    assert decode_bits([1, 0, 0]) == 0
    assert decode_bits([1, 0]) == 0  # even-n tie breaks toward 0


def test_ec_circuit_counts_and_ancestors():
    ec = build_majority_ec_circuit(5, 2)
    assert len(ec.gates) == 10
    assert max(ec.depths.values()) == 2
    assert all(len(a) <= 4 for a in input_ancestors(ec).values())


def test_ec_circuit_n1_is_double_inversion():
    ec = build_majority_ec_circuit(1, 2)
    assert len(ec.gates) == 2
    for x in (0, 1):
        out = ec.evaluate({ec.inputs[0]: x})
        assert list(out.values()) == [x]


def test_ec_circuit_ancestor_count_saturates():
    # each output reaches min(n, 2^D) distinct inputs
    for n, depth in [(5, 2), (16, 4), (8, 4), (13, 2)]:
        ec = build_majority_ec_circuit(n, depth)
        want = min(n, 2 ** depth)
        assert all(len(a) == want for a in input_ancestors(ec).values())


def test_unit_wiring_has_fewer_ancestors():
    ec = build_majority_ec_circuit(5, 2, wiring=WIRING_UNIT)
    assert all(len(a) == 3 for a in input_ancestors(ec).values())


def test_shared_wiring_is_pathological():
    ec = build_majority_ec_circuit(7, 2, wiring=WIRING_SHARED)
    assert all(len(a) <= 4 for a in input_ancestors(ec).values())
    distinct = set(frozenset(a) for a in input_ancestors(ec).values())
    assert len(distinct) == 1


def _max_path_count(circuit):
    """The most paths from any output back to any one input: 1 when every
    backward cone is a tree (a gate reading one wire twice makes two)."""
    paths = {w: {w: 1} for w in circuit.inputs}
    for g in circuit.topological_order:
        count = {}
        for w in g.inputs:
            for x, k in paths[w].items():
                count[x] = count.get(x, 0) + k
        paths[g.name] = count
    return max(k for w in circuit.outputs for k in paths[w].values())


@pytest.mark.parametrize("wiring", WIRINGS)
def test_cone_is_tree_matches_a_path_count(wiring):
    for depth in (2, 4, 6):
        for n in range(1, 33):
            ec = build_majority_ec_circuit(n, depth, wiring)
            want = _max_path_count(ec) == 1
            assert cone_is_tree(n, depth, wiring) == want, (n, depth)
    # offset-doubling from n = 2^D; never unit or shared
    assert [n for n in range(1, 33) if cone_is_tree(n, 4, wiring)] == (
        list(range(16, 33)) if wiring == WIRING_OFFSET_DOUBLING else [])


def test_ec_depth_validation():
    for bad in (1, 3, 0, -2):
        with pytest.raises(ValueError):
            build_majority_ec_circuit(5, bad)
        with pytest.raises(ValueError):
            build_majority_ec_formula(bad)


def test_ec_formula_tree():
    for depth, gates, leaves in [(2, 3, 4), (4, 15, 16)]:
        tree = build_majority_ec_formula(depth)
        assert len(tree.gates) == gates
        assert len(tree.inputs) == leaves
        fan_out = {}
        for g in tree.gates:
            for w in g.inputs:
                fan_out[w] = fan_out.get(w, 0) + 1
        assert all(v == 1 for v in fan_out.values())


def test_ec_formula_noiseless_identity():
    tree = build_majority_ec_formula(2)
    for x in (0, 1):
        out = tree.evaluate({w: x for w in tree.inputs})
        assert list(out.values()) == [x]


def test_gadget_shape():
    g = build_ft_gadget(FtParams(5, 2))
    assert len(g.circuit.gates) == 15
    depths = [g.circuit.depths[gate.name] for gate in g.circuit.gates]
    assert [depths.count(d) for d in (1, 2, 3)] == [5, 5, 5]
    assert max(depths) == 3
    assert len(g.input_bundles) == 2
    assert len(g.output_bundle) == 5


def test_gadget_depth_independent_of_n():
    for n in (1, 3, 9, 14):
        g = build_ft_gadget(FtParams(n, 4))
        assert max(g.circuit.depths.values()) == 5


def test_gadget_noiseless_truth_table():
    g = build_ft_gadget(FtParams(3, 2))
    for xa, xb in itertools.product((0, 1), repeat=2):
        assignment = {}
        for w, v in zip(g.input_bundles[0], encode_bit(xa, 3)):
            assignment[w] = v
        for w, v in zip(g.input_bundles[1], encode_bit(xb, 3)):
            assignment[w] = v
        values = g.circuit.evaluate_all(assignment)
        out = decode_bits([values[w] for w in g.output_bundle])
        assert out == NAND.apply((xa, xb))


def test_gadget_rejects_other_labels():
    from ftcircuit.circuit import GateLabel
    nor = GateLabel("NOR", 2, (1, 0, 0, 0))
    base = parse_circuit("in a\nin b\ng1 NOR a b\nout g1\n", {"NOR": nor})
    with pytest.raises(CircuitError) as exc:
        apply_ft_construction(base, FtParams(5, 2))
    assert str(exc.value) == "unsupported gate label: NOR"


def test_gadget_serialization_has_bundles():
    text = build_ft_gadget(FtParams(3, 2)).serialize()
    assert "# bundle in0:" in text
    assert "# bundle out:" in text
    parse_circuit(text)


def test_formula_gadget_is_tree():
    g = build_formula_gadget(FtParams(3, 2))
    fan_out = {}
    for gate in g.circuit.gates:
        for w in gate.inputs:
            fan_out[w] = fan_out.get(w, 0) + 1
    assert all(v == 1 for v in fan_out.values())
    assert len(g.input_bundles[0]) == 3 * 4
    assert len(g.output_bundle) == 3


def test_apply_ft_gate_counts():
    base1 = parse_circuit("in a\nin b\ng1 NAND a b\nout g1\n")
    ft1 = apply_ft_construction(base1, FtParams(5, 2))
    assert len(ft1.circuit.gates) == 15
    assert len(ft1.input_bundles["a"]) == 5
    assert len(ft1.output_bundles["g1"]) == 5

    base3 = parse_circuit(
        "in a\nin b\nin c\ng1 NAND a b\ng2 NAND b c\ng3 NAND g1 g2\nout g3\n")
    ft3 = apply_ft_construction(base3, FtParams(7, 2))
    assert len(ft3.circuit.gates) == 3 * 3 * 7


def test_apply_ft_noiseless_correctness():
    base = parse_circuit(
        "in a\nin b\nin c\ng1 NAND a b\ng2 NAND b c\ng3 NAND g1 g2\nout g3\n")
    ft = apply_ft_construction(base, FtParams(5, 2))
    for bits in itertools.product((0, 1), repeat=3):
        assignment = dict(zip("abc", bits))
        want = base.evaluate(assignment)["g3"]
        encoded = {w: assignment[orig]
                   for orig, bundle in ft.input_bundles.items()
                   for w in bundle}
        values = ft.circuit.evaluate_all(encoded)
        got = decode_bits([values[w] for w in ft.output_bundles["g3"]])
        assert got == want


def test_apply_ft_serialization_roundtrips():
    base = parse_circuit("in a\nin b\ng1 NAND a b\nout g1\n")
    ft = apply_ft_construction(base, FtParams(3, 2))
    again = parse_circuit(ft.serialize())
    assert again == ft.circuit


@pytest.mark.parametrize("wiring", WIRINGS)
def test_ec_circuit_reads_ec_offsets(wiring):
    for n, depth in itertools.product((1, 2, 3, 5, 8, 13), (2, 4)):
        ec = build_majority_ec_circuit(n, depth, wiring)
        prev = ec.inputs
        for layer in range(1, depth + 1):
            gates = ec.gates[(layer - 1) * n: layer * n]
            want = [(prev[a], prev[b])
                    for a, b in ec_offsets(n, layer, wiring)]
            assert [g.inputs for g in gates] == want
            prev = tuple(g.name for g in gates)
        assert ec.outputs == prev
    # layer 2 of offset doubling reads back 2, shared reads wires 0 and 1
    assert ec_offsets(5, 2, WIRING_OFFSET_DOUBLING)[1] == (1, 4)
    assert ec_offsets(5, 2, WIRING_UNIT)[1] == (1, 0)
    assert ec_offsets(5, 2, WIRING_SHARED) == ((0, 1),) * 5


@pytest.mark.parametrize("wiring", WIRINGS)
def test_one_gate_construction_is_the_gadget(wiring):
    base = parse_circuit("in a\nin b\ng1 NAND a b\nout g1\n")

    def rename(w):
        # g1__e1_0 -> e1_0, a__0 -> a0
        return w[len("g1__"):] if w.startswith("g1__") else w.replace("__", "")

    for n, depth in itertools.product((1, 2, 5, 8), (2, 4)):
        params = FtParams(n, depth)
        gadget = build_ft_gadget(params, wiring)
        ft = apply_ft_construction(base, params, wiring)
        renamed = [(rename(g.name), g.label, tuple(map(rename, g.inputs)))
                   for g in ft.circuit.gates]
        assert renamed == [(g.name, g.label, g.inputs)
                           for g in gadget.circuit.gates]
        assert tuple(map(rename, ft.output_bundles["g1"])) == \
            gadget.output_bundle


def test_unknown_wiring_refused():
    with pytest.raises(ValueError) as exc:
        ring_offset(5, 1, "bogus")
    assert str(exc.value) == "unknown wiring rule: bogus"
    with pytest.raises(ValueError) as exc:
        build_majority_ec_circuit(5, 2, "bogus")
    assert str(exc.value) == "unknown wiring rule: bogus"


def test_majority_ec_circuit_refuses_an_empty_code():
    with pytest.raises(ValueError) as exc:
        build_majority_ec_circuit(0, 2)
    assert str(exc.value) == "code size must be >= 1, got 0"

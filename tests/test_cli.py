import json
import shlex
from pathlib import Path

import pytest

from ftcircuit import resource
from ftcircuit.cli import build_parser, main
from ftcircuit.circuit import parse_circuit


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--depth", "2",
                           "--eps-p", "0.005")
    assert code == 0
    data = json.loads(out)
    assert data["delta_opt"] == pytest.approx(0.0580, abs=1e-3)
    assert data["code_size_coefficient"] == pytest.approx(279, abs=3)
    assert data["meta"]["params"]["eps_p"] == 0.005


def test_analyze_depth4(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--depth", "4",
                           "--eps-p", "0.005")
    data = json.loads(out)
    assert data["code_size_coefficient"] == pytest.approx(11.4, abs=0.3)


def test_analyze_above_threshold(capsys):
    code, out, err = run_cli(capsys, "analyze", "--depth", "2",
                             "--eps-p", "0.02")
    assert code == 1
    assert out == ""
    assert "pseudothreshold" in err


def test_threshold(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--depth", "2")
    assert code == 0
    assert json.loads(out)["pseudothreshold"] == pytest.approx(0.01077,
                                                               abs=1e-4)


@pytest.mark.parametrize("depth", ["2", "4", "6", "8"])
def test_analyze_at_printed_threshold(capsys, depth):
    _, out, _ = run_cli(capsys, "threshold", "--depth", depth)
    threshold = json.loads(out)["pseudothreshold"]
    code, out, err = run_cli(capsys, "analyze", "--depth", depth,
                             "--eps-p", repr(threshold))
    assert (code, err) == (0, "")
    assert json.loads(out)["pseudothreshold"] == threshold


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "5", "--eps-p", "0.005", "--formula"],
    ["chi", "--formula"],
    ["build", "--n", "5"],
])
def test_unknown_wiring_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--wiring", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_build_gadget(capsys):
    code, out, _ = run_cli(capsys, "build", "--n", "5", "--depth", "2")
    assert code == 0
    circuit = parse_circuit(out)
    assert len(circuit.gates) == 15


def test_build_transforms_netlist(capsys, tmp_path):
    base = tmp_path / "base.nl"
    base.write_text("in a\nin b\ng1 NAND a b\nout g1\n")
    code, out, _ = run_cli(capsys, "build", "--n", "3", "--depth", "2",
                           "--netlist", str(base))
    assert code == 0
    assert len(parse_circuit(out).gates) == 9


def test_build_refuses_netlist_without_output(capsys, tmp_path):
    base = tmp_path / "base.nl"
    base.write_text("in a\nin b\n")
    code, out, err = run_cli(capsys, "build", "--n", "3",
                             "--netlist", str(base))
    assert (code, out) == (1, "")
    assert err == "error: no output wire\n"


def test_build_rejects_unknown_gate(capsys):
    with pytest.raises(SystemExit):
        main(["build", "--n", "5", "--gate", "xor"])


def test_simulate_exact_matches_oracle(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "5", "--depth", "2",
                           "--eps-p", "0.005", "--delta", "0.058", "--method",
                           "exact", "--delta-threshold", "0.058")
    assert code == 0
    data = json.loads(out)
    from ftcircuit.noisy import (exact_stage_error, failure_threshold,
                                 tail_probability)
    from ftcircuit.transform import FtParams
    dist = exact_stage_error(FtParams(5, 2, 0.005, 0.058))
    want = tail_probability(dist, failure_threshold(5, 0.058))
    assert data["estimate"] == pytest.approx(want, rel=1e-12)
    assert data["method"] == "exact"


def test_simulate_exact_record(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "5", "--depth", "2",
                           "--eps-p", "0.005", "--delta", "0.058",
                           "--method", "exact")
    assert code == 0
    record = json.loads(out)
    assert record["n"] == 5 and record["D"] == 2
    assert record["method"] == "exact"
    assert record["estimate"] == record["ci_low"] == record["ci_high"]
    assert record["samples"] == 0
    assert record["seed"] is None


@pytest.mark.parametrize("method", ["exact", "monte_carlo"])
@pytest.mark.parametrize("fraction", ["1.5", "0", "-0.1"])
def test_simulate_rejects_delta_threshold_outside_unit_interval(
        capsys, method, fraction):
    code, out, err = run_cli(capsys, "simulate", "--n", "5", "--eps-p",
                             "0.005", "--method", method,
                             "--delta-threshold", fraction)
    assert (code, out) == (1, "")
    assert "failure threshold fraction must be in (0, 1]" in err


def test_simulate_deterministic_bytes(capsys):
    args = ["simulate", "--n", "5", "--depth", "2", "--eps-p", "0.005",
            "--delta", "0.058", "--method", "monte_carlo",
            "--samples", "20000", "--seed", "7"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_simulate_monte_carlo_golden_record(capsys):
    # a fixed seed pins the record across versions: 866 failures in
    # 200,000 samples
    code, out, _ = run_cli(capsys, "simulate", "--n", "9", "--eps-p", "0.01",
                           "--method", "monte_carlo", "--samples", "200000",
                           "--seed", "7")
    assert code == 0
    record = json.loads(out)
    del record["meta"]
    assert record == {
        "D": 2, "ci_high": 0.00462743784279605,
        "ci_low": 0.00405160275042221, "delta": 0.058, "eps_p": 0.01,
        "estimate": 0.00433, "method": "monte_carlo", "n": 9,
        "samples": 200000, "seed": 7}
    assert record["estimate"] == 866 / 200000


def test_chi_command(capsys):
    code, out, _ = run_cli(capsys, "chi", "--depth", "2", "--eps-p", "0.005",
                           "--n-range", "5,7,9,11")
    assert code == 0
    data = json.loads(out)
    assert 0.25 <= data["chi"] <= 0.6
    assert len(data["points"]) == 4


def test_chi_rejects_unparsable_n_range(capsys):
    code, out, err = run_cli(capsys, "chi", "--n-range", "abc")
    assert (code, out) == (1, "")
    assert err == ("error: bad n range: 'abc' "
                   "(want comma-separated odd code sizes)\n")


def test_chi_delta_outside_window_is_an_error(capsys):
    code, out, err = run_cli(capsys, "chi", "--depth", "2", "--eps-p",
                             "0.005", "--delta", "0.3")
    assert (code, out) == (1, "")
    assert err == ("error: delta=0.3 is outside the amplification window; "
                   "the signal is not amplified\n")


def test_chi_formula(capsys):
    code, out, _ = run_cli(capsys, "chi", "--depth", "2", "--formula",
                           "--n-range", "5,7,9,11")
    assert json.loads(out)["chi"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "5", "--eps-p", "0.005", "--formula"],
    ["chi", "--depth", "2", "--formula", "--n-range", "5,7,9,11"],
])
def test_formula_refuses_monte_carlo(capsys, argv):
    # the formula law is exact; a sampling method is an error, not ignored
    code, out, err = run_cli(capsys, *argv, "--method", "monte_carlo",
                             "--samples", "10000")
    assert (code, out) == (1, "")
    assert err == ("error: the formula variant is exact: method monte_carlo "
                   "does not apply (use auto or exact)\n")
    for method in ("auto", "exact"):
        code, out, err = run_cli(capsys, *argv, "--method", method)
        assert (code, err) == (0, "")
        assert json.loads(out)


@pytest.mark.parametrize("formula", [[], ["--formula"]])
def test_chi_points_name_the_engine_that_ran(capsys, formula):
    # method auto runs an exact engine at these n; each point says so
    code, out, _ = run_cli(capsys, "chi", "--depth", "2", "--n-range",
                           "5,7,9,11", *formula)
    assert code == 0
    assert [p[4] for p in json.loads(out)["points"]] == ["exact"] * 4


@pytest.mark.parametrize("argv,warned", [
    (["--depth", "4", "--wiring", "unit"], "unit EC block's cones are not "
     "trees at D = 4, n = 5, 7, 9, 11, 13"),
    (["--depth", "4"], "offset-doubling EC block's cones are not trees at "
     "D = 4, n = 5, 7, 9, 11, 13"),
    (["--depth", "2", "--n-range", "3,5,7,9"], "offset-doubling EC block's "
     "cones are not trees at D = 2, n = 3"),
    (["--depth", "2"], None),
    (["--depth", "4", "--wiring", "unit", "--formula"], None),
])
def test_chi_names_the_n_whose_cones_are_not_trees(capsys, argv, warned):
    # one stderr line beside stdout, which does not change
    code, out, err = run_cli(capsys, "chi", "--eps-p", "0.005", *argv)
    assert code == 0 and json.loads(out)["chi"] > 0.0
    if warned is None:
        assert err == ""
    else:
        assert err == (f"warning: the {warned}: its wires are not "
                       "independent as the formula's are\n")


@pytest.mark.parametrize("argv,warned", [
    (["--n", "17", "--depth", "2", "--delta", "0.07"], None),
    (["--n", "15", "--depth", "4"],
     "offset-doubling EC block's cones are not trees at D = 4, n = 15"),
    (["--n", "7", "--depth", "2", "--wiring", "shared"],
     "shared EC block's cones are not trees at D = 2, n = 7"),
    (["--n", "7", "--depth", "4", "--formula"], None),
])
def test_simulate_names_an_n_whose_cones_are_not_trees(capsys, argv,
                                                        warned):
    # the circuit variant warns as chi does, on stderr alone
    code, out, err = run_cli(capsys, "simulate", "--eps-p", "0.005",
                             "--method", "exact", *argv)
    assert code == 0 and json.loads(out)["n"] == int(argv[1])
    if warned is None:
        assert err == ""
    else:
        assert err == (f"warning: the {warned}: its wires are not "
                       "independent as the formula's are\n")


def test_chi_csv_output(capsys, tmp_path):
    csv_path = tmp_path / "points.csv"
    code, _, _ = run_cli(capsys, "chi", "--n-range", "5,7,9,11",
                         "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "n,eps_l,ci_low,ci_high,method"
    assert len(lines) == 6


def test_overhead_exponential_constancy(capsys):
    args = ["overhead", "--tail", "exponential", "--wp-ratio", "1.0"]
    _, out1, _ = run_cli(capsys, *args, "--eps-l", "1e-10")
    _, out2, _ = run_cli(capsys, *args, "--eps-l", "1e-20")
    eta1 = json.loads(out1)["eta_asymptotic"]
    eta2 = json.loads(out2)["eta_asymptotic"]
    assert eta1 == eta2


@pytest.mark.parametrize("argv", [
    ["overhead", "--tail", "gaussian", "--eps-l", "1e-320"],
    ["phase", "--tail", "pareto", "--eps-p", "0.005",
     "--axis1", "w_p=100:300:2", "--axis2", "eps_l=1e-320:1e-15:2:log"],
])
def test_subnormal_eps_l_is_an_error(capsys, argv):
    # 1/eps_l overflows to inf at a subnormal target, so the code-size
    # search refuses it rather than end in an OverflowError traceback
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == ("error: target must be in [2.2250738585072014e-308, 1), "
                   "got 1e-320\n")


def _without_version(stdout: str):
    """The fields of a JSON record, or the header fields and data rows of a
    CSV, with the package version left out of the metadata."""
    if stdout.startswith("# "):
        header, *rows = stdout.splitlines()
        meta = json.loads(header[2:])
        del meta["version"]
        return meta, rows
    record = json.loads(stdout)
    del record["meta"]["version"]
    return record


FORMULA_STDOUT = json.loads(
    (Path(__file__).parent / "formula_stdout.json").read_text())


def _record_ids(records):
    """Each record's first three arguments, or its whole argv when an
    earlier record already took those three."""
    ids, seen = [], set()
    for record in records:
        words = [a.lstrip("-") for a in record["argv"]]
        short = "-".join(words[:3])
        ids.append("-".join(words) if short in seen else short)
        seen.add(short)
    return ids


@pytest.mark.parametrize("record", FORMULA_STDOUT,
                         ids=_record_ids(FORMULA_STDOUT))
def test_formula_layer_stdout_is_recorded(capsys, record):
    # phase, analyze, threshold and overhead stdout as recorded before the
    # binomial tail read its log-factorials from a table, and analyze at
    # D = 2..8 with threshold at D = 10, 12, 20 as recorded before the
    # stage error curve ran its layers in one closure; every float must
    # match to the last digit.  The axes are linear or 2-point log, whose
    # values are exact
    code, out, _ = run_cli(capsys, *record["argv"])
    assert code == 0
    assert _without_version(out) == _without_version(record["stdout"])


def test_phase_command(capsys):
    code, out, _ = run_cli(
        capsys, "phase", "--tail", "pareto", "--gamma", "2",
        "--wp-ratio", "3e2",
        "--axis1", "eps_p=0.003:0.008:3",
        "--axis2", "eps_l=1e-25:1e-15:3:log")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "axis1,axis2,eta_exact,eta_asymptotic,regime"
    assert len(lines) == 11
    assert any(line.endswith("FT") for line in lines[2:])


def test_phase_contour_fields_are_floats(capsys, tmp_path, monkeypatch):
    # a :log axis comes from numpy; the contour CSV must still hold plain
    # numbers, the grid's own contour points
    grids = []
    phase_grid = resource.phase_grid

    def recorded(*args):
        grids.append(phase_grid(*args))
        return grids[-1]

    monkeypatch.setattr(resource, "phase_grid", recorded)
    contour = tmp_path / "c.csv"
    code, _, _ = run_cli(
        capsys, "phase", "--tail", "pareto", "--gamma", "2",
        "--wp-ratio", "3e2", "--axis1", "eps_p=0.003:0.008:3",
        "--axis2", "eps_l=1e-25:1e-15:3:log", "--contour", str(contour))
    assert code == 0
    lines = contour.read_text().splitlines()
    assert lines[1] == "axis1,axis2"
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[2:]]
    assert rows and rows == list(grids[0].contour)
    assert all(type(v) is float for point in grids[0].contour for v in point)


@pytest.mark.parametrize("fixed,axis1,axis2", [
    (["--eps-l", "1e-10"], "eps_p=0.005:0.006:2", "eps_l=1e-20:1e-15:2"),
    (["--eps-p", "0.005", "--eps-l", "1e-15"], "w_p=1:10:2",
     "eps_p=0.005:0.006:2"),
])
def test_phase_rejects_value_both_fixed_and_on_an_axis(capsys, fixed, axis1,
                                                       axis2):
    code, out, err = run_cli(capsys, "phase", "--tail", "pareto", *fixed,
                             "--axis1", axis1, "--axis2", axis2)
    assert (code, out) == (1, "")
    name = axis2.split("=")[0]
    assert err == f"error: {name} is a grid axis and cannot be fixed\n"


def test_phase_rejects_equal_axes(capsys):
    code, out, err = run_cli(
        capsys, "phase", "--tail", "pareto", "--eps-l", "1e-15",
        "--axis1", "eps_p=0.005:0.006:2", "--axis2", "eps_p=0.004:0.006:2")
    assert (code, out) == (1, "")
    assert err == "error: grid axes must differ\n"


@pytest.mark.parametrize("axis,dropped,kept", [
    ("w_p=100:300:2", "wp_ratio", "gamma"),
    ("gamma=1.5:3:2", "gamma", "wp_ratio")])
def test_phase_metadata_leaves_out_what_an_axis_replaces(capsys, axis,
                                                         dropped, kept):
    code, out, _ = run_cli(
        capsys, "phase", "--tail", "pareto", "--eps-l", "1e-15",
        "--axis1", "eps_p=0.005:0.006:2", "--axis2", axis)
    assert code == 0
    params = json.loads(out.splitlines()[0][2:])["params"]
    assert dropped not in params and kept in params


def test_phase_without_eps_l_is_an_error(capsys):
    code, out, err = run_cli(
        capsys, "phase", "--tail", "pareto",
        "--axis1", "eps_p=0.005:0.006:2", "--axis2", "w_p=1:10:2")
    assert (code, out) == (1, "")
    assert err == "error: eps_l must be fixed or a grid axis\n"


def test_phase_refuses_eps_l_of_zero_by_name(capsys):
    code, out, err = run_cli(
        capsys, "phase", "--tail", "pareto", "--eps-p", "0.005",
        "--axis1", "w_p=100:300:2", "--axis2", "eps_l=0:1e-10:2")
    assert (code, out) == (1, "")
    assert err == "error: eps_l must be > 0, got 0.0\n"


def test_phase_without_eps_p_is_an_error(capsys):
    code, out, err = run_cli(
        capsys, "phase", "--tail", "pareto", "--wp-ratio", "300",
        "--axis1", "w_p=100:300:2", "--axis2", "eps_l=1e-20:1e-15:2:log")
    assert (code, out) == (1, "")
    assert err == "error: eps_p must be fixed or a grid axis\n"


def test_metadata_names_the_command_once(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "threshold", "--depth", "2")
    assert code == 0
    meta = json.loads(out)["meta"]
    assert meta == {"command": "threshold", "params": {"depth": 2},
                    "version": meta["version"]}
    contour = tmp_path / "c.csv"
    code, out, _ = run_cli(
        capsys, "phase", "--tail", "pareto", "--eps-l", "1e-15",
        "--axis1", "eps_p=0.005:0.006:2", "--axis2", "w_p=100:300:2",
        "--contour", str(contour))
    assert code == 0
    headers = (out.splitlines()[0], contour.read_text().splitlines()[0])
    for header, command in zip(headers, ("phase", "phase-contour")):
        meta = json.loads(header[2:])
        assert meta["command"] == command
        assert "command" not in meta["params"]


def test_phase_rejects_bad_axis(capsys):
    code, out, err = run_cli(
        capsys, "phase", "--tail", "pareto", "--wp-ratio", "3e2",
        "--axis1", "eps_p=0.003:0.008", "--axis2", "eps_l=1e-25:1e-15:3:log")
    assert code == 1
    assert out == ""
    assert "bad axis spec" in err


def test_phase_refuses_an_unknown_axis_by_name(capsys):
    code, out, err = run_cli(
        capsys, "phase", "--tail", "pareto", "--eps-p", "0.005",
        "--axis1", "bogus=1:2:2", "--axis2", "eps_l=1e-20:1e-15:2:log")
    assert (code, out) == (1, "")
    assert err == "error: unknown grid axis: bogus\n"


@pytest.mark.parametrize("chi", ["5", "7"])
def test_phase_refuses_chi_on_an_all_invalid_grid(capsys, chi):
    # both eps_p lie above the depth-2 pseudothreshold, so no cell is valid
    code, out, err = run_cli(
        capsys, "phase", "--tail", "pareto", "--chi", chi,
        "--axis1", "eps_p=0.02:0.03:2", "--axis2", "eps_l=1e-10:1e-9:2")
    assert (code, out) == (1, "")
    assert err == f"error: chi must be in (0, 1], got {float(chi)}\n"


def test_phase_gamma_axis_needs_pareto(capsys):
    code, out, err = run_cli(
        capsys, "phase", "--tail", "gaussian", "--wp-ratio", "2e-4",
        "--axis1", "gamma=1.5:3:3", "--axis2", "eps_l=1e-20:1e-10:2:log")
    assert code == 1
    assert out == ""
    assert "the gamma axis applies to the pareto tail only" in err


@pytest.mark.parametrize("axis1,axis2", [
    ("eps_p=0.005:0.007:3", "eps_l=1e-20:1e-15:3:lg"),
    ("eps_p=0.005:0.007:3", "eps_l=1e-20:1e-15:3:"),
    ("eps_p=0.005:0.007:0", "eps_l=1e-20:1e-15:2:log"),
    ("eps_p=0.005:0.007:-1", "eps_l=1e-20:1e-15:2:log"),
    ("eps_p=0.005:0.007:x", "eps_l=1e-20:1e-15:2:log"),
    ("eps_p=a:0.007:3", "eps_l=1e-20:1e-15:2:log"),
    ("gamma=1:inf:2", "eps_l=1e-20:1e-15:2:log"),
    ("eps_p=0.005:0.007:3", "eps_l=1e-20:inf:2"),
    ("eps_p=0.005:0.007:3", "eps_l=0:1e-15:2:log"),
])
def test_phase_rejects_unknown_scale_and_empty_axis(capsys, axis1, axis2):
    code, out, err = run_cli(
        capsys, "phase", "--tail", "pareto", "--wp-ratio", "3e2",
        "--axis1", axis1, "--axis2", axis2)
    assert code == 1
    assert out == ""
    assert "bad axis spec" in err


def test_config_file_overrides(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depth": 4}))
    _, out, _ = run_cli(capsys, "threshold", "--config", str(cfg))
    assert json.loads(out)["pseudothreshold"] == pytest.approx(0.02515,
                                                               abs=1e-4)


def test_config_file_equals_form(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depth": 4}))
    _, out, _ = run_cli(capsys, "threshold", f"--config={cfg}")
    assert json.loads(out)["pseudothreshold"] == pytest.approx(0.02515,
                                                               abs=1e-4)


def test_explicit_flag_beats_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depth": 4}))
    for argv in (["--depth", "2", "--config", str(cfg)],
                 ["--config", str(cfg), "--depth", "2"]):
        _, out, _ = run_cli(capsys, "threshold", *argv)
        assert json.loads(out)["pseudothreshold"] == pytest.approx(
            0.01077, abs=1e-4)


def test_config_leaves_no_state_between_calls(capsys, tmp_path):
    # every main call in a process shares one parser
    want = {depth: json.loads(run_cli(capsys, "threshold", "--depth",
                                      str(depth))[1])["pseudothreshold"]
            for depth in (2, 4, 6)}
    configs = {}
    for depth, value in ((4, 4), (6, "6")):   # a string is converted
        configs[depth] = tmp_path / f"depth{depth}.json"
        configs[depth].write_text(json.dumps({"depth": value}))
    for argv, depth in ((["--config", str(configs[4])], 4), ([], 2),
                        (["--config", str(configs[6])], 6),
                        (["--config", str(configs[4])], 4), ([], 2)):
        code, out, _ = run_cli(capsys, "threshold", *argv)
        data = json.loads(out)
        assert code == 0
        assert data["pseudothreshold"] == want[depth]
        assert data["meta"]["params"]["depth"] == depth


def test_config_value_that_does_not_convert_is_a_usage_error(capsys,
                                                            tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depth": "abc"}))
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["{", None])
def test_config_that_cannot_be_read_is_a_usage_error(capsys, tmp_path,
                                                     content):
    # a file that is not JSON, and a path that does not exist
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--config", str(cfg)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"--config {cfg}: " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("content", ["3", '["depth"]'])
def test_config_that_is_not_an_object_is_a_usage_error(capsys, tmp_path,
                                                       content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "want a JSON object" in capsys.readouterr().err


def _as_flags(config: dict) -> list[str]:
    flags = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        flags += [flag] if value is True else [flag, str(value)]
    return flags


# each command's minimal argv and a config setting its optional options,
# each as a JSON value of its natural type
CONFIG_PARITY = {
    "analyze": (["analyze", "--eps-p", "0.005"], {"depth": 4}),
    "threshold": (["threshold"], {"depth": 6}),
    "chi": (["chi"], {"depth": 2, "eps_p": 0.006, "delta": 0.06,
                      "n_range": "3,5,7,9", "method": "monte_carlo",
                      "wiring": "unit", "samples": 20000, "seed": 3,
                      "csv": "points.csv"}),
    "chi-formula": (["chi"], {"depth": 4, "eps_p": 0.004, "delta": 0.08,
                              "n_range": "5,7,9,11", "method": "exact",
                              "formula": True}),
    "build": (["build", "--n", "3"], {"depth": 4, "wiring": "unit",
                                      "netlist": "base.nl"}),
    "simulate-exact": (["simulate", "--n", "9", "--eps-p", "0.01"],
                       {"depth": 2, "delta": 0.05, "delta_threshold": 0.4,
                        "block": "ec", "method": "exact", "wiring": "unit"}),
    "simulate-monte-carlo": (["simulate", "--n", "9", "--eps-p", "0.01"],
                             {"delta": 0.05, "method": "monte_carlo",
                              "samples": 20000, "seed": 7}),
    "overhead": (["overhead", "--tail", "pareto", "--eps-l", "1e-10"],
                 {"depth": 2, "wp_ratio": 300, "gamma": 3.0, "delta": 0.05,
                  "chi": 0.5, "eps_p": 0.004}),
    "phase": (["phase", "--tail", "pareto", "--axis1", "eps_p=0.004:0.006:2",
               "--axis2", "w_p=100:300:2:log"],
              {"depth": 2, "eps_l": 1e-12, "gamma": 2.5, "delta": 0.05,
               "chi": 0.47, "contour": "contour.csv"}),
}


# the unit wiring's cones are never trees; the n that chi and simulate
# name in their warning at the configs' D = 2 (build does not warn)
UNIT_D2_WARNED = {"chi": "3, 5, 7, 9", "simulate": "9"}


@pytest.mark.parametrize("argv,config", CONFIG_PARITY.values(),
                         ids=CONFIG_PARITY.keys())
def test_config_prints_the_bytes_of_its_flags(capsys, tmp_path, monkeypatch,
                                              argv, config):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "base.nl").write_text("in a\nin b\ng1 NAND a b\nout g1\n")
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code, want, err = run_cli(capsys, *argv, *_as_flags(config))
    warned = ""
    if config.get("wiring") == "unit" and argv[0] in UNIT_D2_WARNED:
        warned = ("warning: the unit EC block's cones are not trees at "
                  f"D = 2, n = {UNIT_D2_WARNED[argv[0]]}: its wires are not "
                  "independent as the formula's are\n")
    assert (code, err) == (0, warned)
    assert want
    for order in (argv + ["--config", "cfg.json"],
                  argv[:1] + ["--config", "cfg.json"] + argv[1:]):
        assert run_cli(capsys, *order) == (0, want, err)


@pytest.mark.parametrize("config,message", [
    ({"formula": "false"},
     "argument --formula: ignored explicit argument 'false'"),
    ({"samples": 2e5}, "argument --samples: invalid int value: '200000.0'"),
    ({"depth": 4.0}, "argument --depth: invalid int value: '4.0'"),
    ({"wiring": "bogus"}, "argument --wiring: invalid choice: 'bogus'"),
    ({"delta": [0.05]}, "delta: want a string, number or boolean"),
    ({"seed": {"value": 7}}, "seed: want a string, number or boolean"),
])
def test_config_value_that_its_flag_refuses_is_a_usage_error(
        capsys, tmp_path, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "9", "--eps-p", "0.01", "--config",
              str(cfg)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_config_false_and_null_leave_the_default(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"formula": False, "delta": None,
                               "unknown_key": 1}))
    argv = ["simulate", "--n", "9", "--eps-p", "0.01"]
    want = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv, "--config", str(cfg)) == want


@pytest.mark.parametrize("argv,message", [
    (["overhead", "--tail", "pareto", "--eps-l", "1e-10", "--gamma", "inf"],
     "gamma must be positive and finite, got inf"),
    (["overhead", "--tail", "pareto", "--eps-l", "1e-10", "--gamma", "nan"],
     "gamma must be positive and finite, got nan"),
    (["overhead", "--tail", "pareto", "--eps-l", "1e-10",
      "--wp-ratio", "nan"], "w_p must be positive and finite, got nan"),
    (["overhead", "--tail", "pareto", "--eps-l", "1e-10",
      "--wp-ratio", "inf"], "w_p must be positive and finite, got inf"),
])
def test_non_finite_tail_constant_is_refused(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [["threshold", "--depth", "38"],
                                  ["analyze", "--depth", "38",
                                   "--eps-p", "0.005"]])
def test_deep_stage_pseudothreshold(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["pseudothreshold"] == pytest.approx(0.067076,
                                                               abs=1e-6)


def test_unparsable_threads_variable_is_harmless(capsys, monkeypatch):
    # the CLI reads no thread-count variable; it runs single threaded
    monkeypatch.setenv("FT_THREADS", "abc")
    code, out, _ = run_cli(capsys, "threshold", "--depth", "2")
    assert code == 0
    assert "threads" not in json.loads(out)["meta"]["params"]


def test_output_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "analyze", "--depth", "2",
                           "--eps-p", "0.005", "--output", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["delta_opt"] > 0


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "simulate", "--n", "5", "--depth", "3",
                           "--eps-p", "0.005")
    assert code == 1
    assert "error" in err


def test_readme_python_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4
    assert float(printed[0]) == pytest.approx(0.0580, abs=1e-4)
    assert float(printed[1]) == pytest.approx(278.8, abs=0.1)
    assert printed[2] == "7689"
    assert 0.0 < float(printed[3]) < 1.0


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("ftcircuit ")]
    assert len(commands) >= 8
    monkeypatch.chdir(tmp_path)
    (tmp_path / "base.nl").write_text("in a\nin b\ng1 NAND a b\nout g1\n")
    for line in commands:
        argv = shlex.split(line.split("#", 1)[0])[1:]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an unknown flag
            code = exc.code
        capsys.readouterr()
        assert code == 0, line


ENGINE_DEFAULTS = {"method": "auto", "formula": False,
                   "wiring": "offset-doubling", "samples": 1_000_000,
                   "seed": 0}
TAIL_DEFAULTS = {"wp_ratio": 1.0, "gamma": 2.0, "delta": "optimal",
                 "chi": 0.47}

# each command's minimal argv and the dests and defaults it parses to,
# beside those every command shares
OPTION_CONTRACT = [
    (["analyze", "--eps-p", "0.005"], {"eps_p": 0.005}),
    (["threshold"], {}),
    (["chi"], {"eps_p": 0.005, "delta": "optimal", "n_range": "5,7,9,11,13",
               "csv": None, **ENGINE_DEFAULTS}),
    (["build", "--n", "3"],
     {"n": 3, "netlist": None, "wiring": "offset-doubling"}),
    (["simulate", "--n", "5", "--eps-p", "0.005"],
     {"n": 5, "eps_p": 0.005, "delta": 0.058, "delta_threshold": None,
      "block": "gadget", **ENGINE_DEFAULTS}),
    (["overhead", "--tail", "exponential", "--eps-l", "1e-10"],
     {"tail": "exponential", "eps_l": 1e-10, "eps_p": 0.005,
      **TAIL_DEFAULTS}),
    (["phase", "--tail", "pareto", "--axis1", "eps_p=0.005:0.006:2",
      "--axis2", "eps_l=1e-20:1e-15:2"],
     {"tail": "pareto", "axis1": "eps_p=0.005:0.006:2",
      "axis2": "eps_l=1e-20:1e-15:2", "eps_p": None, "eps_l": None,
      "contour": None, **TAIL_DEFAULTS}),
]


@pytest.mark.parametrize("argv,want", OPTION_CONTRACT,
                         ids=[argv[0] for argv, _ in OPTION_CONTRACT])
def test_option_contract(capsys, argv, want):
    # each command's dests and defaults, which the metadata block echoes
    args = vars(build_parser().parse_args(argv))
    del args["func"]
    assert args == {"command": argv[0], "depth": 2, "output": None,
                    "config": None, **want}
    # every option given in the minimal argv is required
    for i in range(1, len(argv), 2):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv[:i] + argv[i + 2:])
        assert exc.value.code == 2
        assert f"required: {argv[i]}" in capsys.readouterr().err

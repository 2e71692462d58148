import json
import shlex
from pathlib import Path

import pytest

from ftcircuit.cli import main
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


def test_simulate_deterministic_bytes(capsys):
    args = ["simulate", "--n", "5", "--depth", "2", "--eps-p", "0.005",
            "--delta", "0.058", "--method", "monte_carlo",
            "--samples", "20000", "--seed", "7"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_chi_command(capsys):
    code, out, _ = run_cli(capsys, "chi", "--depth", "2", "--eps-p", "0.005",
                           "--n-range", "5,7,9,11")
    assert code == 0
    data = json.loads(out)
    assert 0.25 <= data["chi"] <= 0.6
    assert len(data["points"]) == 4


def test_chi_formula(capsys):
    code, out, _ = run_cli(capsys, "chi", "--depth", "2", "--formula",
                           "--n-range", "5,7,9,11")
    assert json.loads(out)["chi"] == pytest.approx(1.0, abs=1e-9)


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


def test_phase_rejects_bad_axis(capsys):
    code, out, err = run_cli(
        capsys, "phase", "--tail", "pareto", "--wp-ratio", "3e2",
        "--axis1", "eps_p=0.003:0.008", "--axis2", "eps_l=1e-25:1e-15:3:log")
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

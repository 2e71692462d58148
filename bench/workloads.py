"""The benchmark's workloads: a fixed list of operations per round, a
warm-up, and a check of every output against reference.py or against a
property of the method.

Each operation names its engine (method="exact" or "monte_carlo", never
"auto"), so a change to the engine cap reroutes nothing.  Operations go
through module attributes at call time (ft.noisy.circuit_logical_error,
not a saved reference), so the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import reference as ref

DEPTH = 2
CHI = 0.47
PARETO_GAMMA = 2.0
PARETO_WP = 300.0


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    known_fault: bool = False


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * abs(b)


def run_cli(ft, argv: list[str]) -> tuple[int, str]:
    """ftcircuit.cli.main in this process, returning (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ft.cli.main(argv)
    return code, buf.getvalue()


class Workload:
    """ops: one round, in an order shuffled by the seed."""

    def __init__(self, ft, seed: int):
        self.ft = ft
        self.rng = random.Random(seed)
        self.ops: list[Op] = []

    def delta(self, depth: int, eps_p: float) -> float:
        return _program_delta(self.ft, depth, eps_p)

    def warm_up(self):
        raise NotImplementedError

    def shuffle(self):
        self.rng.shuffle(self.ops)


# ---------------------------------------------------------------------------
# shared checks; reference values are computed on first use and cached


@functools.cache
def _program_delta(ft, depth: int, eps_p: float) -> float:
    return ft.analytic.optimal_fiducial(depth, eps_p)


@functools.cache
def delta_is_optimal(depth: int, eps_p: float, delta: float) -> bool:
    """delta lies in the amplification window and locally maximizes the
    reference fiducial coefficient."""
    h = 1e-5
    c = ref.fiducial_coefficient(depth, eps_p, delta)
    return (ref.stage_error(depth, eps_p, delta) < delta
            and c >= ref.fiducial_coefficient(depth, eps_p, delta - h)
            and c >= ref.fiducial_coefficient(depth, eps_p, delta + h))


@functools.cache
def threshold_is_tight(depth: int, eps_pt: float) -> bool:
    """The window exists just below the pseudothreshold and not just
    above it (bisection there stops at a 1e-7 bracket)."""
    return (ref.min_gap(depth, eps_pt - 1e-6) < 0.0
            < ref.min_gap(depth, eps_pt + 1e-6))


@functools.cache
def code_size_is_minimal(n: int, depth: int, eps_p: float, delta: float,
                         eps_l: float) -> bool:
    """n is odd, its reference tail reaches eps_l and that of n - 2 does
    not (to a relative 1e-9 between two independent log-gamma sums)."""
    f = ref.stage_error(depth, eps_p, delta)

    def log_tail(m):
        return ref.log_binom_tail(m, f, ref.wrong_threshold(m, delta))

    target = math.log(eps_l)
    return (n % 2 == 1 and log_tail(n) <= target + 1e-9
            and (n == 1 or log_tail(n - 2) > target - 1e-9))


def cell_is_correct(kind: str, gamma: float, w_p: float, eps_p: float,
                    eps_l: float, delta: float, eta: float, eta_asym: float,
                    regime: str, n: int | None = None) -> bool:
    """One overhead evaluation.  Without n (phase grids report only eta),
    n is recovered from eta = (W_P/W(eps_l)) (D+1) n / chi and must come
    out an integer."""
    if not delta_is_optimal(DEPTH, eps_p, delta):
        return False
    unit = ref.unit_resource(kind, gamma, eps_l)
    if n is None:
        n_real = eta * CHI * unit / (w_p * (DEPTH + 1))
        n = round(n_real)
        if abs(n_real - n) > 1e-9 * n_real:
            return False
    elif not rel_close(eta, ref.eta_exact(kind, gamma, w_p, eps_l, n, DEPTH,
                                          CHI), 1e-12):
        return False
    closed = ref.eta_closed_form(kind, gamma, w_p, eps_l, eps_p, delta,
                                 DEPTH, CHI)
    return (code_size_is_minimal(n, DEPTH, eps_p, delta, eps_l)
            and rel_close(eta_asym, closed, 1e-12)
            and (regime == "FT") == (eta < 1.0))


@functools.cache
def block_distribution(n: int, depth: int, eps_p: float, delta: float,
                       block: str, stages: int = 1):
    return ref.block_count_distribution(n, depth, eps_p, delta, block, stages)


def block_tail(n: int, depth: int, eps_p: float, delta: float,
               block: str) -> float:
    return ref.majority_tail(block_distribution(n, depth, eps_p, delta, block))


def exact_estimate_is_correct(est, expected: float) -> bool:
    return (est.method == "exact" and est.ci_low == est.mean == est.ci_high
            and rel_close(est.mean, expected, 1e-6))


def mc_estimate_is_correct(mean: float, ci_low: float, ci_high: float,
                           samples: int, expected: float) -> bool:
    """Within 5 binomial standard deviations of the reference, and the
    reported interval is the Wilson interval of the failure count."""
    sigma = math.sqrt(expected * (1.0 - expected) / samples)
    lo, hi = ref.wilson(round(mean * samples), samples)
    return (abs(mean - expected) <= 5.0 * sigma
            and ci_low <= mean <= ci_high
            and abs(ci_low - lo) <= 1e-12 and abs(ci_high - hi) <= 1e-12)


# ---------------------------------------------------------------------------
# phase-sweep: the paper's question, dominated by the code-size search


class PhaseSweep(Workload):
    """One round: the README's Pareto phase example through the CLI over an
    eps_p x log eps_l grid (n reaches 35,783), a Pareto gamma x eps_l
    phase_grid at fixed eps_p, analyze at D = 2, 4, 6, threshold at
    D = 2..8, and overhead for each tail family."""

    PHASE_ARGV = ["phase", "--tail", "pareto", "--gamma", "2",
                  "--wp-ratio", "300", "--depth", "2", "--chi", "0.47",
                  "--axis1", "eps_p=0.005:0.007:3",
                  "--axis2", "eps_l=1e-20:1e-15:2:log"]
    PHASE_CELLS = tuple((eps_p, eps_l) for eps_p in (0.005, 0.006, 0.007)
                        for eps_l in (1e-20, 1e-15))
    GRID_EPS_P = 0.005
    GRID_GAMMAS = (1.5, 2.0, 3.0)
    GRID_EPS_L = (1e-20, 1e-15)
    ANALYZE_EPS_P = 0.005
    OVERHEAD = (("exponential", 1.0), ("gaussian", 1.0), ("pareto", 300.0))
    OVERHEAD_EPS_P, OVERHEAD_EPS_L = 0.005, 1e-12

    def __init__(self, ft, seed):
        super().__init__(ft, seed)
        self.ops.append(Op("cli.phase", functools.partial(
            run_cli, ft, self.PHASE_ARGV), self.check_phase))
        self.ops.append(Op("resource.phase_grid", self.gamma_grid,
                           self.check_gamma_grid))
        for depth in (2, 4, 6):
            self.ops.append(Op(f"cli.analyze.D{depth}", functools.partial(
                run_cli, ft, ["analyze", "--depth", str(depth), "--eps-p",
                              repr(self.ANALYZE_EPS_P)]),
                functools.partial(self.check_analyze, depth)))
        for depth in (2, 4, 6, 8):
            self.ops.append(Op(f"cli.threshold.D{depth}", functools.partial(
                run_cli, ft, ["threshold", "--depth", str(depth)]),
                functools.partial(self.check_threshold, depth)))
        for kind, w_p in self.OVERHEAD:
            argv = ["overhead", "--tail", kind, "--wp-ratio", repr(w_p),
                    "--eps-p", repr(self.OVERHEAD_EPS_P),
                    "--eps-l", repr(self.OVERHEAD_EPS_L), "--depth", "2",
                    "--chi", "0.47"]
            self.ops.append(Op(f"cli.overhead.{kind}", functools.partial(
                run_cli, ft, argv),
                functools.partial(self.check_overhead, kind, w_p)))
        self.shuffle()

    def warm_up(self):
        run_cli(self.ft, ["threshold", "--depth", "2"])
        run_cli(self.ft, ["analyze", "--depth", "2", "--eps-p", "0.005"])
        run_cli(self.ft, ["overhead", "--tail", "gaussian", "--eps-l", "1e-6"])
        run_cli(self.ft, ["phase", "--tail", "pareto", "--wp-ratio", "300",
                          "--axis1", "eps_p=0.005:0.005:1",
                          "--axis2", "eps_l=1e-6:1e-6:1:log"])

    def gamma_grid(self):
        ft = self.ft
        model = ft.resource.TailModel("pareto", gamma=PARETO_GAMMA,
                                      w_p=PARETO_WP)
        return ft.resource.phase_grid(
            model, "gamma", list(self.GRID_GAMMAS), "eps_l",
            list(self.GRID_EPS_L),
            {"eps_p": self.GRID_EPS_P, "depth": DEPTH, "chi": CHI,
             "delta": "optimal"})

    def check_phase(self, output) -> bool:
        code, text = output
        lines = text.splitlines()
        if (code != 0 or not lines[0].startswith("# ")
                or len(lines) != 2 + len(self.PHASE_CELLS)):
            return False
        for line, cell in zip(lines[2:], self.PHASE_CELLS):
            eps_p, eps_l, eta, eta_asym, regime = line.split(",")
            eps_p, eps_l = float(eps_p), float(eps_l)
            if not (rel_close(eps_p, cell[0], 1e-12)
                    and rel_close(eps_l, cell[1], 1e-12)):
                return False
            if not cell_is_correct("pareto", PARETO_GAMMA, PARETO_WP, eps_p,
                                   eps_l, self.delta(DEPTH, eps_p),
                                   float(eta), float(eta_asym), regime):
                return False
        return True

    def check_gamma_grid(self, grid) -> bool:
        if (grid.values1 != self.GRID_GAMMAS
                or grid.values2 != self.GRID_EPS_L):
            return False
        delta = self.delta(DEPTH, self.GRID_EPS_P)
        return all(
            cell_is_correct("pareto", gamma, PARETO_WP, self.GRID_EPS_P,
                            eps_l, delta, grid.eta_exact[i][j],
                            grid.eta_asymptotic[i][j], grid.regime[i][j])
            for i, gamma in enumerate(grid.values1)
            for j, eps_l in enumerate(grid.values2))

    def check_analyze(self, depth: int, output) -> bool:
        code, text = output
        out = json.loads(text)
        eps_p = self.ANALYZE_EPS_P
        lo, hi, opt = out["delta_lo"], out["delta_hi"], out["delta_opt"]
        return (code == 0
                and threshold_is_tight(depth, out["pseudothreshold"])
                and abs(ref.stage_error(depth, eps_p, lo) - lo) <= 1e-9
                and abs(ref.stage_error(depth, eps_p, hi) - hi) <= 1e-9
                and lo < opt < hi and delta_is_optimal(depth, eps_p, opt)
                and rel_close(out["code_size_coefficient"],
                              ref.code_size_coefficient(depth, eps_p, opt),
                              1e-10))

    def check_threshold(self, depth: int, output) -> bool:
        code, text = output
        return code == 0 and threshold_is_tight(
            depth, json.loads(text)["pseudothreshold"])

    def check_overhead(self, kind: str, w_p: float, output) -> bool:
        code, text = output
        out = json.loads(text)
        preference = {"exponential": "marginal", "gaussian": "non-FT",
                      "pareto": "FT"}[kind]
        return (code == 0 and out["asymptotic_preference"] == preference
                and out["eta_number"] == (DEPTH + 1) * out["n"] / CHI
                and cell_is_correct(kind, PARETO_GAMMA, w_p,
                                    self.OVERHEAD_EPS_P, self.OVERHEAD_EPS_L,
                                    out["delta"],
                                    out["eta_exact"], out["eta_asymptotic"],
                                    out["regime"], n=out["n"]))


# ---------------------------------------------------------------------------
# exact-engine: the joint-state engine behind chi and every cross-check


class ExactEngine(Workload):
    """One round: circuit_logical_error(method="exact") on gadget and EC
    blocks at n = 11, 13, 15 for five (D, eps_p) points; exact_stage_error
    with 3 stages at n = 13, 15; estimate_chi(method="exact") over
    n = 5..15 at D = 2 and 4, and its formula variant; three deep-tail
    gadget points that the subtract-and-clip noise step gets wrong."""

    POINTS = ((2, 0.002), (2, 0.005), (2, 0.01), (4, 0.005), (4, 0.02))
    SIZES = (11, 13, 15)
    CHI_N = (5, 7, 9, 11, 13, 15)
    CHI_EPS_P = 0.005
    DEEP_TAILS = ((13, 1e-4, 1e-3), (15, 1e-4, 1e-3), (15, 5e-5, 5e-4))

    def __init__(self, ft, seed):
        super().__init__(ft, seed)
        for depth, eps_p in self.POINTS:
            delta = self.delta(depth, eps_p)
            for n in self.SIZES:
                for block in ("gadget", "ec"):
                    params = ft.FtParams(n, depth, eps_p, delta)
                    self.ops.append(Op(
                        f"exact.{block}.n{n}.D{depth}.eps{eps_p}",
                        functools.partial(self.tail, params, block),
                        functools.partial(self.check_tail, params, block)))
        for n in (13, 15):
            params = ft.FtParams(n, DEPTH, self.CHI_EPS_P,
                                 self.delta(DEPTH, self.CHI_EPS_P))
            self.ops.append(Op(f"exact.stages3.n{n}", functools.partial(
                self.three_stages, params),
                functools.partial(self.check_three_stages, params)))
        for depth in (2, 4):
            self.ops.append(Op(f"chi.exact.D{depth}", functools.partial(
                self.chi, depth, "circuit"),
                functools.partial(self.check_chi, depth)))
        self.ops.append(Op("chi.formula", functools.partial(
            self.chi, DEPTH, "formula"), self.check_formula_chi))
        for n, eps_p, delta in self.DEEP_TAILS:
            params = ft.FtParams(n, DEPTH, eps_p, delta)
            self.ops.append(Op(
                f"exact.deep_tail.n{n}.eps{eps_p}",
                functools.partial(self.tail, params, "gadget"),
                functools.partial(self.check_tail, params, "gadget"),
                known_fault=True))
        self.shuffle()

    def warm_up(self):
        params = self.ft.FtParams(5, DEPTH, 0.005, self.delta(DEPTH, 0.005))
        self.tail(params, "gadget")
        self.three_stages(params)
        for variant in ("circuit", "formula"):
            self.ft.chi.estimate_chi(DEPTH, 0.005, n_range=(5, 7, 9, 11),
                                     method="exact", variant=variant)

    def tail(self, params, block):
        return self.ft.noisy.circuit_logical_error(params, method="exact",
                                                   block=block)

    def three_stages(self, params):
        return self.ft.noisy.exact_stage_error(params, "gadget", stages=3)

    def chi(self, depth, variant):
        return self.ft.chi.estimate_chi(depth, self.CHI_EPS_P, "optimal",
                                        self.CHI_N, method="exact",
                                        variant=variant)

    def check_tail(self, params, block, est) -> bool:
        return exact_estimate_is_correct(est, block_tail(
            params.n, params.depth, params.eps_p, params.delta, block))

    def check_three_stages(self, params, dist) -> bool:
        n, threshold = params.n, ref.wrong_threshold(params.n, params.delta)
        expected = block_distribution(n, params.depth, params.eps_p,
                                      params.delta, "gadget", 3)
        return (dist.shape == (n + 1,) and bool((dist >= 0.0).all())
                and abs(float(dist.sum()) - 1.0) <= 1e-12
                and rel_close(float(dist[n // 2 + 1:].sum()),
                              ref.majority_tail(expected), 1e-6)
                and rel_close(float(dist[threshold:].sum()),
                              float(expected[threshold:].sum()), 1e-6))

    def check_chi(self, depth, est) -> bool:
        delta = self.delta(depth, self.CHI_EPS_P)
        if not delta_is_optimal(depth, self.CHI_EPS_P, delta):
            return False
        ns = list(self.CHI_N)
        tails = [block_tail(n, depth, self.CHI_EPS_P, delta, "ec")
                 for n in ns]
        tree = ref.ec_tree_error(depth, self.CHI_EPS_P, delta)
        formula = [math.exp(ref.log_binom_tail(n, tree, n // 2 + 1))
                   for n in ns]
        circuit_slope = ref.ols_slope(ns, [math.log10(t) for t in tails])
        formula_slope = ref.ols_slope(ns, [math.log10(t) for t in formula])
        points = est.circuit_fit.points
        return (0.0 < est.chi <= 1.0
                and [p[0] for p in points] == ns
                and all(rel_close(p[1], t, 1e-6) for p, t in zip(points, tails))
                and rel_close(est.circuit_fit.slope, circuit_slope, 1e-6)
                and rel_close(est.formula_fit.slope, formula_slope, 1e-6)
                and rel_close(est.chi, est.circuit_fit.slope
                              / est.formula_fit.slope, 1e-12))

    def check_formula_chi(self, est) -> bool:
        return abs(est.chi - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# monte-carlo: the only engine above n = 15


AND_NETLIST = """\
in a
in b
g AND a b
out g
"""
AND_TABLE = (0, 0, 0, 1)


class MonteCarlo(Workload):
    """One round: circuit_logical_error(method="monte_carlo") on the gadget
    at D = 2, eps_p = 0.01 for n in {9, 13, 15, 17, 21} and at D = 4,
    eps_p = 0.02 for n in {13, 21}, 10^6 samples each; one
    `simulate --method monte_carlo` through the CLI; and 10^4 samples of
    a one-gate AND netlist, which the sampler evaluates as NAND."""

    POINTS = tuple((2, 0.01, n) for n in (9, 13, 15, 17, 21)) + tuple(
        (4, 0.02, n) for n in (13, 21))
    SAMPLES = 1_000_000
    CLI_N, CLI_EPS_P, CLI_DELTA, CLI_SAMPLES = 17, 0.01, 0.07, 200_000
    AND_EPS_P, AND_SAMPLES = 0.01, 10_000

    def __init__(self, ft, seed):
        super().__init__(ft, seed)
        for depth, eps_p, n in self.POINTS:
            params = ft.FtParams(n, depth, eps_p, self.delta(depth, eps_p))
            op_seed = self.rng.randrange(1 << 32)
            self.ops.append(Op(
                f"mc.gadget.n{n}.D{depth}", functools.partial(
                    self.gadget, params, op_seed),
                functools.partial(self.check_gadget, params, op_seed)))
        cli_seed = self.rng.randrange(1 << 32)
        argv = ["simulate", "--n", str(self.CLI_N), "--depth", "2",
                "--eps-p", repr(self.CLI_EPS_P), "--delta",
                repr(self.CLI_DELTA), "--method", "monte_carlo",
                "--samples", str(self.CLI_SAMPLES), "--seed", str(cli_seed)]
        self._first_stdout: str | None = None
        self.ops.append(Op("cli.simulate.monte_carlo", functools.partial(
            run_cli, ft, argv), self.check_cli))
        and_seed = self.rng.randrange(1 << 32)
        self.ops.append(Op("mc.and_netlist", functools.partial(
            self.and_netlist, and_seed), self.check_and, known_fault=True))
        self.shuffle()

    def warm_up(self):
        params = self.ft.FtParams(3, DEPTH, 0.01, self.delta(DEPTH, 0.01))
        self.gadget(params, 0)
        run_cli(self.ft, ["simulate", "--n", "3", "--eps-p", "0.01",
                          "--method", "monte_carlo", "--samples", "10000"])
        with contextlib.suppress(self.ft.CircuitError):
            self.and_netlist(0)

    def gadget(self, params, seed):
        return self.ft.noisy.circuit_logical_error(
            params, method="monte_carlo", block="gadget",
            samples=self.SAMPLES, seed=seed)

    def and_netlist(self, seed):
        ft = self.ft
        labels = {"NAND": ft.NAND,
                  "AND": ft.GateLabel("AND", 2, AND_TABLE)}
        circuit = ft.parse_circuit(AND_NETLIST, labels)
        net = ft.noisy.induce_network(circuit, self.AND_EPS_P, 0.0,
                                      {"a": 1, "b": 1})
        return ft.noisy.monte_carlo_logical_error(net, None, self.AND_SAMPLES,
                                                  seed)

    def check_gadget(self, params, seed, est) -> bool:
        expected = block_tail(params.n, params.depth, params.eps_p,
                              params.delta, "gadget")
        return (est.method == "monte_carlo" and est.samples == self.SAMPLES
                and est.seed == seed
                and mc_estimate_is_correct(est.mean, est.ci_low, est.ci_high,
                                           self.SAMPLES, expected))

    def check_cli(self, output) -> bool:
        code, text = output
        if self._first_stdout is None:
            self._first_stdout = text
        out = json.loads(text)
        expected = block_tail(self.CLI_N, DEPTH, self.CLI_EPS_P,
                              self.CLI_DELTA, "gadget")
        return (code == 0 and text == self._first_stdout
                and out["samples"] == self.CLI_SAMPLES
                and mc_estimate_is_correct(out["estimate"], out["ci_low"],
                                           out["ci_high"], self.CLI_SAMPLES,
                                           expected))

    def check_and(self, output) -> bool:
        # the sampler rejecting the label is as correct as evaluating it;
        # a netlist the parser rejects is not
        if isinstance(output, self.ft.CircuitError):
            return not isinstance(output, self.ft.NetlistError)
        expected = ref.netlist_error(
            ("a", "b"), (("g", "AND", ("a", "b")),), ("g",),
            {"AND": AND_TABLE}, {"a": 1, "b": 1}, 0.0, self.AND_EPS_P, 1)
        return mc_estimate_is_correct(output.mean, output.ci_low,
                                      output.ci_high, self.AND_SAMPLES,
                                      expected)


WORKLOADS = {"phase-sweep": PhaseSweep, "exact-engine": ExactEngine,
             "monte-carlo": MonteCarlo}

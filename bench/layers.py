"""The layer map: which ftcircuit names the traced run wraps, and how each
per-layer metric is derived from the spans and counters.

Every metric is per traced round, so counts repeat exactly from run to
run whatever the number of rounds.  The layers are the package modules.
"""
from __future__ import annotations

from spans import Tracer

SOLVERS = ("pseudothreshold", "fixed_points", "optimal_fiducial")
ENGINE_STEPS = ("apply_noise", "apply_wiring_layer", "combine_iid_nand",
                "rotate", "wrong_count_distribution")


def _tail_terms(counts, bound):
    # log_binom_tail sums the n - k + 1 terms k..n unless it returns early
    a = bound.arguments
    n, p, k = a["n"], a["p"], a["k"]
    if 0 < k <= n and 0.0 < p < 1.0:
        counts["log_binom_tail.terms"] += n - k + 1


def _solver_evals(counts, bound):
    f = bound.arguments["f"]

    def counted(x):
        counts["solver_evals"] += 1
        return f(x)

    bound.arguments["f"] = counted


def _step_entries(counts, bound):
    counts["state_entries"] += 1 << bound.arguments["self"].n


def _iid_entries(counts, bound):
    counts["state_entries"] += 1 << bound.arguments["n"]


def _gate_samples(counts, bound):
    a = bound.arguments
    counts["gate_samples"] += len(a["net"].circuit.gates) * a["samples"]


def install(ft) -> Tracer:
    """Wrap every traced name; the caller looks each up at call time."""
    analytic, chi, cli, circuit, noisy, numerics, resource, transform = (
        getattr(ft, name, None) for name in (
            "analytic", "chi", "cli", "circuit", "noisy", "numerics",
            "resource", "transform"))
    bundle_state = getattr(noisy, "BundleState", None)
    circuit_class = getattr(circuit, "Circuit", None)
    t = Tracer()
    t.patch(cli, "main", "cli.main")
    t.patch(resource, "phase_grid", "resource.phase_grid")
    t.patch(resource, "overhead_ratio", "resource.overhead_ratio")
    t.patch(analytic, "required_code_size", "analytic.required_code_size")
    for name in SOLVERS:
        t.patch(analytic, name, f"analytic.{name}")
    # analytic imported the tail and the solvers by name; binom_tail and
    # golden_max look theirs up in numerics
    for owner in (analytic, numerics):
        t.patch(owner, "log_binom_tail", "numerics.log_binom_tail",
                _tail_terms)
        t.patch(owner, "golden_min", "numerics.golden_min", _solver_evals,
                span=False)
    t.patch(analytic, "bisect", "numerics.bisect", _solver_evals, span=False)

    t.patch(noisy, "exact_stage_error", "noisy.exact_stage_error")
    t.patch(bundle_state, "__init__", "noisy.BundleState.__init__")
    t.patch(bundle_state, "iid", "noisy.BundleState.iid", _iid_entries)
    for name in ENGINE_STEPS:
        t.patch(bundle_state, name, f"noisy.BundleState.{name}",
                _step_entries)
    for owner in (noisy, chi):
        t.patch(owner, "circuit_logical_error", "noisy.circuit_logical_error")
        t.patch(owner, "formula_wrong_count_distribution",
                "noisy.formula_wrong_count_distribution")
    t.patch(noisy, "monte_carlo_logical_error",
            "noisy.monte_carlo_logical_error", _gate_samples)
    t.patch(noisy, "gadget_network", "noisy.gadget_network")
    t.patch(noisy, "induce_network", "noisy.induce_network")
    t.patch(transform, "build_ft_gadget", "transform.build_ft_gadget")
    t.patch(transform, "build_majority_ec_circuit",
            "transform.build_majority_ec_circuit")
    t.patch(circuit_class, "check_valid", "circuit.Circuit.check_valid")
    t.patch(circuit_class, "evaluate_all", "circuit.Circuit.evaluate_all")
    t.patch(chi, "estimate_chi", "chi.estimate_chi")
    t.patch(chi, "fit_effective_slope", "chi.fit_effective_slope")
    return t


COUNT, SECONDS, RATE = "count/round", "s/round", "1/s"
EXACT = "noisy.exact_stage_error"
MC = "noisy.monte_carlo_logical_error"
STATE_SETUP = ("noisy.BundleState.__init__", "noisy.BundleState.iid")


def metrics(t: Tracer, rounds: int, overhead_s: float) -> dict:
    """name -> (value per round, unit) for every per-layer metric."""
    exact_s = t.covered_time(EXACT)
    mc_s = t.covered_time(MC)
    solvers = tuple(f"analytic.{s}" for s in SOLVERS)
    formula = "noisy.formula_wrong_count_distribution"
    totals = {
        "cli.calls": (t.calls("cli.main"), COUNT),
        "cli.self_s": (t.self_time("cli.main"), SECONDS),
        "resource.phase_grid.calls": (t.calls("resource.phase_grid"), COUNT),
        "resource.phase_grid.self_s": (t.self_time("resource.phase_grid"),
                                       SECONDS),
        "resource.overhead_ratio.calls": (t.calls("resource.overhead_ratio"),
                                          COUNT),
        "resource.overhead_ratio.self_s": (
            t.self_time("resource.overhead_ratio"), SECONDS),
        "analytic.required_code_size.calls": (
            t.calls("analytic.required_code_size"), COUNT),
        "analytic.required_code_size.self_s": (
            t.self_time("analytic.required_code_size"), SECONDS),
        "analytic.solvers.calls": (t.calls(*solvers), COUNT),
        "analytic.solvers.s": (t.covered_time(*solvers), SECONDS),
        "numerics.log_binom_tail.calls": (t.calls("numerics.log_binom_tail"),
                                          COUNT),
        "numerics.log_binom_tail.s": (
            t.covered_time("numerics.log_binom_tail"), SECONDS),
        "numerics.log_binom_tail.terms": (t.counts["log_binom_tail.terms"],
                                          COUNT),
        "numerics.solver_evals": (t.counts["solver_evals"], COUNT),
        "noisy.exact.calls": (t.calls(EXACT), COUNT),
        "noisy.exact.s": (exact_s, SECONDS),
        "noisy.exact.noise.s": (
            t.covered_time("noisy.BundleState.apply_noise"), SECONDS),
        "noisy.exact.wiring.s": (t.covered_time(
            "noisy.BundleState.apply_wiring_layer",
            "noisy.BundleState.rotate"), SECONDS),
        "noisy.exact.combine.s": (
            t.covered_time("noisy.BundleState.combine_iid_nand"), SECONDS),
        "noisy.exact.init.s": (t.covered_time(*STATE_SETUP), SECONDS),
        "noisy.exact.state_entries": (t.counts["state_entries"], COUNT),
        "noisy.mc.calls": (t.calls(MC), COUNT),
        "noisy.mc.s": (mc_s, SECONDS),
        "noisy.mc.gate_samples": (t.counts["gate_samples"], COUNT),
        "noisy.network.s": (t.covered_time("noisy.gadget_network",
                                           "noisy.induce_network"), SECONDS),
        "transform.build.s": (t.covered_time(
            "transform.build_ft_gadget",
            "transform.build_majority_ec_circuit"), SECONDS),
        "circuit.check_eval.s": (t.covered_time(
            "circuit.Circuit.check_valid", "circuit.Circuit.evaluate_all"),
            SECONDS),
        "chi.estimate.calls": (t.calls("chi.estimate_chi"), COUNT),
        "chi.estimate.self_s": (t.self_time("chi.estimate_chi"), SECONDS),
        "chi.formula_ref.s": (t.covered_time(formula), SECONDS),
        "chi.fit.s": (t.covered_time("chi.fit_effective_slope"), SECONDS),
    }
    out = {name: (value / rounds, unit)
           for name, (value, unit) in totals.items()}
    out["noisy.exact.entries_per_s"] = (
        t.counts["state_entries"] / exact_s if exact_s else 0.0, RATE)
    out["noisy.mc.gate_samples_per_s"] = (
        t.counts["gate_samples"] / mc_s if mc_s else 0.0, RATE)
    out["trace.overhead_s"] = (overhead_s, SECONDS)
    return out

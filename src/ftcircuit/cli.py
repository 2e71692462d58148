"""Command-line front end: every analysis as a reproducible, scriptable
run emitting JSON (scalars, summaries) or CSV (sweeps).

Each output embeds a metadata header echoing the full configuration,
the package version, and the seed, sufficient to re-run the job.  With
a fixed seed, outputs are byte-identical across runs.
"""
from __future__ import annotations

import argparse
import io
import json
import sys

from . import __version__, analytic, chi as chi_mod, noisy, resource, transform
from .circuit import parse_circuit


def _metadata(args: argparse.Namespace, command: str) -> dict:
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "config", "output") and v is not None}
    return {"command": command, "version": __version__, "params": params}


def _write(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_command(handler):
    """A command printing handler(args) as JSON under a metadata block."""
    def run(args: argparse.Namespace):
        payload = {"meta": _metadata(args, args.command), **handler(args)}
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n",
               args.output)
    return run


def _dump_csv(meta: dict, header: list[str], rows, output: str | None):
    buf = io.StringIO()
    buf.write("# " + json.dumps(meta, sort_keys=True) + "\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    _write(buf.getvalue(), output)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_n_range(spec: str) -> tuple[int, ...]:
    return tuple(int(s) for s in spec.split(",") if s.strip())


def _tail_model(args: argparse.Namespace) -> resource.TailModel:
    return resource.TailModel(args.tail, gamma=args.gamma, w_p=args.wp_ratio)


def cmd_analyze(args) -> dict:
    threshold = analytic.pseudothreshold(args.depth)
    window = analytic.fixed_points(args.depth, args.eps_p)
    delta_opt = analytic._fiducial_in(args.depth, args.eps_p, window)
    return {
        "pseudothreshold": threshold,
        "delta_lo": window.delta_lo,
        "delta_hi": window.delta_hi,
        "delta_opt": delta_opt,
        "code_size_coefficient": analytic.code_size_coefficient(
            args.depth, args.eps_p, delta_opt),
    }


def cmd_threshold(args) -> dict:
    return {"pseudothreshold": analytic.pseudothreshold(args.depth)}


def cmd_chi(args) -> dict:
    variant = "formula" if args.formula else "circuit"
    est = chi_mod.estimate_chi(
        args.depth, args.eps_p, args.delta, _parse_n_range(args.n_range),
        method=args.method, variant=variant, wiring=args.wiring,
        samples=args.samples, seed=args.seed)
    rows = [(n, eps_l, lo, hi, args.method)
            for n, eps_l, lo, hi in est.circuit_fit.points]
    if args.csv:
        _dump_csv(_metadata(args, "chi"),
                  ["n", "eps_l", "ci_low", "ci_high", "method"],
                  rows, args.csv)
    return {
        "chi": est.chi,
        "chi_ci": [est.ci_low, est.ci_high],
        "circuit_slope": est.circuit_slope,
        "formula_slope": est.formula_slope,
        "r_squared": est.circuit_fit.r_squared,
        "points": [list(r) for r in rows],
    }


def cmd_build(args):
    params = transform.FtParams(args.n, args.depth)
    if args.netlist:
        with open(args.netlist) as fh:
            base = parse_circuit(fh.read())
        built = transform.apply_ft_construction(base, params, args.wiring)
    else:
        built = transform.build_ft_gadget(transform.NAND, params, args.wiring)
    _write(built.serialize(), args.output)


def cmd_simulate(args) -> dict:
    params = transform.FtParams(args.n, args.depth, args.eps_p, args.delta)
    est = noisy.circuit_logical_error(
        params, method=args.method, delta_threshold=args.delta_threshold,
        variant="formula" if args.formula else "circuit", block=args.block,
        wiring=args.wiring, samples=args.samples, seed=args.seed)
    return est.to_record(params)


def cmd_overhead(args) -> dict:
    model = _tail_model(args)
    delta = analytic.resolve_delta(args.depth, args.eps_p, args.delta)
    report = resource.overhead_ratio(model, args.eps_l, args.eps_p, delta,
                                     args.depth, args.chi)
    return {
        "eta_exact": report.eta,
        "eta_asymptotic": report.eta_asymptotic,
        "eta_number": report.eta_number,
        "n": report.n,
        "regime": report.regime,
        "delta": delta,
        "asymptotic_preference": resource.classify_asymptotic(model),
    }


def _parse_axis(spec: str) -> tuple[str, list[float]]:
    """axis spec: name=lo:hi:steps[:log]."""
    name, _, rng = spec.partition("=")
    parts = rng.split(":")
    if name not in resource.GRID_AXES or len(parts) not in (3, 4):
        raise ValueError(f"bad axis spec: {spec!r} "
                         "(want name=lo:hi:steps[:log])")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if len(parts) == 4 and parts[3] == "log":
        import numpy as np
        values = list(np.geomspace(lo, hi, steps))
    else:
        values = [lo + (hi - lo) * i / max(steps - 1, 1) for i in range(steps)]
    return name, values


def cmd_phase(args):
    model = _tail_model(args)
    axis1, values1 = _parse_axis(args.axis1)
    axis2, values2 = _parse_axis(args.axis2)
    fixed = {"depth": args.depth, "chi": args.chi, "delta": args.delta,
             "eps_p": args.eps_p, "eps_l": args.eps_l, "w_p": args.wp_ratio}
    fixed = {k: v for k, v in fixed.items() if v is not None}
    grid = resource.phase_grid(model, axis1, values1, axis2, values2, fixed)
    rows = []
    for i, v1 in enumerate(grid.values1):
        for j, v2 in enumerate(grid.values2):
            rows.append((v1, v2, grid.eta_exact[i][j],
                         grid.eta_asymptotic[i][j], grid.regime[i][j]))
    _dump_csv(_metadata(args, "phase"),
              ["axis1", "axis2", "eta_exact", "eta_asymptotic", "regime"],
              rows, args.output)
    if args.contour:
        _dump_csv(_metadata(args, "phase-contour"), ["axis1", "axis2"],
                  grid.contour, args.contour)


class _ConfigAction(argparse.Action):
    """Make the JSON object in the named file the defaults of the keys
    this command knows; main then parses again, so explicit flags win."""

    def __call__(self, parser, namespace, path, option_string=None):
        with open(path) as fh:
            config = json.load(fh)
        parser.set_defaults(**{k: v for k, v in config.items()
                               if k != "func" and hasattr(namespace, k)})
        setattr(namespace, self.dest, path)


def _add_common(p: argparse.ArgumentParser, func):
    p.add_argument("--output", help="write results here instead of stdout")
    p.add_argument("--config", action=_ConfigAction,
                   help="JSON file presetting optional flags")
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftcircuit",
        description="fault-tolerant NAND-circuit analysis toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="fixed points, pseudothreshold, "
                       "optimal fiducial, code-size coefficient")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--eps-p", type=float, required=True)
    _add_common(p, _json_command(cmd_analyze))

    p = sub.add_parser("threshold", help="pseudothreshold for a depth")
    p.add_argument("--depth", type=int, default=2)
    _add_common(p, _json_command(cmd_threshold))

    p = sub.add_parser("chi", help="estimate the independency chi")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--eps-p", type=float, default=0.005)
    p.add_argument("--delta", default="optimal")
    p.add_argument("--n-range", default=",".join(
        str(n) for n in chi_mod.DEFAULT_N_RANGE))
    p.add_argument("--method", default="auto",
                   choices=["auto", "exact", "monte_carlo"])
    p.add_argument("--formula", action="store_true",
                   help="measure the fan-out-1 tree variant (chi = 1)")
    p.add_argument("--wiring", default=transform.WIRING_OFFSET_DOUBLING)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="also write the per-n points as CSV here")
    _add_common(p, _json_command(cmd_chi))

    p = sub.add_parser("build", help="emit a fault-tolerant netlist")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--netlist", help="transform this base netlist instead "
                   "of emitting a single gadget")
    p.add_argument("--wiring", default=transform.WIRING_OFFSET_DOUBLING)
    _add_common(p, cmd_build)

    p = sub.add_parser("simulate", help="logical error of one gadget stage")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--eps-p", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.058)
    p.add_argument("--delta-threshold", type=float,
                   help="failure threshold fraction; default majority")
    p.add_argument("--method", default="auto",
                   choices=["auto", "exact", "monte_carlo"])
    p.add_argument("--formula", action="store_true")
    p.add_argument("--block", default="gadget", choices=["gadget", "ec"])
    p.add_argument("--wiring", default=transform.WIRING_OFFSET_DOUBLING)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, _json_command(cmd_simulate))

    p = sub.add_parser("overhead", help="resource overhead eta at a point")
    p.add_argument("--tail", required=True,
                   choices=[resource.EXPONENTIAL, resource.GAUSSIAN,
                            resource.PARETO])
    p.add_argument("--wp-ratio", type=float, default=1.0,
                   help="W_P in units of the tail's scale constant")
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--eps-l", type=float, required=True)
    p.add_argument("--eps-p", type=float, default=0.005)
    p.add_argument("--delta", default="optimal")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--chi", type=float, default=0.47)
    _add_common(p, _json_command(cmd_overhead))

    p = sub.add_parser("phase", help="eta over a 2-parameter grid (CSV)")
    p.add_argument("--tail", required=True,
                   choices=[resource.EXPONENTIAL, resource.GAUSSIAN,
                            resource.PARETO])
    p.add_argument("--wp-ratio", type=float)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--axis1", required=True, help="name=lo:hi:steps[:log]")
    p.add_argument("--axis2", required=True, help="name=lo:hi:steps[:log]")
    p.add_argument("--eps-p", type=float)
    p.add_argument("--eps-l", type=float)
    p.add_argument("--delta", default="optimal")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--chi", type=float, default=0.47)
    p.add_argument("--contour", help="write eta=1 contour points here")
    _add_common(p, cmd_phase)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the first pass made the file's values the command's defaults
            args = parser.parse_args(argv)
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

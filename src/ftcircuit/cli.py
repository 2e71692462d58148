"""Command-line front end: every analysis as a reproducible, scriptable
run emitting JSON (scalars, summaries) or CSV (sweeps).

Each output embeds a metadata header echoing the full configuration,
the package version, and the seed, sufficient to re-run the job.  With
a fixed seed, outputs are byte-identical across runs.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__, analytic, chi as chi_mod, noisy, resource, transform
from .circuit import parse_circuit


def _metadata(args: argparse.Namespace, command: str) -> dict:
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "command", "config", "output")
              and v is not None}
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
    lines = ["# " + json.dumps(meta, sort_keys=True), ",".join(header)]
    lines += [",".join(map(str, row)) for row in rows]
    _write("\n".join(lines) + "\n", output)


def _parse_n_range(spec: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in spec.split(",") if s.strip())
    except ValueError:
        raise ValueError(f"bad n range: {spec!r} "
                         "(want comma-separated odd code sizes)") from None


def _tail_model(args: argparse.Namespace) -> resource.TailModel:
    return resource.TailModel(args.tail, gamma=args.gamma, w_p=args.wp_ratio)


def cmd_analyze(args) -> dict:
    threshold = analytic.pseudothreshold(args.depth)
    window = analytic.fixed_points(args.depth, args.eps_p)
    point = window.point()
    return {
        "pseudothreshold": threshold,
        "delta_lo": window.delta_lo,
        "delta_hi": window.delta_hi,
        "delta_opt": point.delta,
        "code_size_coefficient": point.coefficient,
    }


def cmd_threshold(args) -> dict:
    return {"pseudothreshold": analytic.pseudothreshold(args.depth)}


def _warn_non_tree(wiring: str, depth: int, ns: list[int]):
    """One stderr line naming the n of ns whose EC-block cones are not
    trees: the formula's law holds for a circuit only where they are."""
    non_tree = [str(n) for n in ns
                if not transform.cone_is_tree(n, depth, wiring)]
    if non_tree:
        print(f"warning: the {wiring} EC block's cones are not trees "
              f"at D = {depth}, n = {', '.join(non_tree)}: its wires are "
              "not independent as the formula's are", file=sys.stderr)


def cmd_chi(args) -> dict:
    variant = "formula" if args.formula else "circuit"
    est = chi_mod.estimate_chi(
        args.depth, args.eps_p, args.delta, _parse_n_range(args.n_range),
        method=args.method, variant=variant, wiring=args.wiring,
        samples=args.samples, seed=args.seed)
    rows = [(*point, method)
            for point, method in zip(est.circuit_fit.points, est.methods)]
    if variant == "circuit":
        _warn_non_tree(args.wiring, args.depth, [n for n, *_ in rows])
    if args.csv:
        _dump_csv(_metadata(args, "chi"),
                  ["n", "eps_l", "ci_low", "ci_high", "method"],
                  rows, args.csv)
    return {
        "chi": est.chi,
        "chi_ci": [est.ci_low, est.ci_high],
        "circuit_slope": est.circuit_fit.slope,
        "formula_slope": est.formula_fit.slope,
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
        built = transform.build_ft_gadget(params, args.wiring)
    _write(built.serialize(), args.output)


def cmd_simulate(args) -> dict:
    params = transform.FtParams(args.n, args.depth, args.eps_p, args.delta)
    est = noisy.circuit_logical_error(
        params, method=args.method, delta_threshold=args.delta_threshold,
        variant="formula" if args.formula else "circuit", block=args.block,
        wiring=args.wiring, samples=args.samples, seed=args.seed)
    if not args.formula:
        _warn_non_tree(args.wiring, params.depth, [params.n])
    return {"n": params.n, "D": params.depth, "eps_p": params.eps_p,
            "delta": params.delta, "method": est.method,
            "estimate": est.mean, "ci_low": est.ci_low,
            "ci_high": est.ci_high, "samples": est.samples, "seed": est.seed}


def cmd_overhead(args) -> dict:
    model = _tail_model(args)
    point = analytic.fixed_points(args.depth, args.eps_p).point(args.delta)
    report = resource.overhead_ratio(model, args.eps_l, point, args.chi)
    return {
        "eta_exact": report.eta,
        "eta_asymptotic": report.eta_asymptotic,
        "eta_number": report.eta_number,
        "n": report.n,
        "regime": report.regime,
        "delta": point.delta,
        "asymptotic_preference": resource.classify_asymptotic(model),
    }


def _parse_axis(spec: str) -> tuple[str, list[float]]:
    """axis spec: name=lo:hi:steps[:log], with finite lo and hi, both
    positive on a log axis, and steps >= 1."""
    name, _, rng = spec.partition("=")
    parts = rng.split(":")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except (IndexError, ValueError):
        steps = 0
    log = parts[3:] == ["log"]
    floor = 0.0 if log else -np.inf
    if (len(parts) not in (3, 4) or parts[3:] not in ([], ["log"])
            or steps < 1 or not (floor < lo < np.inf and floor < hi < np.inf)):
        raise ValueError(f"bad axis spec: {spec!r} (want "
                         "name=lo:hi:steps[:log], steps >= 1, finite bounds, "
                         "positive on a log axis)")
    if log:
        return name, list(np.geomspace(lo, hi, steps))
    return name, [lo + (hi - lo) * i / max(steps - 1, 1) for i in range(steps)]


def cmd_phase(args):
    model = _tail_model(args)
    axis1, values1 = _parse_axis(args.axis1)
    axis2, values2 = _parse_axis(args.axis2)
    fixed = {"depth": args.depth, "chi": args.chi, "delta": args.delta,
             "eps_p": args.eps_p, "eps_l": args.eps_l}
    fixed = {k: v for k, v in fixed.items() if v is not None}
    grid = resource.phase_grid(model, axis1, values1, axis2, values2, fixed)
    # a w_p or gamma axis replaces the model's value; the metadata omits it
    for axis, dest in (("w_p", "wp_ratio"), ("gamma", "gamma")):
        if axis in (axis1, axis2):
            setattr(args, dest, None)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every main call
    in the process; parsing leaves no state in it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--depth", type=int, default=2)
    common.add_argument("--output",
                        help="write results here instead of stdout")
    common.add_argument("--config", help="JSON file presetting optional flags")
    wiring = argparse.ArgumentParser(add_help=False)
    wiring.add_argument("--wiring", default=transform.WIRING_OFFSET_DOUBLING,
                        choices=transform.WIRINGS)
    engine = argparse.ArgumentParser(add_help=False, parents=[wiring])
    engine.add_argument("--method", default="auto", choices=noisy.METHODS)
    engine.add_argument("--formula", action="store_true",
                        help="use the fan-out-1 tree variant (chi = 1)")
    engine.add_argument("--samples", type=int, default=1_000_000)
    engine.add_argument("--seed", type=int, default=0)
    tail = argparse.ArgumentParser(add_help=False)
    tail.add_argument("--tail", required=True, choices=resource.TAILS)
    tail.add_argument("--wp-ratio", type=float, default=1.0,
                      help="W_P in units of the tail's scale constant")
    tail.add_argument("--gamma", type=float, default=2.0)
    tail.add_argument("--delta", default="optimal")
    tail.add_argument("--chi", type=float, default=0.47)

    parser = argparse.ArgumentParser(
        prog="ftcircuit",
        description="fault-tolerant NAND-circuit analysis toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, *groups, help):
        p = sub.add_parser(name, parents=[common, *groups], help=help)
        p.set_defaults(func=func)
        return p

    p = command("analyze", _json_command(cmd_analyze),
                help="fixed points, pseudothreshold, optimal fiducial, "
                "code-size coefficient")
    p.add_argument("--eps-p", type=float, required=True)

    command("threshold", _json_command(cmd_threshold),
            help="pseudothreshold for a depth")

    p = command("chi", _json_command(cmd_chi), engine,
                help="estimate the independency chi")
    p.add_argument("--eps-p", type=float, default=0.005)
    p.add_argument("--delta", default="optimal")
    p.add_argument("--n-range", default=",".join(
        str(n) for n in chi_mod.DEFAULT_N_RANGE))
    p.add_argument("--csv", help="also write the per-n points as CSV here")

    p = command("build", cmd_build, wiring,
                help="emit a fault-tolerant netlist")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--netlist", help="transform this base netlist instead "
                   "of emitting a single gadget")

    p = command("simulate", _json_command(cmd_simulate), engine,
                help="logical error of one gadget stage")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps-p", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.058)
    p.add_argument("--delta-threshold", type=float,
                   help="failure threshold fraction in (0, 1]; "
                   "default majority")
    p.add_argument("--block", default="gadget", choices=noisy.BLOCKS)

    p = command("overhead", _json_command(cmd_overhead), tail,
                help="resource overhead eta at a point")
    p.add_argument("--eps-l", type=float, required=True)
    p.add_argument("--eps-p", type=float, default=0.005)

    p = command("phase", cmd_phase, tail,
                help="eta over a 2-parameter grid (CSV)")
    p.add_argument("--axis1", required=True, help="name=lo:hi:steps[:log]")
    p.add_argument("--axis2", required=True, help="name=lo:hi:steps[:log]")
    p.add_argument("--eps-p", type=float)
    p.add_argument("--eps-l", type=float)
    p.add_argument("--contour", help="write eta=1 contour points here")

    return parser


def _config_flags(parser: argparse.ArgumentParser, args) -> list[str]:
    """args.config's JSON object as flags for the keys the command knows:
    --key=value for a string or number, --key for true, none for false or
    null.  Any other file or value is a usage error."""
    flags = []
    try:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("want a JSON object, got "
                             f"{type(config).__name__}")
        for key, value in config.items():
            if key in ("func", "command", "config") or key not in args:
                continue
            if isinstance(value, (list, dict)):
                raise ValueError(f"{key}: want a string, number or boolean")
            flag = "--" + key.replace("_", "-")
            if value is not False and value is not None:
                flags.append(flag if value is True else f"{flag}={value}")
    except (OSError, ValueError) as exc:
        parser.error(f"--config {args.config}: {exc}")
    return flags


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config is not None:
        # the file's flags go first, so the command line's own flags win
        at = argv.index(args.command) + 1
        args = parser.parse_args(
            argv[:at] + _config_flags(parser, args) + argv[at:])
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

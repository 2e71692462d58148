"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload phase-sweep --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: the package is imported from the
checkout's src/, never from an installed copy.  One process on one thread
(BLAS and OpenMP thread variables set to 1) repeats whole rounds of the
workload's fixed operations until --seconds have passed, then checks every
output of every round.

--trace 0 prints the end-to-end metrics:
  setup_s      median over fresh interpreters, started one after another, of
               the time from spawning the interpreter to the end of the
               workload's warm-up (import ftcircuit and every lazy import);
  round_s      seconds of the operations per whole round completed;
  peak_rss_mb  peak resident set of this process at the end of the rounds.
Both times are scaled to a reference machine speed by the calibration
units of bench/calibrate.py, timed between the operations (and, for
setup_s, in each fresh interpreter after its warm-up); the wall seconds
per round and the measured speed go to stderr.
--trace 1 runs half the time untraced and half traced, prints the per-layer
metrics of bench/layers.py and writes the spans to bench/out/.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
An operation whose output fails its check counts as failed; the result is
correct when every failed operation is one marked as a known fault.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# imported after the thread variables are set, since they import numpy
import calibrate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
# the first fresh interpreter also writes bytecode caches and warms the
# file cache, so it is run but not counted
SETUP_PROBES = 5
# calibration units each probe times after its warm-up
SETUP_UNITS = 15


def import_package():
    package = SRC / "ftcircuit"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a "
                 "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ftcircuit
    import ftcircuit.cli  # noqa: F401  (the CLI operations call it)
    if Path(ftcircuit.__file__).resolve().parent != package:
        sys.exit(f"error: imported ftcircuit from {ftcircuit.__file__}, "
                 f"not from {package}")
    return ftcircuit


def prepare(ft, workload: str, seed: int):
    """Build the workload and warm it up."""
    w = workloads.WORKLOADS[workload](ft, seed)
    w.warm_up()
    return w


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of the scaled set-up time."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        start = time.monotonic()
        probe = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        end, scale = map(float, probe.stdout.split()[-2:])
        times.append((end - start) * scale)
    return statistics.median(times[1:])


def run_rounds(ops, seconds: float, outputs: list,
               cal: calibrate.Calibration) -> tuple[float, float, int]:
    """Whole rounds, with calibration units after each operation, until
    `seconds` have passed; returns (scaled seconds, wall seconds, rounds)
    of the operations alone."""
    rounds, scaled, wall = 0, 0.0, 0.0
    start = time.perf_counter()
    while True:
        results = []
        for op in ops:
            op_start = time.perf_counter()
            try:
                results.append(op.run())
            except Exception as exc:  # recorded; only the AND check accepts one
                results.append(exc)
            op_s = time.perf_counter() - op_start
            wall += op_s
            scaled += op_s * cal.scale(calibrate.SHARE * op_s)
        outputs.append(results)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return scaled, wall, rounds


def check_outputs(ops, outputs) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over every operation of every round."""
    failed, unexpected = 0, set()
    for results in outputs:
        for op, out in zip(ops, results):
            try:
                ok = op.check(out)
            except Exception:  # a malformed output or a raised error
                ok = False
            if not ok:
                failed += 1
                if not op.known_fault:
                    unexpected.add(op.name)
    for name in sorted(unexpected):
        print(f"check failed: {name}", file=sys.stderr)
    return len(ops) * len(outputs), failed, not unexpected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    ft = import_package()
    if args.probe:
        prepare(ft, args.workload, args.seed)
        end = time.monotonic()
        print(end, calibrate.for_setup().median_scale(SETUP_UNITS))
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    w = prepare(ft, args.workload, args.seed)
    cal = calibrate.for_workload(args.workload)
    outputs: list = []
    if args.trace:
        plain_s, _, plain_rounds = run_rounds(w.ops, args.seconds / 2,
                                              outputs, cal)
        tracer = layers.install(ft)
        traced_s, _, traced_rounds = run_rounds(w.ops, args.seconds / 2,
                                                outputs, cal)
        overhead = traced_s / traced_rounds - plain_s / plain_rounds
        metrics = layers.metrics(tracer, traced_rounds, overhead)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     workload=args.workload, seed=args.seed,
                     rounds=traced_rounds)
        for name in tracer.absent:
            print(f"absent: {name}", file=sys.stderr)
    else:
        scaled, wall, rounds = run_rounds(w.ops, args.seconds, outputs, cal)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"setup_s": (setup_s, "s"),
                   "round_s": (scaled / rounds, "s"),
                   "peak_rss_mb": (peak_mb, "MB")}
        print(f"wall seconds per round {wall / rounds:.4f}, machine speed "
              f"{cal.ref_s * cal.units / cal.seconds:.3f} of the reference",
              file=sys.stderr)

    attempted, failed, correct = check_outputs(w.ops, outputs)
    print(f"{args.workload}: {len(outputs)} rounds of {len(w.ops)} "
          f"operations, {failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Calibration kernels: fixed work of the same kind as each workload's hot
path, written here with numpy and scipy only, never with ftcircuit.

The host this benchmark runs on changes speed by up to a factor of two
over minutes (a fast and a slow mode, and drift of about 10 % within
each), and the process's CPU time slows with its wall time.  So the
timed rounds interleave calibration units with the operations: after
each operation, units run until they have taken a quarter of that
operation's time, and the operation's seconds are scaled by
REF_S / (seconds per unit).  A round then reads in seconds at the speed
at which one unit takes REF_S, the unit's time on the host's fast mode.
A change to ftcircuit moves the operations and not the units, so it
shows in full.

The phase-sweep unit is one vectorised log binomial tail of 15,501
terms, the mean size of a code-size search's tail; the exact-engine unit
is one wiring layer and one noise convolution of a 2^14-entry joint
state; the monte-carlo unit is one NAND gate on 2^20 samples; the
set-up unit compiles and runs a module of 200 small functions.
"""
from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np
from scipy.special import gammaln

# share of each operation's time spent on the units that follow it
SHARE = 0.25


class _LogTail:
    """A log binomial tail of 15,501 terms, in preallocated arrays."""

    N, K, P = 31_000, 15_500, 0.49

    def __init__(self):
        self.ks = np.arange(self.K, self.N + 1, dtype=np.float64)
        self.rest = self.N - self.ks
        self.a = np.empty_like(self.ks)
        self.b = np.empty_like(self.ks)

    def __call__(self):
        a, b, n = self.a, self.b, self.N
        np.add(self.ks, 1.0, out=b)
        gammaln(b, out=a)
        np.add(self.rest, 1.0, out=b)
        gammaln(b, out=b)
        np.add(a, b, out=a)
        np.subtract(gammaln(n + 1), a, out=a)
        np.multiply(self.ks, math.log(self.P), out=b)
        np.add(a, b, out=a)
        np.multiply(self.rest, math.log1p(-self.P), out=b)
        np.add(a, b, out=a)
        top = a.max()
        np.subtract(a, top, out=a)
        np.exp(a, out=a)
        return float(top + math.log(a.sum()))


class _JointState:
    """A 2^14-entry state and the index arithmetic of one engine step."""

    BITS = 14

    def __init__(self):
        size = 1 << self.BITS
        self.index = np.arange(size, dtype=np.int64)
        popcount = np.zeros(size, dtype=np.int64)
        for b in range(self.BITS):
            popcount += (self.index >> b) & 1
        self.spectrum = 0.98 ** popcount
        self.probs = np.full(size, 1.0 / size)

    def __call__(self):
        idx, size = self.index, 1 << self.BITS
        out = np.zeros(size, dtype=np.int64)
        for i in range(self.BITS):
            a, b = i, (i + 1) % self.BITS
            out |= (((idx >> a) & 1) | ((idx >> b) & 1)) << i
        probs = np.bincount(out, weights=self.probs, minlength=size)
        hat = _hadamard(probs) * self.spectrum
        probs = _hadamard(hat) / size
        np.maximum(probs, 0.0, out=probs)
        return float(probs[0])


def _hadamard(a):
    h, size = 1, a.shape[0]
    while h < size:
        a = a.reshape(-1, 2, h)
        top = a[:, 0, :].copy()
        a[:, 0, :] = top + a[:, 1, :]
        a[:, 1, :] = top - a[:, 1, :]
        a = a.reshape(size)
        h *= 2
    return a


class _Gate:
    """One noisy NAND gate on 2^20 samples, as a sampler draws it."""

    SAMPLES = 1 << 20

    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.a = (self.rng.random(self.SAMPLES) < 0.5).astype(np.uint8)
        self.b = (self.rng.random(self.SAMPLES) < 0.5).astype(np.uint8)

    def __call__(self):
        out = 1 - (self.a & self.b)
        noise = (self.rng.random(self.SAMPLES) < 0.01).astype(np.uint8)
        return int(np.count_nonzero(out ^ noise))


_MODULE = "\n".join(
    f"def f{i}(x, y={i}):\n    return [x + y, {{'k{i}': x}}, 'v{i}' * 2]\n"
    f"class C{i}:\n    a = f{i}(1)\n"
    for i in range(200))


def _import_unit():
    namespace: dict = {}
    exec(compile(_MODULE, "<calibration>", "exec"), namespace)
    return len(namespace)


class Calibration:
    """unit() does a fixed amount of work; ref_s is its time at the
    host's fast mode."""

    def __init__(self, unit, ref_s: float):
        self.unit = unit
        self.ref_s = ref_s
        self.units = 0
        self.seconds = 0.0

    def scale(self, budget_s: float) -> float:
        """Run units for budget_s (at least one); REF_S per measured unit."""
        units = 0
        start = perf_counter()
        while True:
            self.unit()
            units += 1
            elapsed = perf_counter() - start
            if elapsed >= budget_s:
                break
        self.units += units
        self.seconds += elapsed
        return self.ref_s * units / elapsed

    def median_scale(self, units: int) -> float:
        """REF_S over the median time of `units` separately timed units."""
        times = []
        for _ in range(units):
            start = perf_counter()
            self.unit()
            times.append(perf_counter() - start)
        return self.ref_s / statistics.median(times)


def for_workload(name: str) -> Calibration:
    if name == "phase-sweep":
        return Calibration(_LogTail(), REF_S["phase-sweep"])
    if name == "exact-engine":
        return Calibration(_JointState(), REF_S["exact-engine"])
    if name == "monte-carlo":
        return Calibration(_Gate(), REF_S["monte-carlo"])
    raise ValueError(f"no calibration for {name}")


def for_setup() -> Calibration:
    return Calibration(_import_unit, REF_S["setup"])


# seconds per unit on the fast mode of a 2-core Xeon VM at 2.0 GHz,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1
REF_S = {"phase-sweep": 0.00037, "exact-engine": 0.00153,
         "monte-carlo": 0.0035, "setup": 0.0082}


if __name__ == "__main__":
    for name in ("phase-sweep", "exact-engine", "monte-carlo"):
        cal = for_workload(name)
        print(name, cal.ref_s / cal.median_scale(200))
    cal = for_setup()
    print("setup", cal.ref_s / cal.median_scale(50))

"""Fixed calibration work that measures how fast the host runs the benchmark
right now, so that timings taken minutes apart can be compared.

On a shared virtual machine the host changes the speed of a process by up to
1.6x in phases that last from seconds to minutes. The guest sees no steal
time (CPU time grows with wall time), so neither clock can subtract it, and
the median campaign time of one run moved by up to 80% between runs of the
same code. The loop below never touches focsim and its inputs never change,
so its time moves only with the host. The benchmark runs short slices of it
between timed pieces of work, a fixed share of their time (``Meter``), and
reports each timing rescaled to a host on which one slice takes
``REFERENCE_S`` (``rescale``). A change to focsim moves the rescaled time
exactly as it moves the wall time; a slower phase of the host does not.

A slice mixes the kinds of work the workloads do: large numpy array
products and a cumulative sum (the segment arrays of ``spun``), small numpy
calls from a Python loop (the per-row chain), plain interpreter arithmetic
and float-to-text formatting (the tables).

Set-up time moves with the host in another way: a fresh interpreter spends
it loading files and libraries, and the slices did not track it (rescaled
set-up times spread more than raw ones). ``import_numpy_s`` times the same
kind of work, ``import numpy`` in a fresh interpreter, and set-up times are
rescaled by it instead. It cancels changes of numpy, not of focsim: focsim's
share of the set-up moves the rescaled time as it moves the wall time.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# a host on which one slice takes this long is the reference speed that
# rescaled times are given at; about a slice's time on a 2-vCPU Intel Xeon VM
REFERENCE_S = 0.1
# slices take this share of the time of the work they calibrate
SHARE = 0.25
# a host on which import_numpy_s() reads this is the reference for set-ups
IMPORT_REFERENCE_S = 0.1

_IMPORT_NUMPY = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"

_rng = np.random.default_rng(0)
_BIG = _rng.standard_normal((100_000, 2, 2)) + 1j * _rng.standard_normal((100_000, 2, 2))
_SMALL = _rng.standard_normal((2, 2)) + 0j
_FLOATS = _rng.standard_normal(10_000)


def _arrays() -> float:
    b = _BIG
    for _ in range(3):
        b = b[0::2] @ b[1::2]
    c = np.cumsum(_BIG, axis=0)
    return float(abs(c[-1, 0, 0]) + abs(b[0, 0, 0]))


def _small_calls() -> complex:
    m = _SMALL
    for _ in range(5_000):
        m = np.cos(0.1) * (m @ _SMALL) / 2.0
    return complex(m[0, 0])


def _interpreter() -> int:
    s = 0
    for i in range(250_000):
        s += i * i % 7
    return s


def _formatting() -> int:
    return len("\n".join(f"{x:.17g},{x * 2:.17g}" for x in _FLOATS))


def calibrate() -> float:
    """Wall time of one slice of the fixed loop, in seconds."""
    start = time.perf_counter()
    _arrays()
    _small_calls()
    _interpreter()
    _formatting()
    return time.perf_counter() - start


def import_numpy_s() -> float:
    """Time of ``import numpy`` in a fresh interpreter, in seconds."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_NUMPY], capture_output=True, text=True, timeout=60, check=True
    )
    return float(proc.stdout)


def rescale(elapsed: float, slices: list[float]) -> float:
    """``elapsed`` as it would read on a host at the reference speed, given
    the slices run between and right after the pieces that make it up."""
    return elapsed * REFERENCE_S / statistics.fmean(slices)


class Meter:
    """Runs calibration slices after pieces of timed work, SHARE of their time."""

    def __init__(self):
        calibrate()  # first-call costs stay out of the slices
        self.owed = 0.0
        self.slices: list[float] = []

    def after(self, work_s: float) -> None:
        self.owed += SHARE * work_s
        while self.owed > 0.0:
            self._slice()

    def _slice(self) -> None:
        t = calibrate()
        self.slices.append(t)
        self.owed -= t

    def take(self) -> list[float]:
        """The slices run since the last take; one is run if there were none."""
        if not self.slices:
            self._slice()
        out, self.slices = self.slices, []
        return out

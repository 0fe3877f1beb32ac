"""Machine-speed gauge: a fixed reference kernel timed while ops run.

The reference machine is a VM on a shared host.  Other tenants slow it
down for stretches of seconds to minutes, by up to a factor of two, and
a slowed stretch can outlast a whole run; CPU time slows down with wall
time, so it is no way out.  What does stay put is the ratio of an op's
time to the time of a fixed piece of work run right beside it.

The machine switches between its quiet speed and a slowed one within
fractions of a second, so the kernel is timed every 50 ms while an op
runs (``Gauge``), and each stretch of the op is scaled by
``NOMINAL_S`` over the kernel's time at its two ends.  A normalized
time therefore reads as "seconds on the reference machine at its quiet
speed"; on a quiet reference machine it equals the measured time.  The
kernel uses only Python and numpy, never ``qwad``, so a change to the
library cannot move it.  Contention slows kinds of work by different
factors, so the kernel mixes the kinds the workloads do: small complex
matrix products and state-vector steps (simulation), per-shot random
generators (sampling) and Python object churn (differentiation,
compilation, parsing).
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Fastest time of one kernel() call on the reference machine (2-vCPU
# Firecracker VM, "Intel(R) Xeon(R) Processor", Python 3.11.7, numpy
# 2.4.6, one BLAS thread) in a quiet stretch.
NOMINAL_S = 5.1e-3
# Wall time between two readings while an op runs.
PERIOD_S = 0.05

_rng = np.random.default_rng(20040112)
_MATS = [_rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16)) for _ in range(8)]
_WIDE = [_rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32)) for _ in range(8)]
_SMALL = [_rng.standard_normal((2, 2)) + 0j for _ in range(8)]
_EYE4 = np.eye(4)


def kernel() -> float:
    """The reference work, four parts of about equal time: embedded
    two-qubit products on 16-dim matrices, 32-dim state-vector steps,
    per-shot Philox generators, and dict/tuple churn.  A fixed number of
    steps; the result depends on every step."""
    acc = _MATS[0]
    for i in range(40):
        k = np.kron(np.kron(_SMALL[i & 7], _EYE4), _SMALL[(i + 3) & 7])
        acc = (k @ acc) @ _MATS[i & 7].conj().T
        acc = acc / np.abs(acc).max()
    psi = _WIDE[0][0]
    for i in range(300):
        psi = _WIDE[i & 7] @ psi
        psi = psi / np.linalg.norm(psi)
    draws = 0.0
    for t in range(100):
        rng = np.random.Generator(np.random.Philox(key=np.array([7, t], dtype=np.uint64)))
        draws += rng.random() + int(rng.integers(4))
    table = {}
    total = 0
    for i in range(3000):
        key = (i & 255, "q")
        prev = table.get(key, (0, 0))
        table[key] = (prev[1], total)
        total = (total + i * 7 + prev[0]) % 1000003
    return float(abs(acc[0, 0]) + abs(psi[0])) + draws + total


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Gauge:
    """A clock that runs at the machine's nominal speed while an op runs.

    Inside ``with gauge:`` a one-shot interval timer interrupts the op
    every ``PERIOD_S`` seconds of wall time; the handler (which Python runs
    between two bytecodes of the op) times the kernel and closes a
    segment.  A segment's measured time is scaled by ``NOMINAL_S`` over
    the mean of the readings at its two ends, so a speed change during a
    long op only blurs the one segment it falls in.  Kernel time is
    never part of a segment.  ``clock()`` closes a segment on demand and
    returns the normalized time since the ``with`` began; ``raw`` holds
    the measured time.  With ``enabled=False`` (the traced run, whose
    spans would otherwise include kernel time) both clocks read measured
    time and the kernel never runs.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.readings = []
        self.raw = self.norm = 0.0
        self._open = self._busy = False
        if enabled:
            time_kernel()  # warm-up
            self._previous = signal.signal(signal.SIGALRM, self._on_timer)

    def close(self) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _read(self) -> float:
        self.readings.append(time_kernel())
        return self.readings[-1]

    def _segment(self) -> None:
        self._busy = True
        seg = time.perf_counter() - self._mark
        self.raw += seg
        if self.enabled:
            before, after = self._last, self._read()
            self._last = after
            self.norm += seg * NOMINAL_S * 2 / (before + after)
        else:
            self.norm += seg
        self._busy = False
        self._mark = time.perf_counter()

    def _on_timer(self, signum, frame) -> None:
        if not self._open:
            return
        if not self._busy:
            self._segment()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self):
        self.raw = self.norm = 0.0
        if self.enabled:
            self._last = self._read()
        self._open = True
        self._mark = time.perf_counter()
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._open = False
        self._segment()

    def clock(self) -> float:
        """Normalized seconds since the ``with`` began."""
        self._segment()
        return self.norm

"""Host-speed calibration, so that the benchmark can report its timings in
reference seconds.

On a shared host the speed a process gets swings by half or more, from one
second to the next and for minutes at a time, while the work a pass does
stays the same.  A Sampler measures that speed while the workload runs: a
timer signal interrupts the measuring process every INTERVAL seconds, and
the handler times one call of a fixed loop (a probe) that does the same kind
of work as the workload.  The work between two probes is then counted in
reference seconds: its measured seconds times REF_S[kind] / (the probe's
measured seconds), i.e. the seconds it would have taken had the probe run at
its reference time.  Time spent in the handler counts in neither.

The probes use only the standard library and numpy, never uawq, so a change
to the package moves the workload's times and not the probe's.  Two kinds,
matched to what the workloads spend their time on:

- ``py``: small objects with ``__slots__``, integer multiply and modulo,
  tuple keys in a dict, the mix of uawq's scalar ``Fq2`` arithmetic;
- ``np``: one rank-two row update and ``%`` on a 392x196 int64 array and
  a 14x14 ``kron``, the shapes of ``linalg.rref`` and ``linalg.kron`` at
  dbar=14.
"""

from __future__ import annotations

import random
import signal
import time

import numpy as np

# Seconds between two probes, by default.
INTERVAL = 0.04

# Median wall seconds of one probe on a 2-vCPU Intel Xeon VM (Python 3.11.7,
# numpy 2.4.6), with the benchmark running.  They only fix the scale: on a
# host running at that speed a reference second is a second.
REF_S = {"py": 0.0016, "np": 0.0012}


class _E:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def __mul__(self, o: "_E") -> "_E":
        return _E((self.a * o.a + 2 * self.b * o.b) % 169, (self.a * o.b + self.b * o.a) % 169)

    def __add__(self, o: "_E") -> "_E":
        return _E((self.a + o.a) % 169, (self.b + o.b) % 169)


_rng = random.Random(5)
_XS = [_E(_rng.randrange(169), _rng.randrange(169)) for _ in range(64)]
_nprng = np.random.default_rng(5)
_ROWS = _nprng.integers(0, 29, size=(392, 196), dtype=np.int64)
_F, _G = _nprng.integers(0, 29, size=(2, 392), dtype=np.int64)
_R = _nprng.integers(0, 29, size=196, dtype=np.int64)
_K = _nprng.integers(0, 29, size=(14, 14), dtype=np.int64)


def _probe_py() -> int:
    seen: dict[tuple[int, int], int] = {}
    acc = _E(1, 0)
    for i in range(1000):
        acc = acc * _XS[i & 63] + _XS[(i * 7) & 63]
        key = (acc.a, acc.b)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def _probe_np() -> int:
    b = (_ROWS - (np.outer(_F, _R) + 3 * np.outer(_G, _R))) % 29
    c = np.kron(_K, _K) % 29
    return int(np.nonzero(b[:, 0])[0].size + c[0, 0])


PROBES = {"py": _probe_py, "np": _probe_np}


def probe(kind: str) -> float:
    """Wall seconds of one call of the probe."""
    fn = PROBES[kind]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class Sampler:
    """Counts the measuring process's time in reference seconds.

    Between start() and stop(), SIGALRM runs a probe every interval seconds.
    read() returns the reference seconds and the measured seconds (both
    without the handler's own time) since start(); the last stretch, since
    the latest probe, is scaled by that probe.
    """

    def __init__(self, kind: str, interval: float = INTERVAL) -> None:
        self.kind = kind
        self.interval = interval
        self.ref = REF_S[kind]
        self.probes = 0
        self._ref_s = self._wall_s = 0.0
        self._scale = 1.0
        self._mark = 0.0
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._wall_s += t0 - self._mark
        self._ref_s += (t0 - self._mark) * self._scale
        probe_s = probe(self.kind)
        self._scale = self.ref / probe_s
        self.probes += 1
        self._mark = time.perf_counter()

    def start(self) -> None:
        self._scale = self.ref / probe(self.kind)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def read(self) -> tuple[float, float]:
        """(reference seconds, measured seconds) of work since start()."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            now = time.perf_counter()
            return (self._ref_s + (now - self._mark) * self._scale,
                    self._wall_s + (now - self._mark))
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed once, then runs
passes over the same inputs.  A pass returns how many items it attempted,
how many failed a correctness check, and a digest of its canonical output,
so repeated passes can be compared byte for byte.  The package is driven
only through its public functions, looked up on their modules at call time
so the tracer's patches apply.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from typing import NamedTuple

import uawq
from uawq import classify, linalg, modules, suite, table1

from setup_probe import warm_field


class PassResult(NamedTuple):
    items: int
    failed: int
    digest: str
    # (wall, CPU, reference wall, reference CPU) seconds of each unit of work
    # in the pass, in a fixed order, so the same unit can be compared across
    # passes (see Stopwatch and calibrate.py).
    units: list[tuple[float, float, float, float]]


def cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children (pool workers)."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Stopwatch:
    """Wall and CPU seconds of successive units of work, measured and in
    reference seconds.

    With a running calibrate.Sampler, a unit's wall seconds leave out the
    time its probes took, its reference wall seconds are the sampler's, and
    its reference CPU seconds are its CPU seconds scaled like its wall
    seconds.  Without one, the reference figures are the measured ones.
    """

    def __init__(self, sampler=None) -> None:
        self.sampler = sampler
        self.laps: list[tuple[float, float, float, float]] = []
        self._stamp = self._now()

    def _now(self) -> tuple[float, float, float, float]:
        wall, cpu = time.perf_counter(), cpu_seconds()
        ref, work = self.sampler.read() if self.sampler else (wall, wall)
        return wall, cpu, ref, work

    def lap(self) -> None:
        now = self._now()
        wall, cpu, ref, work = (a - b for a, b in zip(now, self._stamp))
        cpu = max(0.0, cpu - (wall - work))  # the probes' own time, all of it CPU
        self.laps.append((work, cpu, ref, cpu * ref / work if work > 0 else cpu))
        self._stamp = now


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = ""
    item = ""
    field: tuple[int, int] = (0, 0)
    # The probe (calibrate.PROBES) whose work is most like the workload's,
    # and the calibrate.Sampler that measuring processes run while timing.
    calibration = "py"
    sampler = None

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def run_pass(self, tracer=None) -> PassResult:
        raise NotImplementedError


class WSweep(Workload):
    """Exhaustive criterion-vs-oracle sweep at d=3 over two worker processes."""

    name = "w_sweep"
    item = "grid case"

    def __init__(self, seed: int, size: str = "full") -> None:
        super().__init__(seed)
        # The input is the whole grid, so the seed does not change it.
        self.field = (7, 3) if size == "full" else (5, 3)
        self.workers = min(2, os.cpu_count() or 1)
        p = self.field[0]
        self.cases = (p - 1) ** 4 * p

    def run_pass(self, tracer=None) -> PassResult:
        p, d = self.field
        watch = Stopwatch(self.sampler)
        mism = suite.w_grid_sweep(p, d, self.workers)
        watch.lap()
        return PassResult(self.cases, min(len(mism), self.cases),
                          digest({"p": p, "d": d, "mismatches": mism}), watch.laps)

    def serial_baseline(self) -> tuple[list[float], int]:
        """One w_grid_chunk call per a-value in this process, the plain
        single-threaded run of the same grid.  Returns the chunk seconds and
        the number of mismatching cases."""
        p, d = self.field
        times, mismatches = [], 0
        for a in range(1, p):
            t0 = time.perf_counter()
            mismatches += len(suite.w_grid_chunk((p, d, a)))
            times.append(time.perf_counter() - t0)
        return times, mismatches


class Classify(Workload):
    """classify_sample at p=13, d=3: equivalence closures cross-checked by
    intertwiners, in batches with seeds derived from the benchmark seed."""

    name = "classify"
    item = "sample"
    field = (13, 3)

    def __init__(self, seed: int, size: str = "full") -> None:
        super().__init__(seed)
        batches, self.count = (12, 5) if size == "full" else (1, 5)
        rng = random.Random(seed)
        self.batch_seeds = [rng.randrange(2 ** 32) for _ in range(batches)]
        self.ctx = warm_field(*self.field)

    def run_pass(self, tracer=None) -> PassResult:
        watch = Stopwatch(self.sampler)
        reports, failed = [], 0
        for k, bseed in enumerate(self.batch_seeds):
            if tracer is not None:
                tracer.item = k
            report = classify.classify_sample(self.ctx, bseed, self.count)
            watch.lap()
            reports.append(report)
            bad = {e["index"] for e in report["errors"] if "index" in e}
            bad_count = len(bad) + sum(1 for e in report["errors"] if "index" not in e)
            failed += min(bad_count, self.count)
        return PassResult(self.count * len(reports), failed, digest(reports), watch.laps)


class LargeModule(Workload):
    """p=29, d=28 (dbar=14): one module per item, judged by both routes and
    mapped to an orbit image by an invertible intertwiner."""

    name = "large_module"
    item = "quintuple"
    field = (29, 28)
    calibration = "np"

    def __init__(self, seed: int, size: str = "full") -> None:
        super().__init__(seed)
        self.ctx = warm_field(*self.field)
        rng = random.Random(seed)
        n = 8 if size == "full" else 1
        self.inputs = []
        for _ in range(n):
            p5 = classify.sample_quintuple(self.ctx, rng)
            self.inputs.append((p5, table1.ROWS[rng.randrange(len(table1.ROWS))]))

    def run_pass(self, tracer=None) -> PassResult:
        dbar = self.ctx.dbar
        watch = Stopwatch(self.sampler)
        verdicts = []
        failed = 0
        for k, (p5, row) in enumerate(self.inputs):
            if tracer is not None:
                tracer.item = k
            rep = modules.build_W(p5)
            crit = classify.irr_W_criterion(p5)
            orac = classify.burnside_irreducible(rep)
            img = table1.apply_row(row, p5.quadruple.astuple())
            al = img[0] / img[3]
            nd = classify.delta_shift(p5) - al ** dbar - al ** (-dbar)
            other = modules.build_W(uawq.Params5(*img, nd))
            s = classify.intertwiner(rep, other)
            rk = None if s is None else linalg.rank(s)
            watch.lap()
            verdicts.append([p5.to_json(), row[0], crit, orac, rk])
            if crit != orac or rk != rep.n:
                failed += 1
        return PassResult(len(self.inputs), failed, digest(verdicts), watch.laps)


class Suite(Workload):
    """run_suite at p=13, d=3, level standard: the 20 named checks, for the
    benchmark seed and one seed derived from it."""

    name = "suite"
    item = "check"
    field = (13, 3)

    def __init__(self, seed: int, size: str = "full") -> None:
        super().__init__(seed)
        self.level = "standard" if size == "full" else "smoke"
        # The closure checks' work depends on the suite seed; two suite seeds
        # per pass halve the part of that spread a single seed would bring.
        extra = 1 if size == "full" else 0
        rng = random.Random(seed)
        self.suite_seeds = [seed] + [rng.randrange(2 ** 32) for _ in range(extra)]
        self.check_names: list[str] = []

    def run_pass(self, tracer=None) -> PassResult:
        lines: list[str] = []
        watch = Stopwatch(self.sampler)

        def emit(line: str) -> None:
            watch.lap()  # run_suite emits one line as each check ends
            lines.append(line)
            if tracer is not None:
                tracer.item = len(lines)

        if tracer is not None:
            tracer.item = 0
        results = []
        for sseed in self.suite_seeds:
            results += suite.run_suite(*self.field, sseed, self.level, emit=emit)
        self.check_names = [r.name for r in results]
        failed = sum(1 for r, line in zip(results, lines)
                     if not (r.passed and line.startswith("PASS ")))
        failed += abs(len(results) - len(lines))
        return PassResult(len(results), min(failed, len(results)), digest(lines), watch.laps)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (WSweep, Classify, LargeModule, Suite)
}

#!/usr/bin/env python3
"""The uawq benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Run from the root of a checkout; the package is imported from its ``src``.
A workload runs as a closed loop with one client: passes over the same
seeded inputs run back to back for about ``--seconds``, untraced ones in
three fresh measuring processes (measure.py) one after another.  Untraced
timings are in reference seconds: measured seconds corrected for the host's
speed at the time by a sampler of fixed probes (calibrate.py).
Every pass is checked (see workloads.py) and its output digest must match
the first pass's and, for the default seed, the recorded reference in
reference.json.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are its
per-layer metrics, from a run that spends half its time untraced and half
traced and also reports the tracing overhead.  ``--workload all`` runs
every workload in its own process with tracing off and prints one table.
Details land in perfbench/results/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
DEFAULT_SEED = 1
SETUP_PROBES = 9
MEASURERS = 3
WORKLOAD_NAMES = ("w_sweep", "classify", "large_module", "suite")


def die(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def machine_facts() -> dict:
    from uawq import parallel
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "worker_count": parallel.worker_count(min(2, os.cpu_count() or 1)),
        "UAWQ_THREADS": os.environ.get("UAWQ_THREADS"),
        "loadavg_start": list(os.getloadavg()),
    }


def unit_medians(results, ref: bool = True) -> tuple[list[float], list[float]]:
    """Per unit of work, the median over passes of its wall and CPU seconds,
    in reference seconds (see calibrate.py) unless ref is False.

    Every pass runs the same units in the same order, so a burst of load on
    the machine that slows one pass moves these medians much less than it
    moves a whole-pass total.
    """
    n = min(len(r.units) for r in results)
    w, c = (2, 3) if ref else (0, 1)
    walls = [statistics.median(r.units[j][w] for r in results) for j in range(n)]
    cpus = [statistics.median(r.units[j][c] for r in results) for j in range(n)]
    return walls, cpus


def run_passes(wl, seconds: float, tracer=None, min_passes: int = 2):
    """Closed loop: the next pass starts when the last one ends, and no pass
    starts that would end after the deadline (beyond the minimum count)."""
    results, times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            r = wl.run_pass()
        else:
            with tracer.span("bench.pass"):
                r = wl.run_pass(tracer)
        t1 = time.perf_counter()
        results.append(r)
        times.append(t1 - t0)
        if len(results) >= min_passes and (t1 - start) + statistics.median(times) > seconds:
            return results, times


def count_failures(results, reference: str | None) -> tuple[int, list[str]]:
    """Failed items over all passes; a pass whose digest differs from the first
    pass's or from the reference fails as a whole."""
    failed, problems = 0, []
    first = results[0].digest
    for k, r in enumerate(results):
        bad = r.failed
        if r.digest != first:
            problems.append(f"pass {k}: digest differs from pass 0")
            bad = r.items
        elif reference is not None and r.digest != reference:
            problems.append(f"pass {k}: digest differs from the reference")
            bad = r.items
        elif r.failed:
            problems.append(f"pass {k}: {r.failed} of {r.items} items failed their checks")
        failed += bad
    return failed, problems


def setup_seconds(p: int, d: int) -> tuple[float, float]:
    """Median over fresh processes of the set-up time setup_probe.py reports,
    in reference and in wall seconds."""
    ref, wall = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(p), str(d)],
            capture_output=True, text=True, timeout=120, check=True)
        rec = json.loads(out.stdout.strip().splitlines()[-1])
        if not Path(rec["uawq"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"setup probe imported uawq from {rec['uawq']}")
        ref.append(rec["setup_ref_s"])
        wall.append(rec["setup_s"])
    return statistics.median(ref), statistics.median(wall)


def measure(wl, seed: int, size: str, seconds: float):
    """Untraced passes from MEASURERS fresh processes, one after another,
    sharing the seconds.

    CPython indexes its attribute caches by string hashes, so the hash seed
    alone can make one process run ~15% slower than another on the same
    inputs.  Measuring process k gets PYTHONHASHSEED k + 1 in every run: runs
    with different seeds then differ in their inputs and in the machine's
    state, not in their hash layouts, and the per-unit medians over the
    processes' passes do not rest on one layout.
    """
    import workloads

    results, times, rss_kb = [], [], []
    start = time.perf_counter()
    for k in range(MEASURERS):
        budget = (seconds - (time.perf_counter() - start)) / (MEASURERS - k)
        env = dict(os.environ, PYTHONHASHSEED=str(k + 1))
        out = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), wl.name, str(seed), size, repr(budget)],
            capture_output=True, text=True, timeout=170, check=True, env=env)
        rec = json.loads(out.stdout.strip().splitlines()[-1])
        results += [workloads.PassResult(items, failed, dig, [tuple(u) for u in units])
                    for items, failed, dig, units in rec["passes"]]
        times += rec["times"]
        rss_kb.append(rec["rss_kb"])
    return results, times, max(rss_kb)


def untraced(wl, seed: int, size: str, seconds: float) -> tuple[dict, dict]:
    results, times, rss_kb = measure(wl, seed, size, seconds)
    walls, cpus = unit_medians(results)
    raw_walls, raw_cpus = unit_medians(results, ref=False)
    setup_ref, setup_wall = setup_seconds(*wl.field)
    items = results[0].items
    metrics = {
        "items_per_s": items / sum(walls),
        "cpu_s_per_item": sum(cpus) / items,
        "setup_s": setup_ref,
        "peak_rss_mb": rss_kb / 1024,
    }
    wall_metrics = {
        "items_per_s": items / sum(raw_walls),
        "cpu_s_per_item": sum(raw_cpus) / items,
        "setup_s": setup_wall,
    }
    return metrics, {"results": results, "times": times, "wall_metrics": wall_metrics}


def traced(wl, seconds: float, seed: int, per_layer: list[str]) -> tuple[dict, dict]:
    import layers
    import tracing

    plain, plain_times = run_passes(wl, seconds / 2)
    tracer = tracing.Tracer()
    serial_times: list[float] = []
    serial_cases = serial_failed = 0
    with tracer:
        results, times = run_passes(wl, seconds / 2, tracer, min_passes=1)
        spans, ops = tracer.drain()
        if wl.name == "w_sweep":
            # Traced like the parallel passes, so the overhead cancels in the
            # efficiency ratio; its spans are not part of the pass figures.
            serial_times, serial_failed = wl.serial_baseline()
            serial_cases = wl.cases
            tracer.drain()
    items = sum(r.items for r in results)
    metrics = layers.from_spans(spans, ops, len(results), items)
    metrics.update(layers.micro(seed))
    metrics["trace.overhead_frac"] = (sum(unit_medians(results)[0])
                                      / sum(unit_medians(plain)[0]) - 1)
    serial_s = float(sum(serial_times))
    pmap_wall = metrics["parallel.pmap.wall_s"]
    metrics["parallel.serial_s"] = serial_s
    metrics["parallel.efficiency"] = (serial_s / (wl.workers * pmap_wall)
                                      if serial_times and pmap_wall else 0.0)
    # Suite check times come from the untraced passes: one unit per check,
    # averaged over the suite seeds of a pass.
    check_s: dict[str, list[float]] = {}
    for check, secs in zip(getattr(wl, "check_names", []), unit_medians(plain)[0]):
        check_s.setdefault(check, []).append(secs)
    for name in per_layer:
        if name.startswith("suite.") and name.endswith(".s"):
            metrics[name] = statistics.fmean(check_s.get(name[len("suite."):-len(".s")], [0.0]))
    detail = {
        "results": plain + results,
        "times": plain_times + times,
        "extra_attempted": serial_cases,
        "extra_failed": serial_failed,
        "spans": spans,
        "top_self": layers.top_self(spans),
        "serial_chunk_s": serial_times,
    }
    return metrics, detail


def write_spans(path: Path, spans) -> None:
    """One JSON array per span: id, name, start, end, parent, item, note."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for s in spans:
            fh.write(json.dumps(list(s), default=str) + "\n")


def run_one(args, spec: dict) -> int:
    import uawq

    if not Path(uawq.__file__).resolve().is_relative_to(SRC.resolve()):
        return die(f"uawq was imported from {uawq.__file__}, not from {SRC}")
    import workloads

    facts = machine_facts()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    reference = None
    if args.seed == DEFAULT_SEED:
        refs = json.loads((HERE / "reference.json").read_text())
        # A missing reference fails every pass, like a wrong one.
        reference = refs.get(args.size, {}).get(wl.name, "missing")
    per_layer = [m["name"] for m in spec["per_layer"]]
    if args.trace:
        metrics, detail = traced(wl, args.seconds, args.seed, per_layer)
        wanted = spec["per_layer"]
    else:
        metrics, detail = untraced(wl, args.seed, args.size, args.seconds)
        wanted = spec["end_to_end"]
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        return die(f"metrics differ from BENCHMARK.json: "
                   f"missing {sorted(names - set(metrics))}, extra {sorted(set(metrics) - names)}")
    results = detail["results"]
    attempted = sum(r.items for r in results) + detail.get("extra_attempted", 0)
    failed, problems = count_failures(results, reference)
    if detail.get("extra_failed"):
        failed += detail["extra_failed"]
        problems.append(f"single-threaded baseline: {detail['extra_failed']} mismatching cases")

    print(f"workload {wl.name}: seed {args.seed}, size {args.size}, trace {args.trace}, "
          f"{len(results)} passes of {results[0].items} {wl.item}s, "
          f"pass seconds {[round(t, 3) for t in detail['times']]}")
    print(f"machine: {json.dumps(facts)}")
    print(f"digest {results[0].digest}"
          + ("" if reference is None else f" (reference {reference})"))
    for line in problems:
        print(f"FAIL {line}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} items)")
    if args.trace:
        print("self time by span (name, calls, self s, share):")
        for name, calls, self_s, share in detail["top_self"]:
            print(f"  {name:34s} {calls:9d} {self_s:10.4f} {share:7.1%}")
    units = {m["name"]: m["unit"] for m in wanted}
    wall_metrics = detail.get("wall_metrics", {})
    for m in wanted:
        name = m["name"]
        wall = f" (unnormalised: {wall_metrics[name]:.6g})" if name in wall_metrics else ""
        print(f"{name} {metrics[name]:.6g} {m['unit']}{wall}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-{args.size}-trace{args.trace}"
    record = {
        "workload": wl.name, "seed": args.seed, "size": args.size, "trace": args.trace,
        "machine": facts, "pass_seconds": detail["times"],
        "unit_seconds": [r.units for r in results],
        "digests": [r.digest for r in results], "reference": reference,
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics, "wall_metrics": wall_metrics,
    }
    if args.trace:
        record["top_self"] = detail["top_self"]
        record["serial_chunk_s"] = detail["serial_chunk_s"]
        write_spans(RESULTS / f"{stem}-spans.jsonl.gz", detail["spans"])
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload in its own process, tracing off; one summary table."""
    rows, ok = [], True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
               "--size", args.size]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return die(f"workload {name} exited with {out.returncode}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        ok = ok and res["correct"]
        rows.append((name, res))
    cols = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print()
    print(f"{'workload':14s}" + "".join(f"{c + ' (' + units[c] + ')':>24s}" for c in cols)
          + f"{'fail_frac':>12s}")
    for name, res in rows:
        vals = "".join(f"{res['metrics'][c]['value']:>24.6g}" for c in cols)
        print(f"{name:14s}{vals}{res['failed'] / res['attempted']:>12.6g}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own tests")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "uawq" / "__init__.py").is_file():
        return die(f"no uawq package under {SRC}; run from the root of a uawq checkout")
    if not spec_path.is_file():
        return die(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())

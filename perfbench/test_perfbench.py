"""The benchmark's own tests: smoke-size runs of every workload, the tracer's
patch restoration, and the refusal to run without the package.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import uawq.parallel  # noqa: E402,F401  (imported lazily by the sweeps; patched by the tracer)
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_matches_reference(name):
    out = run_bench("--workload", name, "--seed", "1", "--seconds", "0.1", "--trace", "0",
                    "--size", "smoke")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert f"(reference {REFERENCE['smoke'][name]})" in out.stdout


def test_traced_smoke_run_reports_every_per_layer_metric():
    out = run_bench("--workload", "w_sweep", "--seed", "1", "--seconds", "0.1", "--trace", "1",
                    "--size", "smoke")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["correct"] is True
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    # the oracle ran inside the pool workers and its spans came back
    assert metrics["classify.burnside_irreducible.us.dbar3"] > 0
    assert metrics["parallel.pmap.wall_s"] > 0 and metrics["parallel.efficiency"] > 0


def test_passes_repeat_their_digest():
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(1, "smoke")
        first, second = wl.run_pass(), wl.run_pass()
        assert first.failed == 0 and second.failed == 0
        assert first.digest == second.digest == REFERENCE["smoke"][name]
        assert len(first.units) == len(second.units) >= 1


def _bindings() -> dict:
    import uawq.field
    import uawq.linalg

    snap = {}
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "uawq" or modname.startswith("uawq.")
                                or modname in ("workloads", "tracing")):
            snap.update({(modname, k): v for k, v in vars(mod).items()})
    for cls in (uawq.field.Fq2, uawq.linalg.FMat):
        snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snap


def test_tracer_restores_every_patched_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        patched = _bindings()
        assert any(patched[k] is not v for k, v in before.items() if k in patched)
        for cls in workloads.WORKLOADS.values():
            with tracer.span("bench.pass"):
                cls(1, "smoke").run_pass(tracer)
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())
    spans, ops = tracer.drain()
    names = {s.name for s in spans}
    assert {"classify.simeq_closure", "linalg.rref", "parallel.pmap.task",
            "modules.nu_of"} <= names
    assert ops["mul"] > 0
    assert tracing._ACTIVE is None


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [S(1, "p", 0.0, 10.0, None, 0, None),
             S(2, "c", 1.0, 4.0, 1, 0, None),
             S(3, "c", 2.0, 6.0, 1, 0, None),  # overlaps its sibling
             S(4, "g", 2.0, 3.0, 3, 0, None)]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 5.0, 2: 3.0, 3: 3.0, 4: 1.0}


def test_sampler_leaves_out_its_probes_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    sampler = calibrate.Sampler("py")
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.4:
        pass
    ref, work = sampler.read()
    sampler.stop()
    assert sampler.probes >= 3
    assert 0.2 < work < time.perf_counter() - t0 and ref > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"))
    out = run_bench("--workload", "classify", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

"""The benchmark still runs against the package.

The tracer (``perfbench/tracing.py``) looks functions up by module and
attribute name, and the workloads (``perfbench/workloads.py``) call the
public API; a name lost in a refactor would only show up as failed benchmark
items, so both are checked here: every traced name resolves, and a smoke
pass of each workload reproduces its reference digest.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SMOKE_REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["smoke"]


def _load(name: str):
    """Execute ``perfbench/<name>.py`` as a fresh module."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    tracing = _load("tracing")
    for modname, attr, *_ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
    for modname, clsname, attr, *_ in tracing.METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        assert callable(getattr(cls, attr, None)), (modname, clsname, attr)


@pytest.mark.parametrize("name", sorted(SMOKE_REFERENCE))
def test_benchmark_smoke_pass_matches_reference(name, monkeypatch):
    # workloads.py imports setup_probe, and setup_probe calibrate, by plain name
    for dep in ("calibrate", "setup_probe"):
        monkeypatch.setitem(sys.modules, dep, _load(dep))
    workloads = _load("workloads")
    # seed 1 is the benchmark's default seed, the one the reference records
    res = workloads.WORKLOADS[name](1, "smoke").run_pass()
    assert res.items >= 1 and res.failed == 0
    assert res.digest == SMOKE_REFERENCE[name]

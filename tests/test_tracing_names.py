"""Every name the benchmark's tracer patches still resolves in the package.

The tracer (``perfbench/tracing.py``) looks functions up by module and
attribute name; a name lost in a refactor would only show up as failed
benchmark items, so it is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    tracing = _load_tracing()
    for modname, attr, *_ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
    for modname, clsname, attr, *_ in tracing.METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        assert callable(getattr(cls, attr, None)), (modname, clsname, attr)


def test_benchmark_workload_names_resolve():
    # perfbench/workloads.py reads the corner invariant through classify
    from uawq import classify

    assert callable(classify.delta_shift)

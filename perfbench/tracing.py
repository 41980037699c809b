"""In-memory span tracing of uawq's public functions, installed by patching.

A :class:`Tracer` replaces each traced function with a wrapper in every
module that binds it (``uawq``, ``uawq.*`` and the benchmark's own modules),
so a call made through any import path is seen.  Each wrapped call records a
span ``(id, name, start, end, parent, item, note)`` in memory; ``note`` holds
the one fact a metric needs about the call (a dimension, a shape, whether a
row needed a square root).  ``Fq2`` operators are far too hot to span: their
wrappers only count calls.  ``uninstall`` puts every original back.

``parallel.pmap`` gets a wrapper of its own: it ships each task to the worker
inside :func:`_task`, which traces the task there and sends the worker's
spans and counts back with the result, so the trace of a parallel sweep is
as complete as that of a serial one.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

_HERE = Path(__file__).resolve().parent

# The tracer installed in this process; worker-side task wrappers find it here.
_ACTIVE: "Tracer | None" = None


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    item: object
    note: object


def _dim(args, kwargs, result):
    return args[0].n


def _dbar(args, kwargs, result):
    return args[0].ctx.dbar


def _shape(args, kwargs, result):
    return args[0].shape


def _needs_sqrt(args, kwargs, result):
    from uawq.table1 import row_needs_sqrt

    return row_needs_sqrt(args[0])


def _closure_size(args, kwargs, result):
    return result.size


def _scalar_shortcut(args, kwargs, result):
    x, y = args[0], args[1]
    return result is None and x.scalars() != y.scalars()


def _matmul_shape(args, kwargs, result):
    return args[0].shape + (args[1].ncols,)


# (module, attribute, span name, note function).  Span names are
# "<layer>.<function>"; the layer is the uawq module the function lives in.
FUNCTIONS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("uawq.field", "sqrt", "field.sqrt", None),
    ("uawq.field", "is_square", "field.is_square", None),
    ("uawq.field", "poly_roots", "field.poly_roots", None),
    ("uawq.table1", "apply_row", "table1.apply_row", _needs_sqrt),
    ("uawq.classify", "classify_sample", "classify.classify_sample", None),
    ("uawq.classify", "simeq_closure", "classify.simeq_closure", _closure_size),
    ("uawq.classify", "s4_orbit", "classify.s4_orbit", None),
    ("uawq.classify", "intertwiner", "classify.intertwiner", _scalar_shortcut),
    ("uawq.classify", "irr_W_criterion", "classify.irr_W_criterion", None),
    ("uawq.classify", "irr_Vn_criterion", "classify.irr_Vn_criterion", None),
    ("uawq.classify", "burnside_irreducible", "classify.burnside_irreducible", _dim),
    ("uawq.classify", "solve_feasible", "classify.solve_feasible", None),
    ("uawq.modules", "build_W", "modules.build_W", _dbar),
    ("uawq.modules", "build_Vn", "modules.build_Vn", None),
    ("uawq.modules", "nu_of", "modules.nu_of", None),
    ("uawq.modules", "e_vector", "modules.e_vector", None),
    ("uawq.modules", "L_recurrence", "modules.L_recurrence", None),
    ("uawq.modules", "marginal_vectors", "modules.marginal_vectors", None),
    ("uawq.modules", "weight_spaces", "modules.weight_spaces", None),
    ("uawq.linalg", "rref", "linalg.rref", _shape),
    ("uawq.linalg", "kernel", "linalg.kernel", None),
    ("uawq.linalg", "kron", "linalg.kron", None),
    ("uawq.algebra", "verify_rep", "algebra.verify_rep", None),
    ("uawq.algebra", "vee", "algebra.vee", None),
    ("uawq.suite", "w_grid_chunk", "suite.w_grid_chunk", None),
    ("uawq.suite", "w_grid_sweep", "suite.w_grid_sweep", None),
)

# (class path, attribute, span name, note function): methods that are spanned.
METHODS = (("uawq.linalg", "FMat", "__matmul__", "linalg.FMat.matmul", _matmul_shape),)

# Fq2 operators that are counted: counter name -> attributes sharing it.
COUNTED = {"mul": ("__mul__", "__rmul__"), "inv": ("inv",), "pow": ("__pow__",)}


def _binding_modules() -> list:
    """Every loaded module that may bind a traced name."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None:
            continue
        if name == "uawq" or name.startswith("uawq."):
            out.append(mod)
            continue
        path = getattr(mod, "__file__", None)
        if path and Path(path).resolve().parent == _HERE:
            out.append(mod)
    return out


class Tracer:
    """Records spans and operator counts while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ops: dict[str, int] = dict.fromkeys(COUNTED, 0)
        self.item: object = None
        self.stack: list[int] = []
        # Pid of the process that collects spans in place; None in a worker.
        self.home_pid: int | None = os.getpid()
        self._next = os.getpid() << 32
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _new_id(self) -> int:
        if self._next >> 32 != os.getpid():  # first span in a forked worker
            self._next = os.getpid() << 32
        self._next += 1
        return self._next

    def _record(self, name: str, fn: Callable, note: Callable | None,
                args: tuple, kwargs: dict):
        sid = self._new_id()
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans.append(Span(sid, name, t0, t1, parent, self.item, "raised"))
            raise
        t1 = time.perf_counter()
        self.stack.pop()
        info = note(args, kwargs, result) if note is not None else None
        self.spans.append(Span(sid, name, t0, t1, parent, self.item, info))
        return result

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around benchmark code."""
        sid = self._new_id()
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans.append(Span(sid, name, t0, t1, parent, self.item, None))

    def drain(self) -> tuple[list[Span], dict[str, int]]:
        """Hand over and clear the recorded spans and counts."""
        spans, ops = self.spans, dict(self.ops)
        self.spans = []
        for k in self.ops:  # zeroed in place: the counters hold this dict
            self.ops[k] = 0
        return spans, ops

    def absorb(self, spans: list[Span], ops: dict[str, int]) -> None:
        self.spans.extend(spans)
        for k, v in ops.items():
            self.ops[k] += v

    # -- patching --------------------------------------------------------

    def _patch_everywhere(self, original: object, wrapper: object) -> None:
        for mod in _binding_modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def _function_wrapper(self, name, fn, note):
        record = self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return record(name, fn, note, args, kwargs)

        return traced

    def _counter(self, key, fn):
        ops = self.ops

        @functools.wraps(fn)
        def counted(*args):
            ops[key] += 1
            return fn(*args)

        return counted

    def install(self) -> "Tracer":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        for modname, attr, name, note in FUNCTIONS:
            fn = getattr(importlib.import_module(modname), attr)
            self._patch_everywhere(fn, self._function_wrapper(name, fn, note))
        for modname, clsname, attr, name, note in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            fn = cls.__dict__[attr]
            setattr(cls, attr, self._function_wrapper(name, fn, note))
            self._patches.append((cls, attr, fn))
        fq2 = importlib.import_module("uawq.field").Fq2
        for key, attrs in COUNTED.items():
            for attr in attrs:
                fn = fq2.__dict__[attr]
                setattr(fq2, attr, self._counter(key, fn))
                self._patches.append((fq2, attr, fn))
        pm = importlib.import_module("uawq.parallel").pmap
        self._patch_everywhere(pm, self._pmap_wrapper(pm))
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- parallel fan-out ---------------------------------------------------

    def _pmap_wrapper(self, pmap):
        tracer = self

        @functools.wraps(pmap)
        def traced_pmap(fn, items, workers=None):
            def run():
                parent = tracer.stack[-1]
                tasks = [(parent, i, x) for i, x in enumerate(items)]
                out = pmap(functools.partial(_task, fn), tasks, workers)
                results = []
                for result, spans, ops in out:
                    tracer.absorb(spans, ops)
                    results.append(result)
                return results

            return tracer._record("parallel.pmap", run, None, (), {})

        return traced_pmap


def _task(fn, task):
    """Run one pmap task under a tracer; returns (result, spans, counts).

    In the benchmark's own process (a serial pmap) spans go straight into the
    active tracer.  A forked worker inherits the patches and the tracer they
    point at, so it reuses that copy; a spawned worker starts from a fresh
    import and installs a tracer of its own.
    """
    parent, index, item = task
    tr = _ACTIVE
    if tr is not None and tr.home_pid == os.getpid():
        outer = tr.item
        tr.item = index
        try:
            with tr.span("parallel.pmap.task"):
                return fn(item), [], {}
        finally:
            tr.item = outer
    if tr is None:
        tr = Tracer().install()
    tr.home_pid = None
    tr.drain()
    tr.stack = [parent]
    tr.item = index
    with tr.span("parallel.pmap.task"):
        result = fn(item)
    spans, ops = tr.drain()
    return result, spans, ops


# ---------------------------------------------------------------------------
# summaries


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children of one span may overlap
    when they ran in parallel workers)."""
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children.get(s.id, [])) for s in spans}


def by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                            "self_s": 0.0})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += selfs[s.id]
    return dict(out)

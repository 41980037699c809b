"""Per-layer metrics: micro-timed field costs and figures read off spans.

``micro`` times the scalar field layer directly, since ``Fq2`` operators are
counted, not spanned.  ``from_spans`` turns the spans and counts of the
traced passes into per-call costs, per-pass self times and ratios.  A metric
whose function the workload never calls reads 0; README.md says which
workload each metric belongs to.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import defaultdict

import uawq
from uawq import classify, field

import tracing
from setup_probe import warm_field

# Layers in the order the self-time shares are reported; "bench" is the
# benchmark's own pass span, i.e. time in code no traced function covers.
LAYERS = ("field", "table1", "classify", "modules", "linalg", "algebra", "parallel", "suite",
          "bench")


def _per_call(fn, args: list, repeats: int = 5) -> float:
    """Median over repeats of seconds per call of fn over the argument list."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        samples.append((time.perf_counter() - t0) / len(args))
    return statistics.median(samples)


def micro(seed: int) -> dict[str, float]:
    """Per-call costs of the field layer at p=13, d=3 (and poly_roots at p=29)."""
    rng = random.Random(seed)
    ctx = warm_field(13, 3)
    xs = [classify.rand_nonzero(ctx, rng) for _ in range(2000)]
    pairs = list(zip(xs, reversed(xs)))
    dbar = ctx.dbar
    out = {
        "field.Fq2.mul.ns": _per_call(lambda x, y: x * y, pairs) * 1e9,
        "field.Fq2.inv.ns": _per_call(lambda x: x.inv(), [(x,) for x in xs]) * 1e9,
        # the exponents of delta_shift and the closure's corner update
        "field.Fq2.pow.us": _per_call(lambda x, e: x ** e,
                                      [(x, dbar if i % 2 else -dbar)
                                       for i, x in enumerate(xs[:500])]) * 1e6,
        "field.sqrt.us": _per_call(uawq.sqrt, [(x * x,) for x in xs[:200]]) * 1e6,
        "field.is_square.us": _per_call(uawq.is_square, [(x,) for x in xs[:200]]) * 1e6,
    }
    for p, d in ((13, 3), (29, 28)):
        c = warm_field(p, d)
        polys = [(c, field.poly_from_roots(c, [classify.rand_nonzero(c, rng) for _ in range(4)]))
                 for _ in range(8)]
        out[f"field.poly_roots.us.p{p}"] = _per_call(uawq.poly_roots, polys, repeats=3) * 1e6
    return out


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def from_spans(spans: list, ops: dict[str, int], passes: int, items: int) -> dict[str, float]:
    """Span-derived per-layer metrics of the traced passes.

    ``passes`` and ``items`` are the traced pass and item counts: per-pass
    figures are divided by the first, per-item ones by the second.
    """
    selfs = tracing.self_times(spans)
    dur: dict[str, list[float]] = defaultdict(list)
    notes: dict[str, list] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        dur[s.name].append(s.end - s.start)
        notes[s.name].append(s.note)
        self_s[s.name] += selfs[s.id]
        layer_self[s.name.split(".", 1)[0]] += selfs[s.id]

    def mean_where(name: str, keep) -> float:
        return _mean([d for d, n in zip(dur[name], notes[name]) if keep(n)])

    def mean(name: str) -> float:
        return _mean(dur[name])

    def frac_where(name: str, keep) -> float:
        return sum(1 for n in notes[name] if keep(n)) / len(notes[name]) if notes[name] else 0.0

    out = {f"field.Fq2.{k}.calls_per_item": ops[k] / items for k in ("mul", "inv", "pow")}
    rref_cells = [n[0] * n[1] for n in notes["linalg.rref"] if isinstance(n, tuple)]
    out.update({
        "table1.apply_row.calls": len(dur["table1.apply_row"]) / passes,
        "table1.apply_row.self_s": self_s["table1.apply_row"] / passes,
        "table1.apply_row.sqrt_rows_frac": frac_where("table1.apply_row", lambda n: n is True),
        "classify.simeq_closure.self_s": self_s["classify.simeq_closure"] / passes,
        "classify.simeq_closure.members_mean": _mean(
            [n for n in notes["classify.simeq_closure"] if isinstance(n, int)]),
        "classify.intertwiner.shortcut_frac": frac_where("classify.intertwiner",
                                                         lambda n: n is True),
        "classify.irr_W_criterion.us": mean("classify.irr_W_criterion") * 1e6,
        "classify.burnside_irreducible.us.dbar3": mean_where(
            "classify.burnside_irreducible", lambda n: n == 3) * 1e6,
        "classify.burnside_irreducible.ms.dbar14": mean_where(
            "classify.burnside_irreducible", lambda n: n == 14) * 1e3,
        "classify.intertwiner.ms": mean("classify.intertwiner") * 1e3,
        "classify.solve_feasible.ms": mean("classify.solve_feasible") * 1e3,
        "modules.build_W.us.dbar3": mean_where("modules.build_W", lambda n: n == 3) * 1e6,
        "modules.build_W.us.dbar14": mean_where("modules.build_W", lambda n: n == 14) * 1e6,
        "modules.nu_of.us": mean("modules.nu_of") * 1e6,
        "modules.e_vector.us": mean("modules.e_vector") * 1e6,
        "modules.L_recurrence.us": mean("modules.L_recurrence") * 1e6,
        "modules.marginal_vectors.us": mean("modules.marginal_vectors") * 1e6,
        "linalg.rref.ms": mean("linalg.rref") * 1e3,
        "linalg.rref.cells_mean": _mean(rref_cells),
        "linalg.kron.ms": mean("linalg.kron") * 1e3,
        "linalg.kernel.self_s": self_s["linalg.kernel"] / passes,
        "linalg.FMat.matmul.us": mean_where(
            "linalg.FMat.matmul", lambda n: n[:2] == (3, 3)) * 1e6,
        "algebra.verify_rep.us": mean("algebra.verify_rep") * 1e6,
        "algebra.vee.us": mean("algebra.vee") * 1e6,
        "parallel.pmap.wall_s": statistics.median(dur["parallel.pmap"])
        if dur["parallel.pmap"] else 0.0,
        "trace.spans_per_item": len(spans) / items,
    })
    tasks = dur["parallel.pmap.task"]
    out["parallel.chunk_s.max_over_mean"] = max(tasks) / _mean(tasks) if tasks else 0.0
    total_self = sum(layer_self.values()) or 1.0
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = layer_self[layer] / total_self
    return out


def top_self(spans: list, n: int = 12) -> list[tuple[str, int, float, float]]:
    """(name, calls, self seconds, share of all self time), largest first."""
    rows = tracing.by_name(spans)
    total = sum(r["self_s"] for r in rows.values()) or 1.0
    ranked = sorted(rows.items(), key=lambda kv: -kv[1]["self_s"])[:n]
    return [(name, int(r["calls"]), r["self_s"], r["self_s"] / total) for name, r in ranked]

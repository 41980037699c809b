"""Deterministic fan-out for parameter sweeps.

Workers are plain processes; results always come back in input order, so
parallel and serial runs produce identical output.  The UAWQ_THREADS
environment variable caps the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

from .errors import BadRange

T = TypeVar("T")
R = TypeVar("R")


def worker_count(requested: int | None = None) -> int:
    """The requested worker count capped by UAWQ_THREADS, else by the CPU count."""
    cap = os.environ.get("UAWQ_THREADS")
    if cap:
        try:
            limit = int(cap)
        except ValueError:
            raise BadRange(f"UAWQ_THREADS={cap!r} is not an integer") from None
    else:
        limit = os.cpu_count() or 1
    if requested is None:
        requested = limit
    return max(1, min(requested, limit))


def pmap(fn: Callable[[T], R], items: Sequence[T], workers: int | None = None) -> list[R]:
    """Map preserving input order; serial when one worker suffices."""
    n = worker_count(workers)
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=min(n, len(items))) as ex:
        return list(ex.map(fn, items))

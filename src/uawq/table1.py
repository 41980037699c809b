"""The 24-row action of S4 on sign-classes of parameter quadruples.

Each row maps (a, b, c, lam) to a new quadruple whose entries are monomials
in a, b, c, lam, q and s = sqrt(a*b*c*lam*q).  A row is stored as pure data:
its permutation label, its one-line permutation (0-based), and one exponent
vector (ea, eb, ec, el, eq, es) per output entry.  Every entry that involves
s carries it to an odd power, so flipping the choice of square root flips
all four entries at once and the induced map on sign-classes is well
defined.  A row is applied as data: each entry's discrete log is the dot
product of its exponent vector with the logs of (a, b, c, lam, q, s).

The transcription is validated by unit tests that compose the three
generator rows and compare against every other row.
"""

from __future__ import annotations

import numpy as np

from .errors import NeedsExtension
from .field import FieldCtx, Fq2, index_of

Expo = tuple[int, int, int, int, int, int]
Row = tuple[str, tuple[int, int, int, int], tuple[Expo, Expo, Expo, Expo]]

_A: Expo = (1, 0, 0, 0, 0, 0)
_B: Expo = (0, 1, 0, 0, 0, 0)
_C: Expo = (0, 0, 1, 0, 0, 0)
_L: Expo = (0, 0, 0, 1, 0, 0)

ROWS: tuple[Row, ...] = (
    ("e", (0, 1, 2, 3), (_A, _B, _C, _L)),
    ("(12)", (1, 0, 2, 3), (_A, _B, (0, 0, -1, 0, 0, 0), _L)),
    ("(23)", (0, 2, 1, 3),
     ((1, 0, 0, 0, 0, -1), (0, 1, 0, 0, 0, -1), (0, 0, 1, 0, 0, -1), (0, 0, 0, 1, 0, -1))),
    ("(132)", (2, 0, 1, 3),
     ((1, 0, 0, 0, 0, -1), (0, 1, 0, 0, 0, -1), (0, 0, -1, 0, 0, 1), (0, 0, 0, 1, 0, -1))),
    ("(13)", (2, 1, 0, 3),
     ((1, 0, 1, 0, 0, -1), (0, 1, 1, 0, 0, -1), (0, 0, 0, 0, 0, 1), (0, 0, 1, 1, 0, -1))),
    ("(123)", (1, 2, 0, 3),
     ((1, 0, 1, 0, 0, -1), (0, 1, 1, 0, 0, -1), (0, 0, 0, 0, 0, -1), (0, 0, 1, 1, 0, -1))),
    ("(34)", (0, 1, 3, 2), ((-1, 0, 0, 0, 0, 0), _B, _C, _L)),
    ("(12)(34)", (1, 0, 3, 2), ((-1, 0, 0, 0, 0, 0), _B, (0, 0, -1, 0, 0, 0), _L)),
    ("(243)", (0, 3, 1, 2),
     ((0, 0, 0, 0, 0, -1), (1, 1, 0, 0, 0, -1), (1, 0, 1, 0, 0, -1), (1, 0, 0, 1, 0, -1))),
    ("(1432)", (3, 0, 1, 2),
     ((0, 0, 0, 0, 0, -1), (1, 1, 0, 0, 0, -1), (-1, 0, -1, 0, 0, 1), (1, 0, 0, 1, 0, -1))),
    ("(143)", (3, 1, 0, 2),
     ((0, 0, 1, 0, 0, -1), (1, 1, 1, 0, 0, -1), (-1, 0, 0, 0, 0, 1), (1, 0, 1, 1, 0, -1))),
    ("(1243)", (1, 3, 0, 2),
     ((0, 0, 1, 0, 0, -1), (1, 1, 1, 0, 0, -1), (1, 0, 0, 0, 0, -1), (1, 0, 1, 1, 0, -1))),
    ("(24)", (0, 3, 2, 1),
     ((0, 0, 0, 0, 0, 1), (1, 1, 0, 0, 0, -1), (1, 0, 1, 0, 0, -1), (1, 0, 0, 1, 0, -1))),
    ("(142)", (3, 0, 2, 1),
     ((0, 0, 0, 0, 0, 1), (1, 1, 0, 0, 0, -1), (-1, 0, -1, 0, 0, 1), (1, 0, 0, 1, 0, -1))),
    ("(234)", (0, 2, 3, 1),
     ((-1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, -1), (0, 0, 1, 0, 0, -1), (0, 0, 0, 1, 0, -1))),
    ("(1342)", (2, 0, 3, 1),
     ((-1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, -1), (0, 0, -1, 0, 0, 1), (0, 0, 0, 1, 0, -1))),
    ("(13)(24)", (2, 3, 0, 1),
     ((0, 0, 1, 0, 0, 0), (0, 0, 0, -1, -1, 0), (1, 0, 0, 0, 0, 0), (0, -1, 0, 0, -1, 0))),
    ("(1423)", (3, 2, 0, 1),
     ((0, 0, 1, 0, 0, 0), (0, 0, 0, -1, -1, 0), (-1, 0, 0, 0, 0, 0), (0, -1, 0, 0, -1, 0))),
    ("(14)", (3, 1, 2, 0),
     ((0, 0, -1, 0, 0, 1), (1, 1, 1, 0, 0, -1), (-1, 0, 0, 0, 0, 1), (1, 0, 1, 1, 0, -1))),
    ("(124)", (1, 3, 2, 0),
     ((0, 0, -1, 0, 0, 1), (1, 1, 1, 0, 0, -1), (1, 0, 0, 0, 0, -1), (1, 0, 1, 1, 0, -1))),
    ("(14)(23)", (3, 2, 1, 0),
     ((0, 0, -1, 0, 0, 0), (0, 0, 0, -1, -1, 0), (-1, 0, 0, 0, 0, 0), (0, -1, 0, 0, -1, 0))),
    ("(1324)", (2, 3, 1, 0),
     ((0, 0, -1, 0, 0, 0), (0, 0, 0, -1, -1, 0), (1, 0, 0, 0, 0, 0), (0, -1, 0, 0, -1, 0))),
    ("(134)", (2, 1, 3, 0),
     ((-1, 0, -1, 0, 0, 1), (0, 1, 1, 0, 0, -1), (0, 0, 0, 0, 0, 1), (0, 0, 1, 1, 0, -1))),
    ("(1234)", (1, 2, 3, 0),
     ((-1, 0, -1, 0, 0, 1), (0, 1, 1, 0, 0, -1), (0, 0, 0, 0, 0, -1), (0, 0, 1, 1, 0, -1))),
)

GENERATOR_LABELS = ("(12)", "(23)", "(34)")

EXPONENTS = np.array([entries for _, _, entries in ROWS])  # every row's vectors, (24, 4, 6)

ROW_BY_LABEL = {label: (label, perm, entries) for label, perm, entries in ROWS}


def row_needs_sqrt(row: Row) -> bool:
    return any(e[5] != 0 for e in row[2])


def param_logs(ctx: FieldCtx, quads) -> np.ndarray:
    """The discrete logs of (a, b, c, lam, q) at plain-lex indices of
    (a, b, c, lam), -1 at a zero entry; the one place that looks up the log
    of q.  Elementwise on the rows of an integer array of shape (..., 4)."""
    log = ctx.log_tables()[1]
    logs = np.empty(np.shape(quads)[:-1] + (5,), dtype=np.int64)
    logs[..., :4] = log[np.asarray(quads)]
    logs[..., 4] = log[ctx.q.x0 * ctx.p + ctx.q.x1]
    return logs


def orbit_logs(ctx: FieldCtx, quads) -> np.ndarray:
    """``param_logs`` at nonzero plain-lex indices of (a, b, c, lam), then
    the log of s, the canonical (lex-min) root of a b c lam q as ``field.sqrt``
    returns it, or -1 when F_{p^2} holds none: shape (..., 6)."""
    logs = param_logs(ctx, quads)
    if (logs[..., :4] < 0).any():
        raise ValueError("parameters a, b, c, lam must be nonzero")
    total = logs.sum(-1)
    return np.concatenate([logs, np.where(total % 2, -1, ctx.root_log(total))[..., None]], -1)


def missing_root(ctx: FieldCtx, row: Row, logs) -> NeedsExtension | None:
    """The NeedsExtension to raise when the row involves s and ``orbit_logs`` has none."""
    if logs[5] < 0 and row_needs_sqrt(row):
        exp, _ = ctx.log_tables()
        arg = ctx.from_index(exp[logs[:5].sum() % len(exp)])
        return NeedsExtension(f"orbit row {row[0]} needs sqrt of non-square {arg!r}")


def entry_logs(ctx: FieldCtx, expo, logs: np.ndarray) -> np.ndarray:
    """The logs mod p^2 - 1 of monomials with exponent vectors ``expo`` at rows
    of ``orbit_logs``, of shape logs.shape[:-1] + expo.shape[:-1]."""
    return np.inner(logs, expo) % (ctx.p * ctx.p - 1)


def apply_row(row: Row, quad: tuple[Fq2, Fq2, Fq2, Fq2]) -> tuple[Fq2, Fq2, Fq2, Fq2]:
    """Evaluate a table row at a concrete quadruple of nonzero elements; raises
    NeedsExtension when the row involves s = sqrt(a b c lam q) and the argument
    is a non-square in F_{p^2}."""
    ctx = quad[0].ctx
    logs = orbit_logs(ctx, index_of(quad))
    if (missing := missing_root(ctx, row, logs)) is not None:
        raise missing
    return tuple(map(ctx.from_index, ctx.log_tables()[0][entry_logs(ctx, row[2], logs)].tolist()))

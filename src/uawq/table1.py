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

from .errors import NeedsExtension
from .field import Fq2

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

ROW_BY_LABEL = {label: (label, perm, entries) for label, perm, entries in ROWS}
ROW_BY_PERM = {perm: (label, perm, entries) for label, perm, entries in ROWS}


def perm_mul(sigma: tuple[int, ...], tau: tuple[int, ...]) -> tuple[int, ...]:
    """Composite permutation for applying the sigma row, then the tau row."""
    return tuple(sigma[tau[i]] for i in range(4))


def orbit_sqrt_arg(a: Fq2, b: Fq2, c: Fq2, lam: Fq2) -> Fq2:
    return a * b * c * lam * a.ctx.q


def row_needs_sqrt(row: Row) -> bool:
    return any(e[5] != 0 for e in row[2])


def apply_row(row: Row, quad: tuple[Fq2, Fq2, Fq2, Fq2]) -> tuple[Fq2, Fq2, Fq2, Fq2]:
    """Evaluate a table row at a concrete quadruple of nonzero elements.

    Raises NeedsExtension when the row involves s = sqrt(a b c lam q) and
    the argument is a non-square in F_{p^2}.  s is the canonical (lex-min)
    root, as ``field.sqrt`` returns it.
    """
    a, b, c, lam = quad
    ctx = a.ctx
    p, q = ctx.p, ctx.q
    exp, log = ctx.log_tables()
    n = len(exp)
    logs = [log[x.x0 * p + x.x1] for x in (a, b, c, lam, q)]
    if min(logs) < 0:
        raise ValueError("parameters a, b, c, lam must be nonzero")
    ls = 0
    if row_needs_sqrt(row):
        total = sum(logs)
        if total % 2:
            arg = orbit_sqrt_arg(a, b, c, lam)
            raise NeedsExtension(f"orbit row {row[0]} needs sqrt of non-square {arg!r}")
        ls = ctx.root_log(total)
    la, lb, lc, ll, lq = logs
    out = []
    for ea, eb, ec, el, eq, es in row[2]:
        k = exp[(ea * la + eb * lb + ec * lc + el * ll + eq * lq + es * ls) % n]
        out.append(Fq2(ctx, k // p, k % p))
    return tuple(out)

"""Dense exact linear algebra over F_{p^2}.

Matrices are stored as int64 numpy arrays of shape (2, rows, cols); the first
axis holds the two components of x0 + x1*sqrt(t), as in the generator arrays
(cases, 2, 2, n, n) of ``modules.build_many``, whose [c, g] is the array of
generator g of case c.  All arithmetic reduces mod p after every product, so
entries never leave [0, p).

The FMat wrapper gives operator syntax (@, +, -, scalar *) and exact
equality; the module-level functions provide echelon forms, kernels,
characteristic polynomials and Kronecker products on top of it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .field import FieldCtx, Fq2, mul_parts, poly_add, poly_scale


class FMat:
    """Immutable matrix over F_{p^2}, stored C-contiguous whatever its input's strides."""

    __slots__ = ("ctx", "arr")

    def __init__(self, ctx: FieldCtx, arr: np.ndarray):
        if arr.ndim != 3 or arr.shape[0] != 2:
            raise InvariantViolation(f"matrix array of shape {arr.shape}, want (2, rows, cols)")
        a = np.ascontiguousarray(arr, dtype=np.int64) % ctx.p
        a.setflags(write=False)
        self.ctx = ctx
        self.arr = a

    # -- constructors -----------------------------------------------------

    @classmethod
    def _of_parts(cls, ctx: FieldCtx, parts) -> "FMat":
        """The matrix of components in [0, p), as ``mul_parts`` leaves them, not reduced again."""
        m = cls.__new__(cls)
        m.ctx, m.arr = ctx, np.stack(parts)
        m.arr.setflags(write=False)
        return m

    @classmethod
    def zeros(cls, ctx: FieldCtx, rows: int, cols: int) -> "FMat":
        return cls(ctx, np.zeros((2, rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "FMat":
        return cls.scalar(ctx, n, ctx.one)

    @classmethod
    def from_entries(cls, ctx: FieldCtx, rows: Sequence[Sequence[Fq2]]) -> "FMat":
        r = len(rows)
        c = len(rows[0]) if r else 0
        a = np.zeros((2, r, c), dtype=np.int64)
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                a[0, i, j] = x.x0
                a[1, i, j] = x.x1
        return cls(ctx, a)

    @classmethod
    def column(cls, ctx: FieldCtx, entries: Sequence[Fq2]) -> "FMat":
        return cls.from_entries(ctx, [[x] for x in entries])

    @classmethod
    def scalar(cls, ctx: FieldCtx, n: int, s: Fq2) -> "FMat":
        return cls(ctx, np.multiply.outer([s.x0, s.x1], np.eye(n, dtype=np.int64)))

    # -- shape / access ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.arr.shape[1], self.arr.shape[2]

    @property
    def nrows(self) -> int:
        return self.arr.shape[1]

    @property
    def ncols(self) -> int:
        return self.arr.shape[2]

    def entry(self, i: int, j: int) -> Fq2:
        return Fq2(self.ctx, int(self.arr[0, i, j]), int(self.arr[1, i, j]))

    def col(self, j: int) -> "FMat":
        return FMat(self.ctx, self.arr[:, :, j : j + 1])

    def is_zero(self) -> bool:
        return not self.arr.any()

    def transpose(self) -> "FMat":
        return FMat(self.ctx, self.arr.transpose(0, 2, 1))

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "FMat") -> "FMat":
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        c = mul_parts(*self.arr, *other.arr, self.ctx.p, self.ctx.t, np.matmul)
        return FMat._of_parts(self.ctx, c)

    def __add__(self, other: "FMat") -> "FMat":
        return FMat(self.ctx, self.arr + other.arr)

    def __sub__(self, other: "FMat") -> "FMat":
        return FMat(self.ctx, self.arr - other.arr)

    def __neg__(self) -> "FMat":
        return FMat(self.ctx, -self.arr)

    def __mul__(self, s) -> "FMat":
        if isinstance(s, int):
            s = self.ctx.el(s)
        if not isinstance(s, Fq2):
            return NotImplemented
        c = mul_parts(*self.arr, s.x0, s.x1, self.ctx.p, self.ctx.t)
        return FMat._of_parts(self.ctx, c)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, FMat):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.arr, other.arr))

    def __hash__(self) -> int:
        return hash((self.shape, self.arr.tobytes()))

    def __repr__(self) -> str:
        rows = [
            "[" + ", ".join(repr(self.entry(i, j)) for j in range(self.ncols)) + "]"
            for i in range(self.nrows)
        ]
        return "FMat([" + ", ".join(rows) + "])"

    def to_json(self) -> list[list[list[int]]]:
        return self.arr.transpose(1, 2, 0).tolist()


def commutator(a: FMat, b: FMat) -> FMat:
    return a @ b - b @ a


def is_scalar_matrix(m: FMat) -> Fq2 | None:
    """The scalar s with m == s*I, or None."""
    n = m.nrows
    if n != m.ncols:
        return None
    s = m.entry(0, 0) if n else m.ctx.zero
    if m == FMat.scalar(m.ctx, n, s):
        return s
    return None


# ---------------------------------------------------------------------------
# echelon forms, rank, kernel


def check_int64(bound: int, what: str) -> None:
    """Raise InvariantViolation when an accumulation bound leaves int64."""
    if bound >= 2**63:
        raise InvariantViolation(f"{what} sums up to {bound}, beyond int64")


# Case arrays held at once by a lockstep batch, in bytes; larger batches run
# in groups, so that high-dimensional modules cannot exhaust memory.
LOCKSTEP_BYTES = 1 << 23


@lru_cache(maxsize=None)
def _inverses(p: int, t: int) -> np.ndarray:
    """The components of 1/x = (x0 - x1 sqrt(t)) / (x0^2 - t x1^2) for every
    x in F_{p^2}, by plain-lex index x0*p + x1; zero for zero."""
    x0, x1 = np.divmod(np.arange(p * p, dtype=np.int64), p)
    norm_inv = np.array([pow(n, -1, p) if n else 0 for n in range(p)], dtype=np.int64)
    ninv = norm_inv[(x0 * x0 - t * (x1 * x1)) % p]
    inv = np.stack([x0 * ninv % p, -x1 * ninv % p], axis=-1)
    inv.setflags(write=False)
    return inv


def pivot_step(b0, b1, v0, v1, j, p: int, t: int):
    """One Gauss-Jordan pivot step on the components of a basis b: scale the
    row v by the inverse of its entry in column j, clear column j from the
    rows of b that hold it (in place), and return the scaled row.

    Works on the last two axes of b (rows, cols) and the last axis of v, so
    leading axes hold independent cases, with one j each.  A case whose v is
    zero in column j has no pivot: it clears nothing and its row is zero.
    Each v must be zero left of its j; then no column left of the smallest
    pivot j changes, and the returned row starts there.  An updated entry is
    x - (e0 w0 + t e1 w1) with every factor in [0, p), so it stays below
    (1+t)*p^2 in magnitude.
    """
    batched = v0.ndim > 1
    lead = (np.arange(len(j)),) if batched else ()
    x0, x1 = v0[lead + (j,)], v1[lead + (j,)]
    inv = _inverses(p, t)[x0 * p + x1]
    lo = int(j[(x0 | x1) != 0].min()) if batched else j
    w0, w1 = mul_parts(v0[..., lo:], v1[..., lo:], inv[..., :1], inv[..., 1:], p, t)
    e0, e1 = b0[lead + (slice(None), j)], b1[lead + (slice(None), j)]
    held = e0 | e1
    hit = np.flatnonzero(held.any(0) if batched else held)
    if hit.size:
        b0[..., hit, lo:], b1[..., hit, lo:] = mul_parts(
            e0[..., hit, None], e1[..., hit, None], w0[..., None, :], w1[..., None, :], p, t,
            subtract_from=(b0[..., hit, lo:], b1[..., hit, lo:]))
    return w0, w1


def rref(m: FMat) -> tuple[FMat, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns.

    Each pivot is one ``pivot_step``: it changes only the rows with a nonzero
    entry in the pivot column, and only from that column on.  Its entries
    stay below (1+t)*p^2, which must fit in int64.
    """
    ctx = m.ctx
    p, t = ctx.p, ctx.t
    check_int64((1 + t) * p * p, "rref row update")
    a0, a1 = m.arr.copy()
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a0[r:, c] | a1[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a0[[r, i]] = a0[[i, r]]
            a1[[r, i]] = a1[[i, r]]
        # Row r is among the rows cleared (a_r - a_rc * a_r / a_rc = 0)
        # before the scaled row is stored back in its place.
        a0[r, c:], a1[r, c:] = pivot_step(a0, a1, a0[r], a1[r], c, p, t)
        pivots.append(c)
        r += 1
    return FMat._of_parts(ctx, (a0, a1)), tuple(pivots)


def rank(m: FMat) -> int:
    return len(rref(m)[1])


def kernel(m: FMat) -> FMat:
    """Columns form a basis of the right kernel {v : m v = 0}."""
    red, pivots = rref(m)
    cols = m.ncols
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((2, cols, len(free)), dtype=np.int64)
    basis[:, list(pivots)] = -red.arr[:, : len(pivots)][:, :, free]
    basis[0, free, range(len(free))] = 1
    return FMat(m.ctx, basis)


def hstack(mats: Sequence[FMat]) -> FMat:
    return FMat(mats[0].ctx, np.concatenate([m.arr for m in mats], axis=2))


def kron(a: FMat, b: FMat) -> FMat:
    return FMat._of_parts(a.ctx, mul_parts(*a.arr, *b.arr, a.ctx.p, a.ctx.t, np.kron))


# ---------------------------------------------------------------------------
# characteristic polynomial (Hessenberg reduction; division-free recurrence
# would also work but pivoted similarity transforms are simpler here)


def char_poly(m: FMat) -> list[Fq2]:
    """Monic characteristic polynomial det(xI - m), ascending coefficients."""
    ctx = m.ctx
    n = m.nrows
    if n != m.ncols:
        raise InvariantViolation(f"char_poly of a {n}x{m.ncols} matrix")
    if n == 0:
        return [ctx.one]
    h = [[m.entry(i, j) for j in range(n)] for i in range(n)]
    # reduce to upper Hessenberg form by similarity
    for c in range(n - 2):
        piv = None
        for r in range(c + 1, n):
            if not h[r][c].is_zero():
                piv = r
                break
        if piv is None:
            continue
        if piv != c + 1:
            h[c + 1], h[piv] = h[piv], h[c + 1]
            for r in range(n):
                h[r][c + 1], h[r][piv] = h[r][piv], h[r][c + 1]
        inv = h[c + 1][c].inv()
        for r in range(c + 2, n):
            f = h[r][c] * inv
            if f.is_zero():
                continue
            h[r] = [h[r][j] - f * h[c + 1][j] for j in range(n)]
            for i in range(n):
                h[i][c + 1] = h[i][c + 1] + f * h[i][r]
    # p_k(x) = det(xI - H_k) for leading principal k x k blocks
    polys: list[list[Fq2]] = [[ctx.one]]
    for k in range(1, n + 1):
        # (x - h_kk) p_{k-1}
        term = poly_add([ctx.zero] + polys[k - 1], poly_scale(polys[k - 1], -h[k - 1][k - 1]))
        sub = ctx.one
        for j in range(k - 1, 0, -1):
            sub = sub * h[j][j - 1]
            coeff = h[j - 1][k - 1] * sub
            if not coeff.is_zero():
                term = poly_add(term, poly_scale(polys[j - 1], -coeff))
        polys.append(term)
    return polys[n]


def mat_poly_eval(coeffs: Sequence[Fq2], m: FMat) -> FMat:
    """Evaluate a polynomial at a square matrix (Horner)."""
    ctx = m.ctx
    n = m.nrows
    acc = FMat.zeros(ctx, n, n)
    for c in reversed(list(coeffs)):
        acc = acc @ m + FMat.scalar(ctx, n, c)
    return acc


def product_shifted(m: FMat, shifts: Sequence[Fq2]) -> FMat:
    """prod_i (m - shifts[i] * I), multiplied left to right."""
    ctx = m.ctx
    n = m.nrows
    acc = FMat.identity(ctx, n)
    for s in shifts:
        acc = acc @ (m - FMat.scalar(ctx, n, s))
    return acc


def krylov_span_dim(m: FMat, v: FMat) -> int:
    """Dimension of span{v, m v, m^2 v, ...}."""
    vs = [v]
    for _ in range(m.nrows - 1):
        vs.append(m @ vs[-1])
    return rank(hstack(vs))

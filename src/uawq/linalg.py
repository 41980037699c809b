"""Dense exact linear algebra over F_{p^2}.

Matrices are stored as int64 numpy arrays of shape (rows, cols, 2); the last
axis holds the two components of x0 + x1*sqrt(t).  All arithmetic reduces
mod p after every product, so entries never leave [0, p).

The FMat wrapper gives operator syntax (@, +, -, scalar *) and exact
equality; the module-level functions provide echelon forms, kernels,
characteristic polynomials and Kronecker products on top of it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .field import FieldCtx, Fq2, poly_trim


def _mul_parts(a0, a1, b0, b1, p, t):
    return (a0 * b0 + t * (a1 * b1)) % p, (a0 * b1 + a1 * b0) % p


class FMat:
    """Immutable matrix over F_{p^2}."""

    __slots__ = ("ctx", "arr")

    def __init__(self, ctx: FieldCtx, arr: np.ndarray):
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise InvariantViolation(f"matrix array of shape {arr.shape}, want (rows, cols, 2)")
        a = np.asarray(arr, dtype=np.int64) % ctx.p
        a.setflags(write=False)
        self.ctx = ctx
        self.arr = a

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, ctx: FieldCtx, rows: int, cols: int) -> "FMat":
        return cls(ctx, np.zeros((rows, cols, 2), dtype=np.int64))

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "FMat":
        a = np.zeros((n, n, 2), dtype=np.int64)
        a[np.arange(n), np.arange(n), 0] = 1
        return cls(ctx, a)

    @classmethod
    def from_entries(cls, ctx: FieldCtx, rows: Sequence[Sequence[Fq2]]) -> "FMat":
        r = len(rows)
        c = len(rows[0]) if r else 0
        a = np.zeros((r, c, 2), dtype=np.int64)
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                a[i, j, 0] = x.x0
                a[i, j, 1] = x.x1
        return cls(ctx, a)

    @classmethod
    def column(cls, ctx: FieldCtx, entries: Sequence[Fq2]) -> "FMat":
        return cls.from_entries(ctx, [[x] for x in entries])

    @classmethod
    def scalar(cls, ctx: FieldCtx, n: int, s: Fq2) -> "FMat":
        a = np.zeros((n, n, 2), dtype=np.int64)
        a[np.arange(n), np.arange(n), 0] = s.x0
        a[np.arange(n), np.arange(n), 1] = s.x1
        return cls(ctx, a)

    # -- shape / access ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.arr.shape[0], self.arr.shape[1]

    @property
    def nrows(self) -> int:
        return self.arr.shape[0]

    @property
    def ncols(self) -> int:
        return self.arr.shape[1]

    def entry(self, i: int, j: int) -> Fq2:
        return Fq2(self.ctx, int(self.arr[i, j, 0]), int(self.arr[i, j, 1]))

    def col(self, j: int) -> "FMat":
        return FMat(self.ctx, self.arr[:, j : j + 1, :])

    def row(self, i: int) -> "FMat":
        return FMat(self.ctx, self.arr[i : i + 1, :, :])

    def entries(self) -> list[list[Fq2]]:
        return [[self.entry(i, j) for j in range(self.ncols)] for i in range(self.nrows)]

    def is_zero(self) -> bool:
        return not self.arr.any()

    def transpose(self) -> "FMat":
        return FMat(self.ctx, self.arr.transpose(1, 0, 2))

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "FMat") -> "FMat":
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        p, t = self.ctx.p, self.ctx.t
        a0, a1 = self.arr[..., 0], self.arr[..., 1]
        b0, b1 = other.arr[..., 0], other.arr[..., 1]
        c0 = (a0 @ b0 + t * (a1 @ b1)) % p
        c1 = (a0 @ b1 + a1 @ b0) % p
        return FMat(self.ctx, np.stack([c0, c1], axis=-1))

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
        p, t = self.ctx.p, self.ctx.t
        a0, a1 = self.arr[..., 0], self.arr[..., 1]
        c0, c1 = _mul_parts(a0, a1, s.x0, s.x1, p, t)
        return FMat(self.ctx, np.stack([c0, c1], axis=-1))

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
        return [[list(map(int, self.arr[i, j])) for j in range(self.ncols)] for i in range(self.nrows)]


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


def rref(m: FMat) -> tuple[FMat, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns.

    A pivot at (r, c) changes only the rows with a nonzero entry in column c,
    and only in columns >= c, since the pivot row is zero left of c.  Each
    updated entry is x - (f0 y0 + t f1 y1) with every factor in [0, p), so
    its magnitude stays below (1+t)*p^2, which must fit in int64.
    """
    ctx = m.ctx
    p, t = ctx.p, ctx.t
    check_int64((1 + t) * p * p, "rref row update")
    a0 = m.arr[..., 0].copy()
    a1 = m.arr[..., 1].copy()
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
        piv = Fq2(ctx, int(a0[r, c]), int(a1[r, c])).inv()
        w0, w1 = _mul_parts(a0[r, c:], a1[r, c:], piv.x0, piv.x1, p, t)
        # The rows to clear include row r itself, which the update zeroes
        # (a_r - a_rc * a_r / a_rc) before the scaled row is written back.
        hit = np.flatnonzero(a0[:, c] | a1[:, c])
        f0, f1 = a0[hit, c, None], a1[hit, c, None]
        a0[hit, c:] = (a0[hit, c:] - (f0 * w0 + t * (f1 * w1))) % p
        a1[hit, c:] = (a1[hit, c:] - (f0 * w1 + f1 * w0)) % p
        a0[r, c:], a1[r, c:] = w0, w1
        pivots.append(c)
        r += 1
    red = np.stack([a0, a1], axis=-1)
    del a0, a1  # FMat copies red while reducing it; free the components first
    return FMat(ctx, red), tuple(pivots)


def rank(m: FMat) -> int:
    return len(rref(m)[1])


def kernel(m: FMat) -> FMat:
    """Columns form a basis of the right kernel {v : m v = 0}."""
    red, pivots = rref(m)
    cols = m.ncols
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free), 2), dtype=np.int64)
    basis[list(pivots)] = -red.arr[: len(pivots)][:, free]
    basis[free, range(len(free)), 0] = 1
    return FMat(m.ctx, basis)


def hstack(mats: Sequence[FMat]) -> FMat:
    return FMat(mats[0].ctx, np.concatenate([m.arr for m in mats], axis=1))


def vstack(mats: Sequence[FMat]) -> FMat:
    return FMat(mats[0].ctx, np.concatenate([m.arr for m in mats], axis=0))


def kron(a: FMat, b: FMat) -> FMat:
    p, t = a.ctx.p, a.ctx.t
    a0, a1 = a.arr[..., 0], a.arr[..., 1]
    b0, b1 = b.arr[..., 0], b.arr[..., 1]
    c0 = (np.kron(a0, b0) + t * np.kron(a1, b1)) % p
    c1 = (np.kron(a0, b1) + np.kron(a1, b0)) % p
    return FMat(a.ctx, np.stack([c0, c1], axis=-1))


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
        term = poly_mul_shifted(polys[k - 1], -h[k - 1][k - 1])
        sub = ctx.one
        for j in range(k - 1, 0, -1):
            sub = sub * h[j][j - 1]
            coeff = h[j - 1][k - 1] * sub
            if not coeff.is_zero():
                term = _poly_axpy(term, polys[j - 1], -coeff)
        polys.append(term)
    return poly_trim(polys[n])


def poly_mul_shifted(f: list[Fq2], c: Fq2) -> list[Fq2]:
    """(x + c) * f, used by the Hessenberg characteristic recurrence."""
    ctx = c.ctx
    out = [ctx.zero] + list(f)
    for i, a in enumerate(f):
        out[i] = out[i] + c * a
    return out


def _poly_axpy(f: list[Fq2], g: list[Fq2], c: Fq2) -> list[Fq2]:
    out = list(f)
    while len(out) < len(g):
        out.append(c.ctx.zero)
    for i, a in enumerate(g):
        out[i] = out[i] + c * a
    return out


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

"""Exact arithmetic in F_p and its quadratic extension F_{p^2}.

The extension is F_p(sqrt(t)) for t the least quadratic non-residue mod p.
An element is a pair (x0, x1) representing x0 + x1*sqrt(t) with both
residues reduced into [0, p).  Every value is immutable, so a FieldCtx and
any elements drawn from it may be shared freely across workers.

The context also fixes a root of unity q of exact multiplicative order d
(d not in {1, 2, 4}) and the derived order dbar of q^2: dbar = d for odd d
and d/2 for even d.

Powers, square roots and orders are read off discrete-log tables of the
cyclic group F_{p^2}^*, built once per (p, t) from the canonical generator
(Lidl & Niederreiter, *Finite Fields*; K. Huber, "Some comments on
Zech's logarithms", IEEE Trans. IT, 1990), as read-only int64 arrays.
Elements are addressed in them by their plain-lex index x0*p + x1, which is
monotone in ``key``.  Scalar readers take Python ints off them, so every
``Fq2`` holds plain ints.

The root finders (``poly_roots_many`` by one scan of the whole field for a
batch of polynomials, ``poly_roots`` a batch of one, ``quadratic_roots`` by
the quadratic formula) return each root in F_{p^2} once, in plain-lex order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import gcd
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DExcluded,
    DivisionByZero,
    DOrderUnavailable,
    InvariantViolation,
    NotASquare,
    NotPrime,
    ZeroPolynomial,
)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Fq2:
    """An element x0 + x1*sqrt(t) of F_{p^2}, in canonical reduced form."""

    __slots__ = ("ctx", "x0", "x1")

    def __init__(self, ctx: "FieldCtx", x0: int, x1: int = 0):
        self.ctx = ctx
        self.x0 = x0 % ctx.p
        self.x1 = x1 % ctx.p

    # -- predicates and canonical ordering ------------------------------

    def is_zero(self) -> bool:
        return self.x0 == 0 and self.x1 == 0

    @property
    def key(self) -> tuple[int, int]:
        """Plain lexicographic sort key (x0, x1)."""
        return (self.x0, self.x1)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Fq2":
        if isinstance(other, Fq2):
            return other
        if isinstance(other, int):
            return Fq2(self.ctx, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fq2(self.ctx, self.x0 + o.x0, self.x1 + o.x1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fq2(self.ctx, self.x0 - o.x0, self.x1 - o.x1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Fq2(self.ctx, -self.x0, -self.x1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p, t = self.ctx.p, self.ctx.t
        return Fq2(
            self.ctx,
            (self.x0 * o.x0 + t * self.x1 * o.x1) % p,
            (self.x0 * o.x1 + self.x1 * o.x0) % p,
        )

    __rmul__ = __mul__

    def inv(self) -> "Fq2":
        """Multiplicative inverse; raises DivisionByZero on zero."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero in F_{p^2}")
        p, t = self.ctx.p, self.ctx.t
        # 1/(x0 + x1 s) = (x0 - x1 s) / (x0^2 - t x1^2); the norm is in F_p.
        norm = (self.x0 * self.x0 - t * self.x1 * self.x1) % p
        ninv = pow(norm, -1, p)
        return Fq2(self.ctx, self.x0 * ninv, -self.x1 * ninv)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, e: int) -> "Fq2":
        if not isinstance(e, int):
            return NotImplemented
        ctx = self.ctx
        if self.x0 == 0 and self.x1 == 0:
            if e < 0:
                raise DivisionByZero("inverse of zero in F_{p^2}")
            return ctx.one if e == 0 else ctx.zero
        exp, log = ctx.log_tables()
        return ctx.from_index(exp.item(log.item(self.x0 * ctx.p + self.x1) * e % len(exp)))

    # -- comparisons / hashing -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Fq2(self.ctx, other)
        if not isinstance(other, Fq2):
            return NotImplemented
        return (
            self.x0 == other.x0
            and self.x1 == other.x1
            and self.ctx.p == other.ctx.p
            and self.ctx.t == other.ctx.t
        )

    def __hash__(self) -> int:
        return hash((self.x0, self.x1, self.ctx.p, self.ctx.t))

    def __repr__(self) -> str:
        if self.x1 == 0:
            return str(self.x0)
        if self.x0 == 0:
            return f"{self.x1}i"
        return f"{self.x0}+{self.x1}i"

    def to_json(self) -> list[int]:
        return [self.x0, self.x1]


class FieldCtx:
    """F_{p^2} together with a fixed root of unity q of order d.

    Use :func:`ctx_new` to construct one; the constructor assumes already
    validated inputs.
    """

    __slots__ = ("p", "t", "d", "dbar", "q", "_qpows", "_all")

    def __init__(self, p: int, t: int, d: int, q_pair: tuple[int, int]):
        self.p = p
        self.t = t
        self.d = d
        self.dbar = d if d % 2 else d // 2
        self.q = Fq2(self, q_pair[0], q_pair[1])
        self._qpows: list[Fq2] | None = None
        self._all: np.ndarray | None = None

    # -- element constructors ---------------------------------------------

    def el(self, x0: int, x1: int = 0) -> Fq2:
        return Fq2(self, x0, x1)

    @property
    def zero(self) -> Fq2:
        return Fq2(self, 0)

    @property
    def one(self) -> Fq2:
        return Fq2(self, 1)

    def from_index(self, k: int) -> Fq2:
        """Element of plain-lex rank k, also a numpy integer: (k // p, k % p)."""
        return Fq2(self, *divmod(int(k), self.p))

    def from_json(self, pair: Sequence[int]) -> Fq2:
        x0, x1 = pair
        return Fq2(self, int(x0), int(x1))

    def elements(self) -> Iterator[Fq2]:
        """All p^2 elements in plain lexicographic (x0, x1) order."""
        for x0 in range(self.p):
            for x1 in range(self.p):
                yield Fq2(self, x0, x1)

    def element_table(self) -> np.ndarray:
        """All elements as an int64 array of shape (p^2, 2), plain-lex order."""
        if self._all is None:
            p = self.p
            x0, x1 = np.divmod(np.arange(p * p, dtype=np.int64), p)
            self._all = np.stack([x0, x1], axis=-1)
            self._all.setflags(write=False)
        return self._all

    def qpow(self, k: int) -> Fq2:
        """q^k for any integer k, via the order-d cycle."""
        if self._qpows is None:
            pows = [self.one]
            for _ in range(self.d - 1):
                pows.append(pows[-1] * self.q)
            self._qpows = pows
        return self._qpows[k % self.d]

    def log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log) of the canonical generator g, read-only int64 arrays:
        exp[k] is the plain-lex index of g^k for 0 <= k < p^2 - 1, and log[i]
        is the discrete log of the element of index i (log[0] = -1: zero has
        none)."""
        return _log_tables(self.p, self.t)

    def root_log(self, k):
        """The log of the canonical (lex-least) square root of g^k, k even;
        elementwise on an integer array ``k``.

        The roots are g^(k/2) and g^(k/2 + (p^2-1)/2) = -g^(k/2).
        """
        exp, log = self.log_tables()
        half = len(exp) // 2
        r = k // 2 % half
        return log[np.minimum(exp[r], exp[r + half])]

    # pickling: drop lazily built caches so contexts ship cheaply to workers

    def __getstate__(self):
        return (self.p, self.t, self.d, (self.q.x0, self.q.x1))

    def __setstate__(self, state):
        p, t, d, q_pair = state
        self.__init__(p, t, d, q_pair)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.t, self.d) == (other.p, other.t, other.d)
            and self.q.key == other.q.key
        )

    def __hash__(self) -> int:
        return hash((self.p, self.t, self.d, self.q.key))

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, d={self.d}, q={self.q!r}, dbar={self.dbar})"


def _least_nonresidue(p: int) -> int:
    for t in range(2, p):
        if pow(t, (p - 1) // 2, p) != 1:
            return t
    raise NotPrime(f"{p} admits no quadratic non-residue")


@lru_cache(maxsize=None)
def _log_tables(p: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Discrete-log tables of F_p(sqrt(t))^* for its canonical generator, the
    element of least plain-lex index with order p^2 - 1.

    Candidates are walked in index order; a candidate whose powers return to
    1 early has smaller order and is skipped.  log is the inverse permutation
    of exp.  Read-only arrays that hold no context, so this cache is their
    one copy, shared by every context with this (p, t).
    """
    n = p * p - 1
    for g in range(1, p * p):
        g0, g1 = divmod(g, p)
        exp = [p]  # index of 1
        x0, x1 = g0, g1
        while x0 != 1 or x1 != 0:
            exp.append(x0 * p + x1)
            x0, x1 = (x0 * g0 + t * x1 * g1) % p, (x0 * g1 + x1 * g0) % p
        if len(exp) == n:
            exp = np.array(exp, dtype=np.int64)
            log = np.full(p * p, -1, dtype=np.int64)
            log[exp] = np.arange(n)
            for table in (exp, log):
                table.setflags(write=False)
            return exp, log
    raise InvariantViolation(f"F_{{{p}^2}} has no generator")


def index_of(xs: Iterable[Fq2]) -> tuple[int, ...]:
    """The plain-lex indices x0*p + x1 of some elements, in order."""
    return tuple(x.x0 * x.ctx.p + x.x1 for x in xs)


def index_sub(i: int, j: int, p: int) -> int:
    """Plain-lex index of the difference of the elements of indices i and j."""
    return (i // p - j // p) % p * p + (i - j) % p


def mul_parts(x0, x1, y0, y1, p: int, t: int, op=np.multiply, subtract_from=None):
    """Components of x*y mod p on int64 arrays, where x = x0 + x1*sqrt(t):
    (x0 y0 + t x1 y1, x0 y1 + x1 y0), with products formed by ``op``
    (``np.multiply``, ``np.matmul`` or ``np.kron``).  Given a pair
    ``subtract_from`` that broadcasts to the product's shape, the components
    of that element minus x*y instead.  The sums run in place on the
    products, sparing large updates a temporary per step.

    With every entry in [0, p), an entry of an op that sums k products stays
    below k*(1+t)*p^2 before the reduction, which must fit in int64.
    """
    c0 = op(x0, y0)
    c0 += t * op(x1, y1)
    c1 = op(x0, y1)
    c1 += op(x1, y0)
    if subtract_from is not None:
        np.subtract(subtract_from[0], c0, out=c0)
        np.subtract(subtract_from[1], c1, out=c1)
    return np.remainder(c0, p, out=c0), np.remainder(c1, p, out=c1)


def ctx_new(p: int, d: int) -> FieldCtx:
    """Build the field context for prime p and root-of-unity order d.

    q is chosen as the least element of exact order d, in the canonical
    ordering that lists the prime field first and is lexicographic on
    (x0, x1) within each part.  t is the least non-square in F_p.
    """
    if not _is_prime(p) or p == 2:
        raise NotPrime(f"p must be an odd prime, got {p}")
    if d in (1, 2, 4):
        raise DExcluded(f"order d={d} is excluded")
    if d < 1 or (p * p - 1) % d != 0:
        raise DOrderUnavailable(f"d={d} does not divide p^2-1={p * p - 1}")
    t = _least_nonresidue(p)
    _, log = _log_tables(p, t)
    n = p * p - 1
    # the prime field first, then x1 != 0; g^k has order n / gcd(k, n)
    candidates = chain(range(p, p * p, p), (i for i in range(p * p) if i % p))
    for i in candidates:
        if n // gcd(log.item(i), n) == d:
            return FieldCtx(p, t, d, divmod(i, p))
    # unreachable: d | p^2-1 guarantees an element of order d
    raise DOrderUnavailable(f"no element of order {d} found")


# ---------------------------------------------------------------------------
# square roots


def is_square(x: Fq2) -> bool:
    """Whether x is a square in F_{p^2}: zero, or of even discrete log."""
    if x.is_zero():
        return True
    _, log = x.ctx.log_tables()
    return log.item(x.x0 * x.ctx.p + x.x1) % 2 == 0


def sqrt(x: Fq2) -> Fq2:
    """Canonical square root in F_{p^2}: the lex-smaller of the two roots.

    Raises NotASquare when the root lives only in a further extension.
    """
    ctx = x.ctx
    if not is_square(x):
        raise NotASquare(f"{x!r} is not a square in F_{{{ctx.p}^2}}")
    if x.is_zero():
        return ctx.zero
    exp, log = ctx.log_tables()
    return ctx.from_index(exp[ctx.root_log(log.item(x.x0 * ctx.p + x.x1))])


# ---------------------------------------------------------------------------
# polynomials over F_{p^2}
#
# A polynomial is a list of Fq2 coefficients in ascending degree order.


def poly_trim(coeffs: Sequence[Fq2]) -> list[Fq2]:
    out = list(coeffs)
    while out and out[-1].is_zero():
        out.pop()
    return out


def poly_add(f: Sequence[Fq2], g: Sequence[Fq2]) -> list[Fq2]:
    ctx = (f[0] if f else g[0]).ctx
    n = max(len(f), len(g))
    fz = list(f) + [ctx.zero] * (n - len(f))
    gz = list(g) + [ctx.zero] * (n - len(g))
    return poly_trim([a + b for a, b in zip(fz, gz)])


def poly_sub(f: Sequence[Fq2], g: Sequence[Fq2]) -> list[Fq2]:
    return poly_add(f, [-c for c in g])


def poly_mul(f: Sequence[Fq2], g: Sequence[Fq2]) -> list[Fq2]:
    if not f or not g:
        return []
    ctx = f[0].ctx
    out = [ctx.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a.is_zero():
            continue
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return poly_trim(out)


def poly_scale(f: Sequence[Fq2], s: Fq2) -> list[Fq2]:
    return poly_trim([c * s for c in f])


def poly_eval(f: Sequence[Fq2], x: Fq2) -> Fq2:
    acc = x.ctx.zero
    for c in reversed(list(f)):
        acc = acc * x + c
    return acc


def poly_from_roots(ctx: FieldCtx, roots: Sequence[Fq2]) -> list[Fq2]:
    out = [ctx.one]
    for r in roots:
        out = poly_mul(out, [-r, ctx.one])
    return out


def poly_gcd(f: Sequence[Fq2], g: Sequence[Fq2]) -> list[Fq2]:
    """Monic gcd via the Euclidean algorithm."""
    a, b = poly_trim(f), poly_trim(g)
    while b:
        a, b = b, _poly_mod(a, b)
    if a:
        a = poly_scale(a, a[-1].inv())
    return a


def _poly_mod(a: list[Fq2], b: list[Fq2]) -> list[Fq2]:
    ctx = b[-1].ctx
    binv = b[-1].inv()
    r = list(a)
    while len(r) >= len(b) and poly_trim(r):
        r = poly_trim(r)
        if len(r) < len(b):
            break
        coeff = r[-1] * binv
        shift = len(r) - len(b)
        for i, bc in enumerate(b):
            r[shift + i] = r[shift + i] - coeff * bc
        r = poly_trim(r)
    return poly_trim(r)


def poly_eval_many(ctx: FieldCtx, coeffs: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Components (polys, k) of the values of polynomials (2, polys, width), in ascending
    degree, at the components x of k points, (2, k), or of one point each, (2, polys, 1)."""
    p = ctx.p
    # Horner steps acc*x + c, written as c - acc*(-x)
    neg0, neg1 = -x % p
    acc0 = acc1 = np.zeros((coeffs.shape[1], x.shape[-1]), dtype=np.int64)
    for k in reversed(range(coeffs.shape[2])):
        acc0, acc1 = mul_parts(acc0, acc1, neg0, neg1, p, ctx.t, subtract_from=coeffs[..., k:k + 1])
    return acc0, acc1


def poly_roots_many(ctx: FieldCtx, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The roots in F_{p^2} of polynomials (2, polys, width), as in ``poly_eval_many``:
    each once, as pairs (polynomial, plain-lex index) in that order.  All are
    evaluated at every element at once, (polys, p^2) per component."""
    acc0, acc1 = poly_eval_many(ctx, coeffs, ctx.element_table().T)
    return np.nonzero((acc0 == 0) & (acc1 == 0))


def poly_roots(ctx: FieldCtx, coeffs: Sequence[Fq2]) -> list[Fq2]:
    """The distinct roots of f in F_{p^2}, in plain-lex order: ``poly_roots_many``
    on a batch of one."""
    f = poly_trim(coeffs)
    if not f:
        raise ZeroPolynomial("root finding on the zero polynomial")
    _, roots = poly_roots_many(ctx, np.array([[[c.x0 for c in f]], [[c.x1 for c in f]]]))
    return [ctx.from_index(k) for k in roots.tolist()]


def quadratic_roots(a: Fq2, b: Fq2, c: Fq2) -> list[Fq2]:
    """The distinct roots in F_{p^2} of a x^2 + b x + c (a != 0), in plain-lex
    order, without a full field scan."""
    disc = b * b - 4 * a * c
    try:
        s = sqrt(disc)
    except NotASquare:
        return []
    inv2a = (2 * a).inv()
    r1 = (-b + s) * inv2a
    r2 = (-b - s) * inv2a
    if r1 == r2:
        return [r1]
    return sorted((r1, r2), key=lambda e: e.key)


def chebyshev_T(ctx: FieldCtx, n: int) -> list[Fq2]:
    """Coefficients of the degree-n polynomial with T_n(x + 1/x) = x^n + x^-n.

    T_0 = 2, T_1 = x, T_{n+1} = x*T_n - T_{n-1}.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    t_prev = [ctx.el(2)]
    if n == 0:
        return t_prev
    t_cur = [ctx.zero, ctx.one]
    for _ in range(n - 1):
        t_prev, t_cur = t_cur, poly_sub([ctx.zero] + t_cur, t_prev)
    return t_cur

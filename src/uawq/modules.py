"""Finite quotient modules as explicit matrix pairs.

Two families are built over a fixed FieldCtx:

* ``build_Vn``: the (n+1)-dimensional truncation at lam = q^n, for
  0 <= n <= dbar - 2;
* ``build_W``: the dbar-dimensional cyclic quotient with corner parameter
  delta, for any nonzero (a, b, c, lam) and arbitrary delta.

Both are batches of one of ``build_many``, which writes the modules of many
rows of parameter indices into one generator array.  Each module uses the
standard basis in index order: A acts with the parameter sequence theta on
the diagonal and ones on the subdiagonal (the W corner carries delta), B acts
with theta_star on the diagonal and varphi on the superdiagonal.  The module
also exposes the weight-space and marginal-vector machinery and the spectral
data (nu, vartheta, the eigenvector ladder and its coefficient recurrence /
closed forms) used by the classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from . import table1
from .algebra import PairRep
from .errors import (
    BadRange,
    CaseNotApplicable,
    DivisionByZero,
    InvariantViolation,
    NotAWeight,
    NuOutsideField,
    WeightOutsideField,
    ZeroVector,
)
from .field import (FieldCtx, Fq2, index_of, mul_parts, poly_gcd, poly_roots, poly_trim,
                    quadratic_roots)
from .linalg import FMat, char_poly, hstack, kernel, product_shifted, rank


@dataclass(frozen=True)
class Params4:
    """A parameter quadruple (a, b, c, lam) of nonzero field elements."""

    a: Fq2
    b: Fq2
    c: Fq2
    lam: Fq2

    def __post_init__(self):
        if any(x.is_zero() for x in (self.a, self.b, self.c, self.lam)):
            raise ValueError("parameters a, b, c, lam must be nonzero")

    @property
    def ctx(self) -> FieldCtx:
        return self.a.ctx

    def astuple(self) -> tuple[Fq2, ...]:
        return (self.a, self.b, self.c, self.lam)

    def to_json(self) -> list[list[int]]:
        return [x.to_json() for x in self.astuple()]


@dataclass(frozen=True)
class Params5(Params4):
    """Params4 plus the corner parameter delta (delta may be zero).  A
    Params5 never equals a Params4: dataclass equality compares classes."""

    delta: Fq2

    @property
    def quadruple(self) -> Params4:
        return Params4(self.a, self.b, self.c, self.lam)

    def astuple(self) -> tuple[Fq2, ...]:
        return (self.a, self.b, self.c, self.lam, self.delta)


# The monomials of the sequences: exponent vectors over the logs of
# (a, b, c, lam, q), then the power of q per unit of i.  They come in pairs:
# theta and theta_star are sums, the four factors of varphi differences.
_SEQ_TERMS = np.array([
    (1, 0, 0, -1, 0, 2), (-1, 0, 0, 1, 0, -2),  # theta: a q^2i/lam + lam q^-2i/a
    (0, 1, 0, -1, 0, 2), (0, -1, 0, 1, 0, -2),  # theta_star: b q^2i/lam + lam q^-2i/b
    (-1, -1, 0, 1, 1, 1), (-1, -1, 0, 1, 1, -1),  # lam q (q^i - q^-i)/(a b)
    (0, 0, 0, -1, -1, 1), (0, 0, 0, 1, 1, -1),  # q^(i-1)/lam - lam q^(1-i)
    (0, 0, 0, 0, 0, -1), (1, 1, 1, -1, -1, 1),  # q^-i - a b c q^(i-1)/lam
    (0, 0, 0, 0, 0, -1), (1, 1, -1, -1, -1, 1),  # q^-i - a b q^(i-1)/(c lam)
])
_SEQ_SIGNS = np.array([1, 1, -1, -1, -1, -1])
# omega = (b + 1/b)(c + 1/c) + (a + 1/a)(lam q + 1/(lam q)), and omega_star and
# omega_eps with (a, b, c) rotated, each expanded into eight monomials: +-1
# times one of the exponent vectors of a, b, c and lam q plus +-1 times another
_UNITS = np.array([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 1)])
_CENTRAL_PAIRS = (((1, 2), (0, 3)), ((2, 0), (1, 3)), ((0, 1), (2, 3)))
_CENTRAL_TERMS = np.array([s * _UNITS[x] + r * _UNITS[y] for pairs in _CENTRAL_PAIRS
                           for x, y in pairs for s in (1, -1) for r in (1, -1)])


def seq_arrays(ctx: FieldCtx, index: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, ...]:
    """The parameter sequences for rows (m, 4) of plain-lex indices of
    (a, b, c, lam) at each entry of an integer vector i: theta(i), theta_star(i)
    and varphi(i) as component arrays (m, 2, len(i)), and the plain-lex indices
    (m, 3) of (omega, omega_star, omega_eps).  Every monomial comes from one
    gather of logs, sums are componentwise and varphi's factors multiplied by
    ``mul_parts``.  A zero a, b, c or lam raises ValueError."""
    p, t, m, k = ctx.p, ctx.t, len(index), len(i)
    logs = table1.param_logs(ctx, index)
    if (logs < 0).any():
        raise ValueError("parameters a, b, c, lam must be nonzero")
    exp = ctx.log_tables()[0]
    steps = np.multiply.outer(logs[:, 4], i)[..., None] * _SEQ_TERMS[:, 5]  # (m, k, 12)
    terms = np.concatenate([((logs @ _SEQ_TERMS[:, :5].T)[:, None] + steps).reshape(m, 12 * k),
                            logs @ _CENTRAL_TERMS.T], 1)
    parts = np.stack(np.divmod(exp[terms % len(exp)], p), 1)  # (m, 2, 12 k + 24)
    pairs = parts[..., :12 * k].reshape(m, 2, k, 6, 2)
    seq = (pairs[..., 0] + _SEQ_SIGNS * pairs[..., 1]) % p  # (m, 2, k, 6)
    f = seq[..., 2:]  # the factors of varphi, multiplied in pairs
    f0, f1 = mul_parts(f[:, 0, :, ::2], f[:, 1, :, ::2], f[:, 0, :, 1::2], f[:, 1, :, 1::2], p, t)
    varphi = np.stack(mul_parts(f0[..., 0], f1[..., 0], f0[..., 1], f1[..., 1], p, t), 1)
    scalars = parts[..., 12 * k:].reshape(m, 2, 3, 8).sum(-1) % p
    return seq[..., 0], seq[..., 1], varphi, scalars[:, 0] * p + scalars[:, 1]


def _seq_values(params: Params4, i: np.ndarray) -> tuple:
    """theta, theta_star and varphi of the quadruple of ``params`` at each entry
    of i, and its central scalars (omega, omega_star, omega_eps), as Fq2
    values: one ``seq_arrays`` call."""
    ctx = params.ctx
    *seqs, scalars = seq_arrays(ctx, np.array([index_of(params.astuple()[:4])]), i)
    return (*([Fq2(ctx, x0, x1) for x0, x1 in zip(*arr[0].tolist())] for arr in seqs),
            tuple(map(ctx.from_index, scalars[0].tolist())))


def build_many(ctx: FieldCtx, index: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-dimensional modules of some rows of plain-lex indices of
    (a, b, c, lam), or of (a, b, c, lam, delta): their generator array
    (cases, 2, 2, n, n), A then B, each as its two components, and the
    plain-lex indices (cases, 3) of their central scalars.  theta and ones go
    on A's diagonal and subdiagonal, theta_star and varphi on B's diagonal and
    superdiagonal, and a fifth column to A[0, n-1].  One ``seq_arrays`` call."""
    theta, theta_star, varphi, scalars = seq_arrays(ctx, index[:, :4], np.arange(n))
    gens = np.zeros((len(index), 2, 2, n, n), dtype=np.int64)
    # rows of n*n entries: the diagonal is every (n+1)-th from 0, the
    # subdiagonal from n and the superdiagonal from 1
    flat = gens.reshape(len(index), 2, 2, n * n)
    flat[:, 0, :, ::n + 1] = theta
    flat[:, 0, 0, n::n + 1] = 1
    flat[:, 1, :, ::n + 1] = theta_star
    flat[:, 1, :, 1::n + 1] = varphi[..., 1:]
    if index.shape[1] == 5:
        flat[:, 0, 0, n - 1], flat[:, 0, 1, n - 1] = divmod(index[:, 4], ctx.p)
    return gens, scalars


def _build_one(ctx: FieldCtx, row: tuple[int, ...], n: int) -> PairRep:
    """The module of one index row of ``build_many``, as matrices."""
    gens, scalars = build_many(ctx, np.array([row]), n)
    amat, bmat = (FMat(ctx, g) for g in gens[0])
    return PairRep(ctx, amat, bmat, *map(ctx.from_index, scalars[0].tolist()))


def build_Vn(a: Fq2, b: Fq2, c: Fq2, n: int) -> PairRep:
    """The (n+1)-dimensional quotient at lam = q^n; requires n <= dbar - 2."""
    ctx = a.ctx
    if not 0 <= n <= ctx.dbar - 2:
        raise BadRange(f"n={n} outside [0, {ctx.dbar - 2}]")
    return _build_one(ctx, index_of((a, b, c, ctx.qpow(n))), n + 1)


def build_W(params: Params5) -> PairRep:
    """The dbar-dimensional cyclic quotient with corner entry delta."""
    return _build_one(params.ctx, index_of(params.astuple()), params.ctx.dbar)


def dump_module(rep: PairRep, params: Params4, n: int | None = None) -> dict:
    """JSON-serializable module dump with deterministic entry ordering."""
    ctx = rep.ctx
    out = {
        "schema": 1,
        "p": ctx.p,
        "d": ctx.d,
        "dbar": ctx.dbar,
        "params": params.to_json(),
        "A": rep.A.to_json(),
        "B": rep.B.to_json(),
        "omega": rep.omega.to_json(),
        "omega_star": rep.omega_star.to_json(),
        "omega_eps": rep.omega_eps.to_json(),
    }
    if n is not None:
        out["n"] = n
    return out


# ---------------------------------------------------------------------------
# weight spaces and marginal machinery


def weight_spaces(rep: PairRep) -> list[tuple[Fq2, FMat]]:
    """(mu, kernel basis) for every weight of the rep.

    Each eigenvalue theta of B is matched with the canonical mu solving
    mu + 1/mu = theta; the pair {mu, 1/mu} names one space, and the returned
    representative is the lexicographically smaller of the two.  The basis
    columns are in reduced echelon form.
    """
    ctx = rep.ctx
    out = []
    for th in poly_roots(ctx, char_poly(rep.B)):
        roots = quadratic_roots(ctx.one, -th, ctx.one)
        if not roots:
            raise WeightOutsideField(f"mu with mu + 1/mu = {th!r} is outside F_{{p^2}}")
        out.append((roots[0], kernel(rep.B - FMat.scalar(ctx, rep.n, th))))
    return out


def _weight_basis(rep: PairRep, mu: Fq2) -> FMat:
    ctx = rep.ctx
    basis = kernel(rep.B - FMat.scalar(ctx, rep.n, mu + mu.inv()))
    if basis.ncols == 0:
        raise NotAWeight(f"{mu!r} is not a weight of this rep")
    return basis


def is_marginal_weight(rep: PairRep, mu: Fq2) -> bool:
    """Whether the two-factor condition has a nonzero witness in V(mu)."""
    ctx = rep.ctx
    basis = _weight_basis(rep, mu)
    q2 = ctx.q * ctx.q
    shift_up = mu * q2 + mu.inv() * q2.inv()
    m = (
        (rep.B - FMat.scalar(ctx, rep.n, shift_up))
        @ (rep.B - FMat.scalar(ctx, rep.n, mu + mu.inv()))
        @ rep.A
    )
    image = m @ basis
    return rank(image) < basis.ncols


def marginal_vectors(rep: PairRep, mu: Fq2) -> list[FMat]:
    """All lines in V(mu) fixed by the one-factor map, one vector per line.

    dim V(mu) <= 2 always holds for reps built here; it is checked, not
    assumed.  If every vector of a 2-dimensional V(mu) qualifies, the two
    basis columns are returned.
    """
    ctx = rep.ctx
    basis = _weight_basis(rep, mu)
    k = basis.ncols
    if k > 2:
        raise InvariantViolation(f"weight space of dimension {k} > 2")
    q2 = ctx.q * ctx.q
    shift_up = mu * q2 + mu.inv() * q2.inv()
    m = (rep.B - FMat.scalar(ctx, rep.n, shift_up)) @ rep.A
    image = m @ basis
    if k == 1:
        if rank(hstack([basis, image])) <= 1:
            return [basis.col(0)]
        return []
    # dim 2: v = x*v0 + y*v1 is fixed iff every 2x2 minor of
    # [image(v) | basis(v)] vanishes; each minor is a quadratic form in (x, y)
    forms: list[tuple[Fq2, Fq2, Fq2]] = []
    n = rep.n
    w0 = [image.entry(r, 0) for r in range(n)]
    w1 = [image.entry(r, 1) for r in range(n)]
    v0 = [basis.entry(r, 0) for r in range(n)]
    v1 = [basis.entry(r, 1) for r in range(n)]
    for r in range(n):
        for s_ in range(r + 1, n):
            alpha = w0[r] * v0[s_] - w0[s_] * v0[r]
            beta = w0[r] * v1[s_] + w1[r] * v0[s_] - w0[s_] * v1[r] - w1[s_] * v0[r]
            gamma = w1[r] * v1[s_] - w1[s_] * v1[r]
            if not (alpha.is_zero() and beta.is_zero() and gamma.is_zero()):
                forms.append((alpha, beta, gamma))
    if not forms:
        return [basis.col(0), basis.col(1)]
    g = None
    for alpha, beta, gamma in forms:
        poly = poly_trim([alpha, beta, gamma])
        g = poly if g is None else poly_gcd(g, poly)
    out: list[FMat] = []
    if all(gamma.is_zero() for _, _, gamma in forms):
        out.append(basis.col(1))  # the line (x, y) = (0, 1)
    if g:
        out += [basis.col(0) + basis.col(1) * troot for troot in poly_roots(ctx, g)]
    return out


# ---------------------------------------------------------------------------
# spectral data for the cyclic quotient


@dataclass(frozen=True)
class NuData:
    """A scalar nu with nu^dbar + nu^-dbar = rhs, the corner invariant ``delta_shift``."""

    nu: Fq2
    rhs: Fq2

    def __post_init__(self):
        dbar = self.nu.ctx.dbar
        if self.nu ** dbar + self.nu ** (-dbar) != self.rhs:
            raise InvariantViolation(f"nu={self.nu!r} does not solve nu^dbar + nu^-dbar = {self.rhs!r}")

    def vartheta(self, i: int) -> Fq2:
        ctx = self.nu.ctx
        return self.nu.inv() * ctx.qpow(2 * i) + self.nu * ctx.qpow(-2 * i)


def corner_index(ctx: FieldCtx, k):
    """Plain-lex index of (a/lam)^dbar + (lam/a)^dbar, the a, lam part of the
    corner invariant, for a/lam of discrete log k: a componentwise sum.
    Elementwise on an integer array ``k``."""
    exp = ctx.log_tables()[0]
    p, n = ctx.p, len(exp)
    u, v = exp[k * ctx.dbar % n], exp[-k * ctx.dbar % n]
    return (u // p + v // p) % p * p + (u + v) % p


def corner_terms(a: Fq2, lam: Fq2) -> Fq2:
    """``corner_index`` of nonzero field elements."""
    _, log = a.ctx.log_tables()
    la, ll = map(log.item, index_of((a, lam)))
    if min(la, ll) < 0:
        raise DivisionByZero("corner terms of a zero parameter")
    return a.ctx.from_index(corner_index(a.ctx, la - ll))


def delta_shift(params: Params5) -> Fq2:
    """delta + (a/lam)^dbar + (lam/a)^dbar, the corner invariant: every
    closure move keeps it, and nu^dbar + nu^-dbar equals it."""
    return params.delta + corner_terms(params.a, params.lam)


def nu_of(params: Params5) -> NuData:
    """The canonically least root nu of z^{2 dbar} - R z^{dbar} + 1, R = delta_shift.

    Solved as a quadratic in y = z^dbar; the dbar-th roots of each y are read
    off the discrete logs: z = g^k with dbar k = log y (mod p^2 - 1).
    """
    ctx = params.ctx
    dbar = ctx.dbar
    rhs = delta_shift(params)
    exp, log = ctx.log_tables()
    n = len(exp)
    g = gcd(dbar, n)
    step = n // g
    inv = pow(dbar // g, -1, step)
    roots = []
    for y in quadratic_roots(ctx.one, -rhs, ctx.one):
        ly = log.item(y.x0 * ctx.p + y.x1)
        if ly % g == 0:
            roots += exp[ly // g * inv % step::step].tolist()
    if not roots:
        raise NuOutsideField("no spectral scalar nu in F_{p^2}")
    return NuData(ctx.from_index(min(roots)), rhs)


def e_vector(params: Params5, i: int, nu: NuData) -> FMat:
    """The ladder eigenvector with coefficient 1 on the last basis vector."""
    ctx = params.ctx
    dbar = ctx.dbar
    if not 0 <= i <= dbar - 1:
        raise BadRange(f"i={i} outside [0, {dbar - 1}]")
    theta = _seq_values(params, np.arange(dbar))[0]
    vt = nu.vartheta(i)
    coeffs = [ctx.one] * dbar
    # coefficient of w_{h-1} is prod_{j=h}^{dbar-1} (vartheta_i - theta_j)
    for h in range(dbar - 1, 0, -1):
        coeffs[h - 1] = coeffs[h] * (vt - theta[h])
    return FMat.column(ctx, coeffs)


def marginal_values(params: Params4, i: int) -> tuple[list[Fq2], list[Fq2]]:
    """The four values of nu that make e_i marginal on the (+) side, and the
    four on the (-) side, in a fixed order."""
    ctx = params.ctx
    a, b, c, lam = params.astuple()
    plus = [
        a * lam.inv() * ctx.qpow(2 * (i - 1)),
        a.inv() * lam.inv() * ctx.qpow(2 * (i - 1)),
        b * c * ctx.qpow(2 * i - 1),
        b * c.inv() * ctx.qpow(2 * i - 1),
    ]
    minus = [
        a * lam * ctx.qpow(2 * (i + 1)),
        a.inv() * lam * ctx.qpow(2 * (i + 1)),
        b.inv() * c * ctx.qpow(2 * i + 1),
        b.inv() * c.inv() * ctx.qpow(2 * i + 1),
    ]
    return plus, minus


def marginal_test_e(params: Params5, i: int, nu: NuData) -> tuple[bool, bool]:
    """Set-membership marginality conditions for the ladder vector e_i.

    Returns (cond_plus, cond_minus), read off the parameters alone;
    ``marginal_matrix_e`` is the equivalent condition on the built module.
    """
    dbar = params.ctx.dbar
    if not 0 <= i <= dbar - 1:
        raise BadRange(f"i={i} outside [0, {dbar - 1}]")
    plus, minus = marginal_values(params.quadruple, i)
    return nu.nu in plus, nu.nu in minus


def marginal_matrix_e(rep: PairRep, params: Params5, i: int, nu: NuData) -> tuple[bool, bool]:
    """Whether (A - vt_{i+1})(A - vt_i) B e_i and (A - vt_{i-1})(A - vt_i) B e_i
    vanish on ``rep``, the cyclic quotient built from ``params``."""
    ctx = params.ctx
    dbar = ctx.dbar
    be = rep.B @ e_vector(params, i, nu)
    mid = rep.A - FMat.scalar(ctx, dbar, nu.vartheta(i))
    up = rep.A - FMat.scalar(ctx, dbar, nu.vartheta(i + 1))
    down = rep.A - FMat.scalar(ctx, dbar, nu.vartheta(i - 1))
    return (up @ mid @ be).is_zero(), (down @ mid @ be).is_zero()


def w_ij(params: Params5, i: int, j: int) -> FMat:
    """The bridging vector between basis slots i and j (w_ii = w_i)."""
    dbar = params.ctx.dbar
    if not 0 <= i <= j <= dbar - 1:
        raise BadRange(f"need 0 <= i <= j <= {dbar - 1}, got ({i}, {j})")
    _, theta_star, varphi, _ = _seq_values(params, np.arange(j + 1))
    return _bridge(params.ctx, i, j, theta_star, varphi)


def _bridge(ctx: FieldCtx, i: int, j: int, theta_star: list[Fq2], varphi: list[Fq2]) -> FMat:
    """w_ij from theta_star and varphi read at 0..j (at least)."""
    coeffs = [ctx.zero] * ctx.dbar
    for h in range(i, j + 1):
        term = ctx.one
        for k in range(h, j):
            term = term * varphi[k + 1]
        for k in range(i, h):
            term = term * (theta_star[j] - theta_star[k])
        coeffs[h] = term
    return FMat.column(ctx, coeffs)


def L_recurrence(params: Params5, i: int, nu: NuData) -> list[list[Fq2]]:
    """The dbar x dbar coefficient array of the descending B-products at e_i.

    Entry [j][k] is the coefficient of w_{dbar-j-1} in
    prod_{h=1}^{k} (B - theta_star_{dbar-h}) e_i.
    """
    ctx = params.ctx
    dbar = ctx.dbar
    if not 0 <= i <= dbar - 1:
        raise BadRange(f"i={i} outside [0, {dbar - 1}]")
    theta, theta_star, varphi, _ = _seq_values(params, np.arange(dbar))
    vt = nu.vartheta(i)
    L = [[ctx.zero] * dbar for _ in range(dbar)]
    L[0][0] = ctx.one
    for j in range(1, dbar):
        L[j][0] = L[j - 1][0] * (vt - theta[dbar - j])
    for k in range(1, dbar):
        for j in range(1, dbar):
            L[j][k] = varphi[dbar - j] * L[j - 1][k - 1] + (
                theta_star[dbar - j - 1] - theta_star[dbar - k]
            ) * L[j][k - 1]
    return L


def closed_form_case(params: Params5, i: int, nu: NuData) -> int | None:
    """Which of L_closed's four case sets (0-3) holds nu, or None.  Each set
    pairs a (+) and a (-) value of ``marginal_values`` at i."""
    plus, minus = marginal_values(params.quadruple, i)
    cases = ((plus[0], minus[1]), (minus[0], plus[1]), (plus[2], minus[3]), (plus[3], minus[2]))
    return next((k for k, vals in enumerate(cases) if nu.nu in vals), None)


def L_closed(params: Params5, i: int, j: int, k: int, nu: NuData) -> Fq2:
    """Closed form for the coefficient array, by case on nu q^{-2i}.

    Raises CaseNotApplicable when nu q^{-2i} lies in none of the four case
    sets.
    """
    ctx = params.ctx
    dbar = ctx.dbar
    if not (0 <= i <= dbar - 1 and 0 <= j <= dbar - 1 and 0 <= k <= dbar - 1):
        raise BadRange(f"indices ({i}, {j}, {k}) outside [0, {dbar - 1}]")
    case = closed_form_case(params, i, nu)
    if case is None:
        x = nu.nu * ctx.qpow(-2 * i)
        raise CaseNotApplicable(f"nu q^-2i = {x!r} matches no closed-form case")
    a, b, c, lam = params.quadruple.astuple()

    if case == 0:
        if j != k:
            return ctx.zero
        out = ctx.one
        for phi in _seq_values(params, np.arange(dbar - j, dbar))[2]:
            out = out * phi  # varphi(dbar - h) for h = j, ..., 1
        return out

    def qp(e: int) -> Fq2:
        return ctx.qpow(e)

    if case == 1:
        out = ctx.one
        for h in range(1, k + 1):
            out = out * (qp(h + j - k) - qp(k - h - j))
            out = out * (a * lam * qp(h + 1) - b * c * qp(-h))
            out = out * (b.inv() * qp(h) - a.inv() * c.inv() * lam.inv() * qp(-h - 1))
        for h in range(1, j + 1):
            out = out * (lam * qp(h + 1) - lam.inv() * qp(-h - 1))
        for h in range(1, j - k + 1):
            out = out * (a * qp(1 - h) - a.inv() * qp(h - 1))
        return out

    # case 3 is case 2 with c replaced by 1/c
    if case == 3:
        c = c.inv()
    out = ctx.one
    for h in range(1, k + 1):
        out = out * (qp(h + j - k) - qp(k - h - j))
        out = out * (b * qp(-h) - b.inv() * qp(h))
        out = out * (a * lam * qp(h + 1) - b * c * qp(-h))
    for h in range(1, j + 1):
        out = out * (lam.inv() * qp(-h - 1) - a.inv() * b.inv() * c.inv() * qp(h))
    for h in range(1, j - k + 1):
        out = out * (b * c * lam * qp(h) - a * qp(1 - h))
    return out


# ---------------------------------------------------------------------------
# universal-property predicates (the infinite module is never materialized)


def check_verma_universal(rep: PairRep, v: FMat, params: Params4) -> bool:
    """Whether v generates a quotient of the weight-ladder module for params.

    Checks the four defining equations: B v = theta_star_0 v, the bracketed
    second equation, and agreement of the two stored central scalars with
    the parameter values.
    """
    if v.is_zero():
        raise ZeroVector("universal-property test on the zero vector")
    ctx = rep.ctx
    theta, theta_star, varphi, (_, omega_star, omega_eps) = _seq_values(params, np.arange(2))
    n = rep.n
    if not (rep.B @ v == v * theta_star[0]):
        return False
    lhs = (rep.B - FMat.scalar(ctx, n, theta_star[1])) @ (rep.A @ v)
    coeff = theta[0] * (theta_star[0] - theta_star[1]) + varphi[1]
    if not (lhs == v * coeff):
        return False
    return rep.omega_star == omega_star and rep.omega_eps == omega_eps


def check_W_universal(rep: PairRep, v: FMat, params: Params5) -> bool:
    """check_verma_universal plus the corner condition prod(A - theta_i) v = delta v."""
    if not check_verma_universal(rep, v, params.quadruple):
        return False
    shifts = _seq_values(params, np.arange(params.ctx.dbar))[0]
    return product_shifted(rep.A, shifts) @ v == v * params.delta

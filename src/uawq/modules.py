"""Finite quotient modules as explicit matrix pairs.

Two families are built over a fixed FieldCtx:

* ``build_Vn``: the (n+1)-dimensional truncation at lam = q^n, for
  0 <= n <= dbar - 2;
* ``build_W``: the dbar-dimensional cyclic quotient with corner parameter
  delta, for any nonzero (a, b, c, lam) and arbitrary delta.

Both use the standard basis in index order: A acts with the parameter
sequence theta on the diagonal and ones on the subdiagonal (the W corner
carries delta), B acts with theta_star on the diagonal and varphi on the
superdiagonal.  The module also exposes the weight-space and marginal-vector
machinery and the spectral data (nu, vartheta, the eigenvector ladder and
its coefficient recurrence / closed forms) used by the classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .algebra import PairRep
from .errors import (
    BadRange,
    CaseNotApplicable,
    InvariantViolation,
    NotAWeight,
    NuOutsideField,
    WeightOutsideField,
    ZeroVector,
)
from .field import FieldCtx, Fq2, poly_from_roots, poly_gcd, poly_roots, poly_trim, quadratic_roots
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

    def astuple(self) -> tuple[Fq2, Fq2, Fq2, Fq2]:
        return (self.a, self.b, self.c, self.lam)

    def to_json(self) -> list[list[int]]:
        return [x.to_json() for x in self.astuple()]


@dataclass(frozen=True)
class Params5:
    """Params4 plus the corner parameter delta (delta may be zero)."""

    a: Fq2
    b: Fq2
    c: Fq2
    lam: Fq2
    delta: Fq2

    def __post_init__(self):
        if any(x.is_zero() for x in (self.a, self.b, self.c, self.lam)):
            raise ValueError("parameters a, b, c, lam must be nonzero")

    @property
    def ctx(self) -> FieldCtx:
        return self.a.ctx

    @property
    def quadruple(self) -> Params4:
        return Params4(self.a, self.b, self.c, self.lam)

    def astuple(self) -> tuple[Fq2, Fq2, Fq2, Fq2, Fq2]:
        return (self.a, self.b, self.c, self.lam, self.delta)

    def to_json(self) -> list[list[int]]:
        return [x.to_json() for x in self.astuple()]


class SeqData:
    """Closed-form parameter sequences and the three central scalars.

    theta, theta_star and varphi are dbar-periodic; the accessors evaluate
    the closed forms for any index, so periodicity is a checkable property
    rather than an artifact of caching.
    """

    __slots__ = ("ctx", "params", "_alam", "_blam", "_pref", "_k1", "_k2",
                 "omega", "omega_star", "omega_eps")

    def __init__(self, params: Params4):
        ctx = params.ctx
        a, b, c, lam = params.astuple()
        self.ctx = ctx
        self.params = params
        ai, bi, ci, lami = a.inv(), b.inv(), c.inv(), lam.inv()
        q = ctx.q
        qi = q.inv()
        self._alam = a * lami
        self._blam = b * lami
        self._pref = ai * bi * lam * q
        self._k1 = a * b * c * lami
        self._k2 = a * b * ci * lami
        lq = lam * q + lami * qi
        self.omega = (b + bi) * (c + ci) + (a + ai) * lq
        self.omega_star = (c + ci) * (a + ai) + (b + bi) * lq
        self.omega_eps = (a + ai) * (b + bi) + (c + ci) * lq

    def theta(self, i: int) -> Fq2:
        v = self._alam * self.ctx.qpow(2 * i)
        return v + v.inv()

    def theta_star(self, i: int) -> Fq2:
        v = self._blam * self.ctx.qpow(2 * i)
        return v + v.inv()

    def varphi(self, i: int) -> Fq2:
        ctx = self.ctx
        lam = self.params.lam
        f1 = ctx.qpow(i) - ctx.qpow(-i)
        f2 = lam.inv() * ctx.qpow(i - 1) - lam * ctx.qpow(1 - i)
        f3 = ctx.qpow(-i) - self._k1 * ctx.qpow(i - 1)
        f4 = ctx.qpow(-i) - self._k2 * ctx.qpow(i - 1)
        return self._pref * f1 * f2 * f3 * f4

    def scalars(self) -> tuple[Fq2, Fq2, Fq2]:
        return self.omega, self.omega_star, self.omega_eps


def _pair_rep(s: SeqData, dim: int, corner: Fq2 | None = None) -> PairRep:
    """theta / ones on A's diagonal and subdiagonal, theta_star / varphi on
    B's diagonal and superdiagonal; ``corner`` goes to A[0, dim-1]."""
    ctx = s.ctx
    amat = FMat.zeros(ctx, dim, dim).arr.copy()
    bmat = amat.copy()
    for i in range(dim):
        th, ts = s.theta(i), s.theta_star(i)
        amat[i, i] = (th.x0, th.x1)
        bmat[i, i] = (ts.x0, ts.x1)
        if i + 1 < dim:
            amat[i + 1, i, 0] = 1
        if i >= 1:
            ph = s.varphi(i)
            bmat[i - 1, i] = (ph.x0, ph.x1)
    if corner is not None:
        amat[0, dim - 1] = (corner.x0, corner.x1)
    return PairRep(ctx, FMat(ctx, amat), FMat(ctx, bmat), *s.scalars())


def build_Vn(a: Fq2, b: Fq2, c: Fq2, n: int) -> PairRep:
    """The (n+1)-dimensional quotient at lam = q^n; requires n <= dbar - 2."""
    ctx = a.ctx
    if not 0 <= n <= ctx.dbar - 2:
        raise BadRange(f"n={n} outside [0, {ctx.dbar - 2}]")
    return _pair_rep(SeqData(Params4(a, b, c, ctx.qpow(n))), n + 1)


def build_W(params: Params5) -> PairRep:
    """The dbar-dimensional cyclic quotient with corner entry delta."""
    return _pair_rep(SeqData(params.quadruple), params.ctx.dbar, params.delta)


def dump_module(rep: PairRep, params: Params4 | Params5, n: int | None = None) -> dict:
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
    cp = char_poly_fast(rep.B)
    eigs = sorted(set(poly_roots(ctx, cp)), key=lambda e: e.key)
    out = []
    for th in eigs:
        roots = quadratic_roots(ctx.one, -th, ctx.one)
        if not roots:
            raise WeightOutsideField(f"mu with mu + 1/mu = {th!r} is outside F_{{p^2}}")
        mu = min(roots, key=lambda e: e.key)
        basis = kernel(rep.B - FMat.scalar(ctx, rep.n, th))
        out.append((mu, basis))
    return out


def char_poly_fast(m: FMat) -> list[Fq2]:
    # upper-triangular B matrices dominate here; fall back to the generic
    # Hessenberg route otherwise
    arr = m.arr
    lower = arr.copy()
    for i in range(m.nrows):
        lower[i, i:] = 0
    if not lower.any():
        return poly_from_roots(m.ctx, [m.entry(i, i) for i in range(m.nrows)])
    return char_poly(m)


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
        for troot in sorted(set(poly_roots(ctx, g)), key=lambda e: e.key):
            out.append(basis.col(0) + basis.col(1) * troot)
    return out


# ---------------------------------------------------------------------------
# spectral data for the cyclic quotient


@dataclass(frozen=True)
class NuData:
    """A scalar nu with nu^dbar + nu^-dbar = delta + a^dbar lam^-dbar + a^-dbar lam^dbar."""

    nu: Fq2
    rhs: Fq2

    def __post_init__(self):
        dbar = self.nu.ctx.dbar
        if self.nu ** dbar + self.nu ** (-dbar) != self.rhs:
            raise InvariantViolation(f"nu={self.nu!r} does not solve nu^dbar + nu^-dbar = {self.rhs!r}")

    def vartheta(self, i: int) -> Fq2:
        ctx = self.nu.ctx
        return self.nu.inv() * ctx.qpow(2 * i) + self.nu * ctx.qpow(-2 * i)


def nu_of(params: Params5) -> NuData:
    """The canonically least root nu of z^{2 dbar} - R z^{dbar} + 1.

    Solved as a quadratic in y = z^dbar; the dbar-th roots of each y are read
    off the discrete logs: z = g^k with dbar k = log y (mod p^2 - 1).
    """
    ctx = params.ctx
    dbar = ctx.dbar
    a, lam = params.a, params.lam
    rhs = params.delta + (a / lam) ** dbar + (lam / a) ** dbar
    exp, log = ctx.log_tables()
    n = len(exp)
    g = gcd(dbar, n)
    step = n // g
    inv = pow(dbar // g, -1, step)
    roots = []
    for y in quadratic_roots(ctx.one, -rhs, ctx.one):
        ly = log[y.x0 * ctx.p + y.x1]
        if ly % g == 0:
            k0 = ly // g * inv % step
            roots += [exp[k0 + j * step] for j in range(g)]
    if not roots:
        raise NuOutsideField("no spectral scalar nu in F_{p^2}")
    return NuData(ctx.from_index(min(roots)), rhs)


def e_vector(params: Params5, i: int, nu: NuData | None = None) -> FMat:
    """The ladder eigenvector with coefficient 1 on the last basis vector."""
    ctx = params.ctx
    dbar = ctx.dbar
    if not 0 <= i <= dbar - 1:
        raise BadRange(f"i={i} outside [0, {dbar - 1}]")
    if nu is None:
        nu = nu_of(params)
    s = SeqData(params.quadruple)
    vt = nu.vartheta(i)
    coeffs = [ctx.one] * dbar
    # coefficient of w_{h-1} is prod_{j=h}^{dbar-1} (vartheta_i - theta_j)
    for h in range(dbar - 1, 0, -1):
        coeffs[h - 1] = coeffs[h] * (vt - s.theta(h))
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


def marginal_test_e(
    params: Params5, i: int, nu: NuData | None = None
) -> tuple[bool, bool]:
    """Set-membership marginality conditions for the ladder vector e_i.

    Returns (cond_plus, cond_minus), read off the parameters alone;
    ``marginal_matrix_e`` is the equivalent condition on the built module.
    """
    dbar = params.ctx.dbar
    if not 0 <= i <= dbar - 1:
        raise BadRange(f"i={i} outside [0, {dbar - 1}]")
    if nu is None:
        nu = nu_of(params)
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
    ctx = params.ctx
    dbar = ctx.dbar
    if not 0 <= i <= j <= dbar - 1:
        raise BadRange(f"need 0 <= i <= j <= {dbar - 1}, got ({i}, {j})")
    s = SeqData(params.quadruple)
    tj = s.theta_star(j)
    coeffs = [ctx.zero] * dbar
    for h in range(j - i + 1):
        term = ctx.one
        for k in range(h, j - i):
            term = term * s.varphi(i + k + 1)
        for k in range(h):
            term = term * (tj - s.theta_star(i + k))
        coeffs[i + h] = term
    return FMat.column(ctx, coeffs)


def L_recurrence(params: Params5, i: int, nu: NuData | None = None) -> list[list[Fq2]]:
    """The dbar x dbar coefficient array of the descending B-products at e_i.

    Entry [j][k] is the coefficient of w_{dbar-j-1} in
    prod_{h=1}^{k} (B - theta_star_{dbar-h}) e_i.
    """
    ctx = params.ctx
    dbar = ctx.dbar
    if not 0 <= i <= dbar - 1:
        raise BadRange(f"i={i} outside [0, {dbar - 1}]")
    if nu is None:
        nu = nu_of(params)
    s = SeqData(params.quadruple)
    vt = nu.vartheta(i)
    L = [[ctx.zero] * dbar for _ in range(dbar)]
    L[0][0] = ctx.one
    for j in range(1, dbar):
        L[j][0] = L[j - 1][0] * (vt - s.theta(dbar - j))
    for k in range(1, dbar):
        for j in range(1, dbar):
            L[j][k] = s.varphi(dbar - j) * L[j - 1][k - 1] + (
                s.theta_star(dbar - j - 1) - s.theta_star(dbar - k)
            ) * L[j][k - 1]
    return L


def closed_form_case(params: Params5, i: int, nu: NuData) -> int | None:
    """Which of L_closed's four case sets (0-3) holds nu q^{-2i}, or None."""
    ctx = params.ctx
    a, b, c, lam = params.quadruple.astuple()
    q = ctx.q
    x = nu.nu * ctx.qpow(-2 * i)
    cases = (
        (a * lam.inv() * ctx.qpow(-2), a.inv() * lam * ctx.qpow(2)),
        (a * lam * ctx.qpow(2), a.inv() * lam.inv() * ctx.qpow(-2)),
        (b * c * q.inv(), b.inv() * c.inv() * q),
        (b * c.inv() * q.inv(), b.inv() * c * q),
    )
    return next((k for k, vals in enumerate(cases) if x in vals), None)


def L_closed(params: Params5, i: int, j: int, k: int, nu: NuData | None = None) -> Fq2:
    """Closed form for the coefficient array, by case on nu q^{-2i}.

    Raises CaseNotApplicable when nu q^{-2i} lies in none of the four case
    sets.
    """
    ctx = params.ctx
    dbar = ctx.dbar
    if not (0 <= i <= dbar - 1 and 0 <= j <= dbar - 1 and 0 <= k <= dbar - 1):
        raise BadRange(f"indices ({i}, {j}, {k}) outside [0, {dbar - 1}]")
    if nu is None:
        nu = nu_of(params)
    case = closed_form_case(params, i, nu)
    if case is None:
        x = nu.nu * ctx.qpow(-2 * i)
        raise CaseNotApplicable(f"nu q^-2i = {x!r} matches no closed-form case")
    a, b, c, lam = params.quadruple.astuple()
    s = SeqData(params.quadruple)

    if case == 0:
        if j != k:
            return ctx.zero
        out = ctx.one
        for h in range(1, j + 1):
            out = out * s.varphi(dbar - h)
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

    if case == 2:
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

    out = ctx.one
    for h in range(1, k + 1):
        out = out * (qp(h + j - k) - qp(k - h - j))
        out = out * (b * qp(-h) - b.inv() * qp(h))
        out = out * (a * lam * qp(h + 1) - b * c.inv() * qp(-h))
    for h in range(1, j + 1):
        out = out * (lam.inv() * qp(-h - 1) - a.inv() * b.inv() * c * qp(h))
    for h in range(1, j - k + 1):
        out = out * (b * c.inv() * lam * qp(h) - a * qp(1 - h))
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
    s = SeqData(params)
    n = rep.n
    if not (rep.B @ v == v * s.theta_star(0)):
        return False
    lhs = (rep.B - FMat.scalar(ctx, n, s.theta_star(1))) @ (rep.A @ v)
    coeff = s.theta(0) * (s.theta_star(0) - s.theta_star(1)) + s.varphi(1)
    if not (lhs == v * coeff):
        return False
    return rep.omega_star == s.omega_star and rep.omega_eps == s.omega_eps


def check_W_universal(rep: PairRep, v: FMat, params: Params5) -> bool:
    """check_verma_universal plus the corner condition prod(A - theta_i) v = delta v."""
    if v.is_zero():
        raise ZeroVector("universal-property test on the zero vector")
    if not check_verma_universal(rep, v, params.quadruple):
        return False
    ctx = params.ctx
    s = SeqData(params.quadruple)
    shifts = [s.theta(i) for i in range(ctx.dbar)]
    return product_shifted(rep.A, shifts) @ v == v * params.delta

"""Feasibility solving, parameter-space group actions, irreducibility tests.

Two independent routes exist for every classification question: the
parameter-side criteria (membership conditions read off the tuple) and the
module-side oracles (Burnside spanning test, intertwiner solve).  The
acceptance suite sweeps both routes against each other.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import table1
from .algebra import PairRep
from .errors import BadRange, CapExceeded, DimensionMismatch, InvariantViolation, NoSolutionsInField
from .field import FieldCtx, Fq2, mul_parts, poly_roots, quadratic_roots
from .linalg import FMat, check_int64, kernel, kron, pivot_step, rank, vstack
from .modules import Params4, Params5, SeqData, build_W, corner_terms, delta_shift

Quad = tuple[Fq2, Fq2, Fq2, Fq2]
Quint = tuple[Fq2, Fq2, Fq2, Fq2, Fq2]


# ---------------------------------------------------------------------------
# feasibility


@dataclass(frozen=True)
class Target:
    """A tuple (mu, phi, omega_star, omega_eps) against which quadruples are tested."""

    mu: Fq2
    phi: Fq2
    omega_star: Fq2
    omega_eps: Fq2

    def __post_init__(self):
        if self.mu.is_zero():
            raise ValueError("mu must be nonzero")

    def to_json(self) -> list[list[int]]:
        return [x.to_json() for x in (self.mu, self.phi, self.omega_star, self.omega_eps)]


def feasible_target(params: Params4) -> Target:
    """The unique target for which the quadruple is feasible."""
    ctx = params.ctx
    a, b, c, lam = params.astuple()
    ai, bi, ci, lami = a.inv(), b.inv(), c.inv(), lam.inv()
    q, qi = ctx.q, ctx.q.inv()
    s = SeqData(params)
    return Target(
        mu=b * lami,
        phi=(c + ci) * (lam - lami) - (a + ai) * (b * q - bi * qi),
        omega_star=s.omega_star,
        omega_eps=s.omega_eps,
    )


def feasible(params: Params4, target: Target) -> bool:
    """Whether the four defining equations hold exactly."""
    return feasible_target(params) == target


def _shifts(target: Target) -> tuple[Fq2, Fq2]:
    """d1 = (we - q phi)/(q + 1/q) and d2 = (we + phi/q)/(q + 1/q), the
    coefficients shared by the quartic and the sextic."""
    q, qi = target.mu.ctx.q, target.mu.ctx.q.inv()
    we, phi = target.omega_eps, target.phi
    return (we - q * phi) / (q + qi), (we + qi * phi) / (q + qi)


def feasible_quartic(target: Target) -> list[Fq2]:
    """The quartic whose roots are the values kappa = a/lam of feasible tuples."""
    mu, ws = target.mu, target.omega_star
    q, qi = mu.ctx.q, mu.ctx.q.inv()
    d1, d2 = _shifts(target)
    return [mu * q, -d1, ws - mu * qi - mu.inv() * q, -d2, (mu * q).inv()]


def feasible_sextic(target: Target, kappa: Fq2) -> list[Fq2]:
    """The sextic whose roots are the values lam of feasible tuples with a/lam = kappa."""
    mu = target.mu
    ctx = mu.ctx
    q, qi = ctx.q, ctx.q.inv()
    d1, d2 = _shifts(target)
    zero = ctx.zero
    return [-(kappa * mu * q).inv(), zero, d2 - kappa * mu.inv() * qi, zero,
            kappa.inv() * mu * q - d1, zero, kappa * mu * q]


def solve_feasible(target: Target) -> list[Params4]:
    """All quadruples in F_{p^2} feasible for the target.

    Follows the polynomial characterization: a quartic for kappa, for each
    kappa a sextic for lam, then a quadratic for c; solutions are emitted as
    (kappa*lam, mu*lam, c, lam).  Raises NoSolutionsInField when nothing
    survives in F_{p^2}.
    """
    mu, phi = target.mu, target.phi
    we = target.omega_eps
    ctx = mu.ctx
    q, qi = ctx.q, ctx.q.inv()
    mui = mu.inv()
    out: list[Params4] = []
    seen: set[tuple] = set()
    for kappa in sorted(set(poly_roots(ctx, feasible_quartic(target))), key=lambda e: e.key):
        ki = kappa.inv()
        for lam in sorted(set(poly_roots(ctx, feasible_sextic(target, kappa))), key=lambda e: e.key):
            lami = lam.inv()
            kl = kappa * lam + ki * lami
            if lam * lam == ctx.one:
                r = (we - kl * (mu * lam + mui * lami)) / (lam * q + lami * qi)
            else:
                r = (phi + kl * (mu * lam * q - mui * lami * qi)) / (lam - lami)
            for c in quadratic_roots(ctx.one, -r, ctx.one):
                cand = Params4(kappa * lam, mu * lam, c, lam)
                key = param_key(cand.astuple())
                if key in seen:
                    continue
                seen.add(key)
                if not feasible(cand, target):
                    raise InvariantViolation("solver emitted an infeasible tuple")
                out.append(cand)
    if not out:
        raise NoSolutionsInField("no feasible quadruple exists inside F_{p^2}")
    out.sort(key=lambda pr: param_key(pr.astuple()))
    return out


# ---------------------------------------------------------------------------
# sign classes and orbits


def canon_sign(t: tuple) -> tuple:
    """The sign class of a parameter tuple: the lexicographic minimum of
    (a, b, c, lam) and its global sign flip, followed by delta, if any,
    which keeps its sign.  Returns ``t`` itself when no flip is needed.

    The two agree up to the first nonzero coordinate x and differ there, so
    that coordinate decides: x.key against (-x).key.
    """
    p = t[0].ctx.p
    for x in t[:4]:
        if x.x0 or x.x1:
            if x.key < ((-x.x0) % p, (-x.x1) % p):
                return t
            return (-t[0], -t[1], -t[2], -t[3], *t[4:])
    return t


def param_key(t: tuple) -> tuple:
    """The plain-lex key of a parameter tuple: its entries' keys in order."""
    return tuple(x.key for x in t)


@dataclass(frozen=True)
class OrbitSet:
    """Sign-class members of an orbit plus the generating move per edge."""

    members: tuple[tuple, ...]  # canonical sign-class tuples, sorted by key
    edges: tuple[tuple[int, str, int], ...]  # (source index, move label, target index)

    @property
    def size(self) -> int:
        return len(self.members)

    def member_keys(self) -> set[tuple]:
        return {param_key(m) for m in self.members}

    def to_json(self) -> dict:
        return {
            "members": [[x.to_json() for x in m] for m in self.members],
            "edges": [[s, label, t] for s, label, t in self.edges],
            "size": self.size,
        }


def _orbit_set(members: list[tuple], edges: list[tuple[int, str, int]]) -> OrbitSet:
    """The members sorted by ``param_key``, and the edges renumbered to match and sorted."""
    order = sorted(range(len(members)), key=lambda i: param_key(members[i]))
    renum = {old: new for new, old in enumerate(order)}
    return OrbitSet(
        members=tuple(members[i] for i in order),
        edges=tuple(sorted((renum[s], lab, renum[t]) for s, lab, t in edges)),
    )


def z2cubed_orbit(a: Fq2, b: Fq2, c: Fq2) -> set[tuple[Fq2, Fq2, Fq2]]:
    """All triples obtained by independently inverting each coordinate."""
    out = set()
    for ea in (a, a.inv()):
        for eb in (b, b.inv()):
            for ec in (c, c.inv()):
                out.add((ea, eb, ec))
    return out


def s4_orbit(params: Params4) -> OrbitSet:
    """Sign-classes of the 24 row images of the quadruple.

    Raises NeedsExtension when sqrt(a b c lam q) is missing from F_{p^2}.
    """
    quad = params.astuple()
    images: dict[tuple, int] = {}
    members: list[Quad] = []
    edges: list[tuple[int, str, int]] = []

    def intern(c: Quad) -> int:
        k = param_key(c)
        if k not in images:
            images[k] = len(members)
            members.append(c)
        return images[k]

    src = intern(canon_sign(quad))
    for row in table1.ROWS:
        img = canon_sign(table1.apply_row(row, quad))
        edges.append((src, row[0], intern(img)))
    return _orbit_set(members, edges)


def approx_equiv(p1: Params4, p2: Params4) -> bool:
    """Whether the sign-class of p2 lies in the 24-row orbit of p1."""
    return param_key(canon_sign(p2.astuple())) in s4_orbit(p1).member_keys()


def orbit_image(row: table1.Row, quad: Quad, shift: Fq2) -> Quint:
    """The row image of a quadruple, with delta chosen so that delta_shift of
    the image is ``shift``."""
    img = table1.apply_row(row, quad)
    return (*img, shift - corner_terms(img[0], img[3]))


def simeq_z2s4(p1: Params5, p2: Params5) -> bool:
    """Quadruple orbits match and the corner invariant is preserved."""
    return delta_shift(p1) == delta_shift(p2) and approx_equiv(p1.quadruple, p2.quadruple)


def _q2_window(ctx: FieldCtx) -> set[Fq2]:
    """{q^{2i} : 0 <= i <= dbar-2}: all powers of q^2 except q^{-2}."""
    return {ctx.qpow(2 * i) for i in range(ctx.dbar - 1)}


def _move_inv(p: Params5) -> tuple[Params5, Params5]:
    """The a-inversion and ab-inversion images of p.  Both send a to 1/a and
    lam to 1/(lam q^2), keep c and delta, and are involutions."""
    a, lam = p.a.inv(), p.lam.inv() * p.ctx.qpow(-2)
    return Params5(a, p.b, p.c, lam, p.delta), Params5(a, p.b.inv(), p.c, lam, p.delta)


def _cond_inv_a(p: Params5) -> bool:
    return p.lam * p.lam in _q2_window(p.ctx)


def inv_ab_defect(p: Params5) -> Fq2:
    """The polynomial whose zeros are the ab-inversion move's delta condition;
    it is also the delta-carrying factor of the descent scalar at w_{0,dbar-1}."""
    ctx = p.ctx
    dbar = ctx.dbar
    a, b, c, lam = p.quadruple.astuple()
    bl = (b / lam) ** dbar
    abq = (a * b * ctx.q / lam) ** dbar
    cd = c ** dbar
    return p.delta * (bl - bl.inv()) - (
        (a * b) ** (-dbar)
        * (lam ** (2 * dbar) - ctx.one)
        * (abq * cd - ctx.one)
        * (abq * cd.inv() - ctx.one)
    )


def _cond_inv_ab(p: Params5) -> bool:
    ctx = p.ctx
    dbar = ctx.dbar
    excluded = {ctx.qpow(2 * (dbar - i + 1)) for i in range(dbar - 1)}
    return (p.b / p.lam) ** 2 not in excluded and inv_ab_defect(p).is_zero()


def sim_related(p1: Params5, p2: Params5) -> bool:
    """The one-step relation: orbit equivalence or one of the two inversion moves.

    The inversion branches compare quintuples literally (not up to sign).
    NeedsExtension can only escape from the orbit branch.
    """
    t2 = p2.astuple()
    for cand, cond in zip(_move_inv(p1), (_cond_inv_a, _cond_inv_ab)):
        if cond(p1) and cand.astuple() == t2:
            return True
    return simeq_z2s4(p1, p2)


def simeq_closure(params: Params5, cap: int = 10_000) -> OrbitSet:
    """Breadth-first closure of the generated equivalence, as sign-classes.

    Expands by (1) the 24-row orbit moves with delta adjusted to keep the
    corner invariant, (2) the a-inversion move where its side condition
    holds, (3) the ab-inversion move where its side conditions hold.  The
    one-step relation is directional, so moves are also applied in reverse:
    a candidate X is admitted when the conditions hold at X and the move
    sends X back to the current node.  Stops at a fixpoint; raises
    CapExceeded if the member count passes the cap.
    """
    start = canon_sign(params.astuple())
    members: list[Quint] = [start]
    index: dict[tuple, int] = {param_key(start): 0}
    edges: list[tuple[int, str, int]] = []
    frontier = deque([0])

    def intern(c: Quint, src: int, label: str):
        k = param_key(c)
        if k not in index:
            if len(members) >= cap:
                raise CapExceeded(f"closure exceeded cap={cap} nodes")
            index[k] = len(members)
            members.append(c)
            frontier.append(index[k])
        edges.append((src, label, index[k]))

    while frontier:
        i = frontier.popleft()
        cur = Params5(*members[i])
        shift = delta_shift(cur)
        quad = cur.quadruple.astuple()
        for row in table1.ROWS:
            intern(canon_sign(orbit_image(row, quad, shift)), i, f"s4:{row[0]}")
        for cand, cond, label in zip(_move_inv(cur), (_cond_inv_a, _cond_inv_ab),
                                     ("inv-a", "inv-ab")):
            img = canon_sign(cand.astuple())
            if cond(cur):
                intern(img, i, label)
            if cond(cand):
                # reverse edge: cand ~ cur since the move is an involution
                intern(img, i, label + ":rev")
    return _orbit_set(members, edges)


# ---------------------------------------------------------------------------
# irreducibility: parameter criteria and the spanning oracle


def irr_Vn_criterion(a: Fq2, b: Fq2, c: Fq2, n: int) -> bool:
    """Parameter test for irreducibility of the (n+1)-dimensional family."""
    ctx = a.ctx
    if not 0 <= n <= ctx.dbar - 2:
        raise BadRange(f"n={n} outside [0, {ctx.dbar - 2}]")
    forbidden = {ctx.qpow(n - 2 * i + 1) for i in range(1, n + 1)}
    if not forbidden:
        return True
    for ta, tb, tc in z2cubed_orbit(a, b, c):
        if ta * tb * tc in forbidden:
            return False
    return True


def irr_W_criterion(params: Params5) -> bool:
    """Parameter test for irreducibility of the dbar-dimensional family.

    The conjunction of four conditions, each "a delta-condition holds or
    three window memberships are all excluded".
    """
    ctx = params.ctx
    dbar = ctx.dbar
    a, b, c, lam = params.quadruple.astuple()
    delta = params.delta
    window = _q2_window(ctx)
    q, qi = ctx.q, ctx.q.inv()
    ai, bi, ci, lami = a.inv(), b.inv(), c.inv(), lam.inv()
    lam2 = lam * lam
    ad, lamd = a ** dbar, lam ** dbar
    shift = delta_shift(params)

    def excl(*vals: Fq2) -> bool:
        return all(v not in window for v in vals)

    if delta != ctx.zero:
        c1 = True
    else:
        c1 = excl(lam2, ai * bi * ci * lam * qi, ai * bi * c * lam * qi)
    if delta != (ad - ad.inv()) * (lamd - lamd.inv()):
        c2 = True
    else:
        c2 = excl(lam2, a * bi * ci * lam * qi, a * bi * c * lam * qi)
    bd, cd, qd = b ** dbar, c ** dbar, ctx.qpow(dbar)
    if shift != (bd * cd + bd.inv() * cd.inv()) * qd:
        c3 = True
    else:
        c3 = excl(a * bi * ci * lam * qi, ai * bi * ci * lam * qi, bi * bi * qi * qi)
    if shift != (bd * cd.inv() + bd.inv() * cd) * qd:
        c4 = True
    else:
        c4 = excl(a * bi * c * lam * qi, bi * bi * qi * qi, ai * bi * c * lam * qi)
    return c1 and c2 and c3 and c4


def burnside_irreducible(rep: PairRep) -> bool:
    """Spanning oracle: words in {I, A, B} span the full matrix algebra.

    True iff the span reaches dimension n^2: absolute irreducibility,
    unchanged under extension of the base field.

    The echelon basis fills preallocated rows.  A new word is reduced only
    against the basis rows whose pivot it touches, and becomes a basis row
    by one ``pivot_step``; a reduction sums at most n^2 products of
    (1+t)*p^2 each, so n^2*(1+t)*p^2 must fit in int64.  Each new basis row
    is pushed on a stack; each step pops the top row and inserts its
    products with A and B.  A popped row may have been cleared by pivots
    inserted after it: it is then the word inserted there plus multiples of
    later rows.  Every row is pushed once and popped once, before the stack
    empties.  So, from the last row back, the products of each inserted word
    with A and B lie in the span (those of the popped row were inserted,
    those of the later rows by induction): the span closes on the algebra.
    """
    ctx = rep.ctx
    n = rep.n
    if n < 1:
        raise InvariantViolation(f"spanning oracle on a module of dimension {n}")
    p, t = ctx.p, ctx.t
    nn = n * n
    check_int64(nn * (1 + t) * p * p, "spanning oracle reduction")
    basis0 = np.zeros((nn, nn), dtype=np.int64)
    basis1 = np.zeros((nn, nn), dtype=np.int64)
    pivots = np.zeros(nn, dtype=np.intp)
    size = 0
    stack: list[int] = []

    def insert(v0: np.ndarray, v1: np.ndarray) -> None:
        nonlocal size
        c0, c1 = v0[pivots[:size]], v1[pivots[:size]]
        used = np.flatnonzero(c0 | c1)
        if used.size:
            v0, v1 = mul_parts(c0[used], c1[used], basis0[used], basis1[used], p, t, np.matmul,
                               subtract_from=(v0, v1))
        nz = np.flatnonzero(v0 | v1)
        if nz.size == 0:
            return
        j = int(nz[0])
        w0, w1 = pivot_step(basis0[:size], basis1[:size], v0, v1, j, p, t)
        basis0[size, j:], basis1[size, j:] = w0, w1
        pivots[size] = j
        stack.append(size)
        size += 1

    insert(np.eye(n, dtype=np.int64).ravel(), np.zeros(nn, dtype=np.int64))
    while stack and size < nn:
        top = stack.pop()
        # copies: the A-product's pivot may clear the row before B reads it
        w0, w1 = basis0[top].reshape(n, n).copy(), basis1[top].reshape(n, n).copy()
        for g in (rep.A.arr, rep.B.arr):
            m0, m1 = mul_parts(g[..., 0], g[..., 1], w0, w1, p, t, np.matmul)
            insert(m0.ravel(), m1.ravel())
    return size == nn


# Bases of the cases run in lockstep at once, in bytes; larger batches run
# in groups, so that high-dimensional modules cannot exhaust memory.
LOCKSTEP_BYTES = 1 << 23


def burnside_irreducible_many(reps: Sequence[PairRep]) -> list[bool]:
    """``burnside_irreducible`` of each module, run in lockstep on a leading
    case axis; all modules share one dimension and the field of the first.

    Every case keeps an echelon basis of shape (n^2, n^2) and a stack of the
    basis rows whose products with A and B are still to be inserted.  Each
    step pops the top row of every live case, multiplies it by A and by B
    for all of them at once, and reduces and pivots as the single oracle
    does, on the union of the rows that any case touches.  A case stops when
    its stack is empty or its span reaches n^2, and leaves the arrays.  Each
    case visits its rows in the single oracle's order, so its closure
    argument and its int64 bound, n^2*(1+t)*p^2, carry over, and each
    verdict is the single-module one.
    """
    if not reps:
        return []
    n = reps[0].n
    if any(rep.n != n for rep in reps):
        raise DimensionMismatch(f"modules of dimensions {sorted({rep.n for rep in reps})}")
    if n < 1:
        raise InvariantViolation(f"spanning oracle on a module of dimension {n}")
    p, t = reps[0].ctx.p, reps[0].ctx.t
    nn = n * n
    check_int64(nn * (1 + t) * p * p, "spanning oracle reduction")
    group = max(1, LOCKSTEP_BYTES // (16 * nn * nn))
    if len(reps) > group:
        return [verdict for k in range(0, len(reps), group)
                for verdict in burnside_irreducible_many(reps[k:k + group])]

    cases = len(reps)
    verdict = np.zeros(cases, dtype=bool)
    # per live case: its index, generators (A or B, component, n, n), basis
    # components, pivot columns, basis size, and the stack of rows to visit
    order = np.arange(cases)
    gens = np.moveaxis(np.array([(rep.A.arr, rep.B.arr) for rep in reps]), -1, 2)
    basis0 = np.zeros((cases, nn, nn), dtype=np.int64)
    basis1 = np.zeros((cases, nn, nn), dtype=np.int64)
    basis0[:, 0] = np.eye(n, dtype=np.int64).ravel()
    pivots = np.zeros((cases, nn), dtype=np.intp)
    size = np.ones(cases, dtype=np.intp)
    stack = np.zeros((cases, nn), dtype=np.intp)
    depth = np.ones(cases, dtype=np.intp)

    def insert(v0: np.ndarray, v1: np.ndarray) -> None:
        rows = np.arange(len(v0))
        # rows at or past a case's size are zero and reduce nothing
        piv = pivots[:, :size.max()]
        c0, c1 = v0[rows[:, None], piv], v1[rows[:, None], piv]
        used = np.flatnonzero((c0 | c1).any(0))
        if used.size:
            r0, r1 = mul_parts(c0[:, None, used], c1[:, None, used], basis0[:, used],
                               basis1[:, used], p, t, np.matmul,
                               subtract_from=(v0[:, None], v1[:, None]))
            v0, v1 = r0[:, 0], r1[:, 0]
        nz = (v0 | v1) != 0
        gain = np.flatnonzero(nz.any(1))
        if not gain.size:
            return
        # a case without gain has j = 0 and a zero row, which pivots nothing
        j = nz.argmax(1)
        w0, w1 = pivot_step(basis0, basis1, v0, v1, j, p, t)
        at, lo = size[gain], nn - w0.shape[1]
        basis0[gain, at, lo:], basis1[gain, at, lo:] = w0[gain], w1[gain]
        pivots[gain, at] = j[gain]
        stack[gain, depth[gain]] = at
        size[gain] += 1
        depth[gain] += 1

    while True:
        done = (depth == 0) | (size == nn)
        verdict[order[done]] = size[done] == nn
        if done.all():
            return verdict.tolist()
        if done.any():
            keep = ~done
            order, gens, basis0, basis1, pivots, size, stack, depth = (
                x[keep] for x in (order, gens, basis0, basis1, pivots, size, stack, depth))
        rows = np.arange(len(order))
        depth -= 1
        top = stack[rows, depth]
        w0 = basis0[rows, top].reshape(-1, n, n)
        w1 = basis1[rows, top].reshape(-1, n, n)
        for g in range(2):
            m0, m1 = mul_parts(gens[:, g, 0], gens[:, g, 1], w0, w1, p, t, np.matmul)
            insert(m0.reshape(-1, nn), m1.reshape(-1, nn))


def intertwiner(rep_x: PairRep, rep_y: PairRep) -> FMat | None:
    """A nonzero S with S A_x = A_y S and S B_x = B_y S, or None.

    Requires equal dimensions; returns None immediately when the central
    scalars differ.  When the solution space contains an invertible element
    the search prefers one (between irreducibles any nonzero solution is
    already invertible).
    """
    if rep_x.n != rep_y.n:
        raise DimensionMismatch(f"{rep_x.n} vs {rep_y.n}")
    if rep_x.scalars() != rep_y.scalars():
        return None
    ctx = rep_x.ctx
    n = rep_x.n
    ident = FMat.identity(ctx, n)
    blocks = [
        kron(ident, rep_x.A.transpose()) - kron(rep_y.A, ident),
        kron(ident, rep_x.B.transpose()) - kron(rep_y.B, ident),
    ]
    null = kernel(vstack(blocks))
    k = null.ncols
    if k == 0:
        return None

    def reshape(col: int) -> FMat:
        return FMat(ctx, null.arr[:, col, :].reshape(n, n, 2))

    cands = [reshape(j) for j in range(k)]
    for s in cands:
        if rank(s) == n:
            return s
    if k >= 2:
        # singular basis elements; scan a bounded set of pencil combinations
        for j in range(1, k):
            count = 0
            for coeff in ctx.elements():
                if coeff.is_zero():
                    continue
                s = cands[0] + cands[j] * coeff
                if rank(s) == n:
                    return s
                count += 1
                if count >= 256:
                    break
    return cands[0]


# ---------------------------------------------------------------------------
# seeded sampling (fixed algorithm, documented for bit-reproducibility)


def rand_element(ctx: FieldCtx, rng: random.Random) -> Fq2:
    """Uniform element: plain-lex rank randrange(p^2)."""
    return ctx.from_index(rng.randrange(ctx.p * ctx.p))


def rand_nonzero(ctx: FieldCtx, rng: random.Random) -> Fq2:
    """Uniform nonzero element: plain-lex rank randrange(1, p^2)."""
    return ctx.from_index(rng.randrange(1, ctx.p * ctx.p))


def sample_quadruple(ctx: FieldCtx, rng: random.Random) -> Params4:
    """Orbit-computable quadruple: draw s, a, b, lam; set c = s^2/(a b lam q).

    The construction forces a*b*c*lam*q = s^2, so every orbit row applies.
    """
    s = rand_nonzero(ctx, rng)
    a = rand_nonzero(ctx, rng)
    b = rand_nonzero(ctx, rng)
    lam = rand_nonzero(ctx, rng)
    c = s * s / (a * b * lam * ctx.q)
    return Params4(a, b, c, lam)

def sample_quintuple(ctx: FieldCtx, rng: random.Random) -> Params5:
    """sample_quadruple plus a uniform delta (zero allowed)."""
    quad = sample_quadruple(ctx, rng)
    delta = rand_element(ctx, rng)
    return Params5(*quad.astuple(), delta)


def sample_triple(ctx: FieldCtx, rng: random.Random) -> tuple[Fq2, Fq2, Fq2]:
    return (rand_nonzero(ctx, rng), rand_nonzero(ctx, rng), rand_nonzero(ctx, rng))


# ---------------------------------------------------------------------------
# classification report


def classify_sample(ctx: FieldCtx, seed: int, count: int, cap: int = 10_000) -> dict:
    """Sample quintuples, filter by the irreducibility criterion, group by
    equivalence closure, and cross-validate the grouping with intertwiners.

    Deterministic per seed; the report is JSON-serializable and stable.
    """
    if count < 1:
        raise BadRange("count must be >= 1")
    rng = random.Random(seed)
    samples = [sample_quintuple(ctx, rng) for _ in range(count)]
    rejected = []
    errors = []
    closures: dict[tuple, dict] = {}  # class key -> record
    sample_class: dict[int, tuple] = {}
    for idx, p5 in enumerate(samples):
        if not irr_W_criterion(p5):
            rejected.append({"index": idx, "params": p5.to_json(), "reason": "reducible"})
            continue
        try:
            orb = simeq_closure(p5, cap)
        except CapExceeded as exc:
            errors.append({"index": idx, "params": p5.to_json(), "error": str(exc)})
            continue
        key = param_key(orb.members[0])
        rec = closures.setdefault(
            key,
            {"representative": orb.members[0], "member_keys": orb.member_keys(),
             "size": orb.size, "samples": []},
        )
        rec["samples"].append(idx)
        sample_class[idx] = key
        if rec["member_keys"] != orb.member_keys():
            errors.append({
                "index": idx,
                "params": p5.to_json(),
                "error": "closure mismatch within one class",
            })

    # cross-validation: intertwiners within and across classes
    class_keys = sorted(closures)
    reps = {k: build_W(Params5(*closures[k]["representative"])) for k in class_keys}
    for k in class_keys:
        rec = closures[k]
        base_idx = rec["samples"][0]
        base_rep = build_W(samples[base_idx])
        for idx in rec["samples"]:
            s = intertwiner(base_rep, build_W(samples[idx]))
            if s is None or rank(s) != s.nrows:
                errors.append({
                    "index": idx,
                    "params": samples[idx].to_json(),
                    "error": "missing within-class isomorphism",
                })
    for i, ka in enumerate(class_keys):
        for kb in class_keys[i + 1:]:
            if intertwiner(reps[ka], reps[kb]) is not None:
                errors.append({
                    "classes": [list(ka), list(kb)],
                    "error": "unexpected cross-class intertwiner",
                })

    classes = [
        {
            "representative": [x.to_json() for x in closures[k]["representative"]],
            "members": [samples[i].to_json() for i in closures[k]["samples"]],
            "sample_indices": closures[k]["samples"],
            "size": closures[k]["size"],
            "irreducible": True,
        }
        for k in class_keys
    ]
    return {
        "schema": 1,
        "seed": seed,
        "count": count,
        "field": {"p": ctx.p, "d": ctx.d},
        "classes": classes,
        "rejected": rejected,
        "errors": errors,
    }

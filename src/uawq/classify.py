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

import numpy as np

from . import table1
from .algebra import PairRep
from .errors import BadRange, CapExceeded, DimensionMismatch, InvariantViolation, NoSolutionsInField
from .field import FieldCtx, Fq2, poly_roots, quadratic_roots
from .linalg import FMat, kernel, kron, rank, vstack
from .modules import Params4, Params5, SeqData, build_W

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
    t = feasible_target(params)
    return (
        t.mu == target.mu
        and t.phi == target.phi
        and t.omega_star == target.omega_star
        and t.omega_eps == target.omega_eps
    )


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
                key = tuple(x.key for x in cand.astuple())
                if key in seen:
                    continue
                seen.add(key)
                if not feasible(cand, target):
                    raise InvariantViolation("solver emitted an infeasible tuple")
                out.append(cand)
    if not out:
        raise NoSolutionsInField("no feasible quadruple exists inside F_{p^2}")
    out.sort(key=lambda pr: tuple(x.key for x in pr.astuple()))
    return out


# ---------------------------------------------------------------------------
# sign classes and orbits


def sign_flip4(quad: Quad) -> Quad:
    return tuple(-x for x in quad)  # type: ignore[return-value]


def canon_sign4(quad: Quad) -> Quad:
    """Lexicographic minimum of the quadruple and its global sign flip."""
    flipped = sign_flip4(quad)
    return min(quad, flipped, key=lambda t: tuple(x.key for x in t))


def canon_sign5(quint: Quint) -> Quint:
    quad = canon_sign4(quint[:4])
    return (*quad, quint[4])


def quad_key(quad: Quad) -> tuple:
    return tuple(x.key for x in quad)


def quint_key(quint: Quint) -> tuple:
    return tuple(x.key for x in quint)


@dataclass(frozen=True)
class OrbitSet:
    """Sign-class members of an orbit plus the generating move per edge."""

    members: tuple[tuple, ...]  # canonical sign-class tuples, sorted by key
    edges: tuple[tuple[int, str, int], ...]  # (source index, move label, target index)

    @property
    def size(self) -> int:
        return len(self.members)

    def member_keys(self) -> set[tuple]:
        return {tuple(x.key for x in m) for m in self.members}

    def to_json(self) -> dict:
        return {
            "members": [[x.to_json() for x in m] for m in self.members],
            "edges": [[s, label, t] for s, label, t in self.edges],
            "size": self.size,
        }


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
        k = quad_key(c)
        if k not in images:
            images[k] = len(members)
            members.append(c)
        return images[k]

    src = intern(canon_sign4(quad))
    for row in table1.ROWS:
        img = canon_sign4(table1.apply_row(row, quad))
        edges.append((src, row[0], intern(img)))
    order = sorted(range(len(members)), key=lambda i: quad_key(members[i]))
    renum = {old: new for new, old in enumerate(order)}
    return OrbitSet(
        members=tuple(members[i] for i in order),
        edges=tuple(sorted((renum[s], lab, renum[t]) for s, lab, t in edges)),
    )


def approx_equiv(p1: Params4, p2: Params4) -> bool:
    """Whether the sign-class of p2 lies in the 24-row orbit of p1."""
    return quad_key(canon_sign4(p2.astuple())) in s4_orbit(p1).member_keys()


def delta_shift(params: Params5) -> Fq2:
    """delta + a^dbar lam^-dbar + a^-dbar lam^dbar, the corner invariant."""
    dbar = params.ctx.dbar
    al = params.a / params.lam
    return params.delta + al ** dbar + al ** (-dbar)


def orbit_image(row: table1.Row, quad: Quad, shift: Fq2) -> Quint:
    """The row image of a quadruple, with delta chosen so that delta_shift of
    the image is ``shift``."""
    img = table1.apply_row(row, quad)
    al = img[0] / img[3]
    dbar = al.ctx.dbar
    return (*img, shift - al ** dbar - al ** (-dbar))


def simeq_z2s4(p1: Params5, p2: Params5) -> bool:
    """Quadruple orbits match and the corner invariant is preserved."""
    return delta_shift(p1) == delta_shift(p2) and approx_equiv(p1.quadruple, p2.quadruple)


def _q2_window(ctx: FieldCtx) -> set[Fq2]:
    """{q^{2i} : 0 <= i <= dbar-2}: all powers of q^2 except q^{-2}."""
    return {ctx.qpow(2 * i) for i in range(ctx.dbar - 1)}


def _move_inv_a(p: Params5) -> Params5:
    q2i = p.ctx.qpow(-2)
    return Params5(p.a.inv(), p.b, p.c, p.lam.inv() * q2i, p.delta)


def _move_inv_ab(p: Params5) -> Params5:
    q2i = p.ctx.qpow(-2)
    return Params5(p.a.inv(), p.b.inv(), p.c, p.lam.inv() * q2i, p.delta)


def _cond_inv_a(p: Params5) -> bool:
    return p.lam * p.lam in _q2_window(p.ctx)


def _cond_inv_ab(p: Params5) -> bool:
    ctx = p.ctx
    dbar = ctx.dbar
    a, b, c, lam = p.quadruple.astuple()
    bl2 = (b / lam) ** 2
    excluded = {ctx.qpow(2 * (dbar - i + 1)) for i in range(dbar - 1)}
    if bl2 in excluded:
        return False
    bl = (b / lam) ** dbar
    lhs = p.delta * (bl - bl.inv())
    abq = (a * b * ctx.q / lam) ** dbar
    cd = c ** dbar
    rhs = (
        (a * b) ** (-dbar)
        * (lam ** (2 * dbar) - ctx.one)
        * (abq * cd - ctx.one)
        * (abq * cd.inv() - ctx.one)
    )
    return lhs == rhs


def sim_related(p1: Params5, p2: Params5) -> bool:
    """The one-step relation: orbit equivalence or one of the two inversion moves.

    The inversion branches compare quintuples literally (not up to sign).
    NeedsExtension can only escape from the orbit branch.
    """
    t2 = p2.astuple()
    if _cond_inv_a(p1) and _move_inv_a(p1).astuple() == t2:
        return True
    if _cond_inv_ab(p1) and _move_inv_ab(p1).astuple() == t2:
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
    start = canon_sign5(params.astuple())
    members: list[Quint] = [start]
    index: dict[tuple, int] = {quint_key(start): 0}
    edges: list[tuple[int, str, int]] = []
    frontier = deque([0])

    def intern(c: Quint, src: int, label: str):
        k = quint_key(c)
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
            intern(canon_sign5(orbit_image(row, quad, shift)), i, f"s4:{row[0]}")
        for mover, cond, label in (
            (_move_inv_a, _cond_inv_a, "inv-a"),
            (_move_inv_ab, _cond_inv_ab, "inv-ab"),
        ):
            if cond(cur):
                intern(canon_sign5(mover(cur).astuple()), i, label)
            cand = mover(cur)
            if cond(cand):
                # reverse edge: cand ~ cur since the move is an involution
                intern(canon_sign5(cand.astuple()), i, label + ":rev")
    order = sorted(range(len(members)), key=lambda k: quint_key(members[k]))
    renum = {old: new for new, old in enumerate(order)}
    return OrbitSet(
        members=tuple(members[k] for k in order),
        edges=tuple(sorted({(renum[s], lab, renum[t]) for s, lab, t in edges})),
    )


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
    shift = delta + ad * lamd.inv() + ad.inv() * lamd

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

    Iterative closure with echelon reduction after every multiplication
    round; true iff the span reaches dimension n^2.  This is absolute
    irreducibility, unchanged under extension of the base field.
    """
    ctx = rep.ctx
    n = rep.n
    if n < 1:
        raise InvariantViolation(f"spanning oracle on a module of dimension {n}")
    p, t = ctx.p, ctx.t
    nn = n * n
    a0, a1 = rep.A.arr[..., 0], rep.A.arr[..., 1]
    b0, b1 = rep.B.arr[..., 0], rep.B.arr[..., 1]
    basis0 = np.zeros((0, nn), dtype=np.int64)
    basis1 = np.zeros((0, nn), dtype=np.int64)
    pivots: list[int] = []
    frontier: list[tuple[np.ndarray, np.ndarray]] = []

    def insert(m0: np.ndarray, m1: np.ndarray) -> bool:
        nonlocal basis0, basis1
        v0, v1 = m0.ravel() % p, m1.ravel() % p
        if pivots:
            c0, c1 = v0[pivots], v1[pivots]
            if c0.any() or c1.any():
                v0 = (v0 - (c0 @ basis0 + t * (c1 @ basis1))) % p
                v1 = (v1 - (c0 @ basis1 + c1 @ basis0)) % p
        nz = np.nonzero((v0 != 0) | (v1 != 0))[0]
        if nz.size == 0:
            return False
        j = int(nz[0])
        inv = Fq2(ctx, int(v0[j]), int(v1[j])).inv()
        w0 = (v0 * inv.x0 + t * (v1 * inv.x1)) % p
        w1 = (v0 * inv.x1 + v1 * inv.x0) % p
        if pivots:
            e0, e1 = basis0[:, j].copy(), basis1[:, j].copy()
            if e0.any() or e1.any():
                basis0 = (basis0 - (np.outer(e0, w0) + t * np.outer(e1, w1))) % p
                basis1 = (basis1 - (np.outer(e0, w1) + np.outer(e1, w0))) % p
        basis0 = np.vstack([basis0, w0])
        basis1 = np.vstack([basis1, w1])
        pivots.append(j)
        frontier.append((v0.reshape(n, n), v1.reshape(n, n)))
        return True

    eye = np.eye(n, dtype=np.int64)
    insert(eye, np.zeros((n, n), dtype=np.int64))
    while frontier and len(pivots) < nn:
        w0, w1 = frontier.pop()
        for g0, g1 in ((a0, a1), (b0, b1)):
            m0 = (g0 @ w0 + t * (g1 @ w1)) % p
            m1 = (g0 @ w1 + g1 @ w0) % p
            insert(m0, m1)
    return len(pivots) == nn


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
        key = quint_key(orb.members[0])
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

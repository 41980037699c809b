"""Feasibility solving, parameter-space group actions, irreducibility tests.

Two independent routes exist for every classification question: the
parameter-side criteria (membership conditions read off the tuple) and the
module-side oracles (Norton's spin test; intertwiners by standard bases on
case arrays, else by a spin solve per case).  The acceptance suite sweeps
both routes against each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, islice

import numpy as np

from . import table1
from .algebra import PairRep, gens_shape, stack_gens
from .errors import (BadRange, CapExceeded, DimensionMismatch, DivisionByZero, InvariantViolation,
                     NoSolutionsInField)
from .field import FieldCtx, Fq2, index_of, index_sub, mul_parts, poly_roots_many
from .linalg import LOCKSTEP_BYTES, FMat, _inverses, check_int64, kernel, pivot_step, rank, rref
from .modules import Params4, Params5, build_many, corner_index, delta_shift, seq_arrays

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


# mu = b/lam, then phi = (c + 1/c)(lam - 1/lam) - (a + 1/a)(b q - 1/(b q)) as
# eight signed monomials: exponent vectors over the logs of (a, b, c, lam, q)
_TARGET_TERMS = np.array([(0, 1, 0, -1, 0),
                          (0, 0, 1, 1, 0), (0, 0, 1, -1, 0), (0, 0, -1, 1, 0), (0, 0, -1, -1, 0),
                          (1, 1, 0, 0, 1), (1, -1, 0, 0, -1), (-1, 1, 0, 0, 1), (-1, -1, 0, 0, -1)])
_PHI_SIGNS = np.array([1, -1, 1, -1, -1, 1, -1, 1])


def feasible_targets(ctx: FieldCtx, index: np.ndarray) -> np.ndarray:
    """The unique targets for which some rows (m, 4) of plain-lex indices of
    (a, b, c, lam) are feasible, as rows (m, 4) of plain-lex indices of
    (mu, phi, omega_star, omega_eps); the central scalars are those of
    ``seq_arrays``, which raises ValueError at a zero entry."""
    *_, scalars = seq_arrays(ctx, index, np.empty(0, dtype=np.int64))
    exp = ctx.log_tables()[0]
    terms = exp[table1.param_logs(ctx, index) @ _TARGET_TERMS.T % len(exp)]
    phi = np.array(np.divmod(terms[:, 1:], ctx.p)) @ _PHI_SIGNS % ctx.p
    return np.stack([terms[:, 0], phi[0] * ctx.p + phi[1], scalars[:, 1], scalars[:, 2]], 1)


def feasible_target(params: Params4) -> Target:
    """The unique target for which the quadruple is feasible (``feasible_targets``)."""
    ctx = params.ctx
    row = feasible_targets(ctx, np.array([index_of(params.astuple())]))[0]
    return Target(*map(ctx.from_index, row.tolist()))


def feasible(params: Params4, target: Target) -> bool:
    """Whether the four defining equations hold exactly."""
    return feasible_target(params) == target


# Monomials over the logs of (mu, kappa, -, -, q): the quartic's mu q, mu/q, q/mu,
# 1/(mu q), the sextic's 1/(kappa mu q), kappa/(mu q), mu q/kappa, kappa mu q
_POLY_TERMS = np.array([(1, 0, 0, 0, 1), (1, 0, 0, 0, -1), (-1, 0, 0, 0, 1), (-1, 0, 0, 0, -1),
                        (-1, -1, 0, 0, -1), (-1, 1, 0, 0, -1), (1, -1, 0, 0, 1), (1, 1, 0, 0, 1)])


def feasible_polys(ctx: FieldCtx, targets: np.ndarray, kappa: np.ndarray):
    """The quartics in kappa = a/lam of rows (m, 4) of plain-lex indices of
    targets (mu, phi, omega_star, omega_eps), and their sextics in lam at the
    nonzero plain-lex indices kappa (m,), as components (2, m, 5) and (2, m, 7)
    of their coefficients in ascending degree: with d1 = (we - q phi)/(q + 1/q)
    and d2 = (we + phi/q)/(q + 1/q), for ws = omega_star and we = omega_eps,
    [mu q, -d1, ws - mu/q - q/mu, -d2, 1/(mu q)] and
    [-1/(kappa mu q), 0, d2 - kappa/(mu q), 0, mu q/kappa - d1, 0, kappa mu q]."""
    p, t = ctx.p, ctx.t
    exp = ctx.log_tables()[0]
    ones = np.full((len(kappa), 2), p)
    logs = table1.param_logs(ctx, np.column_stack([targets[:, 0], kappa, ones]))
    mono = np.stack(np.divmod(exp[logs @ _POLY_TERMS.T % len(exp)], p))  # (2, m, 8)
    _, phi, ws, we = np.stack(np.divmod(targets.T, p), 1)  # each (2, m)
    k = (ctx.q + ctx.q.inv()).inv()
    wek = mul_parts(*we, k.x0, k.x1, p, t)
    d1, d2 = (np.stack(mul_parts(*phi, f.x0, f.x1, p, t, subtract_from=wek))
              for f in (k * ctx.q, -k * ctx.q.inv()))
    zero = np.zeros_like(d1)
    quartic = [mono[..., 0], -d1, ws - mono[..., 1] - mono[..., 2], -d2, mono[..., 3]]
    sextic = [-mono[..., 4], zero, d2 - mono[..., 5], zero, mono[..., 6] - d1, zero, mono[..., 7]]
    return np.stack(quartic, -1) % p, np.stack(sextic, -1) % p


# r = c + 1/c is read off pairs x + s/x of monomials over the logs of (a, b, -, lam, q):
# a + 1/a, then b + 1/b and lam q + 1/(lam q) from omega_eps, 1/(b q) - b q and
# lam - 1/lam from phi
_R_TERMS = np.array([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 1), (0, -1, 0, 0, -1),
                     (0, 0, 0, 1, 0)])
_R_SIGNS = np.array([1, 1, 1, -1, -1])


def solve_feasible_many(ctx: FieldCtx, targets: np.ndarray) -> list[tuple[np.ndarray, bool]]:
    """Per row (m, 4) of plain-lex indices of targets (mu, phi, omega_star,
    omega_eps), mu nonzero (else ValueError): its feasible quadruples in
    F_{p^2} as sorted rows (k, 4) of plain-lex indices, and whether one
    ``feasible_targets`` call over every row of every target gives it back.

    One field scan finds the roots kappa of all quartics, one more the roots
    lam of all sextics at (target, kappa), in groups within LOCKSTEP_BYTES;
    c solves c^2 - r c + 1 with r = c + 1/c read off phi, or off omega_eps
    where lam^2 = 1; the solutions are (kappa*lam, mu*lam, c, lam)."""
    p, t, m = ctx.p, ctx.t, len(targets)
    if (targets[:, 0] == 0).any():
        raise ValueError("mu must be nonzero")
    exp, log = ctx.log_tables()
    n = len(exp)
    group = max(1, LOCKSTEP_BYTES // (16 * p * p))

    def roots(coeffs):  # poly_roots_many group by group; an empty batch is one empty group
        found = [(poly + k, root) for k in range(0, max(coeffs.shape[1], 1), group)
                 for poly, root in [poly_roots_many(ctx, coeffs[:, k:k + group])]]
        return map(np.concatenate, zip(*found))

    owner, kappa = roots(feasible_polys(ctx, targets, np.full(m, p))[0])  # kappa = 1 unread
    sextic, lam = roots(feasible_polys(ctx, targets[owner], kappa)[1])
    owner, kappa = owner[sextic], kappa[sextic]
    mu, phi, _, we = targets[owner].T
    a, b = exp[(log[np.stack([kappa, mu])] + log[lam]) % n]
    logs = table1.param_logs(ctx, np.stack([a, b, np.full_like(a, p), lam], 1))
    unit = 2 * logs[:, 3] % n == 0  # lam^2 = 1
    pairs = np.stack(np.divmod(exp[np.stack([logs, -logs]) @ _R_TERMS.T % n], p))  # (2, 2, k, 5)
    pairs = (pairs[:, 0] + _R_SIGNS * pairs[:, 1]) % p
    # r = (base - (a + 1/a) mm) / den, with (base, mm, den) from omega_eps or phi
    base = np.stack(np.divmod(np.where(unit, we, phi), p))
    mm, den = (np.where(unit, pairs[..., i], pairs[..., i + 2]) for i in (1, 2))
    num = mul_parts(*pairs[..., 0], *mm, p, t, subtract_from=base)
    r = np.stack(mul_parts(*num, *np.divmod(exp[-log[den[0] * p + den[1]] % n], p), p, t))
    # c = (r +- s)/2 for the canonical root s of r^2 - 4, where it has one
    d0, d1 = mul_parts(*r, *r, p, t)
    disc = (d0 - 4) % p * p + d1
    square = (disc == 0) | (log[disc] % 2 == 0)
    s = np.stack(np.divmod(np.where(disc == 0, 0, exp[ctx.root_log(log[disc])]), p))
    c = np.concatenate([r + s, r - s], 1) * ((p + 1) // 2) % p  # (2, 2k)
    keep = np.concatenate([square, square & (s != 0).any(0)])
    rows = np.column_stack([*np.tile([owner, a, b], 2), c[0] * p + c[1], np.tile(lam, 2)])[keep]
    rows = rows[np.lexsort(rows.T[::-1])]  # by target, then plain-lex
    own, rows = rows[:, 0], rows[:, 1:]
    bad = (feasible_targets(ctx, rows) != targets[own]).any(1)
    ok = np.bincount(own[bad], minlength=m) == 0
    return list(zip(np.split(rows, np.cumsum(np.bincount(own, minlength=m))[:-1]), ok.tolist()))


def solve_feasible(target: Target) -> list[Params4]:
    """``solve_feasible_many`` on a batch of one, as Params4; NoSolutionsInField
    when none lies in F_{p^2}, InvariantViolation when one fails the check."""
    ctx = target.mu.ctx
    row = index_of((target.mu, target.phi, target.omega_star, target.omega_eps))
    [(rows, ok)] = solve_feasible_many(ctx, np.array([row]))
    if not len(rows):
        raise NoSolutionsInField("no feasible quadruple exists inside F_{p^2}")
    if not ok:
        raise InvariantViolation("solver emitted an infeasible tuple")
    return [Params4(*map(ctx.from_index, row)) for row in rows.tolist()]


# ---------------------------------------------------------------------------
# sign classes and orbits
#
# Parameter tuples are keyed by their plain-lex indices x0*p + x1, which sort
# as the entries' ``key``s do.  Orbits and closures run on rows of them and on
# discrete logs: products, inverses and powers are sums of logs mod p^2 - 1,
# sums and differences are componentwise.


@lru_cache(maxsize=None)
def _negation(p: int) -> np.ndarray:
    """Read-only: the plain-lex index of minus the element of each index."""
    neg = index_sub(0, np.arange(p * p), p)
    neg.setflags(write=False)
    return neg


def sign_index(t: np.ndarray, p: int) -> np.ndarray:
    """The sign classes of the rows of plain-lex indices of an array (..., k):
    the lexicographic minimum of (a, b, c, lam) and its global sign flip, then
    delta, if any, which keeps its sign.  The two differ first at the first
    nonzero entry, so the sign of that difference outweighs the rest."""
    head = t[..., :4]
    flipped = _negation(p)[head]
    flip = np.sign(head - flipped) @ np.array([8, 4, 2, 1]) > 0
    return np.concatenate([np.where(flip[..., None], flipped, head), t[..., 4:]], -1)


def sign_key(t: tuple) -> tuple[int, ...]:
    """The sign class of a tuple of field elements: ``sign_index`` of its indices."""
    return tuple(sign_index(np.array(index_of(t)), t[0].ctx.p).tolist())


@dataclass(frozen=True)
class OrbitSet:
    """Sign-class members of an orbit plus the generating move per edge."""

    members: tuple[tuple, ...]  # canonical sign-class tuples, sorted by index
    edges: tuple[tuple[int, str, int], ...]  # (source index, move label, target index)
    # the members' plain-lex indices, a row each: as the search holds them, or from members
    rows: np.ndarray = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.rows is None:
            object.__setattr__(self, "rows", np.array([index_of(m) for m in self.members]))

    @property
    def size(self) -> int:
        return len(self.members)

    def member_keys(self) -> set[tuple[int, ...]]:
        """The members' ``sign_key``s."""
        return set(map(tuple, self.rows.tolist()))

    def to_json(self) -> dict:
        return {
            "members": [[x.to_json() for x in m] for m in self.members],
            "edges": [[s, label, t] for s, label, t in self.edges],
            "size": self.size,
        }


def _intern(members: np.ndarray, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each candidate row's id: a member's position, or for a new row the next
    id in order of first occurrence; and the new rows.  A lexsort matches
    rows exactly for every p."""
    rows = np.concatenate([members, cand])
    order = np.lexsort(rows.T[::-1])  # stable: equal rows keep their order
    srt = rows[order]
    head = np.ones(len(rows), dtype=bool)
    head[1:] = (srt[1:] != srt[:-1]).any(1)
    firsts = order[head]  # each distinct row's first position
    group = (np.cumsum(head) - 1)[np.argsort(order)]
    m = len(members)
    new = np.sort(firsts[firsts >= m])
    ids = np.where(firsts < m, firsts, m + np.searchsorted(new, firsts))
    return ids[group[m:]], rows[new]


def _explore(ctx: FieldCtx, start: np.ndarray, moves, labels: tuple[str, ...],
             cap: int = 10_000) -> OrbitSet:
    """Level-synchronous breadth-first search from a sign class, a row of
    plain-lex indices.  ``moves(depth, nodes)`` is None to stop, or for the
    (m, w) nodes of a level: their (m, len(labels), w) candidates, the mask
    of those that apply, and None or (node, move, raise_error) for the first
    move that cannot be made.  The masked candidates' sign classes, in
    (node, move) order, are edges; those not yet known are the next level,
    numbered by first occurrence, as a node-by-node search numbers them.
    Those before the stop are admitted first: CapExceeded if they pass the
    cap, then the stop's error.  The OrbitSet holds the members sorted by
    index, as field elements and as rows."""
    members = level = start[None]
    edges = []
    while len(level) and (expansion := moves(len(edges), level)) is not None:
        images, mask, stop = expansion
        if stop is not None:
            mask[stop[0], stop[1]:] = mask[stop[0] + 1:] = False
        node, mv = np.nonzero(mask)
        ids, level = _intern(members, sign_index(images[node, mv], ctx.p))
        if len(members) + len(level) > cap:
            raise CapExceeded(f"closure exceeded cap={cap} nodes")
        if stop is not None:
            stop[2]()
        edges.append((node + len(members) - len(mask), mv, ids))
        members = np.concatenate([members, level])
    order = np.lexsort(members.T[::-1])
    rows = members[order]
    renum = np.argsort(order)
    # (source, label) is unique, so edges sort by source and the label's rank
    rank = np.argsort(sorted(range(len(labels)), key=labels.__getitem__))
    src, move, tgt = map(np.concatenate, zip(*edges))
    src, tgt = renum[src], renum[tgt]
    by = np.argsort(src * len(labels) + rank[move])
    return OrbitSet(
        members=tuple(tuple(map(ctx.from_index, m)) for m in rows.tolist()),
        edges=tuple(zip(src[by].tolist(), np.array(labels, dtype=object)[move[by]].tolist(),
                        tgt[by].tolist())),
        rows=rows,
    )


def _row_images(ctx: FieldCtx, quads: np.ndarray, shift: int | None = None):
    """The 24 row images, in row order, of the rows of an (m, 4) array of
    plain-lex indices, by one product of ``table1.EXPONENTS`` with their logs;
    given the index ``shift`` of a delta_shift, with the deltas that keep it.
    As ``moves`` returns them: every row applies, up to a missing s."""
    logs = table1.orbit_logs(ctx, quads)
    ent = table1.entry_logs(ctx, table1.EXPONENTS, logs)
    images = ctx.log_tables()[0][ent]
    if shift is not None:
        delta = index_sub(shift, corner_index(ctx, ent[..., 0] - ent[..., 3]), ctx.p)
        images = np.concatenate([images, delta[..., None]], -1)
    mask = np.ones(images.shape[:2], dtype=bool)
    for i in np.flatnonzero(logs[:, 5] < 0)[:1]:
        k = next(k for k, row in enumerate(table1.ROWS) if table1.row_needs_sqrt(row))
        return images, mask, (i, k, lambda: table1.require_root(ctx, table1.ROWS[k], logs[i]))
    return images, mask, None


def s4_orbit(params: Params4) -> OrbitSet:
    """Sign-classes of the 24 row images of the quadruple: the search of
    ``_explore`` stopped after its first level.

    Raises NeedsExtension when sqrt(a b c lam q) is missing from F_{p^2}.
    """
    ctx = params.ctx
    quad = np.array(index_of(params.astuple()))
    # the search expands the quadruple itself, node 0, and none of its images
    return _explore(ctx, sign_index(quad, ctx.p),
                    lambda depth, _: None if depth else _row_images(ctx, quad[None]),
                    tuple(table1.ROW_BY_LABEL))


@lru_cache(maxsize=None)
def _move_windows(ctx: FieldCtx) -> np.ndarray:
    """Two read-only masks over logs mod p^2 - 1, the rows of one array: for
    i < dbar-1, the logs of q^{2i}, the window of the a-inversion and the W
    criterion, and of q^{2(dbar-i+1)}, the (b/lam)^2 that exclude the
    ab-inversion."""
    lq = table1.param_logs(ctx, [ctx.p] * 4)[4]  # at a = b = c = lam = 1
    n, i = len(ctx.log_tables()[0]), np.arange(ctx.dbar - 1)
    windows = np.zeros((2, n), dtype=bool)
    windows[0, 2 * i * lq % n] = windows[1, 2 * (ctx.dbar - i + 1) * lq % n] = True
    windows.setflags(write=False)
    return windows


def _move_inv(ctx: FieldCtx, nodes: np.ndarray) -> np.ndarray:
    """The a-inversion and ab-inversion images of rows of quintuples of
    indices, stacked as (2, ..., 5): both send a to 1/a and lam to
    1/(lam q^2), keep c and delta, and are involutions."""
    exp = ctx.log_tables()[0]
    n = len(exp)
    out = np.stack([nodes, nodes])
    lg = table1.param_logs(ctx, nodes[..., :4])
    out[..., 0] = exp[-lg[..., 0] % n]
    out[..., 3] = exp[(-lg[..., 3] - 2 * lg[..., 4]) % n]
    out[1, ..., 1] = exp[-lg[..., 1] % n]
    return out


def _cond_inv_a(ctx: FieldCtx, nodes: np.ndarray) -> np.ndarray:
    exp, log = ctx.log_tables()
    return _move_windows(ctx)[0][2 * log[nodes[..., 3]] % len(exp)]


def _defect_index(ctx: FieldCtx, nodes: np.ndarray) -> np.ndarray:
    """Plain-lex index of the ab-inversion defect at rows of quintuples of indices,
    delta ((b/lam)^dbar - (lam/b)^dbar) - (a b)^{-dbar} (lam^{2 dbar} - 1)
    ((a b q c/lam)^dbar - 1) ((a b q/(c lam))^dbar - 1): its zeros are the
    move's delta condition, and it is a factor of the descent scalar at w_{0,dbar-1}."""
    exp, log = ctx.log_tables()
    n, p, dbar = len(exp), ctx.p, ctx.dbar
    la, lb, lc, ll, lq = np.moveaxis(table1.param_logs(ctx, nodes[..., :4]), -1, 0)
    ld = log[nodes[..., 4]]
    bl = dbar * (lb - ll)
    abq = dbar * (la + lb + lq - ll)
    lhs = index_sub(exp[bl % n], exp[-bl % n], p)
    lhs = np.where((ld >= 0) & (lhs != 0), exp[(ld + log[lhs]) % n], 0)
    # the three factors less 1: an index less p, as 1 has index p
    fs = (exp[np.stack([2 * dbar * ll, abq + dbar * lc, abq - dbar * lc]) % n] - p) % (p * p)
    rhs = np.where((fs != 0).all(0), exp[(log[fs].sum(0) - dbar * (la + lb)) % n], 0)
    return index_sub(lhs, rhs, p)


def _cond_inv_ab(ctx: FieldCtx, nodes: np.ndarray) -> np.ndarray:
    exp, log = ctx.log_tables()
    return (~_move_windows(ctx)[1][2 * (log[nodes[..., 1]] - log[nodes[..., 3]]) % len(exp)]
            & (_defect_index(ctx, nodes) == 0))


CLOSURE_LABELS = (*(f"s4:{label}" for label in table1.ROW_BY_LABEL), "inv-a", "inv-a:rev",
                  "inv-ab", "inv-ab:rev")


def simeq_closure(params: Params5, cap: int = 10_000) -> OrbitSet:
    """Breadth-first closure of the generated equivalence, as sign-classes.

    Expands by (1) the 24-row orbit moves with delta adjusted to keep the
    corner invariant, (2) the a-inversion move where its side condition
    holds, (3) the ab-inversion move where its side conditions hold.  The
    one-step relation is directional, so moves are also applied in reverse:
    a candidate X is admitted when the conditions hold at X and the move
    sends X back to the current node.  ``_explore`` makes the 28 moves of a
    whole level at once, up to a fixpoint.  Raises CapExceeded if the member
    count passes the cap, else NeedsExtension at the first node, in search
    order, whose rows need a missing root.
    """
    ctx = params.ctx
    # every move keeps delta_shift, so an image's delta depends on its a/lam alone
    shift = index_of((delta_shift(params),))[0]

    def moves(depth, nodes):
        rows, mask, stop = _row_images(ctx, nodes[:, :4], shift)
        inv = np.concatenate([nodes[None], _move_inv(ctx, nodes)])
        # each inversion where its conditions hold at the node, then in
        # reverse where they hold at the image: image ~ node by involution
        conds = np.concatenate([_cond_inv_a(ctx, inv[:2]), _cond_inv_ab(ctx, inv[::2])])
        return (np.concatenate([rows, inv[[1, 1, 2, 2]].swapaxes(0, 1)], 1),
                np.concatenate([mask, conds.T], 1), stop)

    start = sign_index(np.array(index_of(params.astuple())), ctx.p)
    return _explore(ctx, start, moves, CLOSURE_LABELS, cap)


# ---------------------------------------------------------------------------
# irreducibility: parameter criteria and the spanning oracle


def irr_Vn_criterion(a: Fq2, b: Fq2, c: Fq2, n: int) -> bool:
    """Parameter test for irreducibility of the (n+1)-dimensional family at
    lam = q^n: no product of a^+-1, b^+-1 and c^+-1 is a q^{n-2i+1}, 1 <= i <= n.
    Those powers are closed under inversion, so log a keeps its sign."""
    ctx = a.ctx
    if not 0 <= n <= ctx.dbar - 2:
        raise BadRange(f"n={n} outside [0, {ctx.dbar - 2}]")
    la, lb, lc, _, lq = table1.param_logs(ctx, index_of((a, b, c, ctx.qpow(n)))).tolist()
    if n and min(la, lb, lc) < 0:
        raise DivisionByZero("inverse of zero in F_{p^2}")
    order = len(ctx.log_tables()[0])
    forbidden = {(n - 2 * i + 1) * lq % order for i in range(1, n + 1)}
    return all((la + sb * lb + sc * lc) % order not in forbidden
               for sb in (1, -1) for sc in (1, -1))


# The W criterion as data, on exponent vectors of (a, b, c, lam, q): its six
# window monomials and, per condition, a monomial x and the three window
# monomials it excludes when delta_shift is x^dbar + x^-dbar.  As q^dbar = +-1,
# that sets delta to 0 at x = a/lam, (a^dbar - a^-dbar)(lam^dbar - lam^-dbar)
# at x = a lam, and q^dbar ((b c^+-1)^dbar + (b c^+-1)^-dbar) at x = b c^+-1 q.
W_MONOMIALS = (
    (0, 0, 0, 2, 0),  # lam^2
    (-1, -1, -1, 1, -1),  # lam/(a b c q)
    (-1, -1, 1, 1, -1),  # c lam/(a b q)
    (1, -1, -1, 1, -1),  # a lam/(b c q)
    (1, -1, 1, 1, -1),  # a c lam/(b q)
    (0, -2, 0, 0, -2),  # 1/(b q)^2
)
W_CONDITIONS = (
    ((1, 0, 0, -1, 0), (0, 1, 2)),
    ((1, 0, 0, 1, 0), (0, 3, 4)),
    ((0, 1, 1, 0, 1), (3, 1, 5)),
    ((0, 1, -1, 0, 1), (4, 5, 2)),
)

# The same as arrays: window monomials, each x, and the monomials x excludes.
_W_EXPONENTS = np.array(W_MONOMIALS)
_W_BINDING = np.array([x for x, _ in W_CONDITIONS])
_W_INCIDENCE = np.array([[j in js for j in range(len(W_MONOMIALS))] for _, js in W_CONDITIONS])


def irr_W_criterion(params: Params5) -> bool:
    """Parameter test for irreducibility of the dbar-dimensional family: for
    each of ``W_CONDITIONS``, delta_shift is not x^dbar + x^-dbar, or the
    three monomials lie outside the window of ``_move_windows``.  One row of
    ``irr_W_criterion_many``."""
    return bool(irr_W_criterion_many(params.ctx, np.array([index_of(params.astuple())]))[0])


def irr_W_criterion_many(ctx: FieldCtx, index: np.ndarray) -> np.ndarray:
    """``irr_W_criterion`` of many cases at once, given as rows (cases, 5) of
    the plain-lex indices of (a, b, c, lam, delta); one boolean verdict per case."""
    logs, delta = table1.param_logs(ctx, index[:, :4]), index[:, 4]
    inside = _move_windows(ctx)[0][logs @ _W_EXPONENTS.T % len(ctx.log_tables()[0])]
    corner = corner_index(ctx, logs[:, :1] - logs[:, 3:4])
    binds = delta[:, None] == index_sub(corner_index(ctx, logs @ _W_BINDING.T), corner, ctx.p)
    return ~(binds & (inside @ _W_INCIDENCE.T)).any(1)


def _echelon_insert(basis0, basis1, pivots, size, v0, v1, p: int, t: int, lead: int | None = None):
    """Per case, reduce row v (cases, cols) against the first ``size`` rows of
    its reduced echelon basis (cases, rows, cols) with pivot columns (cases,
    rows), and store what is left, if it is nonzero in its first ``lead``
    entries (all by default), as row ``size`` by one ``pivot_step``, on which
    it pivots.  Rows at or past a case's size must be zero; size is left as it
    is.  Returns the indices of the cases that gained a row."""
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
    nz = (v0[:, :lead] | v1[:, :lead]) != 0
    gain = np.flatnonzero(nz.any(1))
    if gain.size:
        # a case without gain has j = 0 and a zero row, which pivots nothing
        j = nz.argmax(1)
        w0, w1 = pivot_step(basis0, basis1, v0, v1, j, p, t)
        at, lo = size[gain], v0.shape[1] - w0.shape[1]
        basis0[gain, at, lo:], basis1[gain, at, lo:] = w0[gain], w1[gain]
        pivots[gain, at] = j[gain]
    return gain


def _batch_shape(ctx: FieldCtx, gens: np.ndarray, power: int, what: str) -> tuple[int, int]:
    """Cases and n of a generator array (cases, 2, 2, n, n); a nonempty batch
    needs n >= 1 and n**power * (1+t)*p^2 in int64, checked before allocating."""
    cases, n = gens_shape(gens)
    if cases and n < 1:
        raise InvariantViolation(f"spanning oracle on a module of dimension {n}")
    if cases:
        check_int64(n ** power * (1 + ctx.t) * ctx.p ** 2, what)
    return cases, n


def _spin_many(ctx: FieldCtx, gens: np.ndarray, seeds: np.ndarray, lead: int | None = None):
    """The dimension of the span of each case's seed X (cases, 2, n, m) under
    X -> A X and X -> B X, in lockstep on the cases.  Each case keeps an
    echelon basis of rows of length n m and a stack of the rows whose products
    are still to be inserted; ``_echelon_insert`` reduces a new row against
    the rows whose pivot it touches (at most n m products of (1+t)*p^2).
    Each step pops every live case's top row and inserts its products.  A
    popped row cleared by later pivots is the row inserted there plus
    multiples of later rows, and every row is pushed and popped once, so from
    the last row back the products of each row lie in the span: it is the
    closure of the seed.  A case leaves when its stack is empty or span full.
    Given ``lead``, rows pivot on their first ``lead`` entries only.  Per case:
    the dimension, the final rows (lead, n m) as two components, their pivots.
    """
    cases, n, m = len(gens), gens.shape[-1], seeds.shape[-1]
    p, t, full = ctx.p, ctx.t, n * m
    lead = lead or full
    group = max(1, LOCKSTEP_BYTES // (16 * lead * full))
    if cases > group:
        parts = [_spin_many(ctx, gens[k:k + group], seeds[k:k + group], lead)
                 for k in range(0, cases, group)]
        return tuple(map(np.concatenate, zip(*parts)))

    # per live case: its index, generators (A or B, component, n, n), basis
    # components, pivot columns, basis size, and the stack of rows to visit
    order = np.arange(cases)
    basis0 = np.zeros((cases, lead, full), dtype=np.int64)
    basis1 = np.zeros((cases, lead, full), dtype=np.int64)
    pivots = np.zeros((cases, lead), dtype=np.intp)
    size = np.zeros(cases, dtype=np.intp)
    stack = np.zeros((cases, lead), dtype=np.intp)
    depth = np.zeros(cases, dtype=np.intp)
    out = [size.copy(), basis0.copy(), basis1.copy(), pivots.copy()]

    def insert(v0: np.ndarray, v1: np.ndarray) -> None:
        gain = _echelon_insert(basis0, basis1, pivots, size, v0, v1, p, t, lead)
        stack[gain, depth[gain]] = size[gain]
        size[gain] += 1
        depth[gain] += 1

    insert(seeds[:, 0].reshape(cases, full), seeds[:, 1].reshape(cases, full))
    while True:
        done = (depth == 0) | (size == lead)
        if done.any():
            for res, live in zip(out, (size, basis0, basis1, pivots)):
                res[order[done]] = live[done]
            if done.all():
                return tuple(out)
            keep = ~done
            order, gens, basis0, basis1, pivots, size, stack, depth = (
                x[keep] for x in (order, gens, basis0, basis1, pivots, size, stack, depth))
        rows = np.arange(len(order))
        depth -= 1
        top = stack[rows, depth]
        w0 = basis0[rows, top].reshape(-1, n, m)
        w1 = basis1[rows, top].reshape(-1, n, m)
        for g in range(2):
            m0, m1 = mul_parts(gens[:, g, 0], gens[:, g, 1], w0, w1, p, t, np.matmul)
            insert(m0.reshape(-1, full), m1.reshape(-1, full))


def burnside_irreducible_many(ctx: FieldCtx, gens: np.ndarray) -> list[bool]:
    """Whether the identity spins to all n-by-n matrices, absolute irreducibility
    by Burnside's theorem; the fallback of ``norton_irreducible_many``."""
    cases, n = _batch_shape(ctx, gens, 2, "spanning oracle reduction")
    if not cases:
        return []
    eye = np.broadcast_to(np.multiply.outer([1, 0], np.eye(n, dtype=np.int64)), (cases, 2, n, n))
    return (_spin_many(ctx, gens, eye)[0] == n * n).tolist()


def _eigenvectors(ctx: FieldCtx, b0: np.ndarray, b1: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Seeds (cases, 2, n, 1): the null vector of upper triangular b - b[k, k],
    1 at k and 0 after it, x_i = -(sum_{j>i} b[i, j] x_j) / (b[i, i] - b[k, k])."""
    p, t, rows = ctx.p, ctx.t, np.arange(len(k))
    x = np.zeros((len(k), 2, b0.shape[-1], 1), dtype=np.int64)
    x[rows, 0, k] = 1
    lam0, lam1 = b0[rows, k, k], b1[rows, k, k]
    for i in range(int(k.max(initial=0)) - 1, -1, -1):
        s0, s1 = mul_parts(b0[:, i:i + 1, i + 1:], b1[:, i:i + 1, i + 1:], x[:, 0, i + 1:],
                           x[:, 1, i + 1:], p, t, np.matmul)
        inv = _inverses(p, t)[(b0[:, i, i] - lam0) % p * p + (b1[:, i, i] - lam1) % p]
        y0, y1 = mul_parts(s0[:, 0], s1[:, 0], inv[:, :1], inv[:, 1:], p, t, subtract_from=(0, 0))
        below = i < k
        x[below, 0, i], x[below, 1, i] = y0[below], y1[below]
    return x


def _simple_lam(ctx: FieldCtx, gens: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per case of a generator array: B's diagonal as plain-lex indices, the index k of its
    first value that occurs once, whether there is one, and whether B is upper triangular."""
    diag = (np.diagonal(gens[:, 1], 0, 2, 3) * [[ctx.p], [1]]).sum(1)
    simple = (diag[:, :, None] == diag[:, None, :]).sum(2) == 1
    upper = ~np.tril(gens[:, 1, 0] | gens[:, 1, 1], -1).any((1, 2))
    return diag, simple.argmax(1), simple.any(1), upper


def norton_irreducible_many(ctx: FieldCtx, gens: np.ndarray) -> list[bool]:
    """Absolute irreducibility of each module of a generator array (cases, 2,
    2, n, n) by Norton's test (Parker, the Meat-Axe, 1984; Holt and Rees,
    J. Austral. Math. Soc. A 57, 1994), in lockstep on the cases.

    Where B is upper triangular (checked) take lam = B[k, k], the first
    diagonal value that occurs once: a simple root of B's characteristic
    polynomial, so B - lam has nullity 1.  Back substitution gives its null
    vector v, and on R B^T R (R the reversal) at n-1-k the null vector R w of
    (B - lam)^T.  One ``_spin_many`` call spins v under A and B and R w under
    R A^T R and R B^T R: the module is absolutely irreducible iff both are full.

    Proof.  For a proper nonzero submodule U, B - lam is singular on U or on
    the quotient, as its determinant is the product of the two.  In the first
    case U holds the null line of v, so the spin of v.  In the second the
    annihilator of U in the dual, proper, nonzero and invariant under A^T and
    B^T, holds w, as (B - lam)^T acts on it as the dual of B - lam on the
    quotient; so it holds the spin of w.  Nullity and spans do not change
    under field extension, so two full spins leave no proper submodule over
    any extension.  A proper spin of v, or the annihilator of a proper spin
    of w, is a proper submodule.  So the verdict is Burnside's.

    Other cases go whole to ``burnside_irreducible_many``.  Substitution and
    spin sum at most n products of (1+t)*p^2: n*(1+t)*p^2 must fit in int64.
    """
    cases, n = _batch_shape(ctx, gens, 1, "spanning oracle reduction")
    if not cases:
        return []
    _, k, simple, upper = _simple_lam(ctx, gens)
    norton = simple & upper
    verdict = np.zeros(cases, dtype=bool)
    if not norton.all():
        verdict[~norton] = burnside_irreducible_many(ctx, gens[~norton])
    at = np.flatnonzero(norton)
    if at.size:
        k = k[at]
        both = np.concatenate([gens[at], gens[at].swapaxes(3, 4)[..., ::-1, ::-1]])
        seeds = _eigenvectors(ctx, both[:, 1, 0], both[:, 1, 1], np.concatenate([k, n - 1 - k]))
        full = _spin_many(ctx, both, seeds)[0] == n
        verdict[at] = full[:at.size] & full[at.size:]
    return verdict.tolist()


def burnside_irreducible(rep: PairRep) -> bool:
    """Absolute irreducibility of one module, by ``norton_irreducible_many``."""
    return norton_irreducible_many(rep.ctx, stack_gens([rep]))[0]


def intertwiner_many(ctx: FieldCtx, gx: np.ndarray, gy: np.ndarray) -> list[tuple[FMat | None, bool]]:
    """Per case of two generator arrays (cases, 2, 2, n, n): a nonzero S with
    S A_x = A_y S and S B_x = B_y S, or None, and whether S is invertible.

    By standard bases (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, ch. 7) where B_x, B_y are upper triangular, B_x has a simple
    diagonal value lam (``_simple_lam``) and B_y has lam at most once: the
    spin of (v_x, v_y) under diag(g_x, g_y), v_x and v_y (or 0) spanning the
    null lines of B_x - lam and B_y - lam, pivots on x alone.  If full, it
    ends in rows (e_j, S e_j) of the S with S v_x = v_y; any intertwiner is a
    multiple of S if S intertwines (checked), else 0.  S has a last nonzero
    entry of 1 (row-major), as the general solve scales its one candidate, and
    is invertible iff the spin with the halves swapped is full.  Other cases
    go one by one to ``_intertwiner_solve``.  n^2*(1+t)*p^2 must fit in int64.
    """
    if gx.shape != gy.shape:
        raise DimensionMismatch(f"generator arrays of shapes {gx.shape} and {gy.shape}")
    cases, n = _batch_shape(ctx, gx, 2, "intertwiner products")
    out = [(None, False)] * cases
    if not cases:
        return out
    p, t = ctx.p, ctx.t
    (dx, k, simple, upper), (dy, _, _, upper_y) = _simple_lam(ctx, gx), _simple_lam(ctx, gy)
    hit = dy == dx[range(cases), k][:, None]
    route = simple & upper & upper_y & (hit.sum(1) <= 1)
    at = np.flatnonzero(route)
    full = np.zeros(cases, dtype=bool)
    if at.size:
        pair = np.zeros((at.size, 2, 2, 2 * n, 2 * n), dtype=np.int64)
        pair[..., :n, :n], pair[..., n:, n:] = gx[at], gy[at]
        seeds = np.zeros((at.size, 2, 2 * n, 1), dtype=np.int64)
        seeds[:, :, :n] = _eigenvectors(ctx, gx[at, 1, 0], gx[at, 1, 1], k[at])
        has = np.flatnonzero(hit[at].any(1))
        seeds[has, :, n:] = _eigenvectors(ctx, gy[at[has], 1, 0], gy[at[has], 1, 1],
                                          hit[at[has]].argmax(1))
        dims, rows0, rows1, piv = _spin_many(ctx, np.concatenate([pair, np.roll(pair, n, (3, 4))]),
                                             np.concatenate([seeds, np.roll(seeds, n, 2)]), n)
        full[at] = dims[:at.size] == n
        good = has[full[at[has]]]
        # S[:, j] = y_j, in the order of the pivots j
        order = np.argsort(piv[good], 1)[..., None]
        s0, s1 = (np.take_along_axis(r[good, :, n:], order, 1).swapaxes(1, 2) for r in (rows0, rows1))
        ax, ay = gx[at[good]], gy[at[good]]
        sx = mul_parts(s0[:, None], s1[:, None], ax[:, :, 0], ax[:, :, 1], p, t, np.matmul)
        ys = mul_parts(ay[:, :, 0], ay[:, :, 1], s0[:, None], s1[:, None], p, t, np.matmul)
        ok = (np.array(sx) == np.array(ys)).all((0, 2, 3, 4))
        code = (s0 * p + s1).reshape(len(good), n * n)
        last = n * n - 1 - (code[:, ::-1] != 0).argmax(1)
        inv = _inverses(p, t)[code[range(len(good)), last]]
        s = np.stack(mul_parts(s0, s1, inv[:, :1, None], inv[:, 1:, None], p, t), 1)
        for c, x, valid, invertible in zip(at[good], s, ok, dims[at.size + good] == n):
            if valid:
                out[c] = FMat(ctx, x), bool(invertible)
    for c in np.flatnonzero(~full):
        out[c] = _intertwiner_solve(ctx, gx[c], gy[c])
    return out


def w_intertwiner_many(ctx: FieldCtx, index: np.ndarray, pairs: list) -> list[tuple]:
    """``intertwiner_many`` on pairs (i, j) of the ``build_W`` modules of some rows (m, 5)
    of plain-lex indices of (a, b, c, lam, delta), in one call on those whose central
    scalars agree; the rest admit no map: (None, False)."""
    gens, scalars = build_many(ctx, index, ctx.dbar)
    pairs = np.intp(pairs).reshape(-1, 2)
    same = np.flatnonzero((scalars[pairs[:, 0]] == scalars[pairs[:, 1]]).all(1))
    found = dict(zip(same.tolist(), intertwiner_many(ctx, *gens[pairs[same].T])))
    return [found.get(k, (None, False)) for k in range(len(pairs))]


def intertwiner(rep_x: PairRep, rep_y: PairRep) -> FMat | None:
    """A nonzero S with S A_x = A_y S and S B_x = B_y S, invertible if one is,
    or None: a batch of one of ``intertwiner_many``, and None at once when the
    central scalars differ.  Requires equal dimensions."""
    if rep_x.n != rep_y.n:
        raise DimensionMismatch(f"{rep_x.n} vs {rep_y.n}")
    if rep_x.scalars() != rep_y.scalars() or not rep_x.n:
        return None
    return intertwiner_many(rep_x.ctx, *stack_gens([rep_x, rep_y])[:, None])[0][0]


def _intertwiner_solve(ctx: FieldCtx, gx: np.ndarray, gy: np.ndarray) -> tuple[FMat | None, bool]:
    """One case of ``intertwiner_many`` by the general solve, from the
    generators (A, B) of each module, (2, 2, n, n) as in a generator array.

    The solutions come from spinning (Parker's Meat-Axe; Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, ch. 7): spinning e_0 under
    A_x then B_x breadth-first, and the next e_s outside the span whenever
    the queue runs dry, gives a basis P = [b_0 ... b_{n-1}] of seeds and
    products g b_j, j < k.  So S b_k = T_k U for the images U of the m seeds,
    T_k an identity block or g_Y T_j, and S intertwines iff
    sum_l C_g[l, k] T_l U = g_Y T_k U with C_g = P^-1 g_X P: (2n^2, m n)
    equations, not (2n^2, n^2) on the entries of S; S = [T_k U]_k P^-1.  The
    candidates, the kernel basis of that larger system (1 in its own free
    column, 0 in the others, elsewhere nonzero only in earlier columns), are
    the reduced echelon form of the solutions with their entries reversed;
    the first invertible one is preferred, then one of a bounded pencil scan.
    """
    n = gx.shape[-1]
    p, t = ctx.p, ctx.t

    def mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.stack(mul_parts(*x, *y, p, t, np.matmul))
    eye = np.multiply.outer([1, 0], np.eye(n, dtype=np.int64))
    ech, pivots = np.zeros((2, 1, n, n), dtype=np.int64), np.zeros((1, n), dtype=np.intp)
    pmat, origin = np.zeros((2, n, n), dtype=np.int64), []  # b_k; its seed's number or (g, j)
    m = e = head = 0
    while len(origin) < n:
        if head < len(origin):
            new, head = [(mm(g, pmat[..., head]), (i, head)) for i, g in enumerate(gx)], head + 1
        else:
            new, e = [(eye[:, e], m)], e + 1
        for v, how in new:
            if _echelon_insert(*ech, pivots, np.array([len(origin)]), *v[:, None], p, t).size:
                pmat[..., len(origin)] = v
                origin.append(how)
                m += isinstance(how, int)
    tk = np.zeros((2, n, n, m * n), dtype=np.int64)  # tk[:, k] is T_k
    for k, how in enumerate(origin):
        if isinstance(how, tuple):
            tk[:, k] = mm(gy[how[0]], tk[:, how[1]])
        else:
            tk[:, k, :, how * n:(how + 1) * n] = eye
    pinv = rref(FMat(ctx, np.concatenate([pmat, eye], axis=2)))[0].arr[..., n:]
    rel = [mm(mm(mm(pinv, g), pmat).transpose(0, 2, 1), tk.reshape(2, n, n * m * n))
           .reshape(tk.shape) - mm(h, tk) for g, h in zip(gx, gy)]
    null = kernel(FMat(ctx, np.concatenate(rel, 1).reshape(2, 2 * n * n, m * n))).arr
    k = null.shape[2]
    if k == 0:
        return None, False
    sols = mm(mm(tk, null).transpose(0, 3, 2, 1), pinv).reshape(2, k, n * n)
    red = rref(FMat(ctx, sols[..., ::-1]))[0].arr[:, ::-1, ::-1]
    cands = [FMat(ctx, row.reshape(2, n, n)) for row in red.swapaxes(0, 1)]
    # if every basis element is singular, cands[0] + c cands[j] for the first
    # 256 nonzero c in plain-lex order, j = 1, 2, ...
    pencil = (cands[0] + cands[j] * c for j in range(1, k)
              for c in islice((x for x in ctx.elements() if not x.is_zero()), 256))
    return next(((s, True) for s in chain(cands, pencil) if rank(s) == n), (cands[0], False))


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
    index = np.array([index_of(p5.astuple()) for p5 in samples])
    irreducible = irr_W_criterion_many(ctx, index)
    rejected = []
    errors = []
    closures: dict[tuple, dict] = {}  # class key -> record
    for idx, p5 in enumerate(samples):
        if not irreducible[idx]:
            rejected.append({"index": idx, "params": p5.to_json(), "reason": "reducible"})
            continue
        try:
            orb = simeq_closure(p5, cap)
        except CapExceeded as exc:
            errors.append({"index": idx, "params": p5.to_json(), "error": str(exc)})
            continue
        keys = orb.member_keys()
        key = index_of(orb.members[0])
        if key not in closures:
            closures[key] = {"representative": orb.members[0], "member_keys": keys,
                             "size": orb.size, "samples": []}
        rec = closures[key]
        rec["samples"].append(idx)
        if rec["member_keys"] != keys:
            errors.append({
                "index": idx,
                "params": p5.to_json(),
                "error": "closure mismatch within one class",
            })

    # cross-validation: intertwiners within and across classes, in one call
    class_keys = sorted(closures)
    reps = [Params5(*closures[k]["representative"]) for k in class_keys]
    within = [(c, idx) for c, k in enumerate(class_keys) for idx in closures[k]["samples"]]
    cross = list(combinations(range(len(reps)), 2))
    rows = np.concatenate([np.array(class_keys, dtype=np.int64).reshape(-1, 5),
                           index[[idx for _, idx in within]]])
    found = w_intertwiner_many(ctx, rows,
                               [(c, len(reps) + w) for w, (c, _) in enumerate(within)] + cross)
    errors += [{"index": idx, "params": samples[idx].to_json(),
                "error": "missing within-class isomorphism"}
               for (_, idx), (_, invertible) in zip(within, found) if not invertible]
    errors += [{"classes": [reps[a].to_json(), reps[b].to_json()],
                "error": "unexpected cross-class intertwiner"}
               for (a, b), (s, _) in zip(cross, found[len(within):]) if s is not None]

    classes = [
        {
            "representative": rep.to_json(),
            "members": [samples[i].to_json() for i in closures[k]["samples"]],
            "sample_indices": closures[k]["samples"],
            "size": closures[k]["size"],
            "irreducible": True,
        }
        for k, rep in zip(class_keys, reps)
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

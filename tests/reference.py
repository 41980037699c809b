"""The independent references the tests compare production code against.

Each is written once here, on ``Fq2`` objects or on plain component arrays,
the way the production code was written before it moved to discrete logs,
plain-lex indices and shared elimination steps.  So none of that code is
shared: no log tables (powers are ``ref_pow``, never ``**``; squareness is
Euler's test or a scan of the squares, square roots the least root found by
that scan), no index arithmetic, and no ``rref``, ``kernel``, ``rank``,
``mul_parts`` or ``pivot_step``.  ``test_classify.py`` checks this on the
source.

pytest does not collect this file: its name does not match ``test_*.py``.
"""

import collections
import itertools
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from uawq import errors, table1
from uawq.algebra import PairRep
from uawq.classify import OrbitSet
from uawq.field import Fq2
from uawq.linalg import FMat
from uawq.modules import Params5

# ---------------------------------------------------------------------------
# the field


def ref_pow(x, e):
    """Square-and-multiply with Fq2 products and the norm inverse."""
    base = x.inv() if e < 0 else x
    e = abs(e)
    acc = x.ctx.one
    while e:
        if e & 1:
            acc = acc * base
        e >>= 1
        if e:
            base = base * base
    return acc


def euler_is_square(x):
    p = x.ctx.p
    return x.is_zero() or ref_pow(x, (p * p - 1) // 2) == x.ctx.one


@lru_cache(maxsize=None)
def least_roots(ctx):
    """Square -> its lex-least square root, by scanning the field in lex order."""
    out = {}
    for y in ctx.elements():
        out.setdefault((y * y).key, y)
    return out


def ref_roots(ctx, f):
    """The zeros of f in F_{p^2}, in plain-lex order: Horner on ``Fq2`` at
    every element."""
    out = []
    for x in ctx.elements():
        acc = ctx.zero
        for c in reversed(f):
            acc = acc * x + c
        if acc.is_zero():
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# the 24-row orbit and the equivalence closure, with their own sign rule, row
# evaluation by powers, corner terms, inversion moves and side conditions


def ref_key(t):
    """A tuple's entries' plain lexicographic keys, in order."""
    return tuple(x.key for x in t)


def ref_canon_sign(t):
    p = t[0].ctx.p
    for x in t[:4]:
        if x.x0 or x.x1:
            if x.key < ((-x.x0) % p, (-x.x1) % p):
                return t
            return (-t[0], -t[1], -t[2], -t[3], *t[4:])
    return t


def ref_apply_row(row, quad):
    """The row evaluated by powering each base, with s the lex-least root."""
    a, b, c, lam = quad
    ctx = a.ctx
    s = None
    if table1.row_needs_sqrt(row):
        arg = a * b * c * lam * ctx.q
        s = least_roots(ctx).get(arg.key)
        if s is None:
            raise errors.NeedsExtension(f"orbit row {row[0]} needs sqrt of non-square {arg!r}")
    out = []
    for expo in row[2]:
        val = ctx.one
        for base, e in zip((a, b, c, lam, ctx.q, s), expo):
            if e:
                val = val * ref_pow(base, e)
        out.append(val)
    return tuple(out)


def ref_corner(a, lam):
    x = ref_pow(a / lam, a.ctx.dbar)
    return x + x.inv()


def ref_orbit_image(row, quad, shift):
    """The row image of a quadruple, with the delta that makes the image's
    corner invariant ``shift``."""
    img = ref_apply_row(row, quad)
    return (*img, shift - ref_corner(img[0], img[3]))


def ref_move_inv(p):
    a, lam = p.a.inv(), p.lam.inv() * p.ctx.qpow(-2)
    return Params5(a, p.b, p.c, lam, p.delta), Params5(a, p.b.inv(), p.c, lam, p.delta)


def ref_cond_inv_a(p):
    return p.lam * p.lam in {p.ctx.qpow(2 * i) for i in range(p.ctx.dbar - 1)}


def ref_inv_ab_terms(a, b, c, lam):
    """(k, r) such that the ab-inversion defect at delta is delta k - r."""
    ctx = a.ctx
    dbar = ctx.dbar
    bl = ref_pow(b / lam, dbar)
    abq = ref_pow(a * b * ctx.q / lam, dbar)
    cd = ref_pow(c, dbar)
    return bl - bl.inv(), (ref_pow(a * b, -dbar) * (ref_pow(lam, 2 * dbar) - ctx.one)
                           * (abq * cd - ctx.one) * (abq * cd.inv() - ctx.one))


def ref_cond_inv_ab(p):
    ctx = p.ctx
    dbar = ctx.dbar
    a, b, c, lam = p.quadruple.astuple()
    excluded = {ctx.qpow(2 * (dbar - i + 1)) for i in range(dbar - 1)}
    k, r = ref_inv_ab_terms(a, b, c, lam)
    return (b / lam) * (b / lam) not in excluded and (p.delta * k - r).is_zero()


def ref_orbit_set(members, edges):
    order = sorted(range(len(members)), key=lambda i: ref_key(members[i]))
    renum = {old: new for new, old in enumerate(order)}
    return OrbitSet(
        members=tuple(members[i] for i in order),
        edges=tuple(sorted((renum[s], lab, renum[t]) for s, lab, t in edges)),
    )


def ref_s4_orbit(params):
    quad = params.astuple()
    images, members, edges = {}, [], []

    def intern(c):
        k = ref_key(c)
        if k not in images:
            images[k] = len(members)
            members.append(c)
        return images[k]

    src = intern(ref_canon_sign(quad))
    for row in table1.ROWS:
        edges.append((src, row[0], intern(ref_canon_sign(ref_apply_row(row, quad)))))
    return ref_orbit_set(members, edges)


def ref_closure(params, cap=10_000):
    start = ref_canon_sign(params.astuple())
    members = [start]
    index = {ref_key(start): 0}
    edges = []
    frontier = collections.deque([0])

    def intern(c, src, label):
        k = ref_key(c)
        if k not in index:
            if len(members) >= cap:
                raise errors.CapExceeded(f"closure exceeded cap={cap} nodes")
            index[k] = len(members)
            members.append(c)
            frontier.append(index[k])
        edges.append((src, label, index[k]))

    while frontier:
        i = frontier.popleft()
        cur = Params5(*members[i])
        shift = cur.delta + ref_corner(cur.a, cur.lam)
        quad = cur.quadruple.astuple()
        for row in table1.ROWS:
            intern(ref_canon_sign(ref_orbit_image(row, quad, shift)), i, f"s4:{row[0]}")
        for cand, cond, label in zip(ref_move_inv(cur), (ref_cond_inv_a, ref_cond_inv_ab),
                                     ("inv-a", "inv-ab")):
            img = ref_canon_sign(cand.astuple())
            if cond(cur):
                intern(img, i, label)
            if cond(cand):
                intern(img, i, label + ":rev")
    return ref_orbit_set(members, edges)


def uniform_quintuple(ctx, rng):
    """Uniform nonzero a, b, c, lam and uniform delta: a b c lam q is a
    non-square about half the time."""
    pp = ctx.p * ctx.p
    return Params5(*(ctx.from_index(rng.randrange(1, pp)) for _ in range(4)),
                   ctx.from_index(rng.randrange(pp)))


# ---------------------------------------------------------------------------
# both irreducibility criteria, with their own window, forbidden powers,
# inversions and corner terms


def ref_irr_Vn_criterion(a, b, c, n):
    ctx = a.ctx
    if not 0 <= n <= ctx.dbar - 2:
        raise errors.BadRange(f"n={n} outside [0, {ctx.dbar - 2}]")
    forbidden = {ctx.qpow(n - 2 * i + 1) for i in range(1, n + 1)}
    if not forbidden:
        return True
    for ta, tb, tc in itertools.product((a, a.inv()), (b, b.inv()), (c, c.inv())):
        if ta * tb * tc in forbidden:
            return False
    return True


def ref_irr_W_criterion(params):
    ctx = params.ctx
    a, b, c, lam = params.quadruple.astuple()
    delta = params.delta
    window = {ctx.qpow(2 * i) for i in range(ctx.dbar - 1)}
    qi = ctx.q.inv()
    ai, bi, ci = a.inv(), b.inv(), c.inv()
    lam2 = lam * lam
    d0, d1, d2, d3 = ref_w_deltas(a, b, c, lam)

    def excl(*vals):
        return all(v not in window for v in vals)

    c1 = delta != d0 or excl(lam2, ai * bi * ci * lam * qi, ai * bi * c * lam * qi)
    c2 = delta != d1 or excl(lam2, a * bi * ci * lam * qi, a * bi * c * lam * qi)
    c3 = delta != d2 or excl(a * bi * ci * lam * qi, ai * bi * ci * lam * qi, bi * bi * qi * qi)
    c4 = delta != d3 or excl(a * bi * c * lam * qi, bi * bi * qi * qi, ai * bi * c * lam * qi)
    return c1 and c2 and c3 and c4


def ref_w_deltas(a, b, c, lam):
    """The values of delta at which the four conditions of
    ``ref_irr_W_criterion`` bind, in its order."""
    ctx = a.ctx
    dbar = ctx.dbar
    ad, lamd, bd, cd = (ref_pow(x, dbar) for x in (a, lam, b, c))
    qd = ctx.qpow(dbar)
    corner = ref_corner(a, lam)
    return (ctx.zero, (ad - ad.inv()) * (lamd - lamd.inv()),
            (bd * cd + bd.inv() * cd.inv()) * qd - corner,
            (bd * cd.inv() + bd.inv() * cd) * qd - corner)


# ---------------------------------------------------------------------------
# the parameter sequences and the modules, entry by entry


class RefSeq(NamedTuple):
    theta: object
    theta_star: object
    varphi: object
    scalars: tuple


def ref_seq(a, b, c, lam):
    """theta, theta_star and varphi as functions of i, and (omega,
    omega_star, omega_eps): the closed forms on Fq2 values, every power of q
    by ``ref_pow``."""
    ctx = a.ctx

    def qp(k):
        return ref_pow(ctx.q, k)

    def theta(i):
        return a / lam * qp(2 * i) + lam / a * qp(-2 * i)

    def theta_star(i):
        return b / lam * qp(2 * i) + lam / b * qp(-2 * i)

    def varphi(i):
        return (lam * ctx.q / (a * b) * (qp(i) - qp(-i))
                * (qp(i - 1) / lam - lam * qp(1 - i))
                * (qp(-i) - a * b * c / lam * qp(i - 1))
                * (qp(-i) - a * b / (c * lam) * qp(i - 1)))

    ta, tb, tc = (x + x.inv() for x in (a, b, c))
    tl = lam * ctx.q + (lam * ctx.q).inv()
    scalars = (tb * tc + ta * tl, tc * ta + tb * tl, ta * tb + tc * tl)
    return RefSeq(theta, theta_star, varphi, scalars)


def ref_target(a, b, c, lam):
    """The feasibility target (mu, phi, omega_star, omega_eps) of a quadruple,
    on Fq2 values."""
    bq = b * a.ctx.q
    phi = (c + c.inv()) * (lam - lam.inv()) - (a + a.inv()) * (bq - bq.inv())
    return (b / lam, phi, *ref_seq(a, b, c, lam).scalars[1:])


def ref_solve(mu, phi, omega_star, omega_eps):
    """The quadruples (a, b, c, lam) feasible for a target, in plain-lex order:
    the quartic in kappa = a/lam, for each root a sextic in lam, for each root
    the quadratic c^2 - r c + 1 with r read off phi, or off omega_eps where
    lam^2 = 1, all on Fq2 values and every root by ``ref_roots``."""
    ctx, we = mu.ctx, omega_eps
    q, qi, zero = ctx.q, ctx.q.inv(), ctx.zero
    d1, d2 = (we - q * phi) / (q + qi), (we + qi * phi) / (q + qi)
    out = []
    for kappa in ref_roots(ctx, [mu * q, -d1, omega_star - mu * qi - q / mu, -d2, 1 / (mu * q)]):
        sextic = [-1 / (kappa * mu * q), zero, d2 - kappa * qi / mu, zero, mu * q / kappa - d1,
                  zero, kappa * mu * q]
        for lam in ref_roots(ctx, sextic):
            a, b = kappa * lam, mu * lam
            if lam * lam == ctx.one:
                r = (we - (a + 1 / a) * (b + 1 / b)) / (lam * q + 1 / (lam * q))
            else:
                r = (phi + (a + 1 / a) * (b * q - 1 / (b * q))) / (lam - 1 / lam)
            out += [(a, b, c, lam) for c in ref_roots(ctx, [ctx.one, -r, ctx.one])]
    return sorted(out, key=ref_key)


def ref_module(ctx, row, n):
    """The n-dimensional module of one row of plain-lex indices of (a, b, c, lam)
    or (a, b, c, lam, delta): A and B written entry by entry from ``ref_seq``,
    A with theta on the diagonal, ones below it and a fifth entry at
    (0, n-1), B with theta_star on the diagonal and varphi above it."""
    a, b, c, lam, *corner = (ctx.el(*divmod(int(k), ctx.p)) for k in row)
    s = ref_seq(a, b, c, lam)

    def a_entry(i, j):
        if corner and (i, j) == (0, n - 1):
            return corner[0]
        return s.theta(i) if i == j else ctx.one if i == j + 1 else ctx.zero

    def b_entry(i, j):
        return s.theta_star(i) if i == j else s.varphi(j) if j == i + 1 else ctx.zero

    a_mat, b_mat = (FMat.from_entries(ctx, [[f(i, j) for j in range(n)] for i in range(n)])
                    for f in (a_entry, b_entry))
    return PairRep(ctx, a_mat, b_mat, *s.scalars)


# ---------------------------------------------------------------------------
# the defining relations, entry by entry


def ref_relations(rep):
    """The verdicts (alpha_ok, beta_ok, c_relation_ok) of the defining
    relations, every side evaluated entry by entry on Fq2 values: C from the
    third relation, alpha and beta by their expanded formulas, and the two
    C-relations, each against its central scalar times I."""
    ctx, n = rep.ctx, rep.n
    one, zero = ctx.one, ctx.zero
    q = ctx.q
    qi = q.inv()
    q2, q2i = q * q, qi * qi

    def entries(m):
        return [[m.entry(i, j) for j in range(n)] for i in range(n)]

    def mm(x, y):
        return [[sum((x[i][k] * y[k][j] for k in range(n)), zero) for j in range(n)]
                for i in range(n)]

    def comb(*terms):
        return [[sum((s * x[i][j] for s, x in terms), zero) for j in range(n)] for i in range(n)]

    def is_scalar(x, s):
        return all(x[i][j] == (s if i == j else zero) for i in range(n) for j in range(n))

    def central(x, y):
        # (Y^2 X - (q^2 + q^-2) Y X Y + X Y^2 + (q^2 - q^-2)^2 X + (q - q^-1)^2 omega_eps Y)
        #  / ((q - q^-1)(q^2 - q^-2))
        den = (q - qi) * (q2 - q2i)
        return comb((one / den, mm(mm(y, y), x)), (-(q2 + q2i) / den, mm(mm(y, x), y)),
                    (one / den, mm(x, mm(y, y))), ((q2 - q2i) * (q2 - q2i) / den, x),
                    ((q - qi) * (q - qi) * rep.omega_eps / den, y))

    a, b = entries(rep.A), entries(rep.B)
    eye = [[one if i == j else zero for j in range(n)] for i in range(n)]
    d = one / (q2 - q2i)
    c = comb((rep.omega_eps / (q + qi), eye), (-q * d, mm(a, b)), (qi * d, mm(b, a)))
    c_a = comb((one, a), (q * d, mm(b, c)), (-qi * d, mm(c, b)))
    c_b = comb((one, b), (q * d, mm(c, a)), (-qi * d, mm(a, c)))
    return (is_scalar(central(a, b), rep.omega), is_scalar(central(b, a), rep.omega_star),
            is_scalar(c_a, rep.omega / (q + qi)) and is_scalar(c_b, rep.omega_star / (q + qi)))


# ---------------------------------------------------------------------------
# linear algebra on component arrays


def ref_span_dim(rep):
    """Dimension of the span the spanning oracle closes, by the vstack closure it
    replaced: every insert reduces against and updates every basis row."""
    ctx = rep.ctx
    n = rep.n
    p, t = ctx.p, ctx.t
    nn = n * n
    a0, a1 = rep.A.arr
    b0, b1 = rep.B.arr
    basis0 = np.zeros((0, nn), dtype=np.int64)
    basis1 = np.zeros((0, nn), dtype=np.int64)
    pivots = []
    frontier = []

    def insert(m0, m1):
        nonlocal basis0, basis1
        v0, v1 = m0.ravel() % p, m1.ravel() % p
        if pivots:
            c0, c1 = v0[pivots], v1[pivots]
            if c0.any() or c1.any():
                v0 = (v0 - (c0 @ basis0 + t * (c1 @ basis1))) % p
                v1 = (v1 - (c0 @ basis1 + c1 @ basis0)) % p
        nz = np.nonzero((v0 != 0) | (v1 != 0))[0]
        if nz.size == 0:
            return
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

    eye = np.eye(n, dtype=np.int64)
    insert(eye, np.zeros((n, n), dtype=np.int64))
    while frontier and len(pivots) < nn:
        w0, w1 = frontier.pop()
        for g0, g1 in ((a0, a1), (b0, b1)):
            insert((g0 @ w0 + t * (g1 @ w1)) % p, (g0 @ w1 + g1 @ w0) % p)
    return len(pivots)


def ref_rref(m):
    """The full-sweep elimination: every pivot updates every entry of the matrix."""
    ctx = m.ctx
    p, t = ctx.p, ctx.t
    a = m.arr.copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero((a[0, r:, c] != 0) | (a[1, r:, c] != 0))[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[:, [r, i]] = a[:, [i, r]]
        piv = Fq2(ctx, int(a[0, r, c]), int(a[1, r, c])).inv()
        a[0, r], a[1, r] = ((a[0, r] * piv.x0 + t * (a[1, r] * piv.x1)) % p,
                            (a[0, r] * piv.x1 + a[1, r] * piv.x0) % p)
        f0, f1 = a[0, :, c].copy(), a[1, :, c].copy()
        f0[r] = 0
        f1[r] = 0
        s0 = np.outer(f0, a[0, r]) + t * np.outer(f1, a[1, r])
        s1 = np.outer(f0, a[1, r]) + np.outer(f1, a[0, r])
        a[0] = (a[0] - s0) % p
        a[1] = (a[1] - s1) % p
        pivots.append(c)
        r += 1
    return FMat(ctx, a), tuple(pivots)


def ref_kernel(m):
    """Kernel basis filled entry by entry from ref_rref."""
    red, pivots = ref_rref(m)
    free = [c for c in range(m.ncols) if c not in pivots]
    basis = np.zeros((2, m.ncols, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[0, fc, k] = 1
        for r, pc in enumerate(pivots):
            basis[0, pc, k] = (-red.arr[0, r, fc]) % m.ctx.p
            basis[1, pc, k] = (-red.arr[1, r, fc]) % m.ctx.p
    return FMat(m.ctx, basis)


def ref_kron_system(rep_x, rep_y):
    """The dense Kronecker system on all n^2 entries of S, row-major:
    kron(I, g_X^T) - kron(g_Y, I) for g = A, B, stacked and built per
    component (I has no sqrt(t) part)."""
    eye = np.eye(rep_x.n, dtype=np.int64)
    return FMat(rep_x.ctx, np.concatenate([
        np.stack([np.kron(eye, gx.arr[c].T) - np.kron(gy.arr[c], eye) for c in (0, 1)])
        for gx, gy in ((rep_x.A, rep_y.A), (rep_x.B, rep_y.B))], 1))


def ref_intertwiner(rep_x, rep_y):
    """The intertwiner read off ``ref_kron_system``.  Its candidates are the
    ref_kernel columns; the first of full rank is returned, else the first
    of full rank among cands[0] + c cands[j], j = 1, 2, ..., for the first
    256 nonzero c in plain-lex order, else cands[0]."""
    if rep_x.scalars() != rep_y.scalars():
        return None
    ctx, n = rep_x.ctx, rep_x.n
    t = ctx.t
    null = ref_kernel(ref_kron_system(rep_x, rep_y))
    cands = [FMat(ctx, null.arr[..., j].reshape(2, n, n)) for j in range(null.ncols)]
    coeffs = list(itertools.islice((c for c in ctx.elements() if not c.is_zero()), 256))

    def combo(j, c):
        a, b = cands[0].arr, cands[j].arr
        return FMat(ctx, np.stack([a[0] + c.x0 * b[0] + t * c.x1 * b[1],
                                   a[1] + c.x0 * b[1] + c.x1 * b[0]]))

    tries = itertools.chain(cands, (combo(j, c) for j in range(1, len(cands)) for c in coeffs))
    return next((s for s in tries if len(ref_rref(s)[1]) == n), cands[0] if cands else None)

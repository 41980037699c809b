"""The named property suite behind ``uawq suite``, and the one home of every
verification body.

Every check validates one family of identities or one criterion/oracle
agreement, at a sample count set by the level: smoke (seconds), standard
(tens of seconds), exhaustive (adds the full small-field sweeps, gated to
p <= 17).  All arithmetic is exact.  A check counts its cases and failures in
a Tally and reports the first failing instance verbatim.  The acceptance
criteria (``tests/test_acceptance.py``) run the same bodies at their own
seeds and counts: whole checks such as ``relation_verify``, per-case bodies
such as ``ladder_case``, and two properties only they use,
``cross_class_pairs`` and ``descent_delta_case``.
"""

from __future__ import annotations

import json
import random
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import table1
from .algebra import PairRep, central_elements_check, stack_gens, vee, verify_rep_many
from .classify import (
    _defect_index,
    _row_images,
    classify_sample,
    feasible_polys,
    feasible_targets,
    irr_Vn_criterion,
    irr_W_criterion,
    irr_W_criterion_many,
    norton_irreducible_many,
    rand_nonzero,
    s4_orbit,
    s4_orbit_many,
    sample_quadruple,
    sample_quintuple,
    sample_triple,
    sign_index,
    sign_key,
    simeq_closure,
    solve_feasible_many,
    w_intertwiner_many,
)
from .errors import NeedsExtension, NuOutsideField
from .field import (FieldCtx, chebyshev_T, ctx_new, index_of, poly_eval, poly_eval_many,
                    poly_from_roots, poly_roots, sqrt)
from .linalg import (
    FMat, char_poly, hstack, is_scalar_matrix, kernel, krylov_span_dim, product_shifted, rank,
)
from .modules import (
    L_closed,
    L_recurrence,
    Params4,
    Params5,
    _bridge,
    _seq_values,
    build_many,
    build_W,
    check_W_universal,
    closed_form_case,
    e_vector,
    is_marginal_weight,
    marginal_matrix_e,
    marginal_test_e,
    marginal_values,
    marginal_vectors,
    nu_of,
    seq_arrays,
    w_ij,
    weight_spaces,
)
from .parallel import pmap


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    counterexample: str | None = None


class Tally:
    """Cases run, failures seen and the first failing instance of one check."""

    __slots__ = ("cases", "failures", "first")

    def __init__(self) -> None:
        self.cases = 0
        self.failures = 0
        self.first: tuple[object, str] | None = None

    def check(self, ok: bool, witness: object, what: str) -> bool:
        """Count a failure unless ``ok``; returns ``ok``."""
        if not ok:
            self.failures += 1
            if self.first is None:
                self.first = (witness, what)
        return ok

    def result(self, name: str, detail: str) -> CheckResult:
        if self.first is None:
            return CheckResult(name, True, detail)
        witness, what = self.first
        return CheckResult(name, False, what, repr(witness))


def _draws(t: Tally, want: int, budget: int, draw: Callable):
    """Successive ``draw()`` results until ``t`` has ``want`` cases or
    ``budget`` draws were made; the bound is checked before each draw."""
    for _ in range(budget):
        if t.cases >= want:
            return
        yield draw()


LEVEL_COUNTS = {"smoke": 8, "standard": 80, "exhaustive": 200}
EXHAUSTIVE_P_CAP = 17


def _sample_w(ctx: FieldCtx, rng: random.Random) -> tuple[Params5, PairRep]:
    p5 = sample_quintuple(ctx, rng)
    return p5, build_W(p5)


# --- bodies shared with the acceptance criteria -----------------------------


def relation_verify(ctx: FieldCtx, rng: random.Random, count: int) -> Tally:
    """``count`` cyclic and ``count`` truncated builds satisfy the relations,
    drawn first and judged in one call for the cyclic builds and one per
    dimension for the truncated ones."""
    t = Tally()
    draws = [(sample_quintuple(ctx, rng), (*sample_triple(ctx, rng), rng.randrange(ctx.dbar - 1)))
             for _ in range(count)]
    index = np.array([index_of(p5.astuple()) for p5, _ in draws], dtype=np.int64).reshape(-1, 5)
    w_ok = verify_rep_many(ctx, *build_many(ctx, index, ctx.dbar)).all(1)
    vn_ok = np.zeros(count, dtype=bool)
    for at, gens, scalars in _vn_groups(ctx, [vn for _, vn in draws]):
        vn_ok[at] = verify_rep_many(ctx, gens, scalars).all(1)
    for (p5, vn), w, v in zip(draws, w_ok.tolist(), vn_ok.tolist()):
        t.check(w, p5.astuple(), "cyclic quotient fails relations")
        t.check(v, vn, "truncated quotient fails relations")
        t.cases += 2
    return t


def charpoly_corner(ctx: FieldCtx, rng: random.Random, count: int) -> Tally:
    """Both characteristic polynomials of ``count`` cyclic modules."""
    t = Tally()
    for _ in range(count):
        p5, rep = _sample_w(ctx, rng)
        theta, theta_star, _, _ = _seq_values(p5, np.arange(ctx.dbar))
        want_a = poly_from_roots(ctx, theta)
        want_a[0] = want_a[0] - p5.delta
        if t.check(char_poly(rep.A) == want_a, p5.astuple(), "lowering charpoly mismatch"):
            want_b = poly_from_roots(ctx, theta_star)
            t.check(char_poly(rep.B) == want_b, p5.astuple(), "raising charpoly mismatch")
        t.cases += 1
    return t


def center_chebyshev(ctx: FieldCtx, rng: random.Random, count: int) -> Tally:
    """On ``count`` cyclic modules the central elements commute and the corner
    product acts as delta."""
    t = Tally()
    for _ in range(count):
        p5, rep = _sample_w(ctx, rng)
        mu = rand_nonzero(ctx, rng)
        if t.check(central_elements_check(rep, mu).ok, p5.astuple(),
                   "central element fails to commute"):
            prod = product_shifted(rep.A, _seq_values(p5, np.arange(ctx.dbar))[0])
            t.check(p5.delta == is_scalar_matrix(prod), p5.astuple(),
                    "corner product is not delta*I")
        t.cases += 1
    return t


def classify_rerun(ctx: FieldCtx, seed: int, count: int) -> tuple[dict, bool]:
    """A seeded classification report and whether a rerun gives the same bytes."""
    r1 = classify_sample(ctx, seed, count)
    r2 = classify_sample(ctx, seed, count)
    return r1, report_bytes(r1) == report_bytes(r2)


def report_bytes(report: dict) -> bytes:
    """Compact, key-sorted JSON of a report."""
    return json.dumps(report, sort_keys=True, separators=(",", ":")).encode()


def _vn_groups(ctx: FieldCtx, draws: list[tuple]) -> list[tuple[list[int], np.ndarray, list]]:
    """Per dimension, the positions of those (a, b, c, n) draws, their
    generator array and their central scalars."""
    groups = []
    for n in sorted({draw[3] for draw in draws}):
        at = [k for k, draw in enumerate(draws) if draw[3] == n]
        index = np.array([index_of((*draws[k][:3], ctx.qpow(n))) for k in at])
        groups.append((at, *build_many(ctx, index, n + 1)))
    return groups


def irr_vn_samples(ctx: FieldCtx, rng: random.Random, count: int) -> Tally:
    """Criterion vs oracle on ``count`` seeded truncated modules, drawn first."""
    t = Tally()
    draws = [(*sample_triple(ctx, rng), rng.randrange(0, ctx.dbar - 1)) for _ in range(count)]
    orac = np.zeros(count, dtype=bool)
    for at, gens, _ in _vn_groups(ctx, draws):
        orac[at] = norton_irreducible_many(ctx, gens)
    for (a, b, c, nn), o in zip(draws, orac.tolist()):
        crit = irr_Vn_criterion(a, b, c, nn)
        t.check(crit == o, (a, b, c, nn), f"criterion={crit} oracle={o}")
        t.cases += 1
    return t


def ladder_case(p5: Params5, t: Tally) -> set[int] | None:
    """Each ladder vector e_i is an A-eigenvector with last coefficient 1, and
    its descending B-products match the recurrence and, where a case applies,
    the closed form.  Returns the closed-form cases (0-3) that applied, or
    None when nu lies outside the field."""
    try:
        nd = nu_of(p5)
    except NuOutsideField:
        return None
    ctx = p5.ctx
    dbar = ctx.dbar
    rep = build_W(p5)
    theta_star = _seq_values(p5, np.arange(dbar))[1]
    cases = set()
    for i in range(dbar):
        ei = e_vector(p5, i, nd)
        t.check(rep.A @ ei == ei * nd.vartheta(i), (p5.astuple(), i), "not an eigenvector")
        t.check(ei.entry(dbar - 1, 0) == ctx.one, (p5.astuple(), i), "last coefficient not 1")
        L = L_recurrence(p5, i, nd)
        vec = ei  # at step k: prod_{h=1}^{k} (B - theta_star_{dbar-h}) e_i
        for k in range(dbar):
            if k:
                vec = rep.B @ vec - vec * theta_star[dbar - k]
            for j in range(dbar):
                t.check(vec.entry(dbar - j - 1, 0) == L[j][k], (p5.astuple(), i, j, k),
                        "recurrence disagrees with matrix application")
        case = closed_form_case(p5, i, nd)
        if case is None:
            continue
        cases.add(case)
        for j in range(dbar):
            for k in range(dbar):
                t.check(L_closed(p5, i, j, k, nd) == L[j][k], (p5.astuple(), i, j, k),
                        "closed form disagrees with recurrence")
    return cases


def marginal_case(p5: Params5, t: Tally) -> list[int] | None:
    """For every e_i the membership test agrees with the matrix condition, and
    the base weight b/lam is marginal with a fixed line.  Returns the indices
    into ``plus + minus`` (see marginal_values) that nu hit, or None when nu
    lies outside the field."""
    try:
        nd = nu_of(p5)
    except NuOutsideField:
        return None
    rep = build_W(p5)
    hits = []
    for i in range(p5.ctx.dbar):
        member = marginal_test_e(p5, i, nd)
        matrix = marginal_matrix_e(rep, p5, i, nd)
        for side, m, x in zip("+-", member, matrix):
            t.check(m == x, (p5.astuple(), i), f"membership vs matrix mismatch ({side})")
        plus, minus = marginal_values(p5.quadruple, i)
        hits += [k for k, val in enumerate(plus + minus) if nd.nu == val]
    mu0 = p5.b / p5.lam
    t.check(is_marginal_weight(rep, mu0), p5.astuple(), "base weight not marginal")
    t.check(bool(marginal_vectors(rep, mu0)), p5.astuple(), "no marginal vector found")
    return hits


def feasible_cases(ctx: FieldCtx, quads: list[Params4], t: Tally) -> int:
    """``feasible_case`` on each quadruple; the number of skipped orbit
    comparisons.  One ``feasible_targets`` call reads off the targets, one
    evaluation puts kappa = a/lam on their quartics and lam on their sextics
    at kappa, and one ``solve_feasible_many`` call solves them."""
    index = np.array([index_of(p4.astuple()) for p4 in quads], dtype=np.int64).reshape(-1, 4)
    kappa = np.array([index_of([p4.a / p4.lam]) for p4 in quads], dtype=np.int64).reshape(-1)
    targets = feasible_targets(ctx, index)
    values = [poly_eval_many(ctx, polys, np.array(np.divmod(x[:, None], ctx.p)))
              for polys, x in zip(feasible_polys(ctx, targets, kappa), (kappa, index[:, 3]))]
    on_system = (np.array(values) == 0).all((0, 1, 3))
    return sum(feasible_case(p4, on, *solved, orbit, t) for p4, on, solved, orbit in
               zip(quads, on_system.tolist(), solve_feasible_many(ctx, targets),
                   s4_orbit_many(ctx, index)))


def feasible_case(p4: Params4, on_system: bool, rows: np.ndarray, ok: bool, orbit,
                  t: Tally) -> bool:
    """The read-off target is ``on_system``; the solver's ``rows`` for it hold
    the input, pass its self-check (``ok``) and stay in the input's ``orbit``,
    an ``s4_orbit_many`` outcome.  Returns whether the orbit comparison was
    skipped because the orbit needs a field extension."""
    wit = p4.astuple()
    if not t.check(on_system, wit, "read-off target not feasible"):
        return False
    if not t.check(ok, wit, "solver output not feasible"):
        return False
    own, *keys = map(tuple, sign_index(np.concatenate([[index_of(wit)], rows]), p4.ctx.p).tolist())
    if not t.check(own in keys, wit, "input lost by solver"):
        return False
    if isinstance(orbit, NeedsExtension):
        return True
    t.check(set(keys) <= orbit.member_keys(), wit, "solver output leaves the orbit")
    return False


def equiv_case(p5: Params5, rows, t: Tally) -> int:
    """Each distinct orbit neighbour of p5 under ``rows`` is isomorphic to it by
    an invertible map, and w_0 has the universal property.  Returns the
    number of maps checked."""
    ctx = p5.ctx
    rep = build_W(p5)
    own = np.array([index_of(p5.astuple())])
    every, _, (stuck, _, error) = _row_images(ctx, own)
    if len(stuck) and any(map(table1.row_needs_sqrt, rows)):
        raise error(0)  # a requested row needs a root that F_{p^2} lacks
    picked = every[0, [table1.ROWS.index(row) for row in rows]]
    images = {}  # the first row to each distinct neighbour
    for row, key, img in zip(rows, sign_index(picked, ctx.p).tolist(), picked):
        images.setdefault(tuple(key), (row[0], img))
    index = np.concatenate([own, [img for _, img in images.values()]])
    found = w_intertwiner_many(ctx, index, [(0, k) for k in range(1, len(images) + 1)])
    for (label, _), (_, invertible) in zip(images.values(), found):
        t.check(invertible, (p5.astuple(), label), "no invertible map")
    w0 = FMat.column(ctx, [ctx.one] + [ctx.zero] * (ctx.dbar - 1))
    t.check(check_W_universal(rep, w0, p5), p5.astuple(), "w_0 fails universal property")
    return len(images)


def cross_class_pairs(ctx: FieldCtx, rng: random.Random, count: int,
                      max_attempts: int) -> Tally:
    """Up to ``count`` pairs of irreducible quintuples from different closure
    classes admit no intertwiner; ``cases`` is the number of pairs found."""
    t = Tally()
    pairs = []
    for pa, pb in _draws(t, count, max_attempts,
                         lambda: (sample_quintuple(ctx, rng), sample_quintuple(ctx, rng))):
        if not (irr_W_criterion(pa) and irr_W_criterion(pb)):
            continue
        if sign_key(pb.astuple()) in simeq_closure(pa).member_keys():
            continue
        t.cases += 1
        pairs.append((pa, pb))
    index = np.array([index_of(p5.astuple()) for pair in pairs for p5 in pair], dtype=np.int64)
    found = w_intertwiner_many(ctx, index.reshape(-1, 5),
                               [(2 * k, 2 * k + 1) for k in range(len(pairs))])
    for (pa, pb), (s, _) in zip(pairs, found):
        t.check(s is None, (pa.astuple(), pb.astuple()), "unexpected cross-class intertwiner")
    return t


def descent_delta_case(p5: Params5, t: Tally) -> None:
    """(B - th*_{dbar-2})(B - th*_{dbar-1}) A w_{0,dbar-1} is w_0 times the
    closed-form descent scalar, whose last factor is the ab-inversion defect
    (``_defect_index``): the move's delta condition holds exactly where it
    vanishes."""
    ctx = p5.ctx
    dbar = ctx.dbar
    q, qi = ctx.q, ctx.q.inv()
    rep = build_W(p5)
    theta_star = _seq_values(p5, np.arange(dbar))[1]
    lhs = (rep.B - FMat.scalar(ctx, dbar, theta_star[dbar - 2])) @ (
        rep.B - FMat.scalar(ctx, dbar, theta_star[dbar - 1])) @ (rep.A @ w_ij(p5, 0, dbar - 1))
    pref = ctx.qpow(-dbar * (dbar - 1) // 2) * (q * q - qi * qi)
    for i in range(1, dbar):
        pref = pref * (ctx.qpow(i) - ctx.qpow(-i))
    defect = ctx.from_index(_defect_index(ctx, np.array(index_of(p5.astuple()))))
    want = w_ij(p5, 0, 0) * (pref * (theta_star[0] - theta_star[dbar - 1]) * defect)
    t.check(lhs == want, p5.astuple(), "descent scalar mismatch")


# --- the suite's checks: (ctx, rng, n) -> (tally, detail) -------------------


def check_field_arithmetic(ctx, rng, n):
    """A case is one drawn element: n for the identities, 64 Chebyshev points."""
    t = Tally()
    q = ctx.q
    t.check(all(q ** k != ctx.one for k in range(1, ctx.d)), q, "q has premature order")
    t.check(q ** ctx.d == ctx.one, q, "q^d != 1")
    for _ in range(n):
        x = rand_nonzero(ctx, rng)
        t.check(x.inv().inv() == x and x * x.inv() == ctx.one, x, "inverse identities fail")
        sq = x * x
        r = sqrt(sq)
        t.check(r * r == sq and r == sqrt(sq), x, "sqrt not a stable root")
    # T_n(x + 1/x) = x^n + x^-n on 64 sampled points, n up to 2*dbar
    pts = [rand_nonzero(ctx, rng) for _ in range(64)]
    t.cases += n + len(pts)
    for deg in range(2 * ctx.dbar + 1):
        coeffs = chebyshev_T(ctx, deg)
        for x in pts:
            t.check(poly_eval(coeffs, x + x.inv()) == x ** deg + x ** (-deg), (deg, x),
                    "chebyshev identity fails")
    return t, f"{n} inverses, 64-point chebyshev"


def check_poly_roots(ctx, rng, n):
    """A case is one drawn list of roots and its product polynomial."""
    t = Tally()
    for _ in range(max(n // 2, 4)):
        t.cases += 1
        k = rng.randrange(1, 5)
        roots = [rand_nonzero(ctx, rng) for _ in range(k)]
        f = poly_from_roots(ctx, roots)
        got = poly_roots(ctx, f)
        t.check([x.key for x in got] == sorted({x.key for x in roots}), roots,
                "scan missed or invented roots")
        for r in got:
            t.check(poly_eval(f, r).is_zero(), r, "non-root returned")
    return t, "product polynomials round-trip"


def check_relation_verify(ctx, rng, n):
    return relation_verify(ctx, rng, n), f"{n} cyclic + {n} truncated builds"


def check_vee_involution(ctx, rng, n):
    """A case is one drawn cyclic module; the modules and their twists are
    judged in one call each."""
    t = Tally()
    draws = [_sample_w(ctx, rng) for _ in range(n)]
    reps = [rep for _, rep in draws]
    twists = [vee(rep) for rep in reps]
    ok, twist_ok = (verify_rep_many(ctx, stack_gens(rs), [index_of(r.scalars()) for r in rs])
                    .all(1).tolist() for rs in (reps, twists))
    for (p5, rep), twist, verdict, twist_verdict in zip(draws, twists, ok, twist_ok):
        t.cases += 1
        t.check(vee(twist) == rep, p5.astuple(), "double twist is not identity")
        t.check(twist_verdict == verdict, p5.astuple(), "twist changes verification")
    return t, f"{n} reps"


def check_weight_ladder(ctx, rng, n):
    """A case is one drawn cyclic module, with all its weight spaces."""
    t = Tally()
    q2 = ctx.q * ctx.q
    for _ in range(max(n // 4, 2)):
        t.cases += 1
        p5, rep = _sample_w(ctx, rng)
        for mu, basis in weight_spaces(rep):
            up = mu * q2 + mu.inv() / q2
            dn = mu / q2 + mu.inv() * q2
            m = (rep.B - FMat.scalar(ctx, rep.n, up)) @ (
                rep.B - FMat.scalar(ctx, rep.n, dn)) @ rep.A @ basis
            # image must stay inside V(mu)
            t.check(rank(hstack([basis, m])) == basis.ncols, p5.astuple(),
                    f"escape from V({mu!r})")
    return t, "two-sided shift keeps weight spaces"


def check_periodicity(ctx, rng, n):
    """A case is one drawn quadruple's three sequences, from one ``seq_arrays`` call."""
    t = Tally()
    dbar = ctx.dbar
    quads = [sample_quadruple(ctx, rng) for _ in range(max(n // 4, 2))]
    index = np.array([index_of(p4.astuple()) for p4 in quads])
    seqs = np.stack(seq_arrays(ctx, index, np.arange(4 * dbar + 1))[:3], 1)  # (m, 3, 2, i)
    # at each i < 3 dbar + 1, whether all three sequences equal their values at i + dbar
    same = (seqs[..., :3 * dbar + 1] == seqs[..., dbar:]).all((1, 2)).tolist()
    for p4, periodic, phi0 in zip(quads, same, seqs[:, 2, :, 0].tolist()):
        t.cases += 1
        for i, ok in enumerate(periodic):
            t.check(ok, (p4.astuple(), i), "period break")
        t.check(phi0 == [0, 0], p4.astuple(), "varphi(0) != 0")
    return t, "theta/theta*/varphi dbar-periodic"


def check_charpoly(ctx, rng, n):
    return charpoly_corner(ctx, rng, max(n // 2, 2)), "both characteristic polynomials"


def check_center(ctx, rng, n):
    return center_chebyshev(ctx, rng, max(n // 4, 2)), "centrality and corner product"


def _irreducible_draws(ctx, rng, n, t: Tally, want: int):
    """Sampled quintuples that pass ``irr_W_criterion``, each counted as a
    case of ``t``, until ``want`` cases or 20 * n + 40 draws."""
    for p5 in _draws(t, want, 20 * n + 40, lambda: sample_quintuple(ctx, rng)):
        if irr_W_criterion(p5):
            t.cases += 1
            yield p5


def _cases_with_nu(ctx, rng, n, case: Callable) -> Tally:
    """Run ``case`` on sampled quintuples until max(n // 4, 2) had nu in the field."""
    t = Tally()
    for p5 in _draws(t, max(n // 4, 2), 20 * n + 40, lambda: sample_quintuple(ctx, rng)):
        if case(p5, t) is not None:
            t.cases += 1
    return t


def check_ladder_eigvec(ctx, rng, n):
    t = _cases_with_nu(ctx, rng, n, ladder_case)
    return t, f"{t.cases} parameter sets, all indices"


def check_marginal_membership(ctx, rng, n):
    t = _cases_with_nu(ctx, rng, n, marginal_case)
    return t, f"{t.cases} sets, both directions"


def check_bridge_vectors(ctx, rng, n):
    """A case is one drawn cyclic module, with all its bridging vectors."""
    t = Tally()
    q, qi = ctx.q, ctx.q.inv()
    dbar = ctx.dbar

    def S(rep, x):
        return FMat.scalar(ctx, rep.n, x)

    for _ in range(max(n // 4, 2)):
        t.cases += 1
        p5, rep = _sample_w(ctx, rng)
        a, b, c, lam, delta = p5.astuple()
        _, theta_star, varphi, _ = _seq_values(p5, np.arange(dbar + 1))
        w = partial(_bridge, ctx, theta_star=theta_star, varphi=varphi)
        for i in range(dbar):
            if varphi[i].is_zero():
                for j in range(i, dbar):
                    t.check(((rep.B - S(rep, theta_star[j])) @ w(i, j)).is_zero(),
                            (p5.astuple(), i, j), "eigcondition fails")
        for i in range(1, dbar):
            w0i = w(0, i)
            lhs = (rep.B - S(rep, theta_star[i + 1])) @ (
                rep.B - S(rep, theta_star[i])) @ (rep.A @ w0i)
            scal = (a / b * lam * q * (q - qi) * (q * q - qi * qi)
                    * (ctx.qpow(i) - ctx.qpow(-i)) * varphi[i]
                    * (b * ctx.qpow(i) - b.inv() * ctx.qpow(-i))
                    * (ctx.qpow(-i) - b * lam.inv() / (a * c) * ctx.qpow(i - 1))
                    * (ctx.qpow(-i) - b * c * lam.inv() / a * ctx.qpow(i - 1)))
            t.check(lhs == w(0, i - 1) * scal, (p5.astuple(), i),
                    "descent scalar mismatch")
        # dim-1 eigenspace spanning when varphi_i = 0 and a hypothesis holds
        for i in range(dbar):
            if not varphi[i].is_zero():
                continue
            for j in range(i, dbar):
                phis_ok = all(not varphi[h].is_zero() for h in range(i + 1, j + 1))
                tj_ok = all(theta_star[j] != theta_star[h] for h in range(i, j))
                if not (phis_ok or tj_ok):
                    continue
                sub = rep.B.arr[:, i:j + 1, i:j + 1]
                subm = FMat(ctx, sub) - FMat.scalar(ctx, j - i + 1, theta_star[j])
                eig = kernel(subm)
                wij_trunc = FMat(ctx, w(i, j).arr[:, i:j + 1])
                t.check(eig.ncols == 1 and rank(hstack([eig, wij_trunc])) == 1,
                        (p5.astuple(), i, j), "span mismatch")
    return t, "descent, eigconditions, spans"


def check_krylov_span(ctx, rng, n):
    t = Tally()
    for p5 in _irreducible_draws(ctx, rng, n, t, max(n // 8, 1)):
        rep = build_W(p5)
        mu = p5.b / p5.lam
        vs = marginal_vectors(rep, mu)
        if not t.check(bool(vs), p5.astuple(), "irreducible rep lost its marginal vector"):
            continue
        v = vs[0]
        t.check(krylov_span_dim(rep.A, v) == rep.n, p5.astuple(),
                "A-orbit of marginal vector not spanning")
        mui = mu.inv()
        span = [v]
        cur = v
        for i in range(1, rep.n + 1):
            cur = rep.A @ cur
            shift = mu * ctx.qpow(2 * i) + mui * ctx.qpow(-2 * i)
            img = (rep.B - FMat.scalar(ctx, rep.n, shift)) @ cur
            t.check(rank(hstack(span + [img])) == rank(hstack(span)), (p5.astuple(), i),
                    "ladder step leaves span")
            span.append(cur)
    return t, f"{t.cases} irreducible reps"


def check_feasible_roundtrip(ctx, rng, n):
    """A case is one drawn quadruple, solved from its read-off target."""
    t = Tally()
    t.cases = max(n // 2, 4)
    skipped = feasible_cases(ctx, [sample_quadruple(ctx, rng) for _ in range(t.cases)], t)
    return t, f"solver round-trips ({skipped} orbit skips)"


def check_orbit_closure(ctx, rng, n):
    """A case is one drawn quadruple; its members' generator images are judged in member order."""
    t = Tally()
    gens = [list(table1.ROW_BY_LABEL).index(g) for g in table1.GENERATOR_LABELS]
    for _ in range(max(n // 8, 2)):
        p4 = sample_quadruple(ctx, rng)
        orb = s4_orbit(p4)
        t.cases += 1
        t.check(orb.size <= 24, p4.astuple(), "more than 24 sign-classes")
        images, _, (stuck, _, error) = _row_images(ctx, orb.rows)
        if len(stuck):
            raise error(stuck[0])  # a generator row needs a root that F_{p^2} lacks
        keys = orb.member_keys()
        for k, img in enumerate(sign_index(images[:, gens], ctx.p).reshape(-1, 4).tolist()):
            t.check(tuple(img) in keys, (p4.astuple(), table1.GENERATOR_LABELS[k % len(gens)]),
                    "generator escapes orbit")
    return t, "generator-stable, size <= 24"


def check_equiv_intertwiner(ctx, rng, n):
    t = Tally()
    for _ in range(max(n // 8, 2)):
        t.cases += equiv_case(sample_quintuple(ctx, rng), table1.ROWS[:8], t)
    return t, "orbit neighbors are isomorphic"


def check_closure_pm(ctx, rng, n):
    t = Tally()
    for p5 in _irreducible_draws(ctx, rng, n, t, max(n // 8, 2)):
        closure = simeq_closure(p5)
        for member, ok in zip(closure.members, irr_W_criterion_many(ctx, closure.rows)):
            t.check(ok, (p5.astuple(), member), "class leaves PM")
    return t, f"{t.cases} closures stay irreducible"


def check_closure_iso(ctx, rng, n):
    t = Tally()
    for p5 in _irreducible_draws(ctx, rng, n, t, max(n // 16, 1)):
        closure = simeq_closure(p5)
        step = max(1, closure.size // 6)
        sampled = closure.members[::step]
        index = np.concatenate([[index_of(p5.astuple())], closure.rows[::step]])
        found = w_intertwiner_many(ctx, index, [(0, k) for k in range(1, len(sampled) + 1)])
        for member, (_, invertible) in zip(sampled, found):
            t.check(invertible, (p5.astuple(), member), "class member not isomorphic")
    return t, f"{t.cases} closures, sampled members isomorphic"


def check_classify_determinism(ctx, rng, n):
    seed = rng.randrange(2 ** 63)
    count = max(n // 8, 4)
    report, same = classify_rerun(ctx, seed, count)
    t = Tally()
    t.cases = 2  # the report and its rerun, compared byte for byte
    t.check(same, seed, "same seed, different report")
    t.check(not report["errors"], next(iter(report["errors"]), None), "classification errors")
    return t, f"count={count}, {len(report['classes'])} classes, byte-identical rerun"


def _check_grid(t, sweep, ctx, n, exhaustive):
    grid = exhaustive and ctx.p <= EXHAUSTIVE_P_CAP
    if grid:
        mism = sweep(ctx.p, ctx.d)
        t.check(not mism, next(iter(mism), None), "exhaustive grid mismatch")
    gated = f" (grid gated: p > {EXHAUSTIVE_P_CAP})"
    suffix = " + full grid" if grid else (gated if exhaustive else "")
    return t, f"{n} samples{suffix}"


def check_irr_vn(ctx, rng, n, exhaustive=False):
    return _check_grid(irr_vn_samples(ctx, rng, n), vn_grid_sweep, ctx, n, exhaustive)


def check_irr_w(ctx, rng, n, exhaustive=False):
    """A case is one quintuple, all drawn first; the exhaustive grid adds none."""
    t = Tally()
    draws = [sample_quintuple(ctx, rng) for _ in range(n)]
    idx = np.array([index_of(p5.astuple()) for p5 in draws], dtype=np.int64).reshape(-1, 5)
    crit = irr_W_criterion_many(ctx, idx).tolist()
    orac = norton_irreducible_many(ctx, build_many(ctx, idx, ctx.dbar)[0])
    for p5, c, o in zip(draws, crit, orac):
        t.cases += 1
        t.check(c == o, p5.astuple(), f"criterion={c} oracle={o}")
    return _check_grid(t, w_grid_sweep, ctx, n, exhaustive)


# --- exhaustive grids (shared with the acceptance tests) --------------------


def _grid_chunk(args: tuple[int, int, int], slice_cases: Callable) -> list[tuple]:
    """The mismatching cases of one a-value, in grid order.

    ``slice_cases(ctx, a, b)`` returns the cases of one b-value as rows of
    an integer array, their criterion verdicts, and per module dimension the
    positions of its cases and their generator array.  Each generator array
    goes to the oracle whole, so memory stays at one slice's arrays.
    """
    p, d, a_val = args
    ctx = ctx_new(p, d)
    mism = []
    for b in range(1, p):
        cases, crit, groups = slice_cases(ctx, a_val, b)
        orac = np.zeros(len(cases), dtype=bool)
        for at, gens, *_ in groups:
            orac[at] = norton_irreducible_many(ctx, gens)
        mism += map(tuple, cases[crit != orac].tolist())
    return mism


def _slice_cases(*axes) -> np.ndarray:
    """The grid of the given value ranges in product order, one row per case."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(axes))


def _w_slice(ctx: FieldCtx, a_val: int, b: int) -> tuple:
    p = ctx.p
    cases = _slice_cases([a_val], [b], range(1, p), range(1, p), range(p))
    index = cases * p  # plain-lex indices: every entry lies in F_p
    gens = build_many(ctx, index, ctx.dbar)[0]
    return cases, irr_W_criterion_many(ctx, index), [(slice(None), gens)]


def _vn_slice(ctx: FieldCtx, a_val: int, b: int) -> tuple:
    p, dims = ctx.p, min(2, ctx.dbar - 1)
    cases = _slice_cases([a_val], [b], range(1, p), range(dims))
    draws = [(*map(ctx.el, case[:3]), case[3]) for case in cases.tolist()]
    crit = np.array([irr_Vn_criterion(*draw) for draw in draws], dtype=bool)
    return cases, crit, _vn_groups(ctx, draws)


def w_grid_chunk(args: tuple[int, int, int]) -> list[tuple]:
    """All (a, b, c, lam, delta) mismatches for one a-value; entries in F_p."""
    return _grid_chunk(args, _w_slice)


def w_grid_sweep(p: int, d: int, workers: int | None = None) -> list[tuple]:
    """Exhaustive criterion-vs-oracle sweep over (F_p^x)^4 x F_p."""
    chunks = pmap(w_grid_chunk, [(p, d, a) for a in range(1, p)], workers)
    return [m for chunk in chunks for m in chunk]


def vn_grid_chunk(args: tuple[int, int, int]) -> list[tuple]:
    """All (a, b, c, n) mismatches for one a-value, n in {0, 1}."""
    return _grid_chunk(args, _vn_slice)


def vn_grid_sweep(p: int, d: int, workers: int | None = None) -> list[tuple]:
    """Exhaustive sweep over (F_p^x)^3 and n in {0, 1}."""
    chunks = pmap(vn_grid_chunk, [(p, d, a) for a in range(1, p)], workers)
    return [m for chunk in chunks for m in chunk]


# --- the registry and runner ------------------------------------------------


CHECKS: list[tuple[str, Callable]] = [
    ("field-arithmetic", check_field_arithmetic),
    ("poly-roots", check_poly_roots),
    ("relation-verify", check_relation_verify),
    ("vee-involution", check_vee_involution),
    ("weight-ladder", check_weight_ladder),
    ("sequence-periodicity", check_periodicity),
    ("charpoly-corner", check_charpoly),
    ("center-chebyshev", check_center),
    ("ladder-eigvec", check_ladder_eigvec),
    ("marginal-membership", check_marginal_membership),
    ("bridge-vectors", check_bridge_vectors),
    ("krylov-span", check_krylov_span),
    ("feasible-roundtrip", check_feasible_roundtrip),
    ("orbit-closure", check_orbit_closure),
    ("equiv-intertwiner", check_equiv_intertwiner),
    ("closure-pm-closed", check_closure_pm),
    ("closure-iso", check_closure_iso),
    ("classify-determinism", check_classify_determinism),
]


def run_suite(p: int, d: int, seed: int = 0, level: str = "standard",
              emit: Callable[[str], None] = print) -> list[CheckResult]:
    """Run every named check; returns the results (all passed iff suite passed)."""
    if level not in LEVEL_COUNTS:
        raise ValueError(f"unknown level {level!r}")
    ctx = ctx_new(p, d)
    n = LEVEL_COUNTS[level]
    exhaustive = level == "exhaustive"
    checks = CHECKS + [
        ("irr-vn-agreement", partial(check_irr_vn, exhaustive=exhaustive)),
        ("irr-w-agreement", partial(check_irr_w, exhaustive=exhaustive)),
    ]
    results: list[CheckResult] = []
    for name, fn in checks:
        tally, detail = fn(ctx, random.Random((seed, name).__repr__()), n)
        res = tally.result(name, detail)
        results.append(res)
        emit(result_line(res))
    return results


def result_line(res: CheckResult) -> str:
    if res.passed:
        return f"PASS {res.name}: {res.detail}"
    return f"FAIL {res.name}: {res.detail}; first failing instance: {res.counterexample}"

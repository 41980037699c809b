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

from . import table1
from .algebra import PairRep, central_elements_check, vee, verify_rep
from .classify import (
    burnside_irreducible,
    canon_sign4,
    canon_sign5,
    classify_sample,
    delta_shift,
    feasible,
    feasible_quartic,
    feasible_sextic,
    feasible_target,
    intertwiner,
    irr_Vn_criterion,
    irr_W_criterion,
    orbit_image,
    quad_key,
    quint_key,
    rand_nonzero,
    s4_orbit,
    sample_quadruple,
    sample_quintuple,
    sample_triple,
    simeq_closure,
    solve_feasible,
)
from .errors import NeedsExtension, NuOutsideField
from .field import FieldCtx, chebyshev_T, ctx_new, poly_eval, poly_from_roots, poly_roots, sqrt
from .linalg import FMat, hstack, is_scalar_matrix, kernel, krylov_span_dim, product_shifted, rank
from .modules import (
    L_closed,
    L_recurrence,
    Params4,
    Params5,
    SeqData,
    build_Vn,
    build_W,
    char_poly_fast,
    check_W_universal,
    closed_form_case,
    e_vector,
    is_marginal_weight,
    marginal_matrix_e,
    marginal_test_e,
    marginal_values,
    marginal_vectors,
    nu_of,
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


LEVEL_COUNTS = {"smoke": 8, "standard": 80, "exhaustive": 200}
EXHAUSTIVE_P_CAP = 17


def _sample_w(ctx: FieldCtx, rng: random.Random) -> tuple[Params5, PairRep]:
    p5 = sample_quintuple(ctx, rng)
    return p5, build_W(p5)


# --- bodies shared with the acceptance criteria -----------------------------


def relation_verify(ctx: FieldCtx, rng: random.Random, count: int) -> Tally:
    """``count`` cyclic and ``count`` truncated builds satisfy the relations."""
    t = Tally()
    for _ in range(count):
        p5 = sample_quintuple(ctx, rng)
        t.check(verify_rep(build_W(p5)).ok, p5.astuple(), "cyclic quotient fails relations")
        a, b, c = sample_triple(ctx, rng)
        nn = rng.randrange(0, ctx.dbar - 1)
        t.check(verify_rep(build_Vn(a, b, c, nn)).ok, (a, b, c, nn),
                "truncated quotient fails relations")
        t.cases += 2
    return t


def charpoly_corner(ctx: FieldCtx, rng: random.Random, count: int) -> Tally:
    """Both characteristic polynomials of ``count`` cyclic modules."""
    t = Tally()
    for _ in range(count):
        p5, rep = _sample_w(ctx, rng)
        s = SeqData(p5.quadruple)
        want_a = poly_from_roots(ctx, [s.theta(i) for i in range(ctx.dbar)])
        want_a[0] = want_a[0] - p5.delta
        if t.check(char_poly_fast(rep.A) == want_a, p5.astuple(), "lowering charpoly mismatch"):
            want_b = poly_from_roots(ctx, [s.theta_star(i) for i in range(ctx.dbar)])
            t.check(char_poly_fast(rep.B) == want_b, p5.astuple(), "raising charpoly mismatch")
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
            s = SeqData(p5.quadruple)
            prod = product_shifted(rep.A, [s.theta(i) for i in range(ctx.dbar)])
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


def irr_vn_samples(ctx: FieldCtx, rng: random.Random, count: int) -> Tally:
    """Criterion vs oracle on ``count`` seeded truncated modules."""
    t = Tally()
    for _ in range(count):
        a, b, c = sample_triple(ctx, rng)
        nn = rng.randrange(0, ctx.dbar - 1)
        crit = irr_Vn_criterion(a, b, c, nn)
        orac = burnside_irreducible(build_Vn(a, b, c, nn))
        t.check(crit == orac, (a, b, c, nn), f"criterion={crit} oracle={orac}")
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
    s = SeqData(p5.quadruple)
    cases = set()
    for i in range(dbar):
        ei = e_vector(p5, i, nd)
        t.check(rep.A @ ei == ei * nd.vartheta(i), (p5.astuple(), i), "not an eigenvector")
        t.check(ei.entry(dbar - 1, 0) == ctx.one, (p5.astuple(), i), "last coefficient not 1")
        L = L_recurrence(p5, i, nd)
        for k in range(dbar):
            vec = product_shifted(rep.B, [s.theta_star(dbar - h) for h in range(1, k + 1)]) @ ei
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


def feasible_case(p4: Params4, t: Tally) -> bool:
    """The read-off target is feasible; the solver returns the input and only
    feasible tuples, all inside the input's orbit.  Returns whether the orbit
    comparison was skipped because the orbit needs a field extension.

    Feasibility of the read-off target is tested against the solver's
    polynomial system: kappa = a/lam is a root of the quartic and lam a root
    of the sextic at kappa."""
    wit = p4.astuple()
    tgt = feasible_target(p4)
    kappa = p4.a / p4.lam
    on_system = (poly_eval(feasible_quartic(tgt), kappa).is_zero()
                 and poly_eval(feasible_sextic(tgt, kappa), p4.lam).is_zero())
    if not t.check(on_system, wit, "read-off target not feasible"):
        return False
    sols = solve_feasible(tgt)
    keys = {quad_key(canon_sign4(s.astuple())) for s in sols}
    if not t.check(quad_key(canon_sign4(wit)) in keys, wit, "input lost by solver"):
        return False
    if not t.check(all(feasible(s, tgt) for s in sols), wit, "solver output not feasible"):
        return False
    try:
        orbit_keys = s4_orbit(p4).member_keys()
    except NeedsExtension:
        return True
    t.check(keys <= orbit_keys, wit, "solver output leaves the orbit")
    return False


def equiv_case(p5: Params5, rows, t: Tally) -> int:
    """Each distinct orbit neighbour of p5 under ``rows`` is isomorphic to it by
    an invertible map, and w_0 has the universal property.  Returns the
    number of maps checked."""
    ctx = p5.ctx
    rep = build_W(p5)
    shift = delta_shift(p5)
    quad = p5.quadruple.astuple()
    seen = set()
    for row in rows:
        img = orbit_image(row, quad, shift)
        key = quint_key(canon_sign5(img))
        if key in seen:
            continue
        seen.add(key)
        s = intertwiner(rep, build_W(Params5(*img)))
        t.check(s is not None and rank(s) == rep.n, (p5.astuple(), row[0]), "no invertible map")
    w0 = FMat.column(ctx, [ctx.one] + [ctx.zero] * (ctx.dbar - 1))
    t.check(check_W_universal(rep, w0, p5), p5.astuple(), "w_0 fails universal property")
    return len(seen)


def cross_class_pairs(ctx: FieldCtx, rng: random.Random, count: int,
                      max_attempts: int) -> Tally:
    """Up to ``count`` pairs of irreducible quintuples from different closure
    classes admit no intertwiner; ``cases`` is the number of pairs found."""
    t = Tally()
    attempts = 0
    while t.cases < count and attempts < max_attempts:
        attempts += 1
        pa = sample_quintuple(ctx, rng)
        pb = sample_quintuple(ctx, rng)
        if not (irr_W_criterion(pa) and irr_W_criterion(pb)):
            continue
        class_a = {quint_key(m) for m in simeq_closure(pa).members}
        if quint_key(canon_sign5(pb.astuple())) in class_a:
            continue
        t.cases += 1
        t.check(intertwiner(build_W(pa), build_W(pb)) is None,
                (pa.astuple(), pb.astuple()), "unexpected cross-class intertwiner")
    return t


def descent_delta_case(p5: Params5, t: Tally) -> None:
    """(B - th*_{dbar-2})(B - th*_{dbar-1}) A w_{0,dbar-1} is w_0 times the
    closed-form descent scalar, whose last factor carries delta."""
    ctx = p5.ctx
    dbar = ctx.dbar
    q, qi = ctx.q, ctx.q.inv()
    a, b, c, lam, delta = p5.astuple()
    rep = build_W(p5)
    s = SeqData(p5.quadruple)
    lhs = (rep.B - FMat.scalar(ctx, dbar, s.theta_star(dbar - 2))) @ (
        rep.B - FMat.scalar(ctx, dbar, s.theta_star(dbar - 1))) @ (rep.A @ w_ij(p5, 0, dbar - 1))
    pref = ctx.qpow(-dbar * (dbar - 1) // 2) * (q * q - qi * qi)
    for i in range(1, dbar):
        pref = pref * (ctx.qpow(i) - ctx.qpow(-i))
    bl = (b / lam) ** dbar
    term = delta * (bl - bl.inv()) - (a * b) ** (-dbar) * (
        lam ** (2 * dbar) - ctx.one
    ) * ((a * b * c / lam) ** dbar * ctx.qpow(dbar) - ctx.one) * (
        (a * b / (c * lam)) ** dbar * ctx.qpow(dbar) - ctx.one
    )
    want = w_ij(p5, 0, 0) * (pref * (s.theta_star(0) - s.theta_star(dbar - 1)) * term)
    t.check(lhs == want, p5.astuple(), "descent scalar mismatch")


# --- the suite's checks: (ctx, rng, n) -> (tally, detail) -------------------


def check_field_arithmetic(ctx, rng, n):
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
    for deg in range(2 * ctx.dbar + 1):
        coeffs = chebyshev_T(ctx, deg)
        for x in pts:
            t.check(poly_eval(coeffs, x + x.inv()) == x ** deg + x ** (-deg), (deg, x),
                    "chebyshev identity fails")
    return t, f"{n} inverses, 64-point chebyshev"


def check_poly_roots(ctx, rng, n):
    t = Tally()
    for _ in range(max(n // 2, 4)):
        k = rng.randrange(1, 5)
        roots = [rand_nonzero(ctx, rng) for _ in range(k)]
        f = poly_from_roots(ctx, roots)
        got = poly_roots(ctx, f)
        t.check(sorted(x.key for x in got) == sorted(x.key for x in roots), roots,
                "scan missed or invented roots")
        for r in got:
            t.check(poly_eval(f, r).is_zero(), r, "non-root returned")
    return t, "product polynomials round-trip"


def check_relation_verify(ctx, rng, n):
    return relation_verify(ctx, rng, n), f"{n} cyclic + {n} truncated builds"


def check_vee_involution(ctx, rng, n):
    t = Tally()
    for _ in range(n):
        p5, rep = _sample_w(ctx, rng)
        t.check(vee(vee(rep)) == rep, p5.astuple(), "double twist is not identity")
        t.check(verify_rep(vee(rep)).ok == verify_rep(rep).ok, p5.astuple(),
                "twist changes verification")
    return t, f"{n} reps"


def check_weight_ladder(ctx, rng, n):
    t = Tally()
    q2 = ctx.q * ctx.q
    for _ in range(max(n // 4, 2)):
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
    t = Tally()
    dbar = ctx.dbar
    for _ in range(max(n // 4, 2)):
        s = SeqData(sample_quadruple(ctx, rng))
        for i in range(3 * dbar + 1):
            t.check(s.theta(i) == s.theta(i + dbar)
                    and s.theta_star(i) == s.theta_star(i + dbar)
                    and s.varphi(i) == s.varphi(i + dbar),
                    (s.params.astuple(), i), "period break")
        t.check(s.varphi(0).is_zero(), s.params.astuple(), "varphi(0) != 0")
    return t, "theta/theta*/varphi dbar-periodic"


def check_charpoly(ctx, rng, n):
    return charpoly_corner(ctx, rng, max(n // 2, 2)), "both characteristic polynomials"


def check_center(ctx, rng, n):
    return center_chebyshev(ctx, rng, max(n // 4, 2)), "centrality and corner product"


def _cases_with_nu(ctx, rng, n, case: Callable) -> Tally:
    """Run ``case`` on sampled quintuples until max(n // 4, 2) had nu in the field."""
    t = Tally()
    attempts = 0
    while t.cases < max(n // 4, 2) and attempts < 20 * n + 40:
        attempts += 1
        if case(sample_quintuple(ctx, rng), t) is not None:
            t.cases += 1
    return t


def check_ladder_eigvec(ctx, rng, n):
    t = _cases_with_nu(ctx, rng, n, ladder_case)
    return t, f"{t.cases} parameter sets, all indices"


def check_marginal_membership(ctx, rng, n):
    t = _cases_with_nu(ctx, rng, n, marginal_case)
    return t, f"{t.cases} sets, both directions"


def check_bridge_vectors(ctx, rng, n):
    t = Tally()
    q, qi = ctx.q, ctx.q.inv()
    dbar = ctx.dbar

    def S(rep, x):
        return FMat.scalar(ctx, rep.n, x)

    for _ in range(max(n // 4, 2)):
        p5, rep = _sample_w(ctx, rng)
        a, b, c, lam, delta = p5.astuple()
        s = SeqData(p5.quadruple)
        for i in range(dbar):
            if s.varphi(i).is_zero():
                for j in range(i, dbar):
                    t.check(((rep.B - S(rep, s.theta_star(j))) @ w_ij(p5, i, j)).is_zero(),
                            (p5.astuple(), i, j), "eigcondition fails")
        for i in range(1, dbar):
            w0i = w_ij(p5, 0, i)
            lhs = (rep.B - S(rep, s.theta_star(i + 1))) @ (
                rep.B - S(rep, s.theta_star(i))) @ (rep.A @ w0i)
            scal = (a / b * lam * q * (q - qi) * (q * q - qi * qi)
                    * (ctx.qpow(i) - ctx.qpow(-i)) * s.varphi(i)
                    * (b * ctx.qpow(i) - b.inv() * ctx.qpow(-i))
                    * (ctx.qpow(-i) - b * lam.inv() / (a * c) * ctx.qpow(i - 1))
                    * (ctx.qpow(-i) - b * c * lam.inv() / a * ctx.qpow(i - 1)))
            t.check(lhs == w_ij(p5, 0, i - 1) * scal, (p5.astuple(), i),
                    "descent scalar mismatch")
        # dim-1 eigenspace spanning when varphi_i = 0 and a hypothesis holds
        for i in range(dbar):
            if not s.varphi(i).is_zero():
                continue
            for j in range(i, dbar):
                phis_ok = all(not s.varphi(h).is_zero() for h in range(i + 1, j + 1))
                tj_ok = all(s.theta_star(j) != s.theta_star(h) for h in range(i, j))
                if not (phis_ok or tj_ok):
                    continue
                sub = rep.B.arr[i:j + 1, i:j + 1, :]
                subm = FMat(ctx, sub) - FMat.scalar(ctx, j - i + 1, s.theta_star(j))
                eig = kernel(subm)
                wij_trunc = FMat(ctx, w_ij(p5, i, j).arr[i:j + 1, :, :])
                t.check(eig.ncols == 1 and rank(hstack([eig, wij_trunc])) == 1,
                        (p5.astuple(), i, j), "span mismatch")
    return t, "descent, eigconditions, spans"


def check_krylov_span(ctx, rng, n):
    t = Tally()
    attempts = 0
    while t.cases < max(n // 8, 1) and attempts < 20 * n + 40:
        attempts += 1
        p5 = sample_quintuple(ctx, rng)
        if not irr_W_criterion(p5):
            continue
        t.cases += 1
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
    t = Tally()
    skipped = sum(feasible_case(sample_quadruple(ctx, rng), t) for _ in range(max(n // 2, 4)))
    return t, f"solver round-trips ({skipped} orbit skips)"


def check_orbit_closure(ctx, rng, n):
    t = Tally()
    gens = [table1.ROW_BY_LABEL[g] for g in table1.GENERATOR_LABELS]
    for _ in range(max(n // 8, 2)):
        p4 = sample_quadruple(ctx, rng)
        orb = s4_orbit(p4)
        t.check(orb.size <= 24, p4.astuple(), "more than 24 sign-classes")
        keys = orb.member_keys()
        for member in orb.members:
            for g in gens:
                img = canon_sign4(table1.apply_row(g, member))
                t.check(quad_key(img) in keys, (p4.astuple(), g[0]), "generator escapes orbit")
    return t, "generator-stable, size <= 24"


def check_equiv_intertwiner(ctx, rng, n):
    t = Tally()
    for _ in range(max(n // 8, 2)):
        equiv_case(sample_quintuple(ctx, rng), table1.ROWS[:8], t)
    return t, "orbit neighbors are isomorphic"


def check_closure_pm(ctx, rng, n):
    t = Tally()
    attempts = 0
    while t.cases < max(n // 8, 2) and attempts < 20 * n + 40:
        attempts += 1
        p5 = sample_quintuple(ctx, rng)
        if not irr_W_criterion(p5):
            continue
        for member in simeq_closure(p5).members:
            t.check(irr_W_criterion(Params5(*member)), (p5.astuple(), member), "class leaves PM")
        t.cases += 1
    return t, f"{t.cases} closures stay irreducible"


def check_closure_iso(ctx, rng, n):
    t = Tally()
    attempts = 0
    while t.cases < max(n // 16, 1) and attempts < 20 * n + 40:
        attempts += 1
        p5 = sample_quintuple(ctx, rng)
        if not irr_W_criterion(p5):
            continue
        rep = build_W(p5)
        members = simeq_closure(p5).members
        for member in members[:: max(1, len(members) // 6)]:
            s = intertwiner(rep, build_W(Params5(*member)))
            t.check(s is not None and rank(s) == rep.n, (p5.astuple(), member),
                    "class member not isomorphic")
        t.cases += 1
    return t, f"{t.cases} closures, sampled members isomorphic"


def check_classify_determinism(ctx, rng, n):
    seed = rng.randrange(2 ** 63)
    count = max(n // 8, 4)
    report, same = classify_rerun(ctx, seed, count)
    t = Tally()
    t.check(same, seed, "same seed, different report")
    t.check(not report["errors"], next(iter(report["errors"]), None), "classification errors")
    return t, f"count={count}, {len(report['classes'])} classes, byte-identical rerun"


def _check_grid(t, sweep, ctx, n, exhaustive):
    grid = exhaustive and ctx.p <= EXHAUSTIVE_P_CAP
    if grid:
        mism = sweep(ctx.p, ctx.d)
        t.check(not mism, next(iter(mism), None), "exhaustive grid mismatch")
    suffix = " + full grid" if grid else (" (grid gated: p > 17)" if exhaustive else "")
    return t, f"{n} samples{suffix}"


def check_irr_vn(ctx, rng, n, exhaustive=False):
    return _check_grid(irr_vn_samples(ctx, rng, n), vn_grid_sweep, ctx, n, exhaustive)


def check_irr_w(ctx, rng, n, exhaustive=False):
    t = Tally()
    for _ in range(n):
        p5 = sample_quintuple(ctx, rng)
        crit = irr_W_criterion(p5)
        orac = burnside_irreducible(build_W(p5))
        t.check(crit == orac, p5.astuple(), f"criterion={crit} oracle={orac}")
    return _check_grid(t, w_grid_sweep, ctx, n, exhaustive)


# --- exhaustive grids (shared with the acceptance tests) --------------------


def w_grid_chunk(args: tuple[int, int, int]) -> list[tuple]:
    """All (a, b, c, lam, delta) mismatches for one a-value; entries in F_p."""
    p, d, a_val = args
    ctx = ctx_new(p, d)
    mism = []
    units = range(1, p)
    for b in units:
        for c in units:
            for lam in units:
                for delta in range(p):
                    p5 = Params5(ctx.el(a_val), ctx.el(b), ctx.el(c), ctx.el(lam), ctx.el(delta))
                    if irr_W_criterion(p5) != burnside_irreducible(build_W(p5)):
                        mism.append((a_val, b, c, lam, delta))
    return mism


def w_grid_sweep(p: int, d: int, workers: int | None = None) -> list[tuple]:
    """Exhaustive criterion-vs-oracle sweep over (F_p^x)^4 x F_p."""
    chunks = pmap(w_grid_chunk, [(p, d, a) for a in range(1, p)], workers)
    return [m for chunk in chunks for m in chunk]


def vn_grid_chunk(args: tuple[int, int, int]) -> list[tuple]:
    p, d, a_val = args
    ctx = ctx_new(p, d)
    mism = []
    units = range(1, p)
    for b in units:
        for c in units:
            for n in range(min(2, ctx.dbar - 1)):
                ta, tb, tc = ctx.el(a_val), ctx.el(b), ctx.el(c)
                if irr_Vn_criterion(ta, tb, tc, n) != burnside_irreducible(
                        build_Vn(ta, tb, tc, n)):
                    mism.append((a_val, b, c, n))
    return mism


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

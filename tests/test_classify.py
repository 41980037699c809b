import ast
import itertools
import json
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uawq import classify, errors, table1
from uawq.algebra import PairRep, stack_gens
from uawq.classify import (
    Target,
    burnside_irreducible,
    burnside_irreducible_many,
    classify_sample,
    delta_shift,
    feasible,
    feasible_target,
    feasible_targets,
    intertwiner,
    irr_Vn_criterion,
    irr_W_criterion,
    irr_W_criterion_many,
    norton_irreducible_many,
    rand_nonzero,
    s4_orbit,
    sample_quadruple,
    sample_quintuple,
    sample_triple,
    sign_key,
    simeq_closure,
    solve_feasible,
)
from uawq.field import ctx_new, index_of, is_square, sqrt
from uawq.linalg import FMat, hstack, rank, rref
from uawq.modules import Params4, Params5, build_Vn, build_W

from conftest import (approx_equiv, cond_inv_ab, image_pair, move_images, sim_related,
                      simeq_z2s4)
from reference import (
    ref_closure,
    ref_intertwiner,
    ref_inv_ab_terms,
    ref_irr_Vn_criterion,
    ref_irr_W_criterion,
    ref_orbit_image,
    ref_s4_orbit,
    ref_seq,
    ref_solve,
    ref_span_dim,
    ref_target,
    ref_w_deltas,
    uniform_quintuple,
)


class TestFeasible:
    def test_roundtrip_identity(self, ctx13, rng):
        for _ in range(20):
            p4 = sample_quadruple(ctx13, rng)
            assert feasible(p4, feasible_target(p4))

    def test_mu_readoff(self, ctx13, rng):
        p4 = sample_quadruple(ctx13, rng)
        assert feasible_target(p4).mu == p4.b / p4.lam

    def test_phi_at_ones(self, ctx13):
        q = ctx13.q
        tgt = feasible_target(Params4(*[ctx13.one] * 4))
        assert tgt.phi == ctx13.el(-2) * (q - q.inv())

    @pytest.mark.parametrize("p, d", [(13, 3), (13, 6), (29, 28)])
    def test_targets_match_the_reference(self, p, d):
        ctx, rng = ctx_new(p, d), random.Random(p * d)
        quads = [sample_quadruple(ctx, rng).astuple() for _ in range(20)]
        got = feasible_targets(ctx, np.array([index_of(quad) for quad in quads]))
        assert got.shape == (20, 4) and got.dtype == np.int64
        assert [tuple(map(ctx.from_index, row)) for row in got.tolist()] == [
            ref_target(*quad) for quad in quads]
        assert feasible_targets(ctx, got[:0]).shape == (0, 4)
        for k in range(4):
            bad = list(index_of(quads[0]))
            bad[k] = 0
            with pytest.raises(ValueError, match="parameters a, b, c, lam must be nonzero"):
                feasible_targets(ctx, np.array([index_of(quads[1]), bad]))

    def test_scalars_match_seq(self, ctx13, rng):
        p4 = sample_quadruple(ctx13, rng)
        _, omega_star, omega_eps = ref_seq(*p4.astuple()).scalars
        tgt = feasible_target(p4)
        assert tgt.omega_star == omega_star and tgt.omega_eps == omega_eps

    def test_negated_mu_fails(self, ctx13, rng):
        found = False
        for _ in range(10):
            p4 = sample_quadruple(ctx13, rng)
            tgt = feasible_target(p4)
            if tgt.mu == -tgt.mu:
                continue
            bad = Target(-tgt.mu, tgt.phi, tgt.omega_star, tgt.omega_eps)
            assert not feasible(p4, bad)
            found = True
            break
        assert found

    def test_orbit_members_share_target(self, ctx13, rng):
        # feasibility is constant along the orbit
        p4 = sample_quadruple(ctx13, rng)
        tgt = feasible_target(p4)
        orbit = s4_orbit(p4)
        for member in orbit.members:
            assert feasible(Params4(*member), tgt)


def special_quadruples(ctx, rng):
    """Quadruples whose targets reach the solver's edge cases: lam = 1 and
    lam = -1 (r read off omega_eps), c = 1 and c = -1 (r^2 = 4, a double root
    c), and lam q = i with i^2 = -1, where r can only come from phi."""
    i = next(x for x in ctx.elements() if x * x == ctx.el(-1))
    a, b, c = (rand_nonzero(ctx, rng) for _ in range(3))
    return [Params4(a, b, c, ctx.one), Params4(a, b, c, ctx.el(-1)), Params4(a, b, ctx.one, c),
            Params4(a, b, ctx.el(-1), c), Params4(a, b, c, i / ctx.q)]


class TestSolveFeasible:
    @pytest.mark.parametrize("p, d", [(13, 3), (13, 6), (29, 28), (37, 6)])
    def test_matches_the_reference(self, p, d):
        ctx, rng = ctx_new(p, d), random.Random(p + d)
        quads = [sample_quadruple(ctx, rng) for _ in range(3)] + special_quadruples(ctx, rng)
        targets = feasible_targets(ctx, np.array([index_of(p4.astuple()) for p4 in quads]))
        # two drawn targets, among them one with no solution in F_{p^2}
        targets = np.concatenate([targets, [[rng.randrange(1, p * p)] + [
            rng.randrange(p * p) for _ in range(3)] for _ in range(2)]])
        got = classify.solve_feasible_many(ctx, targets)
        assert len(got) == len(targets)
        for row, (rows, ok) in zip(targets.tolist(), got):
            want = ref_solve(*map(ctx.from_index, row))
            assert rows.dtype == np.int64 and rows.shape == (len(want), 4)
            assert rows.tolist() == [list(index_of(x)) for x in want] and ok is True
            tgt = Target(*map(ctx.from_index, row))
            if want:
                assert solve_feasible(tgt) == [Params4(*x) for x in want]
            else:
                with pytest.raises(errors.NoSolutionsInField):
                    solve_feasible(tgt)
        rows = np.concatenate([rows for rows, _ in got])
        assert not all(len(rows) for rows, _ in got)
        one, minus_one = p, (p - 1) * p  # plain-lex indices
        assert {one, minus_one} <= set(rows[:, 3].tolist()) & set(rows[:, 2].tolist())
        assert index_of([quads[-1].lam]) in map(tuple, rows[:, 3:].tolist())
        for k, p4 in enumerate(quads):
            assert index_of(p4.astuple()) in map(tuple, got[k][0].tolist())

    def test_empty_batches_groups_and_a_zero_mu(self, monkeypatch, ctx13, rng):
        quads = [sample_quadruple(ctx13, rng) for _ in range(4)] + special_quadruples(ctx13, rng)
        targets = feasible_targets(ctx13, np.array([index_of(p4.astuple()) for p4 in quads]))
        whole = classify.solve_feasible_many(ctx13, targets)
        assert classify.solve_feasible_many(ctx13, targets[:0]) == []
        for size in (1, 2, 3):  # scans of that many polynomials at a time
            monkeypatch.setattr(classify, "LOCKSTEP_BYTES", size * 16 * 13 * 13)
            split = classify.solve_feasible_many(ctx13, targets)
            assert [(rows.tolist(), ok) for rows, ok in split] == [
                (rows.tolist(), ok) for rows, ok in whole]
        with pytest.raises(ValueError, match="mu must be nonzero"):
            classify.solve_feasible_many(ctx13, np.array([targets[0], [0, 1, 2, 3]]))

    def test_solver_equals_computable_orbit(self, ctx13, rng):
        # when the whole orbit lives in F_{p^2}, the solver recovers exactly
        # the sign-classes of the orbit
        for _ in range(10):
            p4 = sample_quadruple(ctx13, rng)
            sols = {sign_key(s.astuple()) for s in solve_feasible(feasible_target(p4))}
            assert sols == s4_orbit(p4).member_keys()


def test_sign_key_is_the_lex_min_of_a_quad_and_its_flip(ctx13):
    # coordinates from zero, both signs of a base-field and a sqrt(t) value,
    # and a mixed one, so leading zeros and every sign pattern occur; a fifth
    # entry (zero or not) keeps its sign and leaves the first four as they are
    vals = [ctx13.zero, ctx13.el(3), ctx13.el(10), ctx13.el(0, 4), ctx13.el(0, 9), ctx13.el(6, 2)]
    for quad in itertools.product(vals, repeat=4):
        flipped = tuple(-x for x in quad)
        want = min(quad, flipped, key=lambda q: tuple(x.key for x in q))
        assert sign_key(quad) == index_of(want)
        for delta in (ctx13.zero, ctx13.el(6, 2)):
            assert sign_key((*quad, delta)) == index_of((*want, delta))


class TestS4Orbit:
    def test_identity_row_present(self, ctx13, rng):
        p4 = sample_quadruple(ctx13, rng)
        orbit = s4_orbit(p4)
        assert sign_key(p4.astuple()) in orbit.member_keys()

    def test_row_34_image(self, ctx13, rng):
        p4 = sample_quadruple(ctx13, rng)
        img = Params4(p4.a.inv(), p4.b, p4.c, p4.lam)
        assert sign_key(img.astuple()) in s4_orbit(p4).member_keys()

    def test_size_bound(self, ctx13, rng):
        for _ in range(10):
            assert s4_orbit(sample_quadruple(ctx13, rng)).size <= 24

    def test_closure_under_generators(self, ctx13, rng):
        gens = [table1.ROW_BY_LABEL[g] for g in table1.GENERATOR_LABELS]
        for _ in range(5):
            orbit = s4_orbit(sample_quadruple(ctx13, rng))
            keys = orbit.member_keys()
            for member in orbit.members:
                for g in gens:
                    assert sign_key(table1.apply_row(g, member)) in keys

    def test_needs_extension(self, ctx13):
        # find a quadruple whose orbit square-root argument is a non-square
        probe = None
        for x in ctx13.elements():
            if x.x1 == 0:
                continue
            if not is_square(x * ctx13.q):
                probe = x
                break
        p4 = Params4(probe, ctx13.one, ctx13.one, ctx13.one)
        with pytest.raises(errors.NeedsExtension):
            s4_orbit(p4)

    def test_ones_orbit_example(self, ctx13):
        # a b c lam q = 3 and sqrt(3) = 4 exists, so the orbit is computable
        assert sqrt(ctx13.el(3)) == ctx13.el(4)
        orbit = s4_orbit(Params4(*[ctx13.one] * 4))
        assert orbit.size >= 1
        assert index_of((ctx13.one,) * 4) in orbit.member_keys()


class TestTableGolden:
    def test_composition_against_generators(self, ctx13, rng):
        # applying the sigma row then the tau row must match the row of the
        # composite permutation, on sign-classes
        gens = [table1.ROW_BY_LABEL[g] for g in table1.GENERATOR_LABELS]
        row_by_perm = {row[1]: row for row in table1.ROWS}
        for _ in range(8):
            quad = sample_quadruple(ctx13, rng).astuple()
            for label, perm, entries in table1.ROWS:
                mid = table1.apply_row((label, perm, entries), quad)
                for g in gens:
                    got = sign_key(table1.apply_row(g, mid))
                    # the sigma row, then the tau row: the permutation i -> sigma[tau[i]]
                    composite = row_by_perm[tuple(perm[g[1][i]] for i in range(4))]
                    want = sign_key(table1.apply_row(composite, quad))
                    assert got == want, (label, g[0])

    def test_all_perms_present(self):
        assert len(table1.ROWS) == 24
        assert len({perm for _, perm, _ in table1.ROWS}) == 24

    def test_sign_class_well_defined(self, ctx13, rng):
        # each row's output flips globally when the square root flips sign,
        # so rows with s have odd s-exponent everywhere
        for _, _, entries in table1.ROWS:
            s_exps = [e[5] for e in entries]
            assert all(e % 2 == 1 for e in s_exps) or all(e == 0 for e in s_exps)


class TestApproxEquiv:
    def test_reflexive(self, ctx13, rng):
        p4 = sample_quadruple(ctx13, rng)
        assert approx_equiv(p4, p4)

    def test_12_row(self, ctx13, rng):
        p4 = sample_quadruple(ctx13, rng)
        assert approx_equiv(p4, Params4(p4.a, p4.b, p4.c.inv(), p4.lam))

    def test_symmetric(self, ctx13, rng):
        for _ in range(6):
            p4 = sample_quadruple(ctx13, rng)
            row = table1.ROWS[random.Random(0).randrange(24)]
            img = Params4(*table1.apply_row(row, p4.astuple()))
            assert approx_equiv(p4, img) == approx_equiv(img, p4) == True  # noqa: E712

    def test_transitive_spot(self, ctx13, rng):
        p4 = sample_quadruple(ctx13, rng)
        r1 = table1.ROWS[3]
        r2 = table1.ROWS[17]
        q1 = Params4(*table1.apply_row(r1, p4.astuple()))
        q2 = Params4(*table1.apply_row(r2, q1.astuple()))
        assert approx_equiv(p4, q1) and approx_equiv(q1, q2) and approx_equiv(p4, q2)


class TestSimeqZ2S4:
    def test_identical(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        assert simeq_z2s4(p5, p5)

    def test_delta_bump_fails(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        bumped = Params5(p5.a, p5.b, p5.c, p5.lam, p5.delta + ctx13.one)
        assert not simeq_z2s4(p5, bumped)

    def test_row34_with_adjusted_delta(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        dbar = ctx13.dbar
        a, lam = p5.a, p5.lam
        al = a / lam
        ali = (a * lam).inv()
        delta2 = p5.delta + al ** dbar + al ** (-dbar) - (ali ** dbar + ali ** (-dbar))
        other = Params5(a.inv(), p5.b, p5.c, lam, delta2)
        assert simeq_z2s4(p5, other)


class TestSimRelated:
    def test_branch_i(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        assert sim_related(p5, p5)

    def test_branch_ii(self, ctx13, rng):
        # lam = 1 gives lam^2 = q^0, and the partner swaps a and shifts lam
        quad = sample_quadruple(ctx13, rng)
        p5 = Params5(quad.a, quad.b, quad.c, ctx13.one, rand_nonzero(ctx13, rng))
        other = Params5(p5.a.inv(), p5.b, p5.c, ctx13.qpow(-2), p5.delta)
        assert sim_related(p5, other)

    def test_branch_iii_delta_condition(self, ctx13, rng):
        # construct a quintuple satisfying (iii)(a)+(b), then perturb delta
        ctx = ctx13
        dbar = ctx.dbar
        for _ in range(200):
            quad = sample_quadruple(ctx, rng)
            a, b, c, lam = quad.astuple()
            excluded = {ctx.qpow(2 * (dbar - i + 1)) for i in range(dbar - 1)}
            k, r = ref_inv_ab_terms(a, b, c, lam)
            if (b / lam) ** 2 in excluded or k.is_zero():
                continue
            delta = r / k
            p5 = Params5(a, b, c, lam, delta)
            partner = Params5(a.inv(), b.inv(), c, lam.inv() * ctx.qpow(-2), delta)
            assert sim_related(p5, partner)
            # breaking (iii)(b) by bumping delta kills that branch, though the
            # pair may still be orbit-equivalent; check the branch predicate
            bumped = Params5(a, b, c, lam, delta + ctx.one)
            assert not cond_inv_ab(bumped)
            return
        pytest.fail("no branch-(iii) instance found")


class TestSimeqClosure:
    @pytest.mark.parametrize("p,d", [(13, 3), (29, 28)])
    def test_every_move_keeps_delta_shift(self, p, d, rng):
        # the 24 orbit rows, and both inversion moves forward and reverse
        ctx = ctx_new(p, d)
        for _ in range(10):
            p5 = sample_quintuple(ctx, rng)
            shift = delta_shift(p5)
            quad = p5.quadruple.astuple()
            for row in table1.ROWS:
                assert delta_shift(Params5(*ref_orbit_image(row, quad, shift))) == shift, row[0]
            for k, img in enumerate(move_images(p5)):
                assert delta_shift(img) == shift
                assert move_images(img)[k] == p5

    def test_contains_start(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        orbit = simeq_closure(p5)
        assert sign_key(p5.astuple()) in orbit.member_keys()

    def test_members_connected(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        orbit = simeq_closure(p5)
        touched = set()
        for s, _lab, t in orbit.edges:
            touched.add(s)
            touched.add(t)
        assert touched == set(range(orbit.size))

    def test_cap_exceeded(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        with pytest.raises(errors.CapExceeded):
            simeq_closure(p5, cap=2)

    @pytest.mark.parametrize("p,d", [(13, 3), (29, 28)])
    def test_caps_at_and_below_the_size(self, p, d):
        # a cap of the closure's size s returns the closure; s - 1 raises, and
        # so does a cap inside level 1, among the start's own images
        ctx, rng = ctx_new(p, d), random.Random(p * 100 + d)
        inside = 0
        for _ in range(8):
            p5 = sample_quintuple(ctx, rng)
            full = simeq_closure(p5)
            assert simeq_closure(p5, cap=full.size) == full
            with pytest.raises(errors.CapExceeded):
                simeq_closure(p5, cap=full.size - 1)
            start = [index_of(m) for m in full.members].index(sign_key(p5.astuple()))
            level1 = {t for s, _, t in full.edges if s == start} - {start}
            for cap in {1 + len(level1) // 2, len(level1)} - {0, 1}:
                with pytest.raises(errors.CapExceeded):
                    simeq_closure(p5, cap=cap)
                inside += 1
        assert inside >= 8

    def test_reverse_move_reaches_backward_only_members(self, ctx13, rng):
        # the ab-inversion move is directional: with b^2/lam^2 = q^4 its side
        # conditions hold at x but fail at the image p, so x is reachable
        # from p only through the reverse edge; the closure must still find
        # it (the generated relation is an equivalence)
        ctx = ctx13
        found = 0
        for _ in range(500):
            lam = rand_nonzero(ctx, rng)
            b = ctx.qpow(2) * lam
            a = rand_nonzero(ctx, rng)
            c = ctx.qpow(2) / (a * b / lam * ctx.q)
            x = Params5(a, b, c, lam, rand_nonzero(ctx, rng))
            if not cond_inv_ab(x):
                continue
            p = move_images(x)[1]
            if cond_inv_ab(p):
                continue
            closure = simeq_closure(p)
            assert sign_key(x.astuple()) in closure.member_keys()
            assert any(lab == "inv-ab:rev" for _, lab, _ in closure.edges)
            found += 1
            if found >= 2:
                break
        assert found >= 2


def outcome(f, *args):
    """The JSON of an orbit, or the type and message of the error it raised."""
    try:
        return json.dumps(f(*args).to_json())
    except (errors.NeedsExtension, errors.CapExceeded) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("p,d", [(7, 3), (13, 3), (13, 6), (29, 28), (37, 9)])
class TestAgainstFq2Reference:
    def test_closure_matches(self, p, d):
        # seeded sample_quintuple draws and uniform draws (some need a field
        # extension), with no cap and caps of 2 and 1 (a cap of 1 is reached
        # before a missing root is): same JSON, or the same error and message
        ctx, rng = ctx_new(p, d), random.Random(p * 1000 + d)
        kinds = set()
        for k in range(24):
            p5 = sample_quintuple(ctx, rng) if k < 12 else uniform_quintuple(ctx, rng)
            for cap in (10_000, 2, 1):
                got = outcome(simeq_closure, p5, cap)
                assert got == outcome(ref_closure, p5, cap), (p5.astuple(), cap)
                kinds.add(got[0] if isinstance(got, tuple) else "orbit")
        assert kinds == {"orbit", "NeedsExtension", "CapExceeded"}

    def test_s4_orbit_matches(self, p, d):
        ctx, rng = ctx_new(p, d), random.Random(p * 1000 + d + 1)
        kinds = set()
        for k in range(24):
            p5 = sample_quintuple(ctx, rng) if k < 12 else uniform_quintuple(ctx, rng)
            got = outcome(s4_orbit, p5.quadruple)
            assert got == outcome(ref_s4_orbit, p5.quadruple), p5.astuple()
            kinds.add(got[0] if isinstance(got, tuple) else "orbit")
        assert kinds == {"orbit", "NeedsExtension"}


def test_closures_match_the_fq2_reference_where_a_five_entry_key_overflows():
    # from p = 79 on, p^10 >= 2^63: five plain-lex indices do not fit one
    # base-p^2 int64 key, so the search must tell members apart otherwise
    ctx, rng = ctx_new(101, 3), random.Random(101)
    assert 101 ** 10 >= 2 ** 63
    for _ in range(4):
        p5 = sample_quintuple(ctx, rng)
        got = outcome(simeq_closure, p5)
        assert got == outcome(ref_closure, p5) and isinstance(got, str), p5.astuple()
        assert outcome(s4_orbit, p5.quadruple) == outcome(ref_s4_orbit, p5.quadruple)


@pytest.mark.parametrize("p,d", [(3, 8), (13, 3), (61, 3)])
@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_sign_rule_and_key_match_the_fq2_definition(p, d, data):
    # arbitrary 4- and 5-tuples, zero entries (leading ones too) drawn often:
    # the index sign rule is the lex-min of (a, b, c, lam) and its flip with
    # a fifth entry kept, and index tuples order as the entries' keys do
    ctx = ctx_new(p, d)
    entry = st.one_of(st.just(0), st.integers(0, p * p - 1))
    t1, t2 = (tuple(data.draw(st.lists(entry, min_size=k, max_size=k)))
              for k in data.draw(st.sampled_from([(4, 4), (4, 5), (5, 5)])))
    x1 = tuple(map(ctx.from_index, t1))
    flipped = tuple(-x for x in x1[:4]) + x1[4:]
    want = min(x1, flipped, key=lambda t: tuple(x.key for x in t[:4]))
    assert classify.sign_index(np.array(t1), p).tolist() == list(classify.index_of(want))
    assert classify.sign_key(x1) == classify.index_of(want)
    x2 = tuple(map(ctx.from_index, t2))
    k1, k2 = (tuple(x.key for x in t) for t in (x1, x2))
    assert (t1 < t2) == (k1 < k2)
    assert (t1 == t2) == (k1 == k2)


class TestIrrVn:
    def test_n0_always_true(self, ctx13, rng):
        a, b, c = sample_triple(ctx13, rng)
        assert irr_Vn_criterion(a, b, c, 0)

    def test_n1_abc_one_false(self, ctx13):
        # abc = 1 = q^(n - 2 + 1) at n = 1 hits the excluded set
        a, b = ctx13.el(2), ctx13.el(3)
        c = (a * b).inv()
        assert not irr_Vn_criterion(a, b, c, 1)

    def test_bad_range(self, ctx13):
        with pytest.raises(errors.BadRange):
            irr_Vn_criterion(ctx13.one, ctx13.one, ctx13.one, ctx13.dbar - 1)

    def test_sign_orbit_invariance(self, ctx13, rng):
        a, b, c = sample_triple(ctx13, rng)
        n = 1
        val = irr_Vn_criterion(a, b, c, n)
        for ta, tb, tc in itertools.product((a, a.inv()), (b, b.inv()), (c, c.inv())):
            assert irr_Vn_criterion(ta, tb, tc, n) == val


class TestIrrW:
    def test_delta_zero_lam_one_false(self, ctx13, rng):
        quad = sample_quadruple(ctx13, rng)
        p5 = Params5(quad.a, quad.b, quad.c, ctx13.one, ctx13.zero)
        assert not irr_W_criterion(p5)
        assert not burnside_irreducible(build_W(p5))

    def test_equivalence_invariance(self, ctx13, rng):
        # the criterion is a class function for the orbit equivalence
        p5 = sample_quintuple(ctx13, rng)
        val = irr_W_criterion(p5)
        shift = delta_shift(p5)
        for row in table1.ROWS[:6]:
            assert irr_W_criterion(Params5(*ref_orbit_image(row, p5.quadruple.astuple(), shift))) == val


def verdict(f, *args):
    """The result of a criterion, or the name of the error it raised."""
    try:
        return f(*args)
    except errors.DivisionByZero:
        return "DivisionByZero"


@pytest.mark.parametrize("p,d", [(5, 3), (5, 8), (7, 3), (7, 6)])
def test_criteria_match_the_fq2_references_on_complete_grids(p, d):
    # every (a, b, c, lam, delta) of (F_p^x)^4 x F_p, judged in one batch,
    # and every (a, b, c, n) of F_p^3 x [0, dbar - 2], where a zero has no
    # inverse from n = 1 on; d = 8 and 6 have q^dbar = -1
    ctx = ctx_new(p, d)
    els = [ctx.el(x) for x in range(p)]
    cases = [Params5(*quad, delta) for quad in itertools.product(els[1:], repeat=4)
             for delta in els]
    index = np.array([index_of(case.astuple()) for case in cases])
    w_verdicts = irr_W_criterion_many(ctx, index)
    for case, got in zip(cases, w_verdicts.tolist()):
        assert got == ref_irr_W_criterion(case), case.astuple()
    vn_verdicts = set()
    for a, b, c in itertools.product(els, repeat=3):
        for n in range(ctx.dbar - 1):
            got = verdict(irr_Vn_criterion, a, b, c, n)
            assert got == verdict(ref_irr_Vn_criterion, a, b, c, n), (a, b, c, n)
            vn_verdicts.add(got)
    assert set(w_verdicts.tolist()) == {False, True}
    assert vn_verdicts == {False, True, "DivisionByZero"}


@pytest.mark.parametrize("p,d", [(13, 6), (29, 28), (37, 9), (61, 62)])
def test_criteria_match_the_fq2_references_on_seeded_draws(p, d):
    # Uniform draws and their delta = 0, lam = 1 variants, which are
    # reducible.  Then variants in which one window monomial of the W
    # criterion is a power q^k of q: c solved for each a^+-1 c^+-1 lam/(b q),
    # lam = q^k, b = q^k, each at every delta that binds a condition.  For
    # Vn, every n at (a, b, c) and at (a, b, q^k a^+-1 b^+-1).
    ctx, rng = ctx_new(p, d), random.Random(p * 1000 + d)
    w_verdicts, vn_verdicts = set(), set()
    for _ in range(40):
        p5 = uniform_quintuple(ctx, rng)
        a, b, c, lam = p5.quadruple.astuple()
        qk = ctx.qpow(rng.randrange(d))
        quads = [(a, b, (qk * b / (a ** sa * lam)) ** sc, lam) for sa in (1, -1) for sc in (1, -1)]
        quads += [(a, b, c, qk), (a, qk, c, lam)]
        cases = [p5, Params5(a, b, c, ctx.one, ctx.zero)]
        cases += [Params5(*quad, delta) for quad in quads for delta in ref_w_deltas(*quad)]
        for case in cases:
            got = irr_W_criterion(case)
            assert got == ref_irr_W_criterion(case), case.astuple()
            w_verdicts.add(got)
        for triple in ((a, b, c), (a, b, qk * a ** rng.choice((1, -1)) * b ** rng.choice((1, -1)))):
            for n in range(ctx.dbar - 1):
                got = irr_Vn_criterion(*triple, n)
                assert got == ref_irr_Vn_criterion(*triple, n), (triple, n)
                vn_verdicts.add(got)
    assert w_verdicts == vn_verdicts == {False, True}


def test_criteria_and_oracles_reach_disjoint_names():
    # An oracle may never call or reuse criterion logic.  From classify.py's
    # source, follow each side's references through the module-level
    # functions and tables of classify.py, and collect what they reach there
    # or import from uawq: the two sets share only the error types.
    tree = ast.parse(Path(classify.__file__).read_text())
    for node in ast.walk(tree):  # type annotations are not logic
        if isinstance(node, ast.arg):
            node.annotation = None
        elif isinstance(node, ast.FunctionDef):
            node.returns = None
    local = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            local[node.name] = node
        elif isinstance(node, ast.Assign):
            local.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    imported = {alias.asname or alias.name for node in imports for alias in node.names}
    error_types = {alias.name for node in imports if node.module == "errors"
                   for alias in node.names}

    def reach(roots):
        seen, todo = set(), list(roots)
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                if name in local:
                    todo += [n.id for n in ast.walk(local[name]) if isinstance(n, ast.Name)]
        return (seen & (set(local) | imported)) - error_types

    criteria = reach(["irr_W_criterion", "irr_W_criterion_many", "irr_Vn_criterion"])
    norton = reach(["norton_irreducible_many", "_spin_many"])
    oracles = reach(["burnside_irreducible", "burnside_irreducible_many", "intertwiner",
                     "intertwiner_many", "norton_irreducible_many", "_spin_many"])
    assert {"corner_index", "_move_windows", "W_CONDITIONS"} <= criteria
    assert {"pivot_step", "mul_parts", "kernel"} <= oracles
    assert {"pivot_step", "mul_parts"} <= norton
    assert criteria.isdisjoint(norton), criteria & norton
    assert criteria.isdisjoint(oracles), criteria & oracles


def test_references_reach_no_log_index_or_elimination_code():
    # The references in reference.py must not share what they check: every
    # name, attribute and imported name of its source stays clear of the log
    # tables (also behind sqrt, is_square and ** on Fq2), index arithmetic,
    # the log-table row action, the field scan of poly_roots, the shared
    # elimination code and any private name of uawq.
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    names, members = set(), set()  # bare names; attributes and imported names
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)), node.lineno
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif isinstance(node, ast.alias):
            members.add(node.name)
    forbidden = {"log_tables", "root_log", "is_square", "sqrt", "index_of", "index_sub",
                 "sign_index", "corner_index", "EXPONENTS", "orbit_logs", "entry_logs",
                 "mul_parts", "pivot_step", "rref", "kernel", "rank", "element_table",
                 "poly_roots"}
    assert {"ref_pow", "ROWS", "ref_key"} <= names | members
    assert not (names | members) & forbidden, (names | members) & forbidden
    assert not [name for name in members if name.startswith("_")]


def seeded_w_with_variants(p, d, count, seed):
    """``count`` seeded W at (p, d), each followed by its delta=0, lam=1
    variant, which is reducible."""
    ctx, rng = ctx_new(p, d), random.Random(seed)
    reps = []
    for _ in range(count):
        p5 = sample_quintuple(ctx, rng)
        reps += [build_W(params) for params in (p5, Params5(p5.a, p5.b, p5.c, ctx.one, ctx.zero))]
    return ctx, reps


class TestBurnside:
    def test_one_dimensional(self, ctx13):
        rep = build_Vn(ctx13.el(2), ctx13.el(3), ctx13.el(4), 0)
        assert burnside_irreducible(rep)
        assert burnside_irreducible_many(ctx13, stack_gens([rep])) == [True]

    def test_matches_vstack_closure_on_a_p7_chunk(self, monkeypatch):
        # every case of the a=1 chunk of the exhaustive W sweep at p=7: one
        # by one, by both batch oracles in per-b slices, as one batch and as
        # one batch run in lockstep groups of 100 spins
        ctx = ctx_new(7, 3)
        reps = [build_W(Params5(*(ctx.el(x) for x in (1, b, c, lam, delta))))
                for b, c, lam, delta in itertools.product(range(1, 7), range(1, 7), range(1, 7),
                                                          range(7))]
        dims = [ref_span_dim(rep) for rep in reps]
        full = [dim == 9 for dim in dims]
        assert [burnside_irreducible(rep) for rep in reps] == full
        for oracle in (burnside_irreducible_many, norton_irreducible_many):
            per_b = [oracle(ctx, stack_gens(reps[k:k + 252])) for k in range(0, len(reps), 252)]
            assert [v for verdicts in per_b for v in verdicts] == full
            assert oracle(ctx, stack_gens(reps)) == full
        monkeypatch.setattr(classify, "LOCKSTEP_BYTES", 100 * 16 * 9 * 9)
        assert burnside_irreducible_many(ctx, stack_gens(reps)) == full
        monkeypatch.setattr(classify, "LOCKSTEP_BYTES", 100 * 16 * 3 * 3)
        assert norton_irreducible_many(ctx, stack_gens(reps)) == full
        assert {5, 6, 7, 9} <= set(dims)

    @pytest.mark.parametrize("p,d,count", [(13, 3, 40), (29, 28, 3)])
    def test_matches_vstack_closure_on_seeded_w(self, p, d, count):
        # each draw and its reducible variant, one by one and in one batch,
        # where the variants finish at earlier steps
        ctx, reps = seeded_w_with_variants(p, d, count, p)
        full = [ref_span_dim(rep) == rep.n ** 2 for rep in reps]
        assert [burnside_irreducible(rep) for rep in reps] == full
        assert burnside_irreducible_many(ctx, stack_gens(reps)) == full
        assert norton_irreducible_many(ctx, stack_gens(reps)) == full
        assert set(full) == {False, True}

    def test_matches_burnside_at_dbar_20(self):
        ctx, reps = seeded_w_with_variants(41, 40, 3, 41)
        full = burnside_irreducible_many(ctx, stack_gens(reps))
        assert norton_irreducible_many(ctx, stack_gens(reps)) == full
        assert [burnside_irreducible(rep) for rep in reps] == full
        assert full == [True, False] * 3

    def test_matches_burnside_at_dbar_31(self):
        # two seeded draws; the Burnside closure takes about 1 s per module
        ctx, rng = ctx_new(61, 62), random.Random(31)
        draws = [sample_quintuple(ctx, rng) for _ in range(2)]
        gens = stack_gens([build_W(p5) for p5 in draws])
        full = burnside_irreducible_many(ctx, gens)
        assert norton_irreducible_many(ctx, gens) == full == [irr_W_criterion(p5) for p5 in draws]

    @pytest.mark.parametrize("n", [0, 1])
    def test_matches_vstack_closure_on_vn(self, ctx13, rng, n):
        # 40 draws, then the Vn grid's a=2, b=3 slice, which has reducible
        # modules of dimension 2; one by one and in one batch
        reps = [build_Vn(*sample_triple(ctx13, rng), n) for _ in range(40)]
        reps += [build_Vn(ctx13.el(2), ctx13.el(3), ctx13.el(c), n) for c in range(1, 13)]
        full = [ref_span_dim(rep) == rep.n ** 2 for rep in reps]
        assert [burnside_irreducible(rep) for rep in reps] == full
        assert burnside_irreducible_many(ctx13, stack_gens(reps)) == full
        assert norton_irreducible_many(ctx13, stack_gens(reps)) == full
        assert set(full) == ({True} if n == 0 else {False, True})

    def test_fallback_to_burnside(self, monkeypatch):
        # B reversed, which makes it lower triangular, or with one value all
        # along its diagonal: Norton's test does not apply, and these cases
        # go whole to the Burnside closure with unchanged verdicts
        ctx, reps = seeded_w_with_variants(13, 3, 6, 13)
        gens = stack_gens(reps)
        reversed_ = gens[..., ::-1, ::-1].copy()
        flat = gens.copy()
        for i in (1, 2):
            flat[:, 1, :, i, i] = gens[:, 1, :, 0, 0]
        flat_full = [ref_span_dim(SimpleNamespace(ctx=ctx, n=3, A=FMat(ctx, a),
                                                  B=FMat(ctx, b))) == 9
                     for a, b in flat]
        full = [ref_span_dim(rep) == 9 for rep in reps]
        calls = []

        def recorded(ctx, gens):
            calls.append(len(gens))
            return burnside_many(ctx, gens)
        burnside_many = classify.burnside_irreducible_many
        monkeypatch.setattr(classify, "burnside_irreducible_many", recorded)
        assert norton_irreducible_many(ctx, gens) == full and calls == []
        assert norton_irreducible_many(ctx, reversed_) == full and calls == [12]
        assert norton_irreducible_many(ctx, flat) == flat_full and calls == [12, 12]
        mixed = np.concatenate([gens[:4], reversed_[4:8], flat[8:]])
        assert norton_irreducible_many(ctx, mixed) == full[:8] + flat_full[8:]
        assert calls == [12, 12, 8]
        assert set(full) == set(flat_full) == {False, True}

    def test_batch_of_nothing_and_of_mixed_dimensions(self, ctx13):
        for oracle in (burnside_irreducible_many, norton_irreducible_many):
            assert oracle(ctx13, np.zeros((0, 2, 2, 3, 3), dtype=np.int64)) == []
            # an array holds one dimension: rows and columns of another shape,
            # or anything but A and B in two components each, is refused
            for shape in ((1, 2, 2, 1, 2), (1, 3, 2, 2, 2), (1, 2, 1, 2, 2), (2, 2, 2, 2)):
                with pytest.raises(errors.DimensionMismatch):
                    oracle(ctx13, np.zeros(shape, dtype=np.int64))


class TestIntertwiner:
    def test_self_is_scalar_line(self, ctx13, rng):
        done = 0
        while done < 3:
            p5 = sample_quintuple(ctx13, rng)
            if not irr_W_criterion(p5):
                continue
            rep = build_W(p5)
            s = intertwiner(rep, rep)
            assert s is not None
            from uawq.linalg import is_scalar_matrix

            assert is_scalar_matrix(s) is not None
            done += 1

    def test_intertwines(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        rep = build_W(p5)
        shift = delta_shift(p5)
        other = build_W(Params5(*ref_orbit_image(table1.ROWS[6], p5.quadruple.astuple(), shift)))
        s = intertwiner(rep, other)
        assert s is not None
        assert s @ rep.A == other.A @ s
        assert s @ rep.B == other.B @ s

    def test_maps_generator_line(self, ctx13, rng):
        # between irreducibles, the map sends the first basis line to itself
        done = 0
        while done < 3:
            p5 = sample_quintuple(ctx13, rng)
            if not irr_W_criterion(p5):
                continue
            rep = build_W(p5)
            shift = delta_shift(p5)
            other = Params5(*ref_orbit_image(table1.ROWS[1], p5.quadruple.astuple(), shift))
            if not irr_W_criterion(other):
                continue
            s = intertwiner(rep, build_W(other))
            assert s is not None and rank(s) == rep.n
            col = s.col(0)
            for r in range(1, rep.n):
                assert col.entry(r, 0).is_zero()
            done += 1

    def test_zero_dimensional_modules_have_no_nonzero_map(self, ctx13):
        z = FMat.zeros(ctx13, 0, 0)
        rep = PairRep(ctx13, z, z, ctx13.zero, ctx13.zero, ctx13.zero)
        assert intertwiner(rep, rep) is None

    def test_dimension_mismatch(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        rep = build_W(p5)
        v0 = build_Vn(ctx13.el(2), ctx13.el(3), ctx13.el(4), 0)
        with pytest.raises(errors.DimensionMismatch):
            intertwiner(rep, v0)


def block_sum(x, y):
    """The direct sum of two modules, with zero central scalars."""
    def blocks(a, b):
        out = np.zeros((2,) + (a.nrows + b.nrows,) * 2, dtype=np.int64)
        out[:, :a.nrows, :a.nrows], out[:, a.nrows:, a.nrows:] = a.arr, b.arr
        return FMat(x.ctx, out)
    return PairRep(x.ctx, blocks(x.A, y.A), blocks(x.B, y.B), *[x.ctx.zero] * 3)


def with_b(rep, b, scalars):
    """The module with A of ``rep`` and B of the components ``b``."""
    return PairRep(rep.ctx, rep.A, FMat(rep.ctx, b), *scalars)


def intertwiner_kinds(ctx, rng, count):
    """Pairs of modules by kind.  The first five take the standard-basis
    route: isomorphic W image pairs; W pairs with the same central scalars
    and another delta, or with another B superdiagonal (so A_y = A_x and the
    spun map is the identity, which intertwines A and not B); W pairs whose
    central scalars differ; and Vn pairs against their b- and c-inversions,
    the first draw reducible, whose eigenvalue of B sits at the other end of
    B_y's diagonal.  The last three take the fallback: direct sums of a 1-
    and a (dbar-1)-dimensional Vn (B's first diagonal value is simple and A
    keeps e_0's line, so its spin is not full) against the sum the other way
    round; image pairs conjugated by the reversal (B lower triangular); and a
    W module against itself with a second copy of lam, B_x's first simple
    diagonal value, on B_y's diagonal."""
    kinds = {kind: [] for kind in ("isomorphic", "other delta", "other B", "other scalars", "Vn",
                                   "sum", "reversed", "repeated")}
    while len(kinds["Vn"]) < 2 * count:
        a, b, c = sample_triple(ctx, rng)
        n = ctx.dbar - 2
        if kinds["Vn"] or not irr_Vn_criterion(a, b, c, n):
            kinds["Vn"] += [(build_Vn(a, b, c, n), build_Vn(a, b.inv(), c, n)),
                            (build_Vn(a, b, c, n), build_Vn(a, b, c.inv(), n))]
    for _ in range(count):
        x, y = image_pair(ctx, rng)
        p5 = sample_quintuple(ctx, rng)
        w = build_W(p5)
        kinds["isomorphic"].append((x, y))
        kinds["other delta"].append((w, build_W(Params5(*p5.quadruple.astuple(), p5.delta + 1))))
        bumped = w.B.arr.copy()
        bumped[0, 0, 1] += 1
        kinds["other B"].append((w, with_b(w, bumped, w.scalars())))
        kinds["other scalars"].append((x, w))
        one, rest = (build_Vn(*sample_triple(ctx, rng), n) for n in (0, ctx.dbar - 2))
        kinds["sum"].append((block_sum(one, rest), block_sum(rest, one)))
        kinds["reversed"].append(tuple(
            PairRep(ctx, FMat(ctx, r.A.arr[:, ::-1, ::-1]), FMat(ctx, r.B.arr[:, ::-1, ::-1]),
                    *r.scalars())
            for r in (x, y)))
        diag = [x.B.entry(i, i) for i in range(x.n)]
        k = next(k for k, lam in enumerate(diag) if diag.count(lam) == 1)
        repeated = x.B.arr.copy()
        repeated[:, k - 1, k - 1] = repeated[:, k, k]
        kinds["repeated"].append((x, with_b(x, repeated, x.scalars())))
    return kinds


FALLBACK_KINDS = ("sum", "reversed", "repeated")


@pytest.mark.parametrize("p,d,count,some", [(13, 3, 3, None),
                                             (29, 28, 1, ("isomorphic", "other B", "reversed"))],
                         ids=["13-3-every-kind", "29-28-three-kinds"])
def test_intertwiner_many_matches_the_reference_on_mixed_batches(monkeypatch, p, d, count, some):
    # Each dimension's pairs (of every kind, or of ``some`` kinds) go in one
    # batch; the fallback solve is taken for exactly the pairs of the
    # fallback kinds, and every map, or None, and its invertibility flag are
    # those of the dense Kronecker reference.
    ctx = ctx_new(p, d)
    kinds = intertwiner_kinds(ctx, random.Random(p + count), count)
    kinds = {kind: pairs for kind, pairs in kinds.items() if some is None or kind in some}
    solve, calls = classify._intertwiner_solve, []

    def recorded(ctx, gx, gy):
        calls.append((gx[0].tobytes(), gy[1].tobytes()))
        return solve(ctx, gx, gy)
    monkeypatch.setattr(classify, "_intertwiner_solve", recorded)
    pairs = [pair for kind in kinds.values() for pair in kind]
    invertible, singular = 0, 0
    for n in sorted({x.n for x, _ in pairs}):
        batch = [(x, y) for x, y in pairs if x.n == n]
        got = classify.intertwiner_many(ctx, stack_gens([x for x, _ in batch]),
                                        stack_gens([y for _, y in batch]))
        for (x, y), (s, flag) in zip(batch, got):
            r = ref_intertwiner(x, y)
            assert (s is None and r is None) or (s is not None and r is not None and s == r)
            assert flag == (r is not None and rank(r) == n)
            invertible += flag
            singular += s is not None and not flag
    assert calls == [(x.A.arr.tobytes(), y.B.arr.tobytes())
                     for kind in FALLBACK_KINDS for x, y in kinds.get(kind, ())]
    assert invertible and (singular or some)


def test_intertwiner_many_on_empty_and_mixed_batches(ctx13):
    empty = np.zeros((0, 2, 2, 3, 3), dtype=np.int64)
    assert classify.intertwiner_many(ctx13, empty, empty) == []
    with pytest.raises(errors.DimensionMismatch):
        classify.intertwiner_many(ctx13, np.zeros((1, 2, 2, 3, 3), dtype=np.int64),
                                  np.zeros((1, 2, 2, 2, 2), dtype=np.int64))
    # no pairs, and pairs whose central scalars all differ, reach no solve
    p5 = sample_quintuple(ctx13, random.Random(0))
    other = next(q for q in (sample_quintuple(ctx13, random.Random(s)) for s in range(1, 50))
                 if build_W(q).scalars() != build_W(p5).scalars())
    index = np.array([index_of(q.astuple()) for q in (p5, other)])
    assert classify.w_intertwiner_many(ctx13, np.empty((0, 5), dtype=np.int64), []) == []
    assert classify.w_intertwiner_many(ctx13, index[:1], []) == []
    assert classify.w_intertwiner_many(ctx13, index, [(0, 1)]) == [(None, False)]


def w_pairs(ctx, rng, count):
    """Seeded W modules against themselves, an orbit image (both ways) and an
    unrelated module."""
    for _ in range(count):
        p5 = sample_quintuple(ctx, rng)
        x = build_W(p5)
        row = table1.ROWS[rng.randrange(len(table1.ROWS))]
        y = build_W(Params5(*ref_orbit_image(row, p5.quadruple.astuple(), delta_shift(p5))))
        yield from ((x, x), (x, y), (y, x), (x, build_W(sample_quintuple(ctx, rng))))


def vn_pairs(ctx, rng, count):
    """Vn modules of every degree against the modules of their eight inversions."""
    for _ in range(count):
        a, b, c = sample_triple(ctx, rng)
        for n in range(ctx.dbar - 1):
            for inv in itertools.product((a, a.inv()), (b, b.inv()), (c, c.inv())):
                yield build_Vn(a, b, c, n), build_Vn(*inv, n)


def synthetic_pairs(ctx, rng, count):
    """Modules with zero central scalars: zero generators (spun from n seeds),
    scalar ones, random ones and block sums that repeat a random block (so
    Hom has dimension at least 4), each against itself, a conjugate by a
    random invertible matrix both ways, and a random module."""
    p = ctx.p

    def rand(n):
        return FMat(ctx, np.array([[[rng.randrange(p), rng.randrange(p)] for _ in range(n)]
                                   for _ in range(n)]).transpose(2, 0, 1))

    def twice(m):
        a = np.zeros((2, 2 * m.nrows, 2 * m.nrows), dtype=np.int64)
        a[:, :m.nrows, :m.nrows] = a[:, m.nrows:, m.nrows:] = m.arr
        return FMat(ctx, a)

    def rep(a, b):
        return PairRep(ctx, a, b, ctx.zero, ctx.zero, ctx.zero)

    for _ in range(count):
        n = rng.randrange(1, 4)
        s, u = rand(1).entry(0, 0), rand(1).entry(0, 0)
        block = (rand(2), rand(2))
        for x in (rep(FMat.zeros(ctx, n, n), FMat.zeros(ctx, n, n)),
                  rep(FMat.scalar(ctx, n, s), FMat.scalar(ctx, n, u)),
                  rep(rand(n), rand(n)), rep(*map(twice, block))):
            m = x.n
            g = rand(m)
            while rank(g) < m:
                g = rand(m)
            ginv = FMat(ctx, rref(hstack([g, FMat.identity(ctx, m)]))[0].arr[..., m:])
            y = rep(g @ x.A @ ginv, g @ x.B @ ginv)
            yield from ((x, x), (x, y), (y, x), (x, rep(rand(m), rand(m))))


INTERTWINER_FAMILIES = [(w_pairs, 7, 3, 4), (w_pairs, 13, 3, 6), (w_pairs, 13, 6, 3),
                        (w_pairs, 29, 28, 1), (vn_pairs, 13, 3, 2), (vn_pairs, 13, 6, 1),
                        (synthetic_pairs, 7, 3, 4), (synthetic_pairs, 13, 3, 2)]


@pytest.mark.parametrize("pairs,p,d,count", INTERTWINER_FAMILIES,
                         ids=[f"{f.__name__}-{p}-{d}" for f, p, d, _ in INTERTWINER_FAMILIES])
def test_intertwiner_matches_the_kronecker_reference(pairs, p, d, count):
    # The spin solve returns the very matrix, or None, that the dense
    # Kronecker system's kernel basis and the same candidate rule give.
    for x, y in pairs(ctx_new(p, d), random.Random(p * d + count), count):
        s, r = intertwiner(x, y), ref_intertwiner(x, y)
        assert (s is None and r is None) or (s is not None and r is not None and s == r)


class TestClassifySample:
    def test_no_errors_and_valid(self, ctx13):
        report = classify_sample(ctx13, 3, 15)
        assert report["errors"] == []
        assert report["schema"] == 1
        assert report["field"] == {"p": 13, "d": 3}
        total = sum(len(c["sample_indices"]) for c in report["classes"])
        assert total + len(report["rejected"]) == 15

    def test_rejects_reducible(self, ctx13, rng):
        # seeds vary; force at least one reducible sample by scanning seeds
        for seed in range(200):
            report = classify_sample(ctx13, seed, 8)
            if report["rejected"]:
                assert report["rejected"][0]["reason"] == "reducible"
                return
        pytest.fail("no seed produced a reducible sample")

    def test_a_lone_reducible_sample(self):
        # the one draw of seed 84 at (7, 3) is reducible: no class, no pair to check
        report = classify_sample(ctx_new(7, 3), 84, 1)
        assert report["classes"] == [] and report["errors"] == []
        assert [r["reason"] for r in report["rejected"]] == ["reducible"]

    def test_samples_are_checked_against_the_representative(self, ctx13, monkeypatch):
        # closures whose representative has its delta moved by one, so that
        # its module has another corner invariant and matches no sample:
        # checking the samples against each other cannot notice, checking
        # each against the representative's module does, once per sample
        real = classify.simeq_closure

        def moved(p5, cap=10_000):
            orb = real(p5, cap)
            first = orb.members[0]
            return classify.OrbitSet(((*first[:4], first[4] + 1), *orb.members[1:]), orb.edges)

        assert classify_sample(ctx13, 3, 15)["errors"] == []
        monkeypatch.setattr(classify, "simeq_closure", moved)
        report = classify_sample(ctx13, 3, 15)
        missing = [e["index"] for e in report["errors"]
                   if e["error"] == "missing within-class isomorphism"]
        assert missing == [i for c in report["classes"] for i in c["sample_indices"]] != []

    def test_cross_class_intertwiners_are_reported_by_representative(self, monkeypatch):
        # an oracle that finds an invertible map for every pair: no sample
        # misses its class, and each pair of the three classes is reported
        # once, by both representatives' JSON, in class order
        monkeypatch.setattr(classify, "w_intertwiner_many",
                            lambda ctx, index, pairs: [("map", True)] * len(pairs))
        report = classify_sample(ctx_new(7, 3), 0, 3)
        reps = ('[[0,1],[2,0],[4,4],[6,6],[3,0]]', '[[0,1],[5,4],[1,2],[3,2],[5,4]]',
                '[[1,0],[1,3],[1,5],[4,1],[2,4]]')
        classes = (
            '{"irreducible":true,"members":[[[3,5],[2,6],[5,3],[4,3],[3,1]]],'
            f'"representative":{reps[0]},"sample_indices":[1],"size":48}},'
            '{"irreducible":true,"members":[[[3,6],[0,3],[1,4],[2,3],[4,4]]],'
            f'"representative":{reps[1]},"sample_indices":[0],"size":48}},'
            '{"irreducible":true,"members":[[[2,0],[4,5],[4,6],[1,2],[2,4]]],'
            f'"representative":{reps[2]},"sample_indices":[2],"size":36}}')
        errors = ",".join(f'{{"classes":[{reps[a]},{reps[b]}],'
                          '"error":"unexpected cross-class intertwiner"}'
                          for a, b in itertools.combinations(range(3), 2))
        assert json.dumps(report, sort_keys=True, separators=(",", ":")) == (
            f'{{"classes":[{classes}],"count":3,"errors":[{errors}],'
            '"field":{"d":3,"p":7},"rejected":[],"schema":1,"seed":0}')


class TestVnClassification:
    def test_sign_class_bijection_sample(self, ctx13, rng):
        # same sign class implies isomorphic; distinct irreducible sign
        # classes imply non-isomorphic
        done = 0
        while done < 4:
            a, b, c = sample_triple(ctx13, rng)
            n = 1
            if not irr_Vn_criterion(a, b, c, n):
                continue
            rep = build_Vn(a, b, c, n)
            inversions = set(itertools.product((a, a.inv()), (b, b.inv()), (c, c.inv())))
            for ta, tb, tc in inversions:
                s = intertwiner(rep, build_Vn(ta, tb, tc, n))
                assert s is not None and rank(s) == rep.n
            a2, b2, c2 = sample_triple(ctx13, rng)
            if not irr_Vn_criterion(a2, b2, c2, n):
                continue
            if (a2, b2, c2) in inversions:
                continue
            # distinct irreducible sign classes are never isomorphic
            assert intertwiner(rep, build_Vn(a2, b2, c2, n)) is None
            done += 1

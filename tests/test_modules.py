import random

import numpy as np
import pytest
from conftest import cond_inv_ab, force_nu, sim_related
from reference import ref_inv_ab_terms, ref_module, ref_orbit_image, ref_seq

from uawq import errors, suite
from uawq.algebra import stack_gens, verify_rep
from uawq.classify import irr_W_criterion, sample_quadruple, sample_quintuple, sample_triple
from uawq.field import ctx_new, index_of, poly_from_roots
from uawq.linalg import FMat, char_poly, hstack, product_shifted, rank
from uawq.modules import (
    L_closed,
    L_recurrence,
    NuData,
    Params4,
    Params5,
    build_many,
    build_Vn,
    build_W,
    check_verma_universal,
    check_W_universal,
    closed_form_case,
    dump_module,
    e_vector,
    is_marginal_weight,
    marginal_matrix_e,
    marginal_test_e,
    marginal_vectors,
    nu_of,
    seq_arrays,
    w_ij,
    weight_spaces,
)


def ones5(ctx, delta=0):
    return Params5(ctx.one, ctx.one, ctx.one, ctx.one, ctx.el(delta))


def basis_vec(ctx, n, i):
    return FMat.column(ctx, [ctx.one if j == i else ctx.zero for j in range(n)])


class TestSeq:
    def test_truncation_zero(self, ctx13, rng):
        # lam = q^n makes varphi(n+1) vanish
        for n in range(ctx13.dbar - 1):
            row = np.array([index_of((ctx13.el(2), ctx13.el(5), ctx13.el(6), ctx13.qpow(n)))])
            varphi = seq_arrays(ctx13, row, np.array([n + 1]))[2]
            assert not varphi.any()

    def test_omega_at_ones(self, ctx13):
        # direct substitution: omega = 4 + 2*(3 + 9) = 28 = 2 mod 13
        scalars = seq_arrays(ctx13, np.array([index_of([ctx13.one] * 4)]), np.arange(0))[3]
        assert scalars.tolist() == [list(index_of([ctx13.el(2)] * 3))]

    def test_nonzero_params_required(self, ctx13):
        vals = [ctx13.el(2), ctx13.el(3), ctx13.el(0, 4), ctx13.el(5, 1)]
        for k in range(4):
            bad = vals[:k] + [ctx13.zero] + vals[k + 1:]
            with pytest.raises(ValueError, match="parameters a, b, c, lam must be nonzero"):
                Params4(*bad)
            with pytest.raises(ValueError, match="parameters a, b, c, lam must be nonzero"):
                Params5(*bad, ctx13.one)
        p4 = Params4(*vals)
        for delta in (ctx13.zero, ctx13.el(7)):
            p5 = Params5(*vals, delta)
            assert p5.delta == delta and p5.quadruple == p4
            assert p4 != p5 and p5 != p4


class TestSeqArrays:
    """``seq_arrays`` against ``ref_seq``, entry by entry."""

    @staticmethod
    def assert_matches_reference(ctx, index, i):
        theta, theta_star, varphi, scalars = seq_arrays(ctx, index, i)
        for arr in (theta, theta_star, varphi):
            assert arr.shape == (len(index), 2, len(i)) and arr.dtype == np.int64
        assert scalars.shape == (len(index), 3) and scalars.dtype == np.int64
        for r, row in enumerate(index.tolist()):
            ref = ref_seq(*map(ctx.from_index, row))
            for seq, arr in zip((ref.theta, ref.theta_star, ref.varphi), (theta, theta_star, varphi)):
                assert list(map(tuple, arr[r].T.tolist())) == [seq(k).key for k in i.tolist()], row
            assert tuple(map(ctx.from_index, scalars[r].tolist())) == ref.scalars, row

    @pytest.mark.parametrize("p, d", [(13, 3), (13, 6), (29, 28)])
    def test_rows_below_zero_and_past_d(self, p, d):
        # at (13, 6) d is even: dbar = d/2, and q^dbar = -1 flips each factor
        # of varphi, so its period dbar is not q's order
        ctx, rng = ctx_new(p, d), random.Random(p * d)
        index = np.array([index_of(sample_quadruple(ctx, rng).astuple()) for _ in range(10)])
        dbar = ctx.dbar
        self.assert_matches_reference(ctx, index, np.array([-2 * d - 1, -d, -1, 0, 1, dbar - 1,
                                                            dbar, d - 1, d, d + 1, 3 * d + 2]))
        seqs = seq_arrays(ctx, index, np.arange(-dbar, 2 * dbar))[:3]
        for arr in seqs:
            assert np.array_equal(arr[..., :dbar], arr[..., dbar:2 * dbar])
            assert np.array_equal(arr[..., :dbar], arr[..., 2 * dbar:])

    def test_empty_and_one_row_batches(self, ctx13, rng):
        row = np.array([index_of(sample_quadruple(ctx13, rng).astuple())])
        for index in (row, row[:0]):
            for i in (np.arange(-4, 5), np.arange(0)):
                self.assert_matches_reference(ctx13, index, i)

    def test_zero_parameters_raise(self, ctx13):
        row = [2 * 13, 3 * 13, 13 + 4, 5]
        for k in range(4):
            bad = row[:k] + [0] + row[k + 1:]
            for index in (np.array([row, bad]), np.array([bad])):
                with pytest.raises(ValueError, match="parameters a, b, c, lam must be nonzero"):
                    seq_arrays(ctx13, index, np.arange(3))


class TestBuildVn:
    def test_v0_is_scalar_pair(self, ctx13):
        rep = build_Vn(ctx13.el(2), ctx13.el(3), ctx13.el(4), 0)
        a, b = ctx13.el(2), ctx13.el(3)
        assert rep.A.entry(0, 0) == a + a.inv()
        assert rep.B.entry(0, 0) == b + b.inv()

    def test_bad_range(self, ctx13):
        with pytest.raises(errors.BadRange):
            build_Vn(ctx13.one, ctx13.one, ctx13.one, ctx13.dbar - 1)
        with pytest.raises(errors.BadRange):
            build_Vn(ctx13.one, ctx13.one, ctx13.one, -1)


class TestBuildMany:
    """``build_many`` against ``ref_module``, case by case, with each case's
    central scalars."""

    @staticmethod
    def assert_matches_reference(ctx, index, n):
        gens, scalars = build_many(ctx, index, n)
        assert gens.shape == (len(index), 2, 2, n, n) and gens.dtype == np.int64
        assert scalars.shape == (len(index), 3) and scalars.dtype == np.int64
        for row, got, got_scalars in zip(index.tolist(), gens, scalars.tolist(), strict=True):
            ref = ref_module(ctx, row, n)
            assert np.array_equal(got, stack_gens([ref])[0]), row
            assert tuple(map(ctx.from_index, got_scalars)) == ref.scalars()
        return gens

    def test_one_quadruple_with_many_deltas_and_a_w_slice(self, ctx13, rng):
        # thirteen deltas of one quadruple share their sequences, as each
        # (c, lam) of the slice does over its deltas: no corner may leak to a
        # neighbour
        quad = index_of(sample_quadruple(ctx13, rng).astuple())
        deltas = [0] + rng.sample(range(1, 169), 12)
        grid, _, [(_, grid_gens)] = suite._w_slice(ctx13, 2, 5)
        index = np.concatenate([[(*quad, x) for x in deltas], grid * 13])
        gens = self.assert_matches_reference(ctx13, index, ctx13.dbar)
        assert np.array_equal(gens[len(deltas):], grid_gens)

    @pytest.mark.parametrize("p, d, count", [(13, 3, 40), (29, 28, 8)])
    def test_w_rows(self, p, d, count):
        ctx, rng = ctx_new(p, d), random.Random(p)
        rows = [index_of(sample_quintuple(ctx, rng).astuple()) for _ in range(count)]
        rows += [(*row[:4], rng.randrange(p * p)) for row in rows[::3]]  # shared quadruples
        index = np.array(rng.sample(rows, len(rows)))
        gens = self.assert_matches_reference(ctx, index, ctx.dbar)
        for row, got in zip(index.tolist(), gens):
            assert np.array_equal(got, stack_gens([build_W(ref_params(ctx, row))])[0])

    @pytest.mark.parametrize("p, d", [(13, 3), (29, 28)])
    def test_vn_rows_at_every_n(self, p, d):
        ctx, rng = ctx_new(p, d), random.Random(p)
        for n in range(ctx.dbar - 1):
            triples = [sample_triple(ctx, rng) for _ in range(4)]
            index = np.array([index_of((*abc, ctx.qpow(n))) for abc in triples])
            gens = self.assert_matches_reference(ctx, index, n + 1)
            for abc, got in zip(triples, gens):
                assert np.array_equal(got, stack_gens([build_Vn(*abc, n)])[0])

    def test_empty_batches(self, ctx13):
        for cols in (4, 5):
            gens, scalars = build_many(ctx13, np.empty((0, cols), dtype=np.int64), 3)
            assert gens.shape == (0, 2, 2, 3, 3) and scalars.shape == (0, 3)

    def test_zero_parameters_raise(self, ctx13):
        row = [2 * 13, 3 * 13, 13 + 4, 5, 0]  # delta may be zero
        self.assert_matches_reference(ctx13, np.array([row]), 3)
        for k in range(4):
            bad = row[:k] + [0] + row[k + 1:]
            for index in (np.array([row, bad]), np.array([bad])[:, :4]):
                with pytest.raises(ValueError, match="parameters a, b, c, lam must be nonzero"):
                    build_many(ctx13, index, 3)


def ref_params(ctx, row):
    """The Params4 or Params5 of an index row."""
    return (Params4 if len(row) == 4 else Params5)(*map(ctx.from_index, row))


class TestBuildW:
    def test_verify_passes(self, ctx13, ctx37, rng):
        for ctx in (ctx13, ctx37):
            for _ in range(8):
                assert verify_rep(build_W(sample_quintuple(ctx, rng))).ok

    def test_corner_entry(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        rep = build_W(p5)
        assert rep.A.entry(0, ctx13.dbar - 1) == p5.delta

    def test_corners_match_one_build_each(self, ctx13, rng):
        # every delta of one quadruple from one build, then a W grid slice:
        # later corners must not leak into earlier cases, which share all of
        # A's other entries
        quad = sample_quadruple(ctx13, rng)
        n = ctx13.dbar
        gens, _ = build_many(ctx13, np.array([(*index_of(quad.astuple()), 13 * x)
                                              for x in range(13)]), n)
        cases = [Params5(*quad.astuple(), ctx13.el(x)) for x in range(13)]
        grid, _, [(_, grid_gens)] = suite._w_slice(ctx13, 2, 5)
        cases += [Params5(*map(ctx13.el, case)) for case in grid.tolist()]
        for p5, row in zip(cases, np.concatenate([gens, grid_gens]), strict=True):
            rep = build_W(p5)
            assert rep.A.entry(0, n - 1) == p5.delta
            assert np.array_equal(row, np.stack([rep.A.arr, rep.B.arr]))

    def test_charpoly_A_delta_zero(self, ctx13, rng):
        p5 = Params5(*sample_quadruple(ctx13, rng).astuple(), ctx13.zero)
        rep = build_W(p5)
        s = ref_seq(*p5.quadruple.astuple())
        want = poly_from_roots(ctx13, [s.theta(i) for i in range(ctx13.dbar)])
        assert char_poly(rep.A) == want

    def test_charpoly_A_general(self, ctx13, ctx37, rng):
        for ctx in (ctx13, ctx37):
            for _ in range(6):
                p5 = sample_quintuple(ctx, rng)
                rep = build_W(p5)
                s = ref_seq(*p5.quadruple.astuple())
                want = poly_from_roots(ctx, [s.theta(i) for i in range(ctx.dbar)])
                want[0] = want[0] - p5.delta
                assert char_poly(rep.A) == want

    def test_charpoly_B(self, ctx13, rng):
        for _ in range(6):
            p5 = sample_quintuple(ctx13, rng)
            rep = build_W(p5)
            s = ref_seq(*p5.quadruple.astuple())
            want = poly_from_roots(ctx13, [s.theta_star(i) for i in range(ctx13.dbar)])
            assert char_poly(rep.B) == want

    def test_dump_schema(self, ctx13, rng):
        import json

        p5 = sample_quintuple(ctx13, rng)
        dump = dump_module(build_W(p5), p5)
        blob = json.loads(json.dumps(dump, sort_keys=True))
        assert blob["schema"] == 1
        assert blob["p"] == 13 and blob["d"] == 3 and blob["dbar"] == 3
        assert len(blob["params"]) == 5
        assert len(blob["A"]) == ctx13.dbar


class TestWeightSpaces:
    def test_w_module_weights(self, ctx13, rng):
        for _ in range(6):
            p5 = sample_quintuple(ctx13, rng)
            rep = build_W(p5)
            s = ref_seq(*p5.quadruple.astuple())
            want = {s.theta_star(i).key for i in range(ctx13.dbar)}
            got = {(mu + mu.inv()).key for mu, _ in weight_spaces(rep)}
            assert got == want

    def test_v0_single_weight(self, ctx13):
        rep = build_Vn(ctx13.el(2), ctx13.el(3), ctx13.el(4), 0)
        spaces = weight_spaces(rep)
        assert len(spaces) == 1
        mu, basis = spaces[0]
        assert mu == ctx13.el(3)  # canonical rep of {3, 3^-1}
        assert basis.ncols == 1

    def test_definition_recheck(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        rep = build_W(p5)
        for mu, basis in weight_spaces(rep):
            shift = FMat.scalar(ctx13, rep.n, mu + mu.inv())
            assert ((rep.B - shift) @ basis).is_zero()


class TestMarginal:
    def test_base_weight_always_marginal(self, ctx13, rng):
        for _ in range(8):
            p5 = sample_quintuple(ctx13, rng)
            rep = build_W(p5)
            mu = p5.b / p5.lam
            assert is_marginal_weight(rep, mu)
            vs = marginal_vectors(rep, mu)
            assert vs
            # the line of w_0 is always among the fixed lines
            w0 = basis_vec(ctx13, rep.n, 0)
            assert any(rank(hstack([v, w0])) == 1 for v in vs)

    def test_one_by_one_marginal(self, ctx13):
        rep = build_Vn(ctx13.el(2), ctx13.el(3), ctx13.el(4), 0)
        assert is_marginal_weight(rep, ctx13.el(3))

    def test_not_a_weight(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        rep = build_W(p5)
        weights = {mu.key for mu, _ in weight_spaces(rep)}
        probe = next(
            x for x in ctx13.elements()
            if not x.is_zero() and x.key not in weights
            and x.inv().key not in weights
        )
        with pytest.raises(errors.NotAWeight):
            is_marginal_weight(rep, probe)

    def test_marginal_vector_implies_marginal_weight(self, ctx13, rng):
        q2 = ctx13.q * ctx13.q
        for _ in range(8):
            p5 = sample_quintuple(ctx13, rng)
            rep = build_W(p5)
            for mu, _basis in weight_spaces(rep):
                for v in marginal_vectors(rep, mu):
                    assert is_marginal_weight(rep, mu)
                    shift = FMat.scalar(ctx13, rep.n, mu * q2 + mu.inv() / q2)
                    img = (rep.B - shift) @ rep.A @ v
                    assert rank(hstack([v, img])) == 1

    def test_nonmarginal_case_exists(self, ctx13, rng):
        # scan for a weight that fails the rank test, to exercise both outcomes
        found_false = False
        for _ in range(60):
            p5 = sample_quintuple(ctx13, rng)
            rep = build_W(p5)
            for mu, basis in weight_spaces(rep):
                if basis.ncols == 1 and not is_marginal_weight(rep, mu):
                    found_false = True
                    assert marginal_vectors(rep, mu) == []
            if found_false:
                break
        assert found_false


class TestNu:
    def test_delta_zero_root(self, ctx13, rng):
        # nu = a/lam satisfies the defining equation when delta = 0
        for _ in range(6):
            quad = sample_quadruple(ctx13, rng)
            p5 = Params5(*quad.astuple(), ctx13.zero)
            nd = nu_of(p5)
            dbar = ctx13.dbar
            al = quad.a / quad.lam
            assert al ** dbar + al ** (-dbar) == nd.rhs
            assert nd.nu ** dbar + nd.nu ** (-dbar) == nd.rhs

    def test_frozen_example(self, ctx13):
        # p=13, d=3, a=2, lam=1, delta=0: rhs = 8 + 5 = 0, nu solves z^6 + 1 = 0;
        # oracle: exhaustive scan over F_169 finds lexicographic-least root 2
        p5 = Params5(ctx13.el(2), ctx13.one, ctx13.one, ctx13.one, ctx13.zero)
        assert ctx13.el(8) + ctx13.el(8).inv() == ctx13.zero
        roots = [
            x for x in ctx13.elements()
            if not x.is_zero() and (x ** 6 + ctx13.one).is_zero()
        ]
        assert min(roots, key=lambda e: e.key) == ctx13.el(2)
        assert nu_of(p5).nu == ctx13.el(2)

    def test_outside_field(self, ctx13):
        # rhs values whose half-angle quadratic has no roots in F_{p^2} exist;
        # find one by scanning
        dbar = ctx13.dbar
        hit = None
        for x0 in range(13):
            for x1 in range(13):
                rhs = ctx13.el(x0, x1)
                eq = (
                    [ctx13.one]
                    + [ctx13.zero] * (dbar - 1)
                    + [-rhs]
                    + [ctx13.zero] * (dbar - 1)
                    + [ctx13.one]
                )
                from uawq.field import poly_roots

                if not poly_roots(ctx13, eq):
                    hit = rhs
                    break
            if hit is not None:
                break
        assert hit is not None
        # manufacture params with that rhs: delta = rhs - a^dbar lam^-dbar - ...
        a, lam = ctx13.el(2), ctx13.one
        delta = hit - (a / lam) ** dbar - (lam / a) ** dbar
        p5 = Params5(a, ctx13.one, ctx13.one, lam, delta)
        with pytest.raises(errors.NuOutsideField):
            nu_of(p5)


def sample_with_nu(ctx, rng):
    while True:
        p5 = sample_quintuple(ctx, rng)
        try:
            return p5, nu_of(p5)
        except errors.NuOutsideField:
            continue


class TestEVector:
    def test_unrolled_dbar3(self, ctx13, rng):
        p5, nd = sample_with_nu(ctx13, rng)
        s = ref_seq(*p5.quadruple.astuple())
        for i in range(3):
            vt = nd.vartheta(i)
            e = e_vector(p5, i, nd)
            assert e.entry(0, 0) == (vt - s.theta(1)) * (vt - s.theta(2))
            assert e.entry(1, 0) == vt - s.theta(2)
            assert e.entry(2, 0) == ctx13.one

    def test_bad_range(self, ctx13, rng):
        p5, nd = sample_with_nu(ctx13, rng)
        with pytest.raises(errors.BadRange):
            e_vector(p5, ctx13.dbar, nd)

    def test_alternative_roots_spot_check(self, ctx13, rng):
        # the ladder statements hold for any root of the spectral equation;
        # spot-check nu^-1 and nu*q^2 (both roots, with shifted indexing)
        ctx = ctx13
        p5, nd = sample_with_nu(ctx, rng)
        rep = build_W(p5)
        s = ref_seq(*p5.quadruple.astuple())
        for alt in (NuData(nd.nu.inv(), nd.rhs), NuData(nd.nu * ctx.qpow(2), nd.rhs)):
            for i in range(ctx.dbar):
                e = e_vector(p5, i, alt)
                assert rep.A @ e == e * alt.vartheta(i)
                assert e.entry(ctx.dbar - 1, 0) == ctx.one
                L = L_recurrence(p5, i, alt)
                vec = e  # at step k: prod_{h=1}^{k} (B - theta_star_{dbar-h}) e
                for k in range(ctx.dbar):
                    if k:
                        vec = rep.B @ vec - vec * s.theta_star(ctx.dbar - k)
                    for j in range(ctx.dbar):
                        assert vec.entry(ctx.dbar - j - 1, 0) == L[j][k]
                for j in range(ctx.dbar):
                    for k in range(ctx.dbar):
                        try:
                            v = L_closed(p5, i, j, k, alt)
                        except errors.CaseNotApplicable:
                            break
                        assert v == L[j][k]


def membership_conds(p5, nd):
    """marginal_test_e at every index, checked against the matrix condition."""
    rep = build_W(p5)
    conds = [marginal_test_e(p5, i, nd) for i in range(p5.ctx.dbar)]
    assert conds == [marginal_matrix_e(rep, p5, i, nd) for i in range(p5.ctx.dbar)]
    return conds


class TestMarginalTestE:
    def test_constructed_membership_branch(self, ctx13, rng):
        # Force nu onto each membership value of the (+) condition.  The
        # canonical root may be the inverse family, where the membership
        # surfaces as a (-) hit instead, so every trial must hit one side.
        ctx = ctx13
        plus_seen = minus_seen = 0
        for _ in range(40):
            quad = sample_quadruple(ctx, rng)
            i = rng.randrange(ctx.dbar)
            a, b, c, lam = quad.astuple()
            choices = [
                a / lam * ctx.qpow(2 * (i - 1)),
                (a * lam).inv() * ctx.qpow(2 * (i - 1)),
                b * c * ctx.qpow(2 * i - 1),
                b / c * ctx.qpow(2 * i - 1),
            ]
            target = choices[rng.randrange(4)]
            p5 = force_nu(quad, target)
            conds = membership_conds(p5, nu_of(p5))
            plus_seen += any(cp for cp, _ in conds)
            minus_seen += any(cm for _, cm in conds)
            assert any(cp or cm for cp, cm in conds)
        assert plus_seen >= 5 and minus_seen >= 5

    def test_generic_params_both_false(self, ctx13, rng):
        # generic quintuples have no membership hits at any index
        seen_all_false = False
        for _ in range(40):
            p5 = sample_quintuple(ctx13, rng)
            try:
                nd = nu_of(p5)
            except errors.NuOutsideField:
                continue
            conds = membership_conds(p5, nd)
            if all(not cp and not cm for cp, cm in conds):
                seen_all_false = True
                break
        assert seen_all_false

class TestWij:
    def test_w_ii_is_basis_vector(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        for i in range(ctx13.dbar):
            assert w_ij(p5, i, i) == basis_vec(ctx13, ctx13.dbar, i)

    def test_leading_coefficient(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        s = ref_seq(*p5.quadruple.astuple())
        for i in range(ctx13.dbar):
            for j in range(i, ctx13.dbar):
                coeff = ctx13.one
                for h in range(i + 1, j + 1):
                    coeff = coeff * s.varphi(h)
                assert w_ij(p5, i, j).entry(i, 0) == coeff

    def test_eigencondition_when_phi_vanishes(self, ctx13, rng):
        # lam = q^(i-1) forces varphi_i = 0
        ctx = ctx13
        for i in range(1, ctx.dbar):
            a, b, c = ctx.el(2), ctx.el(5), ctx.el(6)
            quad = Params4(a, b, c, ctx.qpow(i - 1))
            p5 = Params5(*quad.astuple(), ctx.el(7))
            s = ref_seq(*quad.astuple())
            assert s.varphi(i).is_zero()
            rep = build_W(p5)
            for j in range(i, ctx.dbar):
                wij = w_ij(p5, i, j)
                shift = FMat.scalar(ctx, ctx.dbar, s.theta_star(j))
                assert ((rep.B - shift) @ wij).is_zero()

    def test_bad_range(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        with pytest.raises(errors.BadRange):
            w_ij(p5, 2, 1)


class TestLArray:
    def test_inits(self, ctx13, rng):
        p5, nd = sample_with_nu(ctx13, rng)
        for i in range(ctx13.dbar):
            L = L_recurrence(p5, i, nd)
            assert L[0][0] == ctx13.one
            for j in range(ctx13.dbar):
                for k in range(j + 1, ctx13.dbar):
                    assert L[j][k].is_zero()

    def test_closed_form_case1(self, ctx13, rng):
        # case: nu q^-2i = a lam^-1 q^-2, diagonal of varphi products
        ctx = ctx13
        done = 0
        while done < 8:
            quad = sample_quadruple(ctx, rng)
            i = rng.randrange(ctx.dbar)
            p5 = force_nu(quad, quad.a / quad.lam * ctx.qpow(2 * (i - 1)))
            nd = nu_of(p5)
            matched = False
            for k in range(ctx.dbar):
                x = nd.nu * ctx.qpow(-2 * k)
                if x in (quad.a / quad.lam * ctx.qpow(-2), quad.lam / quad.a * ctx.qpow(2)):
                    matched = True
                    L = L_recurrence(p5, k, nd)
                    s = ref_seq(*quad.astuple())
                    for j in range(ctx.dbar):
                        for kk in range(ctx.dbar):
                            got = L_closed(p5, k, j, kk, nd)
                            assert got == L[j][kk]
                            if j == kk:
                                want = ctx.one
                                for h in range(1, j + 1):
                                    want = want * s.varphi(ctx.dbar - h)
                                assert got == want
                            else:
                                assert got.is_zero()
            if matched:
                done += 1

    def test_closed_form_all_cases(self, ctx13, rng):
        ctx = ctx13
        case_hits = [0, 0, 0, 0]
        trials = 0
        while min(case_hits) < 5 and trials < 4000:
            trials += 1
            quad = sample_quadruple(ctx, rng)
            a, b, c, lam = quad.astuple()
            i = rng.randrange(ctx.dbar)
            case = trials % 4
            base = [
                a / lam * ctx.qpow(-2),
                a * lam * ctx.qpow(2),
                b * c / ctx.q,
                b / (c * ctx.q),
            ][case]
            p5 = force_nu(quad, base * ctx.qpow(2 * i))
            nd = nu_of(p5)
            sets = [
                (a / lam * ctx.qpow(-2), lam / a * ctx.qpow(2)),
                (a * lam * ctx.qpow(2), (a * lam).inv() * ctx.qpow(-2)),
                (b * c / ctx.q, (b * c).inv() * ctx.q),
                (b / (c * ctx.q), c * ctx.q / b),
            ]
            for k in range(ctx.dbar):
                x = nd.nu * ctx.qpow(-2 * k)
                which = next((ci for ci, vals in enumerate(sets) if x in vals), None)
                assert closed_form_case(p5, k, nd) == which
                if which is None:
                    with pytest.raises(errors.CaseNotApplicable):
                        L_closed(p5, k, 0, 0, nd)
                    continue
                case_hits[which] += 1
                L = L_recurrence(p5, k, nd)
                for j in range(ctx.dbar):
                    for kk in range(ctx.dbar):
                        assert L_closed(p5, k, j, kk, nd) == L[j][kk]
        assert min(case_hits) >= 5, case_hits


class TestUniversal:
    def test_w0_generates(self, ctx13, rng):
        for _ in range(8):
            p5 = sample_quintuple(ctx13, rng)
            rep = build_W(p5)
            w0 = basis_vec(ctx13, rep.n, 0)
            assert check_verma_universal(rep, w0, p5.quadruple)
            assert check_W_universal(rep, w0, p5)

    def test_w1_generic_fails(self, ctx13, rng):
        # theta*_1 != theta*_0 generically, so equation (1) fails at w_1
        found = False
        for _ in range(20):
            p5 = sample_quintuple(ctx13, rng)
            s = ref_seq(*p5.quadruple.astuple())
            if s.theta_star(0) == s.theta_star(1):
                continue
            rep = build_W(p5)
            w1 = basis_vec(ctx13, rep.n, 1)
            assert not check_verma_universal(rep, w1, p5.quadruple)
            found = True
            break
        assert found

    def test_delta_perturbation_fails(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        rep = build_W(p5)
        w0 = basis_vec(ctx13, rep.n, 0)
        bumped = Params5(p5.a, p5.b, p5.c, p5.lam, p5.delta + ctx13.one)
        assert not check_W_universal(rep, w0, bumped)

    def test_v0_universal(self, ctx13):
        a, b, c = ctx13.el(2), ctx13.el(3), ctx13.el(4)
        rep = build_Vn(a, b, c, 0)
        v = basis_vec(ctx13, 1, 0)
        assert check_verma_universal(rep, v, Params4(a, b, c, ctx13.one))

    def test_orbit_image_carries_generator(self, ctx13, rng):
        # an orbit-equivalent quintuple's module accepts the original
        # parameters at its own generator line
        from uawq import table1
        from uawq.classify import delta_shift

        for _ in range(5):
            p5 = sample_quintuple(ctx13, rng)
            shift = delta_shift(p5)
            # rows with and without the square-root factor
            for row in (table1.ROWS[1], table1.ROWS[2], table1.ROWS[16]):
                other = Params5(*ref_orbit_image(row, p5.quadruple.astuple(), shift))
                rep2 = build_W(other)
                w0 = basis_vec(ctx13, rep2.n, 0)
                assert check_W_universal(rep2, w0, p5)

    def test_zero_vector_rejected(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        rep = build_W(p5)
        z = FMat.zeros(ctx13, rep.n, 1)
        with pytest.raises(errors.ZeroVector):
            check_verma_universal(rep, z, p5.quadruple)


class TestMarginalVectorsDim2:
    def test_gcd_solver_matches_line_enumeration(self, ctx13):
        # brute-force oracle: test every line of a 2-dimensional weight space
        ctx = ctx13
        rng = random.Random(0)
        q2 = ctx.q * ctx.q
        hits = 0
        trials = 0
        while hits < 4 and trials < 6000:
            trials += 1
            p5 = sample_quintuple(ctx, rng)
            rep = build_W(p5)
            for mu, basis in weight_spaces(rep):
                if basis.ncols != 2:
                    continue
                hits += 1
                got = marginal_vectors(rep, mu)
                shift = FMat.scalar(ctx, rep.n, mu * q2 + mu.inv() / q2)
                m = (rep.B - shift) @ rep.A
                want = 0
                for t in ctx.elements():
                    v = basis.col(0) + basis.col(1) * t
                    if rank(hstack([v, m @ v])) <= 1:
                        want += 1
                v = basis.col(1)
                if rank(hstack([v, m @ v])) <= 1:
                    want += 1
                assert len(got) == want
                for v in got:
                    assert rank(hstack([v, m @ v])) <= 1
        assert hits >= 4


class TestHomToMarginalVector:
    def test_inv_a_branch_maps_to_basis_vector(self, ctx13, rng):
        # lam^2 = q^(2(i-1)) partner: a hom from the partner module sends its
        # generator to w_i, which is a marginal weight vector
        ctx = ctx13
        for i in range(1, ctx.dbar):
            lam_sq = ctx.qpow(2 * (i - 1))
            # need lam with lam^2 = q^(2(i-1)); scan the field
            lam = next(x for x in ctx.elements() if not x.is_zero() and x * x == lam_sq)
            a = ctx.el(2)
            b, c = ctx.el(5), ctx.el(6)
            delta = ctx.el(3)
            p5 = Params5(a, b, c, lam, delta)
            partner = Params5(a.inv(), b, c, lam.inv() * ctx.qpow(-2), delta)
            assert sim_related(p5, partner)
            rep = build_W(p5)
            wi = basis_vec(ctx, ctx.dbar, i)
            assert check_W_universal(rep, wi, partner)
            mu = partner.b / partner.lam
            assert is_marginal_weight(rep, mu)

    def test_inv_ab_branch_maps_to_bridge_vector(self, ctx13, rng):
        # branch (iii) partner: the generator lands on the full bridge vector
        ctx = ctx13
        dbar = ctx.dbar
        done = 0
        for _ in range(500):
            quad = sample_quadruple(ctx, rng)
            a, b, c, lam = quad.astuple()
            k, r = ref_inv_ab_terms(a, b, c, lam)
            if k.is_zero():
                continue
            p5 = Params5(a, b, c, lam, r / k)
            if not cond_inv_ab(p5):
                continue
            partner = Params5(a.inv(), b.inv(), c, lam.inv() * ctx.qpow(-2), p5.delta)
            assert sim_related(p5, partner)
            rep = build_W(p5)
            w_bridge = w_ij(p5, 0, dbar - 1)
            assert check_W_universal(rep, w_bridge, partner)
            mu = partner.b / partner.lam
            assert is_marginal_weight(rep, mu)
            done += 1
            if done >= 3:
                break
        assert done >= 3


class TestKrylovProperties:
    def test_marginal_vector_spans_irreducible(self, ctx13, rng):
        # the A-orbit of a marginal vector spans, and the shifted-products
        # annihilate the initial segments
        from uawq.linalg import krylov_span_dim

        ctx = ctx13
        done = 0
        while done < 5:
            p5 = sample_quintuple(ctx, rng)
            if not irr_W_criterion(p5):
                continue
            rep = build_W(p5)
            mu = p5.b / p5.lam
            vs = marginal_vectors(rep, mu)
            assert vs
            v = vs[0]
            assert krylov_span_dim(rep.A, v) == rep.n
            mui = mu.inv()
            vecs = [v]
            for i in range(1, rep.n + 1):
                vecs.append(rep.A @ vecs[-1])
            for i in range(rep.n + 1):
                prod = product_shifted(
                    rep.B,
                    [mu * ctx.qpow(2 * h) + mui * ctx.qpow(-2 * h) for h in range(i + 1)],
                )
                for k in range(i + 1):
                    assert (prod @ vecs[k]).is_zero()
            done += 1

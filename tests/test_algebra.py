import dataclasses
import random

import numpy as np
import pytest
from reference import ref_relations

from uawq import algebra
from uawq.algebra import (
    PairRep,
    central_elements_check,
    derive_C,
    stack_gens,
    vee,
    verify_rep,
    verify_rep_many,
)
from uawq.classify import sample_quintuple, sample_triple
from uawq.errors import DimensionMismatch
from uawq.field import ctx_new, index_of
from uawq.linalg import FMat, is_scalar_matrix
from uawq.modules import Params5, build_Vn, build_W


def one_by_one(ctx, theta, theta_star, omega, omega_star, omega_eps):
    return PairRep(
        ctx,
        FMat.from_entries(ctx, [[theta]]),
        FMat.from_entries(ctx, [[theta_star]]),
        omega,
        omega_star,
        omega_eps,
    )


class TestDeriveC:
    def test_scalar_rep(self, ctx13):
        # 1x1: q AB - q^-1 BA = (q - q^-1) theta theta*, so
        # C = (omega_eps - theta theta*) / (q + q^-1)
        ctx = ctx13
        th, ts, we = ctx.el(4), ctx.el(7), ctx.el(9)
        rep = one_by_one(ctx, th, ts, ctx.zero, ctx.zero, we)
        q = ctx.q
        want = (we - th * ts) / (q + q.inv())
        assert derive_C(rep).entry(0, 0) == want

    def test_deterministic(self, ctx13):
        p5 = Params5(*[ctx13.one] * 4, ctx13.zero)
        rep = build_W(p5)
        assert derive_C(rep) == derive_C(rep)

    def test_swap_reverses_commutator(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        rep = build_W(p5)
        ctx = ctx13
        q, qi = ctx.q, ctx.q.inv()
        denom = (q * q - qi * qi).inv()
        lead = FMat.scalar(ctx, rep.n, rep.omega_eps / (q + qi))
        swapped = derive_C(vee(rep))
        reversed_comm = lead - (rep.B @ rep.A * q - rep.A @ rep.B * qi) * denom
        assert swapped == reversed_comm


class TestAlphaBeta:
    def test_one_by_one_scalar_identity(self, ctx13):
        ctx = ctx13
        rep = build_Vn(ctx.el(2), ctx.el(3), ctx.el(4), 0)
        assert rep.n == 1
        assert algebra._side(rep, 0).entry(0, 0) == rep.omega
        assert algebra._side(rep, 1).entry(0, 0) == rep.omega_star

    def test_random_pair_not_scalar(self, ctx13):
        rng = random.Random(7)
        ctx = ctx13

        def rand3():
            return FMat.from_entries(
                ctx,
                [[ctx.from_index(rng.randrange(13 * 13)) for _ in range(3)] for _ in range(3)],
            )

        rep = PairRep(ctx, rand3(), rand3(), ctx.one, ctx.one, ctx.one)
        assert is_scalar_matrix(algebra._side(rep, 0)) is None
        assert not verify_rep(rep).ok


class TestVerifyRep:
    def test_built_reps_pass(self, ctx13, ctx37, rng):
        for ctx in (ctx13, ctx37):
            for _ in range(8):
                p5 = sample_quintuple(ctx, rng)
                report = verify_rep(build_W(p5))
                assert report.ok and not report.failures

    def test_perturbation_fails(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        rep = build_W(p5)
        broken = PairRep(
            ctx13,
            rep.A,
            rep.B + FMat.identity(ctx13, rep.n),
            rep.omega,
            rep.omega_star,
            rep.omega_eps,
        )
        report = verify_rep(broken)
        assert not report.ok
        assert report.failures

    def test_zero_dimensional_passes(self, ctx13):
        rep = PairRep(
            ctx13, FMat.zeros(ctx13, 0, 0), FMat.zeros(ctx13, 0, 0),
            ctx13.zero, ctx13.zero, ctx13.zero,
        )
        assert verify_rep(rep).ok

    def test_report_serializes(self, ctx13, rng):
        import json

        p5 = sample_quintuple(ctx13, rng)
        report = verify_rep(build_W(p5))
        blob = json.loads(json.dumps(report.to_json()))
        assert blob["alpha_ok"] and blob["beta_ok"] and blob["c_relation_ok"]
        assert blob["failures"] == []


def judged(ctx, reps):
    scalars = [index_of(rep.scalars()) for rep in reps]
    return verify_rep_many(ctx, stack_gens(reps), scalars).tolist()


def planted(reps, rng):
    """The modules with one of A, B, omega, omega_star and omega_eps perturbed
    at each of five drawn positions, and those positions.  A matrix changes
    on its diagonal: A's corner entry is W's free parameter delta."""
    ctx, n = reps[0].ctx, reps[0].n
    at = rng.sample(range(len(reps)), 5)
    out = list(reps)
    for k, name in zip(at, ("A", "B", "omega", "omega_star", "omega_eps")):
        old = getattr(out[k], name)
        if isinstance(old, FMat):
            unit = np.zeros((2, n, n), dtype=np.int64)
            i = rng.randrange(n)
            unit[rng.randrange(2), i, i] = 1
            new = old + FMat(ctx, unit)
        else:
            new = old + ctx.one
        out[k] = dataclasses.replace(out[k], **{name: new})
    return out, set(at)


class TestVerifyRepMany:
    @pytest.mark.parametrize("p, d, count", [(13, 3, 10), (37, 6, 10), (29, 28, 6)])
    def test_matches_the_reference(self, p, d, count, monkeypatch):
        # W, Vn at every n, and W and top-dimensional Vn with planted
        # perturbations: every verdict against the entrywise reference, the
        # failing cases exactly the planted ones, and each case as a batch of one
        ctx, rng = ctx_new(p, d), random.Random(100 * p + d)
        w = [build_W(sample_quintuple(ctx, rng)) for _ in range(count)]
        batches = [(w, set())] + [
            ([build_Vn(*sample_triple(ctx, rng), n) for _ in range(2)], set())
            for n in range(ctx.dbar - 1)]
        top = [build_Vn(*sample_triple(ctx, rng), ctx.dbar - 2) for _ in range(6)]
        batches += [planted(w, rng), planted(top, rng)]
        for reps, bad in batches:
            want = [list(ref_relations(rep)) for rep in reps]
            assert judged(ctx, reps) == want
            assert {k for k, verdicts in enumerate(want) if not all(verdicts)} == bad
            assert [list(verify_rep(rep)[:3]) for rep in reps] == want
        # in groups of two cases, as a batch too large for memory runs
        reps = batches[-2][0]
        monkeypatch.setattr(algebra, "LOCKSTEP_BYTES", 2 * 512 * ctx.dbar ** 2)
        assert judged(ctx, reps) == [list(ref_relations(rep)) for rep in reps]

    def test_empty_and_zero_dimensional_batches(self, ctx13):
        ctx = ctx13
        assert verify_rep_many(ctx, np.zeros((0, 2, 2, 3, 3), dtype=np.int64), []).shape == (0, 3)
        empty = FMat.zeros(ctx, 0, 0)
        reps = [PairRep(ctx, empty, empty, *map(ctx.from_index, (k, k + 5, k + 9)))
                for k in range(3)]
        assert judged(ctx, reps) == [list(ref_relations(rep)) for rep in reps] == [[True] * 3] * 3
        scalars = index_of(reps[0].scalars())
        with pytest.raises(DimensionMismatch):
            verify_rep_many(ctx, np.zeros((2, 2, 2, 3, 4), dtype=np.int64), [scalars] * 2)
        with pytest.raises(DimensionMismatch):
            verify_rep_many(ctx, np.zeros((2, 2, 2, 3, 3), dtype=np.int64), [scalars])


class TestVee:
    def test_involution(self, ctx13, rng):
        p5 = sample_quintuple(ctx13, rng)
        rep = build_W(p5)
        assert vee(vee(rep)) == rep

    def test_preserves_verification(self, ctx13, rng):
        for _ in range(6):
            p5 = sample_quintuple(ctx13, rng)
            rep = build_W(p5)
            assert verify_rep(vee(rep)).ok == verify_rep(rep).ok

    def test_one_by_one_swaps(self, ctx13):
        rep = build_Vn(ctx13.el(2), ctx13.el(3), ctx13.el(4), 0)
        swapped = vee(rep)
        assert swapped.A == rep.B and swapped.B == rep.A
        assert swapped.omega == rep.omega_star and swapped.omega_star == rep.omega


class TestCentralElements:
    def test_one_by_one_trivially_central(self, ctx13):
        rep = build_Vn(ctx13.el(2), ctx13.el(3), ctx13.el(4), 0)
        assert central_elements_check(rep, ctx13.el(5)).ok

    def test_zero_mu_rejected(self, ctx13):
        rep = build_Vn(ctx13.el(2), ctx13.el(3), ctx13.el(4), 0)
        with pytest.raises(ValueError):
            central_elements_check(rep, ctx13.zero)

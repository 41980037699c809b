"""The universal Askey-Wilson presentation as executable checks on matrix pairs.

A PairRep is a pair of square matrices (A, B) over F_{p^2} together with the
three scalars by which the central generators act.  The third generator C is
never stored; it is derived from A, B and the gamma scalar.  The relations
are one exact body on arrays of many modules (verify_rep_many), and
verify_rep and derive_C are batches of one of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .field import FieldCtx, Fq2, chebyshev_T, index_of, mul_parts
from .linalg import (
    LOCKSTEP_BYTES, FMat, check_int64, commutator, is_scalar_matrix, mat_poly_eval, product_shifted,
)


@dataclass(frozen=True)
class PairRep:
    """A concrete module: matrices for A and B plus the central scalars."""

    ctx: FieldCtx
    A: FMat
    B: FMat
    omega: Fq2
    omega_star: Fq2
    omega_eps: Fq2

    @property
    def n(self) -> int:
        return self.A.nrows

    def scalars(self) -> tuple[Fq2, Fq2, Fq2]:
        return self.omega, self.omega_star, self.omega_eps


class RepReport(NamedTuple):
    """Outcome of verify_rep; failures list mismatching entries."""

    alpha_ok: bool
    beta_ok: bool
    c_relation_ok: bool
    failures: list[tuple[int, int, Fq2, Fq2]]

    @property
    def ok(self) -> bool:
        return self.alpha_ok and self.beta_ok and self.c_relation_ok

    def to_json(self) -> dict:
        return {
            "alpha_ok": self.alpha_ok,
            "beta_ok": self.beta_ok,
            "c_relation_ok": self.c_relation_ok,
            "failures": [
                [r, c, exp.to_json(), got.to_json()] for r, c, exp, got in self.failures
            ],
        }


def stack_gens(reps) -> np.ndarray:
    """The generator array (cases, 2, 2, n, n) of some modules of one dimension:
    A then B, each as its two components, as ``modules.build_many`` writes it."""
    return np.array([(rep.A.arr, rep.B.arr) for rep in reps])


def gens_shape(gens: np.ndarray) -> tuple[int, int]:
    """Cases and n of a generator array (cases, 2, 2, n, n)."""
    if gens.ndim != 5 or gens.shape[1:3] != (2, 2) or gens.shape[3] != gens.shape[4]:
        raise DimensionMismatch(f"generator array of shape {gens.shape}, want (cases, 2, 2, n, n)")
    return len(gens), gens.shape[-1]


def _relations(ctx: FieldCtx, gens: np.ndarray, scalars):
    """Per module of a generator array, given a row of ``scalars``, the
    plain-lex indices of its (omega, omega_star, omega_eps): the components
    (2, cases, 5, n, n) of alpha, beta, the two C-relations of ``verify_rep``
    and C, and those (2, cases, 4, n, n) of the scalar matrices that the
    first four must equal.  A product sums n terms below (1+t)*p^2, checked
    to fit in int64 first."""
    p, t, n = ctx.p, ctx.t, gens.shape[-1]
    check_int64(max(n, 1) * (1 + t) * p * p, "relation products")
    sc = np.stack(np.divmod(np.reshape(scalars, (-1, 3)), p))  # components, cases, scalars
    q, qi = ctx.q, ctx.q.inv()
    q2, q2i = q * q, qi * qi
    d, h = (q2 - q2i).inv(), (q + qi).inv()

    def mm(x, y):
        return np.stack(mul_parts(*x, *y, p, t, np.matmul))

    def lin(*terms):
        """The sum of s x over the terms (s, x), s an Fq2 or per-case components (2, cases)."""
        acc = 0
        for s, x in terms:
            s = (s.x0, s.x1) if isinstance(s, Fq2) else s.reshape(s.shape + (1,) * (x.ndim - 2))
            acc = acc + np.stack(mul_parts(*x, *s, p, t))
        return acc % p

    x = np.moveaxis(gens % p, 2, 0)  # components, cases, then (A, B)
    y = x[:, :, ::-1]  # (B, A)
    xy = mm(x, y)  # (AB, BA)
    yx = xy[:, :, ::-1]
    eps = sc[..., 2]
    # alpha, beta: (Y^2 X - (q^2 + q^-2) Y X Y + X Y^2 + (q^2 - q^-2)^2 X
    #  + (q - q^-1)^2 omega_eps Y) / ((q - q^-1)(q^2 - q^-2)) at (X, Y) = (A, B), (B, A)
    k = ((q - qi) * (q2 - q2i)).inv()
    central = lin((k, mm(y, yx)), (-(q2 + q2i) * k, mm(yx, y)), (k, mm(xy, y)),
                  ((q2 - q2i) * (q2 - q2i) * k, x), (lin(((q - qi) * (q - qi) * k, eps)), y))
    # C = omega_eps/(q + q^-1) I - (q A B - q^-1 B A)/(q^2 - q^-2)
    eye = np.stack([np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64)])[:, None]
    c = lin((lin((h, eps)), eye), (-q * d, xy[:, :, 0]), (qi * d, xy[:, :, 1]))
    # the C-relations, from the products (AC, BC, CA, CB)
    cc = np.repeat(c[:, :, None], 2, 2)
    cg = mm(np.concatenate([x, cc], 2), np.concatenate([cc, x], 2))
    lhs = (x + lin((q * d, cg[:, :, [1, 2]]), (-qi * d, cg[:, :, [3, 0]]))) % p
    vals = np.concatenate([sc[..., :2], lin((h, sc[..., :2]))], 2)
    return np.concatenate([central, lhs, c[:, :, None]], 2), vals[..., None, None] * eye[0, 0]


def verify_rep_many(ctx: FieldCtx, gens: np.ndarray, scalars) -> np.ndarray:
    """The verdicts (alpha_ok, beta_ok, c_relation_ok) of ``verify_rep`` on each
    module of a generator array (cases, 2, 2, n, n), given the plain-lex indices
    (cases, 3) of its (omega, omega_star, omega_eps), as ``modules.build_many``
    returns both; a boolean array (cases, 3).  Large batches run in groups."""
    cases, n = gens_shape(gens)
    if len(scalars) != cases:
        raise DimensionMismatch(f"{len(scalars)} scalar triples for {cases} cases")
    # the body holds about 32 arrays of (2, n, n) int64 per case
    group = max(1, LOCKSTEP_BYTES // (512 * (n * n or 1)))
    out = np.zeros((cases, 3), dtype=bool)
    for k in range(0, cases, group):
        sides, want = _relations(ctx, gens[k:k + group], scalars[k:k + group])
        hit = (sides[:, :, :4] == want).all((0, 3, 4))
        out[k:k + group] = np.stack([hit[:, 0], hit[:, 1], hit[:, 2] & hit[:, 3]], 1)
    return out


def _side(rep: PairRep, k: int) -> FMat:
    """Side k of ``_relations`` on the one module of ``rep``."""
    sides = _relations(rep.ctx, stack_gens([rep]), [index_of(rep.scalars())])[0]
    return FMat(rep.ctx, sides[:, 0, k])


def derive_C(rep: PairRep) -> FMat:
    """C = omega_eps/(q + 1/q) * I - (q A B - 1/q B A)/(q^2 - 1/q^2)."""
    return _side(rep, 4)


def verify_rep(rep: PairRep) -> RepReport:
    """Check the defining relations exactly: a batch of one of ``verify_rep_many``
    that also lists every mismatching entry as (row, column, want, got).

    alpha_ok / beta_ok: the two recovered central matrices equal omega*I and
    omega_star*I.  c_relation_ok: with C derived, the two remaining relations
    hold, i.e. A + (qBC - q^-1 CB)/(q^2 - q^-2) = omega/(q+q^-1) * I and the
    B-analogue with omega_star.
    """
    ctx = rep.ctx
    sides = _relations(ctx, stack_gens([rep]), [index_of(rep.scalars())])
    got, want = (x[:, 0, :4] for x in sides)
    bad = (got != want).any(0)
    failures = [(i, j, Fq2(ctx, *want[:, s, i, j].tolist()), Fq2(ctx, *got[:, s, i, j].tolist()))
                for s, i, j in zip(*(k.tolist() for k in bad.nonzero()))]
    ok = (~bad.any((1, 2))).tolist()
    return RepReport(ok[0], ok[1], ok[2] and ok[3], failures)


def vee(rep: PairRep) -> PairRep:
    """The involutive twist swapping A with B and omega with omega_star."""
    return PairRep(
        ctx=rep.ctx,
        A=rep.B,
        B=rep.A,
        omega=rep.omega_star,
        omega_star=rep.omega,
        omega_eps=rep.omega_eps,
    )


class CentralReport(NamedTuple):
    chebyshev_central: bool
    shifted_product_central: bool

    @property
    def ok(self) -> bool:
        return self.chebyshev_central and self.shifted_product_central


def central_elements_check(rep: PairRep, mu: Fq2) -> CentralReport:
    """Centrality of T_dbar at the generators and of the mu-shifted products.

    T_dbar(A), T_dbar(B), T_dbar(C) must commute with A, B and C; the
    products prod_i (A - mu q^{2i} - mu^{-1} q^{-2i}) and the B-analogue must
    commute with B resp. A.
    """
    ctx = rep.ctx
    if mu.is_zero():
        raise ValueError("mu must be nonzero")
    C = derive_C(rep)
    gens = (rep.A, rep.B, C)
    tcoeffs = chebyshev_T(ctx, ctx.dbar)
    cheb_ok = all(
        commutator(mat_poly_eval(tcoeffs, g), h).is_zero() for g in gens for h in gens
    )
    mui = mu.inv()
    shifts = [mu * ctx.qpow(2 * i) + mui * ctx.qpow(-2 * i) for i in range(ctx.dbar)]
    prod_a = product_shifted(rep.A, shifts)
    prod_b = product_shifted(rep.B, shifts)
    prod_ok = commutator(prod_a, rep.B).is_zero() and commutator(prod_b, rep.A).is_zero()
    return CentralReport(cheb_ok, prod_ok)


__all__ = [
    "PairRep",
    "RepReport",
    "CentralReport",
    "derive_C",
    "verify_rep",
    "verify_rep_many",
    "gens_shape",
    "stack_gens",
    "vee",
    "central_elements_check",
    "is_scalar_matrix",
]

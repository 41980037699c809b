"""The universal Askey-Wilson presentation as executable checks on matrix pairs.

A PairRep is a pair of square matrices (A, B) over F_{p^2} together with the
three scalars by which the central generators act.  The third generator C is
never stored; it is derived from A, B and the gamma scalar.  verify_rep
checks the defining relations exactly (no tolerances anywhere).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .field import FieldCtx, Fq2, chebyshev_T
from .linalg import FMat, commutator, is_scalar_matrix, mat_poly_eval, product_shifted


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


def derive_C(rep: PairRep) -> FMat:
    """C = omega_eps/(q + 1/q) * I - (q A B - 1/q B A)/(q^2 - 1/q^2)."""
    ctx = rep.ctx
    q = ctx.q
    qi = q.inv()
    n = rep.n
    lead = FMat.scalar(ctx, n, rep.omega_eps / (q + qi))
    comm = rep.A @ rep.B * q - rep.B @ rep.A * qi
    return lead - comm * (q * q - qi * qi).inv()


def alpha_matrix(rep: PairRep) -> FMat:
    """Matrix of the first central generator recovered from A, B and gamma."""
    return _ab_central(rep, rep.A, rep.B)


def beta_matrix(rep: PairRep) -> FMat:
    """Matrix of the second central generator; the A <-> B mirror of alpha."""
    return _ab_central(rep, rep.B, rep.A)


def _ab_central(rep: PairRep, X: FMat, Y: FMat) -> FMat:
    # (Y^2 X - (q^2 + q^-2) Y X Y + X Y^2 + (q^2 - q^-2)^2 X
    #  + (q - q^-1)^2 Y * gamma) / ((q - q^-1)(q^2 - q^-2))
    ctx = rep.ctx
    q = ctx.q
    qi = q.inv()
    q2, q2i = q * q, qi * qi
    num = (
        Y @ Y @ X
        - Y @ X @ Y * (q2 + q2i)
        + X @ Y @ Y
        + X * ((q2 - q2i) * (q2 - q2i))
        + Y * ((q - qi) * (q - qi) * rep.omega_eps)
    )
    return num * ((q - qi) * (q2 - q2i)).inv()


def verify_rep(rep: PairRep) -> RepReport:
    """Check the defining relations exactly.

    alpha_ok / beta_ok: the two recovered central matrices equal omega*I and
    omega_star*I.  c_relation_ok: with C derived, the two remaining relations
    hold, i.e. A + (qBC - q^-1 CB)/(q^2 - q^-2) = omega/(q+q^-1) * I and the
    B-analogue with omega_star.
    """
    ctx = rep.ctx
    n = rep.n
    failures: list[tuple[int, int, Fq2, Fq2]] = []

    def compare(got: FMat, want: FMat) -> bool:
        if got == want:
            return True
        diff = (got.arr != want.arr).any(axis=-1)
        for i, j in zip(*diff.nonzero()):
            failures.append((int(i), int(j), want.entry(i, j), got.entry(i, j)))
        return False

    alpha_ok = compare(alpha_matrix(rep), FMat.scalar(ctx, n, rep.omega))
    beta_ok = compare(beta_matrix(rep), FMat.scalar(ctx, n, rep.omega_star))

    q = ctx.q
    qi = q.inv()
    denom = (q * q - qi * qi).inv()
    C = derive_C(rep)
    lhs_a = rep.A + (rep.B @ C * q - C @ rep.B * qi) * denom
    lhs_b = rep.B + (C @ rep.A * q - rep.A @ C * qi) * denom
    ok_a = compare(lhs_a, FMat.scalar(ctx, n, rep.omega / (q + qi)))
    ok_b = compare(lhs_b, FMat.scalar(ctx, n, rep.omega_star / (q + qi)))
    return RepReport(alpha_ok, beta_ok, ok_a and ok_b, failures)


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

    def to_json(self) -> dict:
        return {
            "chebyshev_central": self.chebyshev_central,
            "shifted_product_central": self.shifted_product_central,
        }


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
    "alpha_matrix",
    "beta_matrix",
    "verify_rep",
    "vee",
    "central_elements_check",
    "is_scalar_matrix",
]

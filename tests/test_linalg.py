import random

import numpy as np
import pytest
from reference import ref_kernel, ref_rref

from uawq.errors import DimensionMismatch, InvariantViolation
from uawq.field import ctx_new, poly_from_roots
from uawq.linalg import (
    FMat,
    char_poly,
    commutator,
    hstack,
    is_scalar_matrix,
    kernel,
    kron,
    krylov_span_dim,
    mat_poly_eval,
    pivot_step,
    product_shifted,
    rank,
    rref,
)


def rand_mat(ctx, rng, r, c):
    return FMat.from_entries(
        ctx, [[ctx.from_index(rng.randrange(ctx.p ** 2)) for _ in range(c)] for _ in range(r)]
    )


def test_identity_and_scalar(ctx13):
    i3 = FMat.identity(ctx13, 3)
    s = FMat.scalar(ctx13, 3, ctx13.el(5))
    assert i3 * ctx13.el(5) == s
    assert is_scalar_matrix(s) == ctx13.el(5)
    assert is_scalar_matrix(i3) == ctx13.one


def test_matmul_agrees_with_schoolbook(ctx13, rng):
    for _ in range(10):
        a = rand_mat(ctx13, rng, 3, 4)
        b = rand_mat(ctx13, rng, 4, 2)
        c = a @ b
        for i in range(3):
            for j in range(2):
                acc = ctx13.zero
                for k in range(4):
                    acc = acc + a.entry(i, k) * b.entry(k, j)
                assert c.entry(i, j) == acc


def test_views_are_stored_c_contiguous(ctx13, rng):
    # transposes, reversed columns and column slices are strided views of
    # their source; the matrix keeps its entries in row-major order
    m = rand_mat(ctx13, rng, 3, 4)
    for view, want in ((m.transpose(), m.arr.transpose(0, 2, 1)),
                       (FMat(ctx13, m.arr[..., ::-1]), m.arr[..., ::-1]),
                       (m.col(2), m.arr[..., 2:3])):
        assert view.arr.flags.c_contiguous
        assert np.array_equal(view.arr, want)


def test_shape_guard(ctx13):
    for bad in (np.zeros((3, 3, 2), dtype=np.int64), np.zeros((2, 2), dtype=np.int64)):
        with pytest.raises(InvariantViolation, match=r"want \(2, rows, cols\)"):
            FMat(ctx13, bad)


def test_matmul_shape_guard(ctx13, rng):
    with pytest.raises(DimensionMismatch):
        rand_mat(ctx13, rng, 2, 3) @ rand_mat(ctx13, rng, 2, 3)


def test_rref_idempotent_and_pivots(ctx13, rng):
    for _ in range(20):
        m = rand_mat(ctx13, rng, rng.randrange(1, 6), rng.randrange(1, 6))
        red, piv = rref(m)
        again, piv2 = rref(red)
        assert again == red and piv2 == piv
        for r, c in enumerate(piv):
            assert red.entry(r, c) == ctx13.one
            for r2 in range(red.nrows):
                if r2 != r:
                    assert red.entry(r2, c).is_zero()


def test_batched_pivot_step_is_the_2d_step_per_case(ctx13):
    # six cases on a leading axis, case 2 with a zero row and so no pivot
    p, t = ctx13.p, ctx13.t
    rng = np.random.default_rng(11)
    cases, rows, cols = 6, 5, 8
    b = rng.integers(0, p, (cases, rows, cols, 2))
    b[rng.random((cases, rows)) < 0.4] = 0
    j = rng.integers(1, cols, cases)
    v = rng.integers(0, p, (cases, cols, 2))
    v[np.arange(cols) < j[:, None]] = 0
    v[np.arange(cases), j, 0] = rng.integers(1, p, cases)
    v[2], j[2] = 0, 0
    b0, b1 = b[..., 0].copy(), b[..., 1].copy()
    w0, w1 = pivot_step(b0, b1, v[..., 0], v[..., 1], j, p, t)
    lo = cols - w0.shape[1]
    assert lo == min(j[k] for k in range(cases) if k != 2)
    assert not (w0[2].any() or w1[2].any())
    assert (b0[2] == b[2, ..., 0]).all() and (b1[2] == b[2, ..., 1]).all()
    for k in set(range(cases)) - {2}:
        c0, c1 = b[k, ..., 0].copy(), b[k, ..., 1].copy()
        u0, u1 = pivot_step(c0, c1, v[k, :, 0], v[k, :, 1], int(j[k]), p, t)
        assert (b0[k] == c0).all() and (b1[k] == c1).all()
        assert not (c0[:, j[k]].any() or c1[:, j[k]].any())
        assert not (w0[k, :j[k] - lo].any() or w1[k, :j[k] - lo].any())
        assert (w0[k, j[k] - lo:] == u0).all() and (w1[k, j[k] - lo:] == u1).all()
        assert (u0[0], u1[0]) == (1, 0)


def test_kernel_annihilates(ctx13, rng):
    for _ in range(20):
        m = rand_mat(ctx13, rng, rng.randrange(1, 6), rng.randrange(1, 6))
        k = kernel(m)
        assert (m @ k).is_zero()
        assert rank(m) + k.ncols == m.ncols
        if k.ncols:
            assert rank(k) == k.ncols


def test_char_poly_matches_eigen_structure(ctx13, rng):
    # triangular matrices: char poly is the product over the diagonal
    for _ in range(10):
        n = rng.randrange(1, 6)
        rows = [[ctx13.zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = ctx13.from_index(rng.randrange(13 * 13))
        m = FMat.from_entries(ctx13, rows)
        want = poly_from_roots(ctx13, [rows[i][i] for i in range(n)])
        assert char_poly(m) == want


def test_char_poly_cayley_hamilton(ctx13, rng):
    for _ in range(10):
        n = rng.randrange(1, 6)
        m = rand_mat(ctx13, rng, n, n)
        cp = char_poly(m)
        assert len(cp) == n + 1 and cp[-1] == ctx13.one
        assert mat_poly_eval(cp, m).is_zero()


def test_char_poly_similarity_invariant(ctx13, rng):
    # conjugating by an invertible matrix keeps the characteristic polynomial
    for _ in range(10):
        n = 4
        m = rand_mat(ctx13, rng, n, n)
        while True:
            s = rand_mat(ctx13, rng, n, n)
            if rank(s) == n:
                break
        si = _inverse(s)
        assert char_poly(s @ m @ si) == char_poly(m)


def _inverse(m):
    ctx = m.ctx
    n = m.nrows
    red, piv = rref(hstack([m, FMat.identity(ctx, n)]))
    assert piv == tuple(range(n)), "matrix not invertible"
    return FMat(ctx, red.arr[..., n:])


def test_kron_mixed_product(ctx13, rng):
    a = rand_mat(ctx13, rng, 2, 2)
    b = rand_mat(ctx13, rng, 3, 3)
    c = rand_mat(ctx13, rng, 2, 2)
    d = rand_mat(ctx13, rng, 3, 3)
    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def test_stacking(ctx13, rng):
    a = rand_mat(ctx13, rng, 2, 3)
    b = rand_mat(ctx13, rng, 2, 3)
    assert hstack([a, b]).shape == (2, 6)
    assert [hstack([a, b]).col(k) for k in range(6)] == [m.col(k) for m in (a, b) for k in range(3)]


def test_product_shifted_is_poly_eval(ctx13, rng):
    m = rand_mat(ctx13, rng, 4, 4)
    shifts = [ctx13.el(2), ctx13.el(5), ctx13.el(0, 3)]
    prod = product_shifted(m, shifts)
    coeffs = poly_from_roots(ctx13, shifts)
    assert prod == mat_poly_eval(coeffs, m)


def test_commutator_and_krylov(ctx13, rng):
    m = rand_mat(ctx13, rng, 3, 3)
    assert commutator(m, m).is_zero()
    v = rand_mat(ctx13, rng, 3, 1)
    assert 0 <= krylov_span_dim(m, v) <= 3


def sparse_mat(ctx, rng, r, c, density):
    return FMat.from_entries(ctx, [
        [ctx.from_index(rng.randrange(1, ctx.p ** 2)) if rng.random() < density else ctx.zero
         for _ in range(c)] for _ in range(r)])


def shaped_cases(ctx, rng):
    for _ in range(3):
        yield "tall", rand_mat(ctx, rng, 9, 4)
        yield "wide", rand_mat(ctx, rng, 4, 9)
        yield "square", rand_mat(ctx, rng, 6, 6)
        yield "one row", rand_mat(ctx, rng, 1, 6)
        yield "one column", rand_mat(ctx, rng, 6, 1)
        yield "sparse", sparse_mat(ctx, rng, 10, 8, 0.25)
        k = rng.randrange(1, 4)
        yield "rank-deficient", rand_mat(ctx, rng, 7, k) @ rand_mat(ctx, rng, k, 8)
    yield "zero", FMat.zeros(ctx, 5, 7)


@pytest.mark.parametrize("p,d", [(3, 8), (13, 3), (29, 28)])
def test_rref_rank_kernel_match_full_sweep(p, d):
    ctx = ctx_new(p, d)
    for name, m in shaped_cases(ctx, random.Random(p)):
        before = m.arr.copy()
        red, piv = rref(m)
        want_red, want_piv = ref_rref(m)
        assert (red, piv) == (want_red, want_piv), name
        assert rank(m) == len(want_piv), name
        k = kernel(m)
        assert k == ref_kernel(m), name
        assert (m @ k).is_zero(), name
        assert k.ncols == m.ncols - len(piv), name
        assert np.array_equal(m.arr, before), name


@pytest.mark.parametrize("p,d", [(13, 3), (97, 8)])
def test_internal_products_are_reduced_entrywise_products(p, d):
    # @, scalar *, kron and rref wrap their components without reducing them
    # a second time: every entry lies in [0, p) of a read-only int64 array,
    # and equals the entry-by-entry Fq2 product (for rref, the full sweep);
    # an array from outside is still reduced
    ctx, rng = ctx_new(p, d), random.Random(p)
    for _ in range(4):
        a, b = rand_mat(ctx, rng, 3, 4), rand_mat(ctx, rng, 4, 2)
        s = ctx.from_index(rng.randrange(p * p))
        cases = [
            (a @ b, [[sum((a.entry(i, k) * b.entry(k, j) for k in range(4)), ctx.zero)
                      for j in range(2)] for i in range(3)]),
            (a * s, [[a.entry(i, j) * s for j in range(4)] for i in range(3)]),
            (kron(a, b), [[a.entry(i // 4, j // 2) * b.entry(i % 4, j % 2) for j in range(8)]
                          for i in range(12)]),
            (rref(a)[0], ref_rref(a)[0]),
        ]
        for got, want in cases:
            assert got.arr.dtype == np.int64 and not got.arr.flags.writeable
            assert 0 <= got.arr.min() and got.arr.max() < p
            assert got == (want if isinstance(want, FMat) else FMat.from_entries(ctx, want))
    outside = np.array([[[p + 3]], [[-1]]])
    assert FMat(ctx, outside).to_json() == [[[3, p - 1]]]

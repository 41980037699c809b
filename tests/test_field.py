import pickle
import random

import numpy as np
import pytest
from conftest import force_nu
from reference import euler_is_square, least_roots, ref_apply_row, ref_pow, ref_roots

from uawq import errors, table1
from uawq.modules import Params4
from uawq.field import (
    FieldCtx,
    chebyshev_T,
    ctx_new,
    is_square,
    mul_parts,
    poly_eval,
    poly_eval_many,
    poly_from_roots,
    poly_gcd,
    poly_mul,
    poly_roots,
    poly_roots_many,
    quadratic_roots,
    sqrt,
)
from uawq.modules import delta_shift, nu_of
from uawq.classify import sample_quadruple, simeq_closure


def brute_order(x, cap):
    acc = x
    for k in range(1, cap + 1):
        if acc == x.ctx.one:
            return k
        acc = acc * x
    return None


class TestCtxNew:
    def test_13_3(self, ctx13):
        # oracle: exhaustive order scan over F_13 finds 3 as least of order 3
        least = None
        for v in range(2, 13):
            if pow(v, 3, 13) == 1 and pow(v, 1, 13) != 1:
                least = v
                break
        assert least == 3
        assert ctx13.q == ctx13.el(3)
        assert ctx13.dbar == 3

    def test_q_has_exact_order(self, ctx13):
        assert brute_order(ctx13.q, 13 ** 2) == 3

    def test_excluded_d(self):
        with pytest.raises(errors.DExcluded):
            ctx_new(13, 4)

    def test_unavailable_d(self):
        # 13^2 - 1 = 168 and 168 mod 5 = 3
        assert (13 ** 2 - 1) % 5 == 3
        with pytest.raises(errors.DOrderUnavailable):
            ctx_new(13, 5)

    def test_not_prime(self):
        with pytest.raises(errors.NotPrime):
            ctx_new(15, 3)
        with pytest.raises(errors.NotPrime):
            ctx_new(2, 3)

    def test_even_d_halves(self, ctx13d6):
        assert ctx13d6.dbar == 3 and ctx_new(97, 8).dbar == 4
        assert brute_order(ctx13d6.q, 13 ** 2) == 6
        q2 = ctx13d6.q * ctx13d6.q
        assert brute_order(q2, 13 ** 2) == 3

    def test_d_dividing_via_extension(self):
        # 7 divides 13^2-1 but not 13-1, so q must leave the prime field
        ctx = ctx_new(13, 7)
        assert ctx.q.x1 != 0
        assert brute_order(ctx.q, 13 ** 2) == 7


class TestInverse:
    def test_identity(self, ctx13):
        assert ctx13.one.inv() == ctx13.one

    def test_two(self, ctx13):
        assert ctx13.el(2).inv() == ctx13.el(7)  # 2 * 7 = 14 = 1 mod 13

    def test_zero_raises(self, ctx13):
        with pytest.raises(errors.DivisionByZero):
            ctx13.zero.inv()

    def test_involution_everywhere(self, ctx13):
        for x in ctx13.elements():
            if x.is_zero():
                continue
            assert x.inv().inv() == x
            assert x * x.inv() == ctx13.one

    def test_pow_negative(self, ctx13):
        x = ctx13.el(5, 7)
        assert x ** -3 == (x ** 3).inv()
        assert x ** 0 == ctx13.one


class TestSqrt:
    def test_four(self, ctx13):
        assert sqrt(ctx13.el(4)) == ctx13.el(2)  # canonical: 2 < 11

    def test_three(self, ctx13):
        # oracle: scan of squares mod 13; 4^2 = 16 = 3
        roots = [v for v in range(13) if (v * v) % 13 == 3]
        assert min(roots) == 4
        assert sqrt(ctx13.el(3)) == ctx13.el(4)

    def test_adjoined_nonresidue(self, ctx13):
        assert sqrt(ctx13.el(ctx13.t)) == ctx13.el(0, 1)

    def test_zero(self, ctx13):
        assert sqrt(ctx13.zero) == ctx13.zero

    def test_every_square_roundtrips(self, ctx13):
        seen = set()
        for x in ctx13.elements():
            sq = x * x
            key = sq.key
            if key in seen:
                continue
            seen.add(key)
            r = sqrt(sq)
            assert r * r == sq
            assert r == sqrt(sq)  # deterministic on repeat
            assert r.key <= (-r).key

    def test_nonsquare_raises(self, ctx13):
        nonsquares = [x for x in ctx13.elements() if not x.is_zero() and not is_square(x)]
        assert len(nonsquares) == (13 ** 2 - 1) // 2
        with pytest.raises(errors.NotASquare):
            sqrt(nonsquares[0])

    def test_base_field_elements_are_squares_in_extension(self, ctx13):
        # x^((p^2-1)/2) = (x^(p-1))^((p+1)/2) = 1 for nonzero x in F_p
        for v in range(1, 13):
            assert is_square(ctx13.el(v))


class TestPolyRoots:
    def test_x2_minus_1(self, ctx13):
        f = [ctx13.el(-1), ctx13.zero, ctx13.one]
        assert poly_roots(ctx13, f) == [ctx13.one, ctx13.el(12)]

    def test_x2_minus_t(self, ctx13):
        f = [ctx13.el(-ctx13.t), ctx13.zero, ctx13.one]
        assert poly_roots(ctx13, f) == [ctx13.el(0, 1), ctx13.el(0, 12)]

    def test_double_root(self, ctx13):
        f = poly_from_roots(ctx13, [ctx13.el(3), ctx13.el(3)])
        assert poly_roots(ctx13, f) == [ctx13.el(3)]

    def test_zero_poly_raises(self, ctx13):
        with pytest.raises(errors.ZeroPolynomial):
            poly_roots(ctx13, [ctx13.zero, ctx13.zero])

    def test_rootless_factor_degree(self, ctx13, rng):
        # each root is a zero of f, and the product of x - r over the roots
        # divides f
        for _ in range(20):
            coeffs = [ctx13.from_index(rng.randrange(13 * 13)) for _ in range(5)]
            coeffs.append(ctx13.one)
            roots = poly_roots(ctx13, coeffs)
            linear = poly_from_roots(ctx13, roots)
            assert poly_gcd(coeffs, linear) == linear
            for r in roots:
                assert poly_eval(coeffs, r).is_zero()

    @pytest.mark.parametrize("p,d", [(13, 3), (29, 28)])
    def test_matches_reference(self, p, d):
        ctx, rng = ctx_new(p, d), random.Random(p * 100 + d)

        def draw(low=0):
            return ctx.from_index(rng.randrange(low, p * p))

        for _ in range(12):
            # 1-4 linear factors drawn with repeats, times a cofactor of degree 0-2
            pool = [draw(), draw()]
            roots = [rng.choice(pool) for _ in range(rng.randrange(1, 5))]
            cofactor = [draw() for _ in range(rng.randrange(3))] + [draw(1)]
            f = poly_mul(poly_from_roots(ctx, roots), cofactor)
            assert poly_roots(ctx, f) == ref_roots(ctx, f)
            for s in pool:  # a (x - r)^2, where b^2 = 4ac, and a (x - r)(x - s)
                quad = poly_mul([draw(1)], poly_from_roots(ctx, [pool[0], s]))
                assert quadratic_roots(*reversed(quad)) == ref_roots(ctx, quad)

    def test_batch_matches_one_at_a_time(self, ctx13, rng):
        # degrees 1-6 padded with zero leading coefficients to one width, some
        # with repeated roots
        polys = [poly_from_roots(ctx13, [ctx13.from_index(rng.randrange(169)) for _ in range(k)])
                 for k in (1, 2, 3, 6)]
        polys += [[ctx13.from_index(rng.randrange(169)) for _ in range(k)] + [ctx13.one]
                  for k in (2, 4, 6)]
        width = max(map(len, polys))
        coeffs = np.array([[[x.x0 for x in f] + [0] * (width - len(f)) for f in polys],
                           [[x.x1 for x in f] + [0] * (width - len(f)) for f in polys]])
        poly, roots = poly_roots_many(ctx13, coeffs)
        assert [ctx13.from_index(k) for k in roots.tolist()] == [
            r for f in polys for r in poly_roots(ctx13, f)]
        assert poly.tolist() == [k for k, f in enumerate(polys) for _ in poly_roots(ctx13, f)]
        assert [len(x) for x in poly_roots_many(ctx13, coeffs[:, :0])] == [0, 0]
        # the values at shared points (2, k) and at one point per polynomial (2, polys, 1)
        xs = [ctx13.from_index(rng.randrange(169)) for _ in polys]
        shared = np.array([[x.x0 for x in xs], [x.x1 for x in xs]])
        at_all = poly_eval_many(ctx13, coeffs, shared)
        at_one = poly_eval_many(ctx13, coeffs, shared[:, :, None])
        for k, f in enumerate(polys):
            assert [ctx13.el(*v) for v in zip(*(c[k].tolist() for c in at_all))] == [
                poly_eval(f, x) for x in xs]
            assert ctx13.el(*(int(c[k, 0]) for c in at_one)) == poly_eval(f, xs[k])

    def test_quadratic_matches_scan(self, ctx13, rng):
        for _ in range(30):
            b = ctx13.from_index(rng.randrange(13 * 13))
            c = ctx13.from_index(rng.randrange(13 * 13))
            f = [c, b, ctx13.one]
            assert quadratic_roots(ctx13.one, b, c) == poly_roots(ctx13, f)


class TestChebyshev:
    def test_t0(self, ctx13):
        assert chebyshev_T(ctx13, 0) == [ctx13.el(2)]

    def test_t1(self, ctx13):
        assert chebyshev_T(ctx13, 1) == [ctx13.zero, ctx13.one]

    def test_t2(self, ctx13):
        assert chebyshev_T(ctx13, 2) == [ctx13.el(-2), ctx13.zero, ctx13.one]

    def test_defining_identity(self, ctx13, rng):
        pts = [ctx13.from_index(rng.randrange(1, 13 * 13)) for _ in range(64)]
        for n in range(2 * ctx13.dbar + 1):
            coeffs = chebyshev_T(ctx13, n)
            if n >= 1:
                assert len(coeffs) == n + 1
            for x in pts:
                assert poly_eval(coeffs, x + x.inv()) == x ** n + x ** (-n)

    def test_product_form_at_dbar(self, ctx13, rng):
        # T_dbar(x) = prod_i (x - mu q^2i - mu^-1 q^-2i) + mu^dbar + mu^-dbar
        ctx = ctx13
        coeffs = chebyshev_T(ctx, ctx.dbar)
        for _ in range(12):
            mu = ctx.from_index(rng.randrange(1, 13 * 13))
            prod = poly_from_roots(
                ctx,
                [mu * ctx.qpow(2 * i) + mu.inv() * ctx.qpow(-2 * i) for i in range(ctx.dbar)],
            )
            shift = mu ** ctx.dbar + mu ** (-ctx.dbar)
            want = list(prod)
            want[0] = want[0] + shift
            assert coeffs == want


class TestPolyHelpers:
    def test_gcd_of_shared_root(self, ctx13):
        a, b, c = ctx13.el(2), ctx13.el(5), ctx13.el(7)
        f = poly_from_roots(ctx13, [a, b])
        g = poly_from_roots(ctx13, [a, c])
        assert poly_gcd(f, g) == poly_from_roots(ctx13, [a])

    def test_mul_degree(self, ctx13):
        f = poly_from_roots(ctx13, [ctx13.el(2)] * 3)
        g = poly_from_roots(ctx13, [ctx13.el(5)] * 2)
        assert len(poly_mul(f, g)) == 6


@pytest.mark.parametrize("p,d", [(13, 3), (61, 62), (97, 8)])
@pytest.mark.parametrize("op", [np.multiply, np.matmul, np.kron])
def test_mul_parts_matches_fq2_product(p, d, op):
    # (97, 8) has the largest (1+t)*p^2 of the fields the tests use, and
    # (61, 62) is the largest field of the README's scale table; each array
    # holds the entry (p-1, p-1), which reaches the bound of every product
    ctx = ctx_new(p, d)
    rng = np.random.default_rng(p * 100 + d)
    x = rng.integers(0, p, (3, 4, 2))
    y = rng.integers(0, p, (4, 3, 2) if op is np.matmul else (3, 4, 2))
    z = rng.integers(0, p, (3, 3, 2) if op is np.matmul else op(x[..., 0], y[..., 0]).shape + (2,))
    x[0, 0] = y[0, 0] = z[0, 0] = p - 1
    xs, ys = ([[ctx.from_json(e) for e in row] for row in a.tolist()] for a in (x, y))
    if op is np.multiply:
        want = [[a * b for a, b in zip(r, s)] for r, s in zip(xs, ys)]
    elif op is np.matmul:
        want = [[sum((xs[i][k] * ys[k][j] for k in range(4)), ctx.zero) for j in range(3)]
                for i in range(3)]
    else:
        want = [[xs[i][j] * ys[k][m] for j in range(4) for m in range(4)]
                for i in range(3) for k in range(3)]
    got = mul_parts(x[..., 0], x[..., 1], y[..., 0], y[..., 1], p, ctx.t, op)
    assert np.stack(got, axis=-1).tolist() == [[w.to_json() for w in row] for row in want]
    got = mul_parts(x[..., 0], x[..., 1], y[..., 0], y[..., 1], p, ctx.t, op,
                    subtract_from=(z[..., 0], z[..., 1]))
    assert np.stack(got, axis=-1).tolist() == [
        [(ctx.from_json(c) - w).to_json() for c, w in zip(r, s)] for r, s in zip(z.tolist(), want)]


def test_serialization_roundtrip(ctx13):
    x = ctx13.el(5, 11)
    assert x.to_json() == [5, 11]
    assert ctx13.from_json([5, 11]) == x


def test_context_pickles(ctx13):
    ctx2 = pickle.loads(pickle.dumps(ctx13))
    assert ctx2 == ctx13
    assert ctx2.q == ctx2.el(3)


# ---------------------------------------------------------------------------
# the discrete-log core against references that use no tables

LOG_CORE_FIELDS = [(3, 8), (5, 3), (7, 3), (13, 3), (29, 28)]


@pytest.mark.parametrize("p,d", LOG_CORE_FIELDS)
class TestLogCore:
    def test_pow_every_element(self, p, d):
        ctx = ctx_new(p, d)
        n = p * p - 1
        for x in ctx.elements():
            for e in (-n - 1, -ctx.dbar, -1, 0, 1, 2, ctx.dbar, n, n + 1):
                if x.is_zero() and e < 0:
                    with pytest.raises(errors.DivisionByZero):
                        x ** e
                    continue
                r = x ** e
                assert r == ref_pow(x, e), (x, e)
                assert r.ctx is ctx

    def test_is_square_is_euler(self, p, d):
        ctx = ctx_new(p, d)
        for x in ctx.elements():
            assert is_square(x) == euler_is_square(x), x

    def test_sqrt_is_least_root(self, p, d):
        ctx = ctx_new(p, d)
        roots = least_roots(ctx)
        for x in ctx.elements():
            if x.key in roots:
                r = sqrt(x)
                assert r == roots[x.key] and r.ctx is ctx, x
            else:
                with pytest.raises(errors.NotASquare):
                    sqrt(x)

    def test_apply_row_matches_powers(self, p, d):
        ctx = ctx_new(p, d)
        rng = random.Random(p * 100 + d)
        outcomes = set()
        for _ in range(12):
            quad = tuple(ctx.from_index(rng.randrange(1, p * p)) for _ in range(4))
            for row in table1.ROWS:
                try:
                    want = ref_apply_row(row, quad)
                except errors.NeedsExtension as exc:
                    with pytest.raises(errors.NeedsExtension) as got:
                        table1.apply_row(row, quad)
                    assert str(got.value) == str(exc)
                    outcomes.add("extension")
                    continue
                got = table1.apply_row(row, quad)
                assert got == want, (row[0], quad)
                assert all(x.ctx is ctx for x in got)
                outcomes.add("value")
        assert outcomes == {"extension", "value"}


def test_contexts_sharing_tables_keep_their_own_ctx(ctx13, ctx13d6):
    # (13, 3) and (13, 6) share p and t, hence the log tables, read-only
    assert ctx13.log_tables() is ctx13d6.log_tables()
    assert not any(table.flags.writeable for table in ctx13.log_tables())
    for ctx in (ctx13, ctx13d6):
        x = ctx.el(5, 7)
        quad = Params4(ctx.el(2), ctx.el(3, 1), x, ctx.el(1, 4))
        results = [x ** 5, x ** -2, sqrt(x * x), nu_of(force_nu(quad, x)).nu]
        for row in table1.ROWS:
            try:
                results += table1.apply_row(row, quad.astuple())
            except errors.NeedsExtension:
                pass
        assert len(results) > 4
        assert all(r.ctx is ctx for r in results)


def test_field_elements_hold_python_ints(ctx13):
    # The log tables are numpy arrays; no numpy integer read off them may
    # reach an Fq2, on any path that builds one from a lookup.
    x = ctx13.el(5, 7)
    # a sampled quadruple has every orbit row in the field
    p5 = force_nu(sample_quadruple(ctx13, random.Random(3)), x)
    results = [x ** 5, x ** -7, x ** 2 ** 70, sqrt(x * x), nu_of(p5).nu, delta_shift(p5),
               ctx13.from_index(np.int64(100))]
    for row in table1.ROWS:
        results += table1.apply_row(row, p5.quadruple.astuple())
    results += [y for member in simeq_closure(p5).members for y in member]
    assert len(results) > 7 + 24
    assert all(type(y.x0) is int and type(y.x1) is int for y in results)


def test_pickled_context_gives_equal_results(ctx13d6):
    ctx2 = pickle.loads(pickle.dumps(ctx13d6))
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randrange(1, 13 * 13)
        x, y = ctx13d6.from_index(k), ctx2.from_index(k)
        assert x ** 7 == y ** 7 and x ** -3 == y ** -3
        assert is_square(x) == is_square(y)
        if is_square(x):
            assert sqrt(x) == sqrt(y) and sqrt(y).ctx is ctx2

import pickle
import random

import pytest
from conftest import force_nu

from uawq import errors, table1
from uawq.modules import Params4
from uawq.field import (
    FieldCtx,
    chebyshev_T,
    ctx_new,
    is_square,
    poly_divmod_linear,
    poly_eval,
    poly_from_roots,
    poly_gcd,
    poly_mul,
    poly_roots,
    quadratic_roots,
    sqrt,
)
from uawq.modules import nu_of


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
        assert ctx13d6.dbar == 3
        assert brute_order(ctx13d6.q, 13 ** 2) == 6
        q2 = ctx13d6.q * ctx13d6.q
        assert brute_order(q2, 13 ** 2) == 3

    def test_d_dividing_via_extension(self):
        # 7 divides 13^2-1 but not 13-1, so q must leave the prime field
        ctx = ctx_new(13, 7)
        assert not ctx.q.in_base_field()
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
        assert poly_roots(ctx13, f) == [ctx13.el(3), ctx13.el(3)]

    def test_zero_poly_raises(self, ctx13):
        with pytest.raises(errors.ZeroPolynomial):
            poly_roots(ctx13, [ctx13.zero, ctx13.zero])

    def test_rootless_factor_degree(self, ctx13, rng):
        # degree minus total multiplicity equals the degree of the rootless part
        for _ in range(20):
            coeffs = [ctx13.from_index(rng.randrange(13 * 13)) for _ in range(5)]
            coeffs.append(ctx13.one)
            roots = poly_roots(ctx13, coeffs)
            g = list(coeffs)
            for r in roots:
                g, rem = poly_divmod_linear(g, r)
                assert rem.is_zero()
            assert len(g) - 1 == len(coeffs) - 1 - len(roots)
            for r in roots:
                assert poly_eval(coeffs, r).is_zero()
            if g:
                for r in set(roots):
                    assert not poly_eval(g, r).is_zero()

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


def ref_pow(x, e):
    """Square-and-multiply with Fq2 products and the norm inverse."""
    base = x.inv() if e < 0 else x
    e = abs(e)
    acc = x.ctx.one
    while e:
        if e & 1:
            acc = acc * base
        base = base * base
        e >>= 1
    return acc


def euler_is_square(x):
    return x.is_zero() or ref_pow(x, (x.ctx.p ** 2 - 1) // 2) == x.ctx.one


def least_roots(ctx):
    """Square -> its lex-least square root, by scanning the field in lex order."""
    out = {}
    for y in ctx.elements():
        out.setdefault((y * y).key, y)
    return out


def ref_apply_row(row, quad, roots):
    """The row evaluated by powering each base, with s the lex-least root."""
    a, b, c, lam = quad
    ctx = a.ctx
    s = None
    if table1.row_needs_sqrt(row):
        arg = table1.orbit_sqrt_arg(a, b, c, lam)
        if not euler_is_square(arg):
            raise errors.NeedsExtension(f"orbit row {row[0]} needs sqrt of non-square {arg!r}")
        s = roots[arg.key]
    out = []
    for expo in row[2]:
        val = ctx.one
        for base, e in zip((a, b, c, lam, ctx.q, s), expo):
            if e:
                val = val * ref_pow(base, e)
        out.append(val)
    return tuple(out)


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
        roots = least_roots(ctx)
        rng = random.Random(p * 100 + d)
        outcomes = set()
        for _ in range(12):
            quad = tuple(ctx.from_index(rng.randrange(1, p * p)) for _ in range(4))
            for row in table1.ROWS:
                try:
                    want = ref_apply_row(row, quad, roots)
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
    # (13, 3) and (13, 6) share p and t, hence the log tables
    assert ctx13.log_tables() is ctx13d6.log_tables()
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

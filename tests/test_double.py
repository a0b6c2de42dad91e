import random

import pytest

from qdouble.halves import HalfAlgebra, PLUS, MINUS
from qdouble.double import (
    DoubleContext,
    TriElem,
    FlavorError,
    kmono,
    k_one,
    tri_from_obj,
    tri_to_obj,
)
from qdouble.scalar import Laurent, Rat, nu_power, qangle, qround_binom, qangle_factorial, qround_factorial


@pytest.fixture(scope="module")
def sl2():
    return DoubleContext(HalfAlgebra("A1"))


@pytest.fixture(scope="module")
def a2():
    return DoubleContext(HalfAlgebra("A2"))


def kp(ctx, n=1):
    return kmono((0,), (n,)) if ctx.datum.rank == 1 else None


def rand_tri(ctx, rng, flavor="full", height=3, nterms=3):
    rank = ctx.datum.rank
    terms = {}
    for _ in range(nterms):
        f = tuple(rng.randrange(rank) for _ in range(rng.randrange(0, height + 1)))
        e = tuple(rng.randrange(rank) for _ in range(rng.randrange(0, height + 1)))
        km = tuple(rng.randrange(0, 2) for _ in range(rank))
        kpl = tuple(rng.randrange(0, 2) for _ in range(rank))
        if flavor == "heis_plus":
            km = (0,) * rank
        c = Laurent({rng.randrange(-2, 3): rng.randrange(-3, 4) or 1})
        terms[(kmono(km, kpl), f, e)] = Rat.of(c)
    return TriElem(ctx, flavor, terms)


def term_bidegree(ctx, key):
    K, f, e = key
    sym = tuple(a + b for a, b in zip(K[0], K[1]))
    df = ctx.half.word_degree(f)
    de = ctx.half.word_degree(e)
    return (
        tuple(a + b for a, b in zip(sym, df)),
        tuple(a + b for a, b in zip(sym, de)),
    )


class TestStraightening:
    def test_sl2_ef(self, sl2):
        # E F = F E + (q^-1 - q)(K+ - K-)
        got = sl2.multiply(sl2.e_gen(0), sl2.f_gen(0))
        br = Rat.of(qangle(-1, 2))
        expected = (
            sl2.multiply(sl2.f_gen(0), sl2.e_gen(0))
            + sl2.k_elem(kmono((0,), (1,))).scale(br)
            - sl2.k_elem(kmono((1,), (0,))).scale(br)
        )
        assert got == expected

    def test_cross_index_commutes(self, a2):
        got = a2.multiply(a2.e_gen(0), a2.f_gen(1))
        expected = a2.multiply(a2.f_gen(1), a2.e_gen(0))
        assert got == expected
        assert list(got.terms) == [(k_one(2), (1,), (0,))]

    def test_heis_plus_drops_kminus(self, sl2):
        got = sl2.multiply(sl2.e_gen(0, "heis_plus"), sl2.f_gen(0, "heis_plus"))
        br = Rat.of(qangle(-1, 2))
        expected = sl2.multiply(sl2.f_gen(0, "heis_plus"), sl2.e_gen(0, "heis_plus")) + sl2.k_elem(
            kmono((0,), (1,)), "heis_plus"
        ).scale(br)
        assert got == expected

    def test_flavor_mismatch(self, sl2):
        with pytest.raises(FlavorError):
            sl2.multiply(sl2.e_gen(0), sl2.e_gen(0, "heis_plus"))

    def test_associativity_random(self, a2):
        rng = random.Random(5)
        for _ in range(8):
            x = rand_tri(a2, rng, height=2, nterms=2)
            y = rand_tri(a2, rng, height=2, nterms=2)
            z = rand_tri(a2, rng, height=2, nterms=2)
            assert a2.multiply(a2.multiply(x, y), z) == a2.multiply(x, a2.multiply(y, z))

    def test_homogeneity(self, a2):
        rng = random.Random(9)
        for _ in range(6):
            K = kmono(
                tuple(rng.randrange(2) for _ in range(2)), tuple(rng.randrange(2) for _ in range(2))
            )
            f = tuple(rng.randrange(2) for _ in range(2))
            e = tuple(rng.randrange(2) for _ in range(2))
            x = TriElem(a2, "full", {(K, f, e): Rat.of(1)})
            y = TriElem(a2, "full", {(K, e, f): Rat.of(1)})
            if x.is_zero() or y.is_zero():
                continue
            dx = term_bidegree(a2, next(iter(x.terms)))
            dy = term_bidegree(a2, next(iter(y.terms)))
            expected = (
                tuple(a + b for a, b in zip(dx[0], dy[0])),
                tuple(a + b for a, b in zip(dx[1], dy[1])),
            )
            for key in a2.multiply(x, y).terms:
                assert term_bidegree(a2, key) == expected

    def test_comm_fi_closed_formula(self, sl2):
        # x+ F^r against the quasi-derivation closed form, x+ = E^2, r = 2
        half = sl2.half
        x = sl2.multiply(sl2.e_gen(0), sl2.e_gen(0))
        F = sl2.f_gen(0)
        lhs = sl2.multiply(x, sl2.multiply(F, F))
        xplus = half.word(PLUS, [0, 0])
        r = 2
        qi = sl2.datum.qi_exp(0)
        rhs = sl2.zero("full")
        for rp in range(r + 1):
            for rpp in range(r + 1 - rp):
                coeff = (
                    Rat.of((-1) ** rp)
                    * nu_power(qi * (-(rp * (rp - 1) // 2) + rpp * (rpp - 1) // 2))
                    * Rat.of(qangle_factorial(rp + rpp, qi))
                    * Rat.of(qround_binom(r, rp + rpp, qi))
                )
                der = half.deriv(0, half.deriv(0, xplus, "op", rpp), "plain", rp)
                if der.is_zero():
                    continue
                inner = sl2.from_halves(
                    minus=half.word(MINUS, [0] * (r - rp - rpp)), plus=der, flavor="full"
                )
                K = kmono((rpp,), (rp,))
                rhs = rhs + sl2.diamond(K, inner).scale(coeff)
        assert lhs == rhs


class TestDiamond:
    def test_weight_zero(self, sl2):
        fe = sl2.multiply(sl2.f_gen(0), sl2.e_gen(0))
        assert sl2.diamond(kmono((0,), (1,)), fe) == sl2.multiply(sl2.k_elem(kmono((0,), (1,))), fe)

    def test_kplus_on_e(self, sl2):
        # K+ diamond E = q^-1 K+ E
        got = sl2.diamond(kmono((0,), (1,)), sl2.e_gen(0))
        expected = sl2.multiply(sl2.k_elem(kmono((0,), (1,))), sl2.e_gen(0)).scale(nu_power(-2))
        assert got == expected

    def test_bar_equivariance(self, sl2):
        rng = random.Random(21)
        for _ in range(8):
            x = rand_tri(sl2, rng, height=3, nterms=2)
            K = kmono((rng.randrange(2),), (rng.randrange(2),))
            assert sl2.bar(sl2.diamond(K, x)) == sl2.diamond(K, sl2.bar(x))

    def test_action_composition(self, a2):
        rng = random.Random(23)
        x = rand_tri(a2, rng, height=2, nterms=2)
        K1 = kmono((1, 0), (0, 1))
        K2 = kmono((0, 1), (1, 0))
        from qdouble.double import k_mul

        assert a2.diamond(K1, a2.diamond(K2, x)) == a2.diamond(k_mul(K1, K2), x)


class TestInvolutions:
    def test_bar_fe(self, sl2):
        # bar(FE) = EF restraightened = FE + (q^-1 - q)(K+ - K-)
        fe = sl2.multiply(sl2.f_gen(0), sl2.e_gen(0))
        br = Rat.of(qangle(-1, 2))
        expected = fe + sl2.k_elem(kmono((0,), (1,))).scale(br) - sl2.k_elem(kmono((1,), (0,))).scale(br)
        assert sl2.bar(fe) == expected

    def test_bar_involutive(self, a2):
        rng = random.Random(31)
        for _ in range(6):
            x = rand_tri(a2, rng, height=2, nterms=2)
            assert a2.bar(a2.bar(x)) == x

    def test_bar_antiautomorphism(self, a2):
        rng = random.Random(33)
        for _ in range(5):
            x = rand_tri(a2, rng, height=2, nterms=2)
            y = rand_tri(a2, rng, height=2, nterms=2)
            assert a2.bar(a2.multiply(x, y)) == a2.multiply(a2.bar(y), a2.bar(x))

    def test_star_involutive(self, a2):
        rng = random.Random(35)
        for _ in range(6):
            x = rand_tri(a2, rng, height=2, nterms=2)
            assert a2.star(a2.star(x)) == x

    def test_star_forbidden_in_heis(self, sl2):
        x = sl2.e_gen(0, "heis_plus")
        with pytest.raises(FlavorError):
            sl2.star(x)

    @pytest.mark.parametrize("flavor", ["heis_plus", "heis_minus", "check"])
    def test_star_forbidden_on_zero(self, sl2, flavor):
        # the flavor decides, not the terms: zero raises as the unit does
        with pytest.raises(FlavorError):
            sl2.star(sl2.zero(flavor))
        with pytest.raises(FlavorError):
            sl2.star(sl2.one(flavor))

    def test_transpose(self, sl2):
        # (K f e)^t swaps the halves; on generators: E^t = F
        assert sl2.transpose(sl2.e_gen(0)) == sl2.f_gen(0)
        assert sl2.transpose(sl2.k_elem(kmono((1,), (0,)))) == sl2.k_elem(kmono((1,), (0,)))

    def test_transpose_antiautomorphism(self, a2):
        rng = random.Random(37)
        for _ in range(5):
            x = rand_tri(a2, rng, height=2, nterms=2)
            y = rand_tri(a2, rng, height=2, nterms=2)
            assert a2.transpose(a2.multiply(x, y)) == a2.multiply(a2.transpose(y), a2.transpose(x))
            assert a2.transpose(a2.transpose(x)) == x


class TestQuotients:
    def test_projection_algebra_map(self, sl2):
        rng = random.Random(41)
        for _ in range(8):
            x = rand_tri(sl2, rng, height=2, nterms=2)
            y = rand_tri(sl2, rng, height=2, nterms=2)
            lhs = sl2.project_heis(sl2.multiply(x, y))
            rhs = sl2.multiply(sl2.project_heis(x), sl2.project_heis(y))
            assert lhs == rhs

    def test_iota_section(self, sl2):
        rng = random.Random(43)
        x = rand_tri(sl2, rng, flavor="heis_plus", height=2, nterms=3)
        assert sl2.project_heis(sl2.iota_plus(x)) == x


class TestTwistedActions:
    def test_lambda_bar_anticommutes(self, sl2):
        rng = random.Random(47)
        for _ in range(6):
            x = rand_tri(sl2, rng, flavor="localized", height=2, nterms=2)
            for kind in ("E", "F"):
                lhs = sl2.bar(sl2.lambda_act(0, kind, (2,), x))
                rhs = sl2.lambda_act(0, kind, (2,), sl2.bar(x)).scale(-1)
                assert lhs == rhs

    def test_adjoint_k(self, sl2):
        x = sl2.e_gen(0, "localized")
        got = sl2.adjoint_act(0, "K", x)
        assert got == x.scale(nu_power(4))


class TestSerialization:
    def test_roundtrip(self, a2):
        rng = random.Random(51)
        for _ in range(6):
            x = rand_tri(a2, rng, height=2, nterms=3)
            assert tri_from_obj(a2, "full", tri_to_obj(x)) == x

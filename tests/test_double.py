import collections
import copy
import functools
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import qdouble

from qdouble import double
from qdouble.algebra import Algebra
from qdouble.canbasis import DCBTable
from qdouble.halves import HalfAlgebra, PLUS, MINUS
from qdouble.lusztig import Engine
from qdouble.double import (
    FLAVORS,
    _CROSS,
    DoubleContext,
    TriElem,
    FlavorError,
    kmono,
    k_mul,
    k_one,
    tri_from_obj,
    tri_to_obj,
)
from qdouble.scalar import ONE, RAT_ONE, Laurent, Rat, accumulate, common_denominator, nu_power, over_denominator, qangle, qround_binom, qangle_factorial
from qdouble.sl2oracle import SL2Oracle


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

    def test_sum_flavor_mismatch(self, sl2):
        with pytest.raises(FlavorError):
            sl2.e_gen(0) + sl2.e_gen(0, "heis_plus")

    def test_cancellation_inside_one_sum(self, sl2):
        # (E + F)(F - E) = F^2 - E^2 + (q^-1 - q)(K+ - K-): the F E key
        # sums to 0 and is not stored
        E, F = sl2.e_gen(0), sl2.f_gen(0)
        got = sl2.multiply(E + F, F - E)
        br = Rat.of(qangle(-1, 2))
        one = k_one(1)
        assert got.terms == {
            (one, (0, 0), ()): RAT_ONE,
            (one, (), (0, 0)): -RAT_ONE,
            (kmono((0,), (1,)), (), ()): br,
            (kmono((1,), (0,)), (), ()): -br,
        }

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


class TestKFlavors:
    # each branch of DoubleContext._check_k refuses its K in its flavors, and
    # the same K is accepted by a flavor that has it
    @pytest.mark.parametrize(
        "K, flavor, message, accepting",
        [
            (kmono((-1,), (0,)), "full", "negative K exponent needs localized flavor", "localized"),
            (kmono((0,), (0,), (1,)), "full", "weight tags need check flavor", "check"),
            (kmono((1,), (0,)), "heis_plus", "K_- is zero in heis_plus", "heis_minus"),
            (kmono((0,), (1,)), "heis_minus", "K_\\+ is zero in heis_minus", "heis_plus"),
            (kmono((0,), (0,), (1,)), "localized", "weight tags need check flavor", "check"),
        ],
        ids=["negative", "tag-full", "kminus-heis-plus", "kplus-heis-minus", "tag-localized"],
    )
    def test_check_k_refuses(self, sl2, K, flavor, message, accepting):
        with pytest.raises(FlavorError, match=message):
            sl2.k_elem(K, flavor)
        assert list(sl2.k_elem(K, accepting).terms) == [(K, (), ())]


class TestQuotients:
    def test_projection_algebra_map(self, sl2):
        rng = random.Random(41)
        for _ in range(8):
            x = rand_tri(sl2, rng, height=2, nterms=2)
            y = rand_tri(sl2, rng, height=2, nterms=2)
            lhs = sl2.project_heis(sl2.multiply(x, y))
            rhs = sl2.multiply(sl2.project_heis(x), sl2.project_heis(y))
            assert lhs == rhs

    @pytest.mark.parametrize("flavor", ["heis_plus", "heis_minus"])
    @pytest.mark.parametrize("preset", ["A2", "B2", "A1affine"])
    def test_projection_commutes_with_bar(self, preset, flavor):
        # pi(bar x) = bar(pi x): the engine proves a circ record by the
        # bar-invariance of its bullet in full and one projection
        ctx = Algebra.get(preset).ctx
        rng = random.Random(59)
        dropped = 0
        for _ in range(10):
            x = rand_tri(ctx, rng, height=3, nterms=4)
            px = ctx.project_heis(x, flavor)
            assert px.flavor == flavor
            dropped += len(x.terms) - len(px.terms)
            assert ctx.project_heis(ctx.bar(x), flavor) == ctx.bar(px)
        assert dropped

    def test_iota_section(self, sl2):
        rng = random.Random(43)
        x = rand_tri(sl2, rng, flavor="heis_plus", height=2, nterms=3)
        assert sl2.project_heis(x.with_flavor("full")) == x


class TestNormalizeTags:
    # a weight tag is folded into the plus exponents exactly when it is in the
    # root lattice: A x = tag has an integral solution x

    def tagged(self, ctx, plus, tag):
        f = ctx.half.element(MINUS, {(0,): RAT_ONE})
        return ctx.from_halves(minus=f, K=kmono((0,) * len(tag), plus, tag), flavor="check").scale(
            Rat.of(Laurent({1: 2}))
        )

    def test_root_lattice_tag_folds(self, a2):
        got = a2.normalize_tags(self.tagged(a2, (0, 1), (2, -1)))
        assert got == self.tagged(a2, (1, 1), (0, 0))

    def test_fractional_solution_stays(self, a2):
        # A x = (1, 0) has the solution (2/3, 1/3)
        x = self.tagged(a2, (0, 1), (1, 0))
        assert a2.normalize_tags(x) == x

    def test_singular_cartan_leaves_every_tag(self):
        aff = DoubleContext(HalfAlgebra("A1affine"))
        for tag in [(2, -2), (1, 0), (2, 2), (-4, 4)]:
            x = self.tagged(aff, (0, 1), tag)
            assert aff.normalize_tags(x) == x


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

    def test_adjoint_f_kills_casimirs(self, sl2):
        orc = SL2Oracle(sl2)
        for m in range(4):
            assert sl2.adjoint_act(0, "F", orc.chebyshev(m).with_flavor("localized")).is_zero()

    def test_adjoint_f_twisted_leibniz(self, sl2):
        # ad_F(xy) = ad_F(x) y + (K_- x K_-^-1) ad_F(y)
        rng = random.Random(53)
        km = sl2.k_elem(kmono((1,), (0,)), "localized")
        km_inv = sl2.k_elem(kmono((-1,), (0,)), "localized")
        for _ in range(4):
            x = rand_tri(sl2, rng, flavor="localized", height=2, nterms=2)
            y = rand_tri(sl2, rng, flavor="localized", height=2, nterms=2)
            rhs = sl2.adjoint_act(0, "F", x) * y + km * x * km_inv * sl2.adjoint_act(0, "F", y)
            assert sl2.adjoint_act(0, "F", x * y) == rhs


# -- the torus kernels against their per-term definitions -------------------

def kdif_explicit(datum, K, gamma):
    """(plus - minus) . gamma + sum_k tag_k d_k gamma_k, term by term."""
    minus, plus, tag = K
    dif = tuple(p - m for p, m in zip(plus, minus))
    return datum.dot(dif, gamma) + sum(t * d * g for t, d, g in zip(tag, datum.d, gamma))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def reference_multiply(ctx, x, y):
    """x y with every torus twist and K-product recomputed per straightened
    term, over Rat coefficients."""
    wd = ctx.half.word_degree
    kdif = functools.partial(kdif_explicit, ctx.datum)
    out = {}
    for (K1, f1, e1), c1 in x.terms.items():
        for (K2, f2, e2), c2 in y.terms.items():
            base = c1 * c2 * nu_power(2 * (kdif(K2, wd(f1)) - kdif(K2, wd(e1))))
            for (K3, f3, e3), c3 in ctx._straighten(e1, f2, _CROSS[x.flavor]).items():
                coeff = base * Rat.of(c3) * nu_power(2 * kdif(K3, wd(f1)))
                accumulate(out, (k_mul(k_mul(K1, K2), K3), f1 + f3, e3 + e2), coeff)
    return TriElem(ctx, x.flavor, out)


def reference_involution(ctx, x, which):
    """bar/star/transpose with the twist of K2 recomputed from the weight of
    every straightened term."""
    wd = ctx.half.word_degree
    kdif = functools.partial(kdif_explicit, ctx.datum)
    out = {}
    for (K, f, e), c in x.terms.items():
        if which == "bar":
            c = c.bar()
        if which == "transpose":
            coeff = c * nu_power(2 * kdif(K, _sub(wd(e), wd(f))))
            accumulate(out, (K, e[::-1], f[::-1]), coeff)
            continue
        K2 = K if which == "bar" else (K[1], K[0], K[2])
        for (K3, f3, e3), c3 in ctx._straighten(e[::-1], f[::-1], _CROSS[x.flavor]).items():
            coeff = c * Rat.of(c3) * nu_power(2 * kdif(K2, _sub(wd(f3), wd(e3))))
            accumulate(out, (k_mul(K3, K2), f3, e3), coeff)
    return TriElem(ctx, x.flavor, out)


ORACLE_PRESETS = ["A2", "B2", "G2", "A1affine", "R3"]


def oracle_tri(ctx, rng, flavor, nterms=3):
    """A seeded element of the flavor: negative exponents in `localized` and
    `check`, a nonzero weight tag on every `check` term, no K_- (K_+) in
    heis_plus (heis_minus), and coefficients over a few denominators."""
    rank = ctx.datum.rank
    low = -1 if flavor in ("localized", "check") else 0
    terms = {}
    for k in range(nterms):
        f = tuple(rng.randrange(rank) for _ in range(rng.randrange(3)))
        e = tuple(rng.randrange(rank) for _ in range(rng.randrange(3)))
        km = tuple(rng.randrange(low, 2) for _ in range(rank))
        kpl = tuple(rng.randrange(low, 2) for _ in range(rank))
        tag = [0] * rank
        if flavor == "check":
            tag = [rng.randrange(-1, 2) for _ in range(rank)]
            tag[k % rank] = rng.choice([-1, 1, 2])
        if flavor == "heis_plus":
            km = (0,) * rank
        if flavor == "heis_minus":
            kpl = (0,) * rank
        num = Laurent({rng.randrange(-2, 3): rng.choice([-2, -1, 1, 3])})
        terms[(kmono(km, kpl, tag), f, e)] = Rat(num, FRACTION_DENS[k % 3])
    return TriElem(ctx, flavor, terms)


@pytest.mark.parametrize("preset", ORACLE_PRESETS)
class TestTorusKernels:
    """multiply and the involutions read the twist of a K-monomial off its
    cached pairing vector, once per input term where the weight allows; the
    per-term definitions must give the same elements."""

    def test_kdif_dot_explicit(self, preset):
        ctx = Algebra.get(preset).ctx
        rng = random.Random(71)
        rank = ctx.datum.rank
        for _ in range(40):
            K = kmono(*(tuple(rng.randrange(-2, 3) for _ in range(rank)) for _ in range(3)))
            gamma = tuple(rng.randrange(-3, 4) for _ in range(rank))
            assert ctx.kdif_dot(K, gamma) == kdif_explicit(ctx.datum, K, gamma)
        # on alpha_k, the tag of alpha_k pairs to d_k and K_+k to 2 d_k
        for k in range(rank):
            unit = tuple(int(j == k) for j in range(rank))
            zero = (0,) * rank
            assert ctx.kdif_dot(kmono(zero, zero, unit), unit) == ctx.datum.d[k]
            assert ctx.kdif_dot(kmono(zero, unit), unit) == 2 * ctx.datum.d[k]

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_kernels_match_per_term_definitions(self, preset, flavor):
        ctx = Algebra.get(preset).ctx
        rng = random.Random(73 + FLAVORS.index(flavor))
        involutions = ["bar", "transpose"] + ([] if flavor in ("heis_plus", "heis_minus", "check") else ["star"])
        for _ in range(3):
            x, y = oracle_tri(ctx, rng, flavor), oracle_tri(ctx, rng, flavor)
            assert ctx.multiply(x, y) == reference_multiply(ctx, x, y)
            for which in involutions:
                assert ctx.involution(x, which) == reference_involution(ctx, x, which)

    @pytest.mark.parametrize("flavor", ["full", "heis_plus", "heis_minus", "localized"])
    def test_bar_commutes_with_transpose(self, preset, flavor):
        # bar t and t bar are antilinear automorphisms (bar an antilinear,
        # t a linear anti-automorphism) that agree on E_i, F_i and K; the
        # engine proves a relabeled record bar-fixed by this
        ctx = Algebra.get(preset).ctx
        rng = random.Random(97 + FLAVORS.index(flavor))
        for _ in range(10):
            x = oracle_tri(ctx, rng, flavor)
            assert ctx.bar(ctx.transpose(x)) == ctx.transpose(ctx.bar(x))


@pytest.mark.parametrize("preset", ["A2", "B2", "G2"])
def test_straightened_terms_keep_the_weight(preset):
    # the one twist per input term in `involution` rests on this
    ctx = Algebra.get(preset).ctx
    wd = ctx.half.word_degree
    words = [w for n in range(4) for w in itertools.product(range(ctx.datum.rank), repeat=n)]
    for cross in sorted(set(_CROSS.values())):
        for e in words:
            for f in words:
                weight = _sub(wd(f), wd(e))
                for K3, f3, e3 in ctx._straighten(e, f, cross):
                    assert _sub(wd(f3), wd(e3)) == weight


# unrelated denominators: Phi1 Phi2, Phi4, 2v^4 + 1, the integer 2 and the
# bar-asymmetric v^3 + 2
FRACTION_DENS = [
    Laurent({2: 1, 0: -1}),
    Laurent({2: 1, 0: 1}),
    Laurent({4: 2, 0: 1}),
    Laurent({0: 2}),
    Laurent({3: 1, 0: 2}),
]
FRACTION_CASES = [("A2", "full"), ("A2", "localized"), ("B2", "heis_plus")]


def frac_tri(ctx, rng, flavor):
    """A seeded element whose four terms carry four of FRACTION_DENS."""
    rank = ctx.datum.rank
    low = -1 if flavor == "localized" else 0
    terms = {}
    for den in rng.sample(FRACTION_DENS, 4):
        f = tuple(rng.randrange(rank) for _ in range(rng.randrange(3)))
        e = tuple(rng.randrange(rank) for _ in range(rng.randrange(3)))
        km = tuple(rng.randrange(low, 2) for _ in range(rank))
        kpl = tuple(rng.randrange(low, 2) for _ in range(rank))
        if flavor == "heis_plus":
            km = (0,) * rank
        num = Laurent({rng.randrange(-2, 3): rng.choice([-2, -1, 1, 3]), rng.randrange(-2, 3): 1})
        terms[(kmono(km, kpl), f, e)] = Rat(num, den)
    return TriElem(ctx, flavor, terms)


def assert_canonical(coeffs):
    for c in coeffs:
        assert not c.is_zero()
        assert Rat(c.num, c.den) == c


@pytest.mark.parametrize("preset,flavor", FRACTION_CASES)
class TestFractionalCoefficients:
    """The fraction-free kernels on coefficients over several unrelated
    denominators."""

    def pairs(self, preset, flavor, seed, n=3):
        ctx = Algebra.get(preset).ctx
        rng = random.Random(seed)
        for _ in range(n):
            x, y = frac_tri(ctx, rng, flavor), frac_tri(ctx, rng, flavor)
            assert len({c.den for c in x.terms.values()}) > 2
            yield ctx, x, y

    def test_involutions(self, preset, flavor):
        c = Rat(Laurent({1: 1}), FRACTION_DENS[-1])
        for ctx, x, _ in self.pairs(preset, flavor, 61):
            bx = ctx.bar(x)
            assert_canonical(bx.terms.values())
            assert bx != x and ctx.bar(bx) == x
            # bar is antilinear
            assert ctx.bar(x.scale(c)) == bx.scale(c.bar())
            if flavor != "heis_plus":
                sx = ctx.star(x)
                assert_canonical(sx.terms.values())
                assert ctx.star(sx) == x

    def test_bar_antiautomorphism(self, preset, flavor):
        for ctx, x, y in self.pairs(preset, flavor, 63):
            xy = ctx.multiply(x, y)
            assert_canonical(xy.terms.values())
            assert ctx.bar(xy) == ctx.multiply(ctx.bar(y), ctx.bar(x))

    def test_product_is_linear(self, preset, flavor):
        for ctx, x, y in self.pairs(preset, flavor, 65):
            assert not ctx.multiply(x, y).is_zero()
            assert not (ctx.multiply(x, y) + ctx.multiply(x.scale(-1), y)).terms

    def test_to_dcb_rebuilds(self, preset, flavor):
        alg = Algebra.get(preset)
        for ctx, x, y in self.pairs(preset, flavor, 67):
            for z in (x, ctx.multiply(x, y)):
                coords = alg.tables.to_dcb(z)
                assert_canonical(coords.values())
                back = ctx.zero(flavor)
                for (K, lm, lp), c in coords.items():
                    bm, bp = alg.dcb_elem(MINUS, lm), alg.dcb_elem(PLUS, lp)
                    back = back + ctx.from_halves(minus=bm, plus=bp, K=K, flavor=flavor).scale(c)
                assert back == z


    def test_to_dcb_of_a_pair(self, preset, flavor):
        # K b_- b_+ has one coordinate: its words' rows cancel on every other label
        alg = Algebra.get(preset)
        c = Rat(Laurent({1: 1}), FRACTION_DENS[-1])
        K = kmono((0, 0), (1, 0))
        for lm in alg.tables.labels_of_degree((1, 1)):
            for lp in alg.tables.labels_of_degree((2, 1)):
                bm, bp = alg.dcb_elem(MINUS, lm), alg.dcb_elem(PLUS, lp)
                pair = alg.ctx.from_halves(minus=bm, plus=bp, K=K, flavor=flavor)
                coords = alg.tables.to_dcb(pair.scale(c))
                assert_canonical(coords.values())
                assert coords == {(K, lm, lp): c}


def _pivot_word(ctx, w):
    return w in ctx.word_coords(w)[0]


class TestFusedKernels:
    """The numerator kernels sum in coefficient dicts: no Laurent product per
    straightened term, no write into a memo."""

    def test_product_over_two_pivot_groups(self, monkeypatch):
        # R3: (2,1,0,1) has pivot coordinates over v^4 + 1 and (1,2,0,1) is
        # a pivot word, so the normal form of x y has two (d_f, d_e) groups
        ctx = Algebra.get("R3").ctx
        assert ctx.word_coords((2, 1, 0, 1))[1] == Laurent({4: 1, 0: 1})
        assert _pivot_word(ctx, (1, 2, 0, 1))
        K = kmono((1, 0, 0), (0, 0, 1))
        c = Rat(Laurent({1: 1}), FRACTION_DENS[-1])
        x = TriElem(ctx, "full", {(K, (2, 1), ()): c, (k_one(3), (1, 2), ()): RAT_ONE, (K, (2,), (1,)): -c})
        y = TriElem(ctx, "full", {(k_one(3), (0, 1), ()): RAT_ONE, (K, (1, 0), (2,)): c.bar()})
        sizes = []
        expand_numerators = double.expand_numerators

        def spy(nums, column, drop=None):
            groups = expand_numerators(nums, column, drop)
            sizes.append(len(groups))
            return groups

        monkeypatch.setattr(double, "expand_numerators", spy)
        got = ctx.multiply(x, y)
        assert sizes[-1] == 2
        assert got == reference_multiply(ctx, x, y)
        assert_canonical(got.terms.values())

    def test_products_per_term_pair(self, monkeypatch):
        # multiply forms one Laurent product per input-term pair (plus the
        # product of the two common denominators), bar none; each may add
        # one per term that leaves the pivot words
        ctx = DoubleContext(HalfAlgebra("A2"))
        k1 = k_one(2)
        x = TriElem(ctx, "full", {
            (k1, (0, 1), (1,)): Rat.of(Laurent({1: 1, -1: 2})),
            (kmono((0, 1), (1, 0)), (1,), (0, 1)): Rat.of(Laurent({0: -1})),
            (k1, (0,), (1, 0)): Rat.of(Laurent({2: 3})),
        })
        y = TriElem(ctx, "full", {
            (k1, (1, 0), (0,)): Rat.of(Laurent({0: 1, 2: -1})),
            (kmono((1, 0), (0, 0)), (1,), (1, 1)): Rat.of(Laurent({-1: 2})),
        })
        cross = _CROSS["full"]

        def expansions(pairs):
            return sum(
                not (_pivot_word(ctx, fa + f3) and _pivot_word(ctx, e3 + eb))
                for fa, e, f, eb in pairs
                for _, f3, e3 in ctx._straighten(e, f, cross)
            )

        mult_bound = len(x.terms) * len(y.terms) + 1 + expansions(
            (f1, e1, f2, e2) for _, f1, e1 in x.terms for _, f2, e2 in y.terms
        )
        bar_bound = expansions(((), e[::-1], f[::-1], ()) for _, f, e in x.terms)
        ctx.multiply(x, y), ctx.bar(x)  # fill the memos
        calls = collections.Counter()
        mul = Laurent.__mul__

        def counting(self, other):
            calls[op] += 1
            return mul(self, other)

        monkeypatch.setattr(Laurent, "__mul__", counting)
        op = "multiply"
        ctx.multiply(x, y)
        op = "bar"
        ctx.bar(x)
        assert calls["multiply"] <= mult_bound
        assert calls["bar"] <= bar_bound

    @pytest.mark.parametrize("preset", ["A2", "B2", "R3"])
    def test_kernels_leave_memos_unchanged(self, preset):
        alg = Algebra.get(preset)
        ctx, tables = alg.ctx, alg.tables
        rng = random.Random(89)
        rank = ctx.datum.rank
        gens = [g(i) for i in range(rank) for g in (ctx.e_gen, ctx.f_gen)]
        elems = [oracle_tri(ctx, rng, "full") for _ in range(3)]
        elems += [gens[k] + gens[-1 - k] for k in range(rank)]
        # labels of degree alpha_0, alpha_1 and alpha_0 + alpha_1
        labels = [lab for g in ((1, 0), (0, 1), (1, 1)) for lab in tables.labels_of_degree(g + (0,) * (rank - 2))]

        def run():
            for x, y in zip(elems, elems[1:]):
                # a square sums two straightened terms into one key
                for xy in (ctx.multiply(x, y), ctx.multiply(x, x)):
                    for op in (ctx.bar, ctx.star, ctx.transpose, ctx.is_bar_fixed):
                        op(xy)
                tables.to_dcb(x)
            for lm in labels:
                bm = ctx.from_halves(minus=tables.dcb_elem(MINUS, lm))
                for lp in labels:
                    bp = ctx.from_halves(plus=tables.dcb_elem(PLUS, lp))
                    # on pivot words, as the engine gives them (`_reverse_words`)
                    nums, den = ctx.product_numerators(bm, bp)
                    nums, den = double.fold_groups(double.expand_numerators(nums, ctx.word_coords), den)
                    tables.numerators_to_dcb({key: n.c for key, n in nums.items()}, den)
                    Engine(alg).reverse_dcb(lm, lp)

        run()
        memos = (ctx._straight, ctx._word_coords, tables._dcb_rows)
        before = copy.deepcopy(memos)
        run()
        assert memos == before


class TestIsBarFixed:
    """is_bar_fixed(x) decides bar(x) == x on the unreduced numerators of
    bar(x); it must agree with the reduced bar on fixed elements, on the same
    elements with one coefficient moved, and where bar(x) reaches a key from
    two pivot-denominator groups."""

    @staticmethod
    def solved(alg, flavor, rng):
        """Solved elements of the flavor: circ in a Heisenberg quotient,
        bullet otherwise, twisted by a torus monomial with negative
        exponents in localized and check."""
        labels = [lab for g in alg.datum.degrees_up_to((1,) * alg.datum.rank) for lab in alg.tables.labels_of_degree(g)]
        rank = alg.datum.rank
        out = []
        for _ in range(3):
            lm, lp = rng.choice(labels), rng.choice(labels)
            if flavor in ("heis_plus", "heis_minus"):
                out.append(alg.engine.circ(lm, lp, "plus" if flavor == "heis_plus" else "minus"))
                continue
            x = alg.engine.bullet(lm, lp).with_flavor(flavor)
            if flavor != "full":
                K = kmono(*(tuple(rng.randrange(-1, 2) for _ in range(rank)) for _ in range(2)))
                x = alg.ctx.diamond(K, x)
            out.append(x)
        return out

    @staticmethod
    def assert_agrees(ctx, x, fixed=None):
        """is_bar_fixed(x) is bar(x) == x, and is `fixed` when that is given."""
        got = ctx.is_bar_fixed(x)
        assert got is (ctx.bar(x) == x)
        assert fixed is None or got is fixed
        return got

    @staticmethod
    def moved(ctx, x, rng):
        """x with one coefficient plus v, which bar sends to v^-1 (a term
        that bar sends to v^2 times itself keeps x fixed)."""
        key = rng.choice(sorted(x.terms))
        terms = dict(x.terms)
        accumulate(terms, key, nu_power(1))
        return TriElem(ctx, x.flavor, terms, normalized=True)

    @pytest.mark.parametrize("preset", ["A2", "B2", "G2", "A1affine"])
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_agrees_with_bar(self, preset, flavor):
        alg = Algebra.get(preset)
        ctx = alg.ctx
        rng = random.Random(81 + FLAVORS.index(flavor))
        fixed = self.solved(alg, flavor, rng)
        for _ in range(2):
            y = oracle_tri(ctx, rng, flavor)
            fixed.append(y + ctx.bar(y))
        moved = []
        for x in fixed:
            self.assert_agrees(ctx, x, True)
            moved.append(self.assert_agrees(ctx, self.moved(ctx, x, rng)))
        assert not all(moved)

    @pytest.mark.parametrize("preset", ["A2", "B2", "G2", "A1affine"])
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_transpose_check_agrees(self, preset, flavor):
        # is_transpose(y, x) decides t(x) == y on the same unreduced
        # comparison: true on t(x), false with one coefficient moved, false
        # in another flavor
        ctx = Algebra.get(preset).ctx
        rng = random.Random(83 + FLAVORS.index(flavor))
        for _ in range(3):
            x = oracle_tri(ctx, rng, flavor)
            y = ctx.transpose(x)
            assert ctx.is_transpose(y, x)
            assert not ctx.is_transpose(self.moved(ctx, y, rng), x)
            other = "localized" if flavor != "localized" else "check"
            assert not ctx.is_transpose(y.with_flavor(other), x)

    def test_image_inside_the_support(self):
        # x = bar(F E) = F E + (q^-1 - q)(K_+ - K_-) has bar(x) = F E: bar(x)
        # agrees with x on its own support and misses the torus terms of x
        ctx = Algebra.get("A2").ctx
        x = ctx.bar(ctx.multiply(ctx.f_gen(0), ctx.e_gen(0)))
        assert set(ctx.bar(x).terms) < set(x.terms)
        self.assert_agrees(ctx, x, False)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_key_from_two_groups(self, flavor):
        # in G2 (4, 2) the reverse of the pivot word 0 0 0 1 0 1 has pivot
        # denominator v^4 + 1 and shares pivot words with the reverses of
        # pivot words of denominator 1; A2, B2 and A1affine have no pivot
        # denominator but 1 on the degrees of height at most 6 and parts at
        # most 4
        alg = Algebra.get("G2")
        ctx = alg.ctx
        rng = random.Random(89 + FLAVORS.index(flavor))
        rank = ctx.datum.rank
        low = -1 if flavor in ("localized", "check") else 0
        pivots = alg.half.degree_basis((4, 2)).pivots
        assert (0, 0, 0, 1, 0, 1) in pivots
        terms = {}
        for side in (0, 1):
            km = tuple(rng.randrange(low, 2) for _ in range(rank))
            kpl = tuple(rng.randrange(low, 2) for _ in range(rank))
            if flavor == "heis_plus":
                km = (0,) * rank
            if flavor == "heis_minus":
                kpl = (0,) * rank
            tag = (1, 0) if flavor == "check" else (0, 0)
            for p in pivots:
                key = (kmono(km, kpl, tag), p, ()) if side == 0 else (kmono(km, kpl, tag), (), p)
                terms[key] = Rat(Laurent({rng.randrange(-2, 3): rng.choice([-2, -1, 1, 3])}), FRACTION_DENS[side])
        y = TriElem(ctx, flavor, terms)
        for x, fixed in ((y, False), (y + ctx.bar(y), True)):
            groups, _ = ctx._involution_numerators(x, "bar")
            assert len(groups) > 1
            seen = collections.Counter(key for acc in groups.values() for key in acc)
            assert max(seen.values()) > 1
            self.assert_agrees(ctx, x, fixed)
        self.assert_agrees(ctx, self.moved(ctx, y + ctx.bar(y), rng), False)


class TestWordDenominators:
    """Words whose pivot coordinates, or DCB coordinates, are not Laurent."""

    def test_normal_form_matches_halves(self):
        # R3 (1,2,1): the non-pivot words have coordinates over v^4 + 1
        alg = Algebra.get("R3")
        ctx, half = alg.ctx, alg.half
        basis = half.degree_basis((1, 2, 1))
        rest = [w for w in basis.words if w not in basis.pivots]
        assert any(not ctx.word_coords(w)[1].is_one() for w in rest)
        c = Rat(Laurent({1: 1}), FRACTION_DENS[-1])
        K = kmono((1, 0, 0), (0, 0, 1))
        for f, e in zip(rest, reversed(basis.words)):
            x = TriElem(ctx, "full", {(K, f, e): c, (K, f, ()): RAT_ONE})
            want = ctx.from_halves(
                minus=half.element(MINUS, {f: c}), plus=half.element(PLUS, {e: RAT_ONE}), K=K
            ) + ctx.from_halves(minus=half.element(MINUS, {f: RAT_ONE}), K=K)
            assert x == want
            assert_canonical(x.terms.values())

    def test_fold_groups(self):
        # R3 (1,2,1) words on both sides, over 1 or v^4 + 1, spread into
        # three denominator groups; folded onto one denominator they give
        # the fractions of the normal form
        alg = Algebra.get("R3")
        ctx = alg.ctx
        words = alg.half.degree_basis((1, 2, 1)).words
        K = kmono((1, 0, 0), (0, 0, 1))
        terms = {(K, f, e): {k: 1, -1: 3} for k, (f, e) in enumerate(zip(words, reversed(words)))}
        den = Laurent({0: 1, 1: 1})
        groups = double.expand_numerators({key: dict(n) for key, n in terms.items()}, ctx.word_coords)
        assert len(groups) == 3
        want = TriElem(ctx, "full", {key: Rat(Laurent(n), den) for key, n in terms.items()}).terms
        nums, d = double.fold_groups(groups, den)
        assert over_denominator(nums, d) == want == double.over_groups(groups, den)

    @staticmethod
    def reference_column(basis, w):
        """(num, d) of word w from the reduced row echelon form, built per
        word: the pivot-form routine that `coords` replaced."""
        rest = basis._rest.get(w)
        if rest is None:
            return {w: ONE}, ONE
        nums, d = common_denominator([Rat(r, basis._d) for r in rest])
        return {p: n for p, n in zip(basis.pivots, nums) if n}, d

    @pytest.mark.parametrize(
        "preset, gamma",
        [
            ("A2", (3, 3)),
            ("B2", (2, 2)),
            ("G2", (1, 3)),
            ("A1affine", (2, 2)),
            ("R3", (1, 2, 1)),
            ("R3", (2, 2, 1)),
        ],
    )
    def test_word_coords_match_reference_column(self, preset, gamma):
        # on each degree, fails if word_coords keeps zero numerators or
        # returns the unreduced row-echelon denominator basis._d
        alg = Algebra.get(preset)
        basis = alg.half.degree_basis(gamma)
        dens = set()
        for w in basis.words:
            got = alg.ctx.word_coords(w)
            assert got == self.reference_column(basis, w)
            if w not in basis.pivots:
                dens.add(got[1])
        if preset == "R3":
            assert dens == {ONE, Laurent({4: 1, 0: 1})}

    def test_to_dcb_user_table(self):
        # a user table of pivot words times Phi4 puts every DCB coordinate
        # of a pivot word over Phi4
        alg = Algebra("A1affine")
        ctx, gamma = alg.ctx, (1, 3)
        phi4 = Rat.of(FRACTION_DENS[1])
        pivots = alg.half.degree_basis(gamma).pivots
        # to_dcb reads any basis, so the table is registered past
        # load_user_table, whose bar check refuses scaled words
        elems = [alg.half.element(MINUS, {p: phi4}) for p in pivots]
        labels = [f"u{k}" for k in range(len(elems))]
        alg.tables._register(DCBTable(gamma, labels, elems, alg.tables.dual_basis(gamma, elems)))
        rows = [alg.tables._dcb_row(p) for p in pivots]
        fracs = [Rat(n, d) for row, d in rows for n in row.values()]
        assert common_denominator(fracs)[1] == FRACTION_DENS[1]
        # the denominator to_dcb stores and uses is that lcm, not a multiple
        assert {d for _, d in rows} == {FRACTION_DENS[1]}
        words = alg.half.words_of_degree(gamma)
        x = TriElem(ctx, "full", {(k_one(2), words[0], words[-1]): RAT_ONE, (k_one(2), (), words[1]): phi4})
        coords = alg.tables.to_dcb(x)
        assert_canonical(coords.values())
        back = ctx.zero()
        for (K, lm, lp), c in coords.items():
            bm, bp = alg.dcb_elem(MINUS, lm), alg.dcb_elem(PLUS, lp)
            back = back + ctx.from_halves(minus=bm, plus=bp, K=K).scale(c)
        assert back == x


# the criterion-5 multipliers with any import of sympy failing
NO_SYMPY_MULTIPLIERS = """
import sys
sys.modules["sympy"] = None
from qdouble import Algebra
from qdouble.scalar import qround
aff = Algebra.get("A1affine")
for g in [(1, 1), (2, 1), (2, 2)]:
    aff.tables.dcb_table(g)
assert aff.d_multiplier("F[1 2 2 1]", "F[1 2 2 1]") == qround(2, 4)
assert aff.d_multiplier("F[2 2 1 1]", "F[2 2 1 1]") == qround(2, 2) * qround(4, 2)
r3 = Algebra.get("R3")
r3.tables.dcb_table((1, 1, 1))
assert r3.d_multiplier("F[1 2 3]", "F[1 2 3]") == qround(3, 2)
"""


class TestMultipliers:
    def test_without_sympy(self):
        src = str(Path(qdouble.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", NO_SYMPY_MULTIPLIERS], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestSerialization:
    def test_roundtrip(self, a2):
        rng = random.Random(51)
        for _ in range(6):
            x = rand_tri(a2, rng, height=2, nterms=3)
            assert tri_from_obj(a2, "full", tri_to_obj(x)) == x

import random

import pytest

from qdouble.braid import BraidOps
from qdouble.double import DoubleContext, TriElem, k_one, kmono
from qdouble.halves import HalfAlgebra, MINUS, PLUS
from qdouble.scalar import Laurent, Rat, nu_power, qangle, qangle_factorial


def schubert_pbw_scaled(ops, word, amounts):
    """The PBW monomial rescaled by mu(amounts) into the PBW lattice."""
    return ops.schubert_pbw(word, amounts).scale(nu_power(ops.mu_exponent(word, amounts)))


def mu_by_inversions(datum, word, amounts):
    """mu(a) = -sum_r a_r (sum of the inversion set of s_{i_1} ... s_{i_{r-1}})
    . alpha_{i_r}, the inversion sets counted root by root (finite type): the
    formula that the sum over the word's roots replaces."""
    total = 0
    for r, a in enumerate(amounts):
        inversions = [beta for beta in datum.positive_roots() if min(datum.weyl_act(word[:r], beta)) < 0]
        inv_sum = tuple(map(sum, zip(*inversions))) if inversions else (0,) * datum.rank
        total += a * datum.dot(inv_sum, datum.alpha(word[r]))
    return -total


def amount_vectors(heights, bound):
    """Every amount vector over roots of the given heights whose degree has
    height <= bound."""
    if not heights:
        yield ()
        return
    for a in range(bound // heights[0] + 1):
        for rest in amount_vectors(heights[1:], bound - a * heights[0]):
            yield (a,) + rest


def ops(preset):
    return BraidOps(DoubleContext(HalfAlgebra(preset)))


@pytest.fixture(scope="module")
def sl2():
    return ops("A1")


@pytest.fixture(scope="module")
def a2():
    return ops("A2")


def inverse_check(ops, i, x):
    return ops.T(i, ops.T(i, x), inverse=True) == x and ops.T(
        i, ops.T(i, x, inverse=True)
    ) == x


def rand_tri(ctx, rng, height=3, nterms=2):
    rank = ctx.datum.rank
    terms = {}
    for _ in range(nterms):
        f = tuple(rng.randrange(rank) for _ in range(rng.randrange(0, height + 1)))
        e = tuple(rng.randrange(rank) for _ in range(rng.randrange(0, height + 1)))
        km = tuple(rng.randrange(-1, 2) for _ in range(rank))
        kp = tuple(rng.randrange(-1, 2) for _ in range(rank))
        c = Laurent({rng.randrange(-2, 3): rng.randrange(-3, 4) or 1})
        terms[(kmono(km, kp), f, e)] = Rat.of(c)
    return TriElem(ctx, "localized", terms)


class TestGeneratorImages:
    def test_t_on_ei(self, sl2):
        got = sl2.T(0, sl2.ctx.e_gen(0, "localized"))
        expected = TriElem(
            sl2.ctx, "localized", {(kmono((0,), (-1,)), (0,), ()): nu_power(-2)}
        )
        assert got == expected

    def test_t_on_kplus(self, a2):
        # T_1(K_{+2}) = K_{+2} K_{+1}^{-a_12} = K_{+2} K_{+1}
        got = a2.T(0, a2.ctx.k_elem(kmono((0, 0), (0, 1)), "localized"))
        assert got == a2.ctx.k_elem(kmono((0, 0), (1, 1)), "localized")

    def test_t_on_e2_a2(self, a2):
        # T_1(E_2) = q^(1/2) E_2 E_1^<1> - q^(-1/2) E_1^<1> E_2
        half = a2.ctx.half
        br = Rat.of(qangle(1, 2))
        expected_half = (
            half.word(PLUS, "21").scale(nu_power(1) / br)
            - half.word(PLUS, "12").scale(nu_power(-1) / br)
        )
        got = a2.T_half(0, half.gen(PLUS, 1))
        assert got == expected_half

    def test_t1t2_e1_is_e2(self, a2):
        half = a2.ctx.half
        got = a2.T_half(0, a2.T_half(1, half.gen(PLUS, 0)))
        assert got == half.gen(PLUS, 1)


    @pytest.mark.parametrize("preset", ["A2", "B2", "G2", "A1affine"])
    def test_letter_images_against_words(self, preset):
        # T_i(X_j), i != j, against its terms written out word by word; every
        # letter image is memoised per (i, sign, j)
        ops_ = ops(preset)
        ctx, datum = ops_.ctx, ops_.datum
        for i in range(datum.rank):
            for j in range(datum.rank):
                for sign in (PLUS, MINUS):
                    # memoised per (i, sign, j)
                    assert ops_._letter_image(i, sign, j) is ops_._letter_image(i, sign, j)
                if i == j:
                    continue
                a, qi = datum.A[i][j], datum.qi_exp(i)
                for sign in (PLUS, MINUS):
                    terms = {}
                    for r in range(-a + 1):
                        s = -a - r
                        denom = Rat.of(qangle_factorial(r, qi)) * Rat.of(qangle_factorial(s, qi))
                        coeff = Rat.of((-1) ** r) * nu_power(qi * s + datum.d[i] * a) / denom
                        word = (i,) * r + (j,) + (i,) * s
                        f, e = ((), word) if sign == PLUS else (word, ())
                        terms[(k_one(datum.rank), f, e)] = coeff
                    want = TriElem(ctx, "localized", terms)
                    assert ops_._letter_image(i, sign, j) == want


class TestBraidRelations:
    def test_a2(self, a2):
        assert a2.braid_relation_check(0, 1)

    def test_a1xa1(self):
        o = ops("A1xA1")
        assert o.braid_relation_check(0, 1)

    def test_b2(self):
        o = ops("B2")
        assert o.braid_relation_check(0, 1)

    def test_infinite_unsupported(self):
        o = ops("A1affine")
        with pytest.raises(ValueError):
            o.braid_relation_check(0, 1)


class TestEquivariance:
    def test_on_generators(self, a2):
        for x in a2.generators():
            rep = a2.T_equivariance_check(0, x)
            assert all(rep.values()), rep

    def test_on_random(self, a2):
        rng = random.Random(61)
        for _ in range(4):
            x = rand_tri(a2.ctx, rng)
            for i in range(2):
                rep = a2.T_equivariance_check(i, x)
                assert all(rep.values())

    def test_inverse(self, a2):
        rng = random.Random(63)
        for _ in range(4):
            x = rand_tri(a2.ctx, rng)
            assert inverse_check(a2, 0, x)
            assert inverse_check(a2, 1, x)


class TestSchubert:
    def test_single_reflection(self, sl2):
        assert sl2.schubert_pbw((0,), (3,)) == sl2.ctx.half.word(PLUS, "111")

    def test_a2_second_root(self, a2):
        # word (1,2), amounts (0,1) gives T_1(E_2)
        got = a2.schubert_pbw((0, 1), (0, 1))
        assert got == a2.T_half(0, a2.ctx.half.gen(PLUS, 1))

    def test_rejects_nonreduced(self, a2):
        with pytest.raises(ValueError):
            a2.schubert_pbw((0, 0), (1, 1))

    def test_rejects_amounts_of_another_length(self, a2):
        # zip would drop the third amount without a word
        with pytest.raises(ValueError, match="3 PBW amounts for a word of length 2"):
            a2.schubert_pbw((0, 1), (1, 0, 1))

    def test_rejects_negative_amounts(self, a2):
        # E_12^-2 must not be read as the unit, which left E_2
        with pytest.raises(ValueError, match="negative PBW amount"):
            a2.schubert_pbw((0, 1, 0), (0, -2, 1))

    @pytest.mark.parametrize("preset", ["A1", "A1xA1", "A2", "B2", "G2", "A3"])
    def test_mu_against_the_inversion_sets(self, preset):
        # every amount vector of height <= 6, on the longest word and its
        # reversal, both reduced words of the longest element
        braid = ops(preset)
        datum = braid.datum
        longest = datum.longest_word()
        for word in (longest, longest[::-1]):
            heights = [sum(datum.weyl_act(word[:r], datum.alpha(i))) for r, i in enumerate(word)]
            for a in amount_vectors(heights, 6):
                assert braid.mu_exponent(word, a) == mu_by_inversions(datum, word, a), (word, a)

    def test_scaled_pairing_diagonal(self, a2):
        # <mu E_i^a', mu F_i^a> diagonal with Z[q, q^-1] entries, heights <= 3
        half = a2.ctx.half
        word = (0, 1, 0)
        amounts = []
        roots = [(1, 0), (1, 1), (0, 1)]
        for a1 in range(3):
            for a2_ in range(3):
                for a3 in range(3):
                    deg = tuple(
                        a1 * r1 + a2_ * r2 + a3 * r3
                        for r1, r2, r3 in zip(roots[0], roots[1], roots[2])
                    )
                    if sum(deg) <= 3:
                        amounts.append((a1, a2_, a3))
        for a in amounts:
            ea = schubert_pbw_scaled(a2, word, a)
            for b in amounts:
                dega = a2.schubert_pbw(word, a).degrees()
                degb = a2.schubert_pbw(word, b).degrees()
                if dega != degb:
                    continue
                fb = half.flip(schubert_pbw_scaled(a2, word, b))
                val = half.pair(ea, fb)
                if a == b:
                    assert not val.is_zero()
                    assert val.is_laurent()
                    assert all(k % 2 == 0 for k in val.as_laurent().c)
                else:
                    assert val.is_zero(), (a, b, val)

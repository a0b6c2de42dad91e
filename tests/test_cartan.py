from itertools import product

import pytest

from qdouble.cartan import CartanDatum, CartanError, PRESETS, get_datum
from qdouble.double import DoubleContext, k_one
from qdouble.halves import HalfAlgebra


A2 = PRESETS["A2"]
B2 = PRESETS["B2"]
G2 = PRESETS["G2"]


def length_by_count(datum, word):
    """The length of the word's element as the number of positive roots it
    sends negative (finite type): the count that reducedness by roots
    replaces."""
    return sum(1 for beta in datum.positive_roots() if min(datum.weyl_act(word, beta)) < 0)


class TestDot:
    def test_a2_cross(self):
        assert A2.dot((1, 0), (0, 1)) == -1

    def test_zero(self):
        assert A2.dot((3, 2), (0, 0)) == 0

    def test_b2_cross(self):
        # d1 a12 = 1 * (-2)
        assert B2.dot((1, 0), (0, 1)) == -2

    def test_symmetry(self):
        for datum in PRESETS.values():
            n = datum.rank
            for i in range(n):
                for j in range(n):
                    assert datum.dot(datum.alpha(i), datum.alpha(j)) == datum.dot(datum.alpha(j), datum.alpha(i))


class TestUlgamma:
    def test_simple_roots(self):
        for datum in PRESETS.values():
            for i in range(datum.rank):
                assert datum.ulgamma(datum.alpha(i)) == 0

    def test_cocycle(self):
        a = (2, 1)
        b = (0, 3)
        s = tuple(x + y for x, y in zip(a, b))
        assert A2.ulgamma(s) == A2.ulgamma(a) + A2.ulgamma(b) + A2.dot(a, b)

    def test_sl2_power(self):
        A1 = PRESETS["A1"]
        for k in range(6):
            assert A1.ulgamma((k,)) == k * k - k


class TestCoroot:
    # alpha_i^vee on the bidegree of a term: +-a_ij on alpha_{+-j}, the plus
    # degree read from the E-word and the minus degree from the F-word
    ctx = DoubleContext(HalfAlgebra(A2))
    K = k_one(2)

    def test_plus(self):
        assert self.ctx.coroot_of_term(0, (self.K, (), (0,))) == 2

    def test_minus(self):
        assert self.ctx.coroot_of_term(0, (self.K, (0,), ())) == -2

    def test_symmetric_kills(self):
        for w in [(0,), (0, 0, 1, 1, 1)]:
            assert self.ctx.coroot_of_term(0, (self.K, w, w)) == 0
            assert self.ctx.coroot_of_term(1, (self.K, w, w)) == 0


class TestDegrees:
    def test_sl2(self):
        A1 = PRESETS["A1"]
        assert A1.degrees_up_to((2,)) == [(0,), (1,), (2,)]

    def test_a2(self):
        assert A2.degrees_up_to((1, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_grid_count(self):
        # oracle: grid count
        assert len(A2.degrees_up_to((2, 2))) == 9

    @pytest.mark.parametrize("preset", ["A1", "A2", "A3"])
    def test_degrees_of_height_against_recursion(self, preset):
        # the recursive enumerator degrees_of_height once had, as a reference
        datum = PRESETS[preset]

        def reference(h):
            out = []

            def rec(prefix, remaining, slots):
                if slots == 1:
                    out.append(tuple(prefix + [remaining]))
                    return
                for k in range(remaining + 1):
                    rec(prefix + [k], remaining - k, slots - 1)

            rec([], h, datum.rank)
            return sorted(out)

        for h in range(7):
            assert datum.degrees_of_height(h) == reference(h)


class TestValidation:
    def test_rejects_asymmetrizable(self):
        with pytest.raises(CartanError):
            CartanDatum(("1", "2"), ((2, -2), (-1, 2)), (1, 1))

    def test_rejects_positive_offdiag(self):
        with pytest.raises(CartanError):
            CartanDatum(("1", "2"), ((2, 1), (1, 2)), (1, 1))

    def test_json_roundtrip(self):
        j = B2.to_json()
        back = CartanDatum.from_json(j)
        assert back.A == B2.A and back.d == B2.d and back.labels == B2.labels

    def test_presets_resolve(self):
        for name in PRESETS:
            assert get_datum(name).rank >= 1


class TestWeyl:
    def test_positive_root_counts(self):
        assert len(PRESETS["A1"].positive_roots()) == 1
        assert len(A2.positive_roots()) == 3
        assert len(B2.positive_roots()) == 4
        assert len(G2.positive_roots()) == 6
        assert len(PRESETS["A3"].positive_roots()) == 6

    def test_affine_rejected(self):
        assert not PRESETS["A1affine"].is_finite_type()
        with pytest.raises(CartanError):
            PRESETS["A1affine"].positive_roots()

    def test_longest_words_reduced(self):
        # the PBW words behind the canonical-basis labels of the finite presets
        expected = {
            "A1": (0,),
            "A1xA1": (0, 1),
            "A2": (0, 1, 0),
            "B2": (0, 1, 0, 1),
            "G2": (0, 1, 0, 1, 0, 1),
            "A3": (0, 1, 0, 2, 1, 0),
        }
        assert {name for name, d in PRESETS.items() if d.is_finite_type()} == set(expected)
        for name, word in expected.items():
            datum = PRESETS[name]
            assert datum.longest_word() == word
            assert datum.is_reduced(word)
            assert len(word) == len(datum.positive_roots())

    def test_unknown_label(self):
        with pytest.raises(CartanError, match="unknown index label '9'"):
            A2.index("9")

    def test_reducedness(self):
        assert A2.is_reduced((0, 1, 0))
        assert not A2.is_reduced((0, 0))

    @pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
    def test_reducedness_against_the_length_count(self, name):
        # every word of length <= |positive roots|, reduced or not: reduced
        # iff its element's length, counted root by root, is its length
        datum = PRESETS[name]
        seen = set()
        for m in range(len(datum.positive_roots()) + 1):
            for word in product(range(datum.rank), repeat=m):
                reduced = datum.is_reduced(word)
                assert reduced == (length_by_count(datum, word) == m), word
                seen.add(reduced)
        assert seen == {True, False}

    def test_word_roots_once_per_word(self, monkeypatch):
        # the roots of a word are computed once per datum and word, in any
        # form of the word; reducedness reads them and still fails a word
        # that is not reduced when its roots are already known
        datum = CartanDatum(A2.labels, A2.A, A2.d)
        calls, real = [], CartanDatum.weyl_act
        monkeypatch.setattr(CartanDatum, "weyl_act", lambda self, w, a: calls.append(w) or real(self, w, a))
        roots = datum.word_roots((0, 1, 0))
        assert roots == ((1, 0), (1, 1), (0, 1)) and len(calls) == 3
        assert datum.word_roots([0, 1, 0]) is roots and datum.is_reduced((0, 1, 0))
        for _ in range(2):
            assert not datum.is_reduced((1, 1))
        assert len(calls) == 5

    def test_reducedness_on_kac_moody_data(self):
        # A1affine has infinitely many positive roots: every alternating word
        # is reduced, and a repeated letter is not
        aff = PRESETS["A1affine"]
        for m in range(1, 9):
            for first in (0, 1):
                assert aff.is_reduced(tuple((first + k) % 2 for k in range(m)))
        assert not aff.is_reduced((0, 1, 1))

    def test_braid_orders(self):
        assert A2.braid_order(0, 1) == 3
        assert B2.braid_order(0, 1) == 4
        assert G2.braid_order(0, 1) == 6
        assert PRESETS["A1xA1"].braid_order(0, 1) == 2
        assert PRESETS["A1affine"].braid_order(0, 1) == 0

    def test_two_rho(self):
        # sl2: 2 rho . (m omega) = m
        assert PRESETS["A1"].two_rho_dot((3,)) == 3
        # sp4 fundamental weights (checked against the q-exponents in the paper's tables)
        assert B2.two_rho_dot((1, 0)) == 4
        assert B2.two_rho_dot((0, 1)) == 6
        # sl(n+1), vector weight: equals n
        assert A2.two_rho_dot((1, 0)) == 2
        assert PRESETS["A3"].two_rho_dot((1, 0, 0)) == 3

import random
import re
from itertools import permutations

import pytest

from qdouble import Algebra, linalg
from qdouble.canbasis import TableIncomplete, UnknownLabel, UserTableError, sigma_matrix
from qdouble.cartan import PRESETS
from qdouble.halves import PLUS, MINUS, half_to_obj
from qdouble.scalar import Laurent, Rat, RAT_ONE, RAT_ZERO, accumulate, nu_power, qangle, qround
from test_linalg import reference_mat_mul


def coproduct(half, x):
    """Coproduct of an element: dict (left word, right word) -> Rat."""
    out = {}
    for w, c in x.terms.items():
        for weight, lw, rw in half.coproduct_word(w):
            accumulate(out, (lw, rw), c * nu_power(weight))
    return out


# The printed dual tables, kept as data independent of the Gram-dual builder.

def affine22_printed(aff):
    """A1affine degree (2,2): three dual elements per ordered pair (i, j)."""
    half = aff.half
    q2 = Rat.of(qround(2, 2))
    q3 = Rat.of(qround(3, 2))
    ang = lambda k: Rat.of(qangle(k, 2))  # noqa: E731
    labels, elems = [], []
    for i, j in [(0, 1), (1, 0)]:
        w = lambda s: half.word(MINUS, [{"i": i, "j": j}[ch] for ch in s])  # noqa: E731
        den124 = (ang(1) * ang(2) * ang(4)).inv()
        den14 = (ang(1) * ang(4)).inv()
        f_j2i2 = (
            w("iijj").scale(nu_power(4) * q2)
            - w("ijij").scale(nu_power(6) * Rat.of(2) + q2)
            + (w("ijji") + w("jiij")).scale(ang(1))
            + w("jiji").scale(q2 + nu_power(-6) * Rat.of(2))
            - w("jjii").scale(nu_power(-4) * q2)
        ).scale(den124)
        f_ij2i = (
            w("iijj")
            + w("jjii")
            + w("jiij")
            + (w("ijji") - w("ijij") - w("jiji")).scale(q3)
        ).scale(den14)
        f_jiji = (
            w("jjii").scale(nu_power(-4) * q2)
            - w("iijj").scale(nu_power(4) * q2)
            + (w("jiij") + w("ijji")).scale(nu_power(-6) - nu_power(6))
            + w("ijij").scale(nu_power(8) * (Rat.of(2) * nu_power(-6) + q2))
            - w("jiji").scale(nu_power(-8) * (Rat.of(2) * nu_power(6) + q2))
        ).scale(den124)
        li, lj = aff.datum.labels[i], aff.datum.labels[j]
        labels += [f"F[{lj} {lj} {li} {li}]", f"F[{li} {lj} {lj} {li}]", f"F[{lj} {li} {lj} {li}]"]
        elems += [f_j2i2, f_ij2i, f_jiji]
    return labels, elems


def r3_printed(r3):
    """R3 degree (1,1,1): F[i j k] for each permutation (i, j, k)."""
    half = r3.half
    q2 = Rat.of(qround(2, 2))
    den = (Rat.of(qangle(1, 2)) * Rat.of(qangle(3, 2))).inv()
    labels, elems = [], []
    for i, j, k in permutations(range(3)):
        w = lambda seq: half.word(MINUS, seq)  # noqa: E731
        elem = (
            (w([k, j, i]).scale(q2) - w([j, k, i]) - w([k, i, j])).scale(nu_power(3))
            + (w([i, j, k]).scale(q2) - w([i, k, j]) - w([j, i, k])).scale(nu_power(-3))
        ).scale(den)
        labels.append(f"F[{r3.datum.labels[i]} {r3.datum.labels[j]} {r3.datum.labels[k]}]")
        elems.append(elem)
    return labels, elems


@pytest.fixture(scope="module")
def a2():
    return Algebra.get("A2")


@pytest.fixture(scope="module")
def sl2():
    return Algebra.get("A1")


@pytest.fixture(scope="module")
def b2():
    return Algebra.get("B2")


class TestFgfrm:
    def test_power_duality(self, sl2):
        # ((F^n, F^<n>)) = 1
        half = sl2.half
        for n in range(1, 6):
            fn = half.word(MINUS, "1" * n)
            fdiv = half.gen_divided(MINUS, 0, n)
            assert sl2.fgfrm(fn, fdiv) == RAT_ONE

    def test_degree_mismatch(self, a2):
        half = a2.half
        assert a2.fgfrm(half.word(MINUS, "1"), half.word(MINUS, "2")).is_zero()

    def test_plus_operand_raises(self, a2):
        half = a2.half
        with pytest.raises(ValueError):
            a2.fgfrm(half.word(PLUS, "1"), half.word(MINUS, "1"))

    def test_symmetry_random(self, a2):
        import random

        half = a2.half
        rng = random.Random(71)
        for _ in range(12):
            w1 = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 5)))
            w2 = tuple(rng.randrange(2) for _ in range(len(w1)))
            x = half.element(MINUS, {w1: Rat.of(Laurent({rng.randrange(-2, 3): 1}))})
            y = half.element(MINUS, {w2: RAT_ONE})
            assert a2.fgfrm(x, y) == a2.fgfrm(y, x)


class TestCanonicalBasisSL2:
    def test_divided_powers(self, sl2):
        for r in range(5):
            table = sl2.tables.canonical_basis((r,))
            assert len(table.elements) == 1
            assert table.elements[0] == sl2.half.gen_divided(MINUS, 0, r)

    def test_dual_is_power(self, sl2):
        for r in range(5):
            table = sl2.tables.dcb_table((r,))
            assert table.minus == [sl2.half.word(MINUS, [0] * r)]


class TestCanonicalBasisA2:
    def test_degree_11(self, a2):
        table = a2.tables.canonical_basis((1, 1))
        half = a2.half
        expected = {
            (half.gen_divided(MINUS, 0, 1) * half.gen_divided(MINUS, 1, 1)).key(),
            (half.gen_divided(MINUS, 1, 1) * half.gen_divided(MINUS, 0, 1)).key(),
        }
        assert {x.key() for x in table.elements} == expected

    def test_degree_21_sandwiches(self, a2):
        # the two-letter family spans degree 2a1 + a2: F1^<s> F2^<1> F1^<n-s>
        table = a2.tables.canonical_basis((2, 1))
        half = a2.half
        # this degree exceeds -a_12 = 1 so it comes from the PBW engine; it
        # must agree with Gram-duality against the monomial dual family below
        assert len(table.elements) == a2.half.dim((2, 1)) == 2

    def test_family_matches_gram_dual(self, a2):
        # every A2 label through height 4 names the PBW monomial
        # v^((a1-a2)(a12-a21)) E1^a1 E2^a2 E12^a12 E21^a21, with
        # E12 = T_1(E_2) and E21 = T_2(E_1)
        half = a2.half
        e1, e2 = half.gen(PLUS, 0), half.gen(PLUS, 1)
        e12, e21 = a2.braid.T_half(0, e2), a2.braid.T_half(1, e1)
        checked = 0
        for gamma in a2.datum.degrees_up_to((4, 4)):
            if not 0 < sum(gamma) <= 4:
                continue
            for lab in a2.tables.labels_of_degree(gamma):
                a1, a2_, a12, a21 = map(int, lab[len("b+(") : -1].split(","))
                want = (e1**a1 * e2**a2_ * e12**a12 * e21**a21).scale(
                    nu_power((a1 - a2_) * (a12 - a21))
                )
                assert a2.dcb_elem(PLUS, lab) == want, lab
                checked += 1
        assert checked == 21

    def test_fij_anchor(self, a2):
        # delta of F2^<1> F1^<1> equals the two-letter recursion element F_[12]
        f12 = a2.tables.two_letter_dcb(0, 1, 1, 0)
        half = a2.half
        cb = half.gen_divided(MINUS, 1, 1) * half.gen_divided(MINUS, 0, 1)
        assert a2.fgfrm(f12, cb) == RAT_ONE
        other = half.gen_divided(MINUS, 0, 1) * half.gen_divided(MINUS, 1, 1)
        assert a2.fgfrm(f12, other).is_zero()
        # and it is one of the table entries
        lab = a2.label_of(MINUS, f12)
        assert lab == "b+(0,0,1,0)" or lab == "b+(0,0,0,1)"


class TestJsonDatum:
    def test_json_a2_takes_the_pbw_path(self, a2):
        # a datum given as JSON is recognised as finite type by its matrix
        alg = Algebra(PRESETS["A2"].to_json())
        assert len(alg.tables.dcb_table((2, 2)).labels) == 3
        got = alg.tables.canonical_basis((2, 1))
        want = a2.tables.canonical_basis((2, 1))
        assert got.labels == want.labels
        assert [x.terms for x in got.elements] == [x.terms for x in want.elements]

    @pytest.mark.parametrize("preset, gamma", [("A1affine", (2, 2)), ("R3", (1, 1, 1))])
    def test_nameless_json_takes_the_hand_table(self, preset, gamma):
        # the hand tables are chosen by the Cartan data, not by the name
        def render(table):
            return table.labels, [half_to_obj(x) for x in table.elements], table.dual_labels

        got = Algebra(PRESETS[preset].to_json()).tables.canonical_basis(gamma)
        assert render(got) == render(Algebra.get(preset).tables.canonical_basis(gamma))

    def test_nameless_json_named_in_incomplete_message(self):
        alg = Algebra(PRESETS["A1affine"].to_json())
        with pytest.raises(TableIncomplete, match=r"source for \{.*\[\[2, -2\], \[-2, 2\]\].*\} degree \(3, 2\)"):
            alg.tables.canonical_basis((3, 2))


class TestCanonicalBasisB2:
    def test_degree_11(self, b2):
        table = b2.tables.canonical_basis((1, 1))
        half = b2.half
        expected = {
            (half.gen_divided(MINUS, 0, 1) * half.gen_divided(MINUS, 1, 1)).key(),
            (half.gen_divided(MINUS, 1, 1) * half.gen_divided(MINUS, 0, 1)).key(),
        }
        assert {x.key() for x in table.elements} == expected

    def test_degree_21_matches_family(self, b2):
        # n = 2 = -a_12: ex-fij family covers degree (2,1)
        table = b2.tables.canonical_basis((2, 1))
        half = b2.half
        expected = set()
        for s in range(3):
            elem = (
                half.gen_divided(MINUS, 0, s)
                * half.gen_divided(MINUS, 1, 1)
                * half.gen_divided(MINUS, 0, 2 - s)
            )
            expected.add(elem.key())
        assert {x.key() for x in table.elements} == expected

    def test_two_letter_duality(self, b2):
        # F_{1^s 2 1^r} is dual to F1^<r> F2^<1> F1^<s> (note the reversal)
        half = b2.half
        for s in range(3):
            r = 2 - s
            delta = b2.tables.two_letter_dcb(0, 1, s, r)
            for s2 in range(3):
                r2 = 2 - s2
                cb = (
                    half.gen_divided(MINUS, 0, r2)
                    * half.gen_divided(MINUS, 1, 1)
                    * half.gen_divided(MINUS, 0, s2)
                )
                expected = RAT_ONE if (s2, r2) == (s, r) else Rat.of(0)
                assert b2.fgfrm(delta, cb) == expected, (s, r, s2, r2)


class TestTwoLetterFamilyG2:
    def test_duality_grid(self):
        g2 = Algebra.get("G2")
        half = g2.half
        for n in range(1, 4):
            for s in range(n + 1):
                delta = g2.tables.two_letter_dcb(0, 1, s, n - s)
                for s2 in range(n + 1):
                    cb = (
                        half.gen_divided(MINUS, 0, n - s2)
                        * half.gen_divided(MINUS, 1, 1)
                        * half.gen_divided(MINUS, 0, s2)
                    )
                    expected = RAT_ONE if s2 == s else Rat.of(0)
                    assert g2.fgfrm(delta, cb) == expected

    def test_rejects_out_of_range(self):
        # a_01 = -3 in G2: s + r = 4 is past the family
        with pytest.raises(ValueError, match="out of range"):
            Algebra.get("G2").tables.two_letter_dcb(0, 1, 2, 2)


class TestPrintedTables:
    """The Gram-dual tables equal the printed tables: labels and elements, in
    order."""

    def test_affine22(self):
        aff = Algebra.get("A1affine")
        table = aff.tables.dcb_table((2, 2))
        labels, elems = affine22_printed(aff)
        assert table.labels == labels
        assert table.minus == elems

    def test_r3_111(self):
        r3 = Algebra.get("R3")
        table = r3.tables.dcb_table((1, 1, 1))
        labels, elems = r3_printed(r3)
        assert table.labels == labels
        assert table.minus == elems

    @pytest.mark.parametrize("preset", ["B2", "G2", "A1affine", "R3"])
    def test_two_letter_recursion(self, preset):
        # degree n alpha_i + alpha_j, n <= -a_ij: F[i^s j i^r] for s = n..0
        alg = Algebra.get(preset)
        datum = alg.datum
        degrees = 0
        for i in range(datum.rank):
            for j in range(datum.rank):
                for n in range(1, -datum.A[i][j] + 1):
                    if i == j or (n == 1 and i > j):
                        continue
                    gamma = tuple(n * (k == i) + (k == j) for k in range(datum.rank))
                    table = alg.tables.dcb_table(gamma)
                    li, lj = datum.labels[i], datum.labels[j]
                    assert table.labels == [
                        "F[" + " ".join([li] * s + [lj] + [li] * (n - s)) + "]"
                        for s in range(n, -1, -1)
                    ]
                    assert table.minus == [
                        alg.tables.two_letter_dcb(i, j, s, n - s) for s in range(n, -1, -1)
                    ]
                    degrees += 1
        assert degrees == {"B2": 2, "G2": 3, "A1affine": 3, "R3": 3}[preset]


class TestAffine:
    def test_two_letter_degrees(self):
        aff = Algebra.get("A1affine")
        table = aff.tables.dcb_table((2, 1))
        assert len(table.labels) == 3

    def test_degree22_duality(self):
        aff = Algebra.get("A1affine")
        dcb = aff.tables.dcb_table((2, 2))
        cb = aff.tables.canonical_basis((2, 2))
        assert len(dcb.minus) == len(cb.elements) == 6
        M = [[aff.fgfrm(dm, c) for c in cb.elements] for dm in dcb.minus]
        hit_cols = set()
        for row in M:
            nz = [j for j, v in enumerate(row) if not v.is_zero()]
            assert len(nz) == 1 and row[nz[0]] == RAT_ONE, row
            hit_cols.add(nz[0])
        assert hit_cols == set(range(6))

    def test_bar_fixed(self):
        aff = Algebra.get("A1affine")
        for lab in aff.tables.labels_of_degree((2, 2)):
            x = aff.dcb_elem(MINUS, lab)
            assert aff.half.bar(x) == x

    def test_incomplete_degree_raises(self):
        aff = Algebra.get("A1affine")
        with pytest.raises(TableIncomplete, match="no canonical basis source"):
            aff.tables.dcb_table((3, 2))


class TestR3:
    def test_duality(self):
        r3 = Algebra.get("R3")
        dcb = r3.tables.dcb_table((1, 1, 1))
        assert len(dcb.minus) == 6 == r3.half.dim((1, 1, 1))
        # the six permutation elements are linearly independent and bar-fixed
        for x in dcb.minus:
            assert r3.half.bar(x) == x

    def test_fijk_dual_to_cb(self):
        # F_ijk = delta of F_k^<1> F_j^<1> F_i^<1>
        r3 = Algebra.get("R3")
        half = r3.half
        f123 = r3.dcb_elem(MINUS, "F[1 2 3]")
        cb = (
            half.gen_divided(MINUS, 2, 1)
            * half.gen_divided(MINUS, 1, 1)
            * half.gen_divided(MINUS, 0, 1)
        )
        assert r3.fgfrm(f123, cb) == RAT_ONE


class TestSigmaMatrix:
    @pytest.mark.parametrize("preset, gamma", [("A2", (3, 3)), ("B2", (3, 2)), ("A3", (1, 2, 1))])
    def test_matches_rat_product(self, preset, gamma):
        # the fraction-free sigma-matrix against (-1)^height bar(W) W^-1 by
        # the Rat triple loop, on PBW coordinates over a nontrivial denominator
        alg = Algebra.get(preset)
        _, scaled = alg.tables._pbw_monomials(gamma)
        basis = alg.half.degree_basis(gamma)
        W = [basis.coords(x.terms) for x in scaled]
        assert not linalg.fraction_rows(W)[1].is_one()
        sign = Rat.of((-1) ** sum(gamma))
        want = reference_mat_mul([[c.bar() * sign for c in row] for row in W], linalg.invert(W))
        sig = sigma_matrix(W, sum(gamma))
        assert sig == want
        assert any(c for k, row in enumerate(sig) for c in row[k + 1 :])


class TestDCBProperties:
    def test_bar_fixed_and_star_stable(self, a2):
        for gamma in [(1, 1), (2, 1), (2, 2)]:
            labs = a2.tables.labels_of_degree(gamma)
            keys = {a2.dcb_elem(MINUS, lab).key() for lab in labs}
            for lab in labs:
                x = a2.dcb_elem(MINUS, lab)
                assert a2.half.bar(x) == x, lab
                assert a2.half.star(x).key() in keys, lab

    def test_integral_lattice(self, a2):
        # q^(-ulgamma/2) b lies in the lattice dual to divided-power monomials:
        # its pairing against every product of E_i^<n>'s is in Z[q, q^-1]
        def divided_monomials(gamma):
            if not any(gamma):
                yield a2.half.unit(PLUS)
                return
            for i in range(len(gamma)):
                if gamma[i] == 0:
                    continue
                for n in range(1, gamma[i] + 1):
                    rest = list(gamma)
                    rest[i] -= n
                    head = a2.half.gen_divided(PLUS, i, n)
                    for tail in divided_monomials(tuple(rest)):
                        yield head * tail

        for gamma in [(1, 1), (2, 1), (2, 2)]:
            for lab in a2.tables.labels_of_degree(gamma):
                x = a2.dcb_elem(MINUS, lab).scale(nu_power(-a2.datum.ulgamma(gamma)))
                for mono in divided_monomials(gamma):
                    val = a2.pair(mono, x)
                    assert val.is_laurent(), (lab, val)
                    assert all(k % 2 == 0 for k in val.as_laurent().c)

    def test_pairing_integrality_semisimple(self, a2):
        # <B_{n+}, B_{n-}> in Z[q, q^-1] spot-checked through height 4
        for gamma in [(1, 1), (2, 1), (2, 2)]:
            for lm in a2.tables.labels_of_degree(gamma):
                for lp in a2.tables.labels_of_degree(gamma):
                    val = a2.pair(a2.dcb_elem(PLUS, lp), a2.dcb_elem(MINUS, lm))
                    assert val.is_laurent()
                    assert all(k % 2 == 0 for k in val.as_laurent().c)

    def test_word_to_dcb_roundtrip(self, a2):
        gamma = (2, 1)
        table = a2.tables.dcb_table(gamma)
        w2d = a2.tables.word_to_dcb(gamma)
        # one map serves both halves: F-words over b_-, E-words over b_+
        for sign in (MINUS, PLUS):
            for w, row in w2d.items():
                rebuilt = a2.half.zero(sign)
                for lab, c in row.items():
                    rebuilt = rebuilt + a2.dcb_elem(sign, lab).scale(c)
                assert rebuilt == a2.half.word(sign, w)


class TestDualBasis:
    DEGREES = [("A2", (2, 2)), ("B2", (2, 2)), ("A1affine", (2, 2)), ("R3", (1, 1, 1))]

    @pytest.mark.parametrize("preset, gamma", DEGREES)
    def test_dual_of_dual(self, preset, gamma):
        tables = Algebra.get(preset).tables
        cb = tables.canonical_basis(gamma).elements
        duals = tables.dual_basis(gamma, cb)
        assert tables.dual_basis(gamma, duals) == cb
        # the word-level form is an independent route to the same duality
        for k, d in enumerate(duals):
            for l, c in enumerate(cb):
                assert tables.fgfrm(d, c) == (RAT_ONE if k == l else Rat.of(0)), (k, l)

    @staticmethod
    def _rebuilds_every_word(alg, gamma, nonpivot):
        basis = alg.half.degree_basis(gamma)
        assert (len(basis.words) > basis.rank) == nonpivot
        w2d = alg.tables.word_to_dcb(gamma)
        assert list(w2d) == basis.words
        for w, row in w2d.items():
            rebuilt = alg.half.zero(MINUS)
            for lab, c in row.items():
                rebuilt = rebuilt + alg.dcb_elem(MINUS, lab).scale(c)
            assert rebuilt == alg.half.element(MINUS, {w: RAT_ONE}), w

    @pytest.mark.parametrize(
        "preset, gamma, nonpivot",
        [("A2", (2, 2), True), ("B2", (3, 1), True), ("A1affine", (2, 2), False)],
    )
    def test_word_to_dcb_rebuilds_every_word(self, preset, gamma, nonpivot):
        self._rebuilds_every_word(Algebra.get(preset), gamma, nonpivot)

    def test_word_to_dcb_user_table(self):
        # A1affine (1,3) has no canonical-basis source: a bar-invariant user
        # table is a basis, and its words expand over it
        alg = Algebra("A1affine")
        gamma = (1, 3)
        w1222, w2122, w2212, w2221 = alg.half.words_of_degree(gamma)
        fixed = [
            {w1222: RAT_ONE, w2221: RAT_ONE},
            {w2122: RAT_ONE, w2212: RAT_ONE},
            {w1222: nu_power(1), w2221: nu_power(-1)},
        ]
        alg.tables.load_user_table(
            gamma, [(f"x{k}", alg.half.element(MINUS, t)) for k, t in enumerate(fixed)]
        )
        self._rebuilds_every_word(alg, gamma, True)


class TestLabelsByName:
    @pytest.mark.parametrize(
        "preset, label, gamma",
        [
            ("A1", "1", (0,)),
            ("A1", "F[1^2]", (2,)),
            ("B2", "F[1 2 1]", (2, 1)),
            ("B2", "b(2,2).0", (2, 2)),
            ("A2", "b+(0,1,1,1)", (2, 3)),
        ],
    )
    def test_label_names_its_degree(self, preset, label, gamma):
        # a label of a degree not yet built is found by building that degree
        tables = Algebra(preset).tables
        assert tables.degree_of(label) == gamma
        assert label in tables.labels_of_degree(gamma)


class TestLoadUserTable:
    # load_user_table is the one rule book of a user block; a refused block
    # leaves its degree to the built table

    @staticmethod
    def _refused(alg, gamma, labeled, message):
        with pytest.raises(UserTableError, match=re.escape(message)):
            alg.tables.load_user_table(gamma, labeled)
        assert alg.tables.labels_of_degree(gamma) == Algebra.get("A2").tables.labels_of_degree(gamma)

    @pytest.mark.parametrize(
        "element, message",
        [
            (lambda h: h.gen(PLUS, 0), "element 'x' is E-side; tables hold F-side elements"),
            (lambda h: h.gen(MINUS, 0).scale(0), "element 'x' is zero"),
            (lambda h: h.gen(MINUS, 1), "element 'x' has a word not of degree [1, 0]"),
        ],
        ids=["E-side", "zero", "wrong-degree"],
    )
    def test_element_refused(self, element, message):
        alg = Algebra("A2")
        self._refused(alg, (1, 0), [("x", element(alg.half))], message)
        with pytest.raises(UnknownLabel):
            alg.tables.degree_of("x")

    @pytest.mark.parametrize(
        "label, owner",
        [("1", (0, 0)), ("b+(0,0,1,0)", (1, 1)), ("y", (0, 1))],
        ids=["unit", "built-in-other-degree", "registered"],
    )
    def test_taken_label_refused(self, label, owner):
        # a label names one element of one degree: the built-in labels of
        # other degrees and the labels of registered tables are taken
        alg = Algebra("A2")
        alg.tables.load_user_table((0, 1), [("y", alg.half.gen(MINUS, 1))])
        message = f"label {label!r} of degree [1, 0] is taken by degree {list(owner)}"
        self._refused(alg, (1, 0), [(label, alg.half.gen(MINUS, 0))], message)
        assert alg.tables.degree_of(label) == owner

    def test_label_twice_in_a_block_refused(self):
        elems = Algebra.get("A2").tables.dcb_table((1, 1)).minus
        message = "label 'x' of degree [1, 1] is taken by degree [1, 1]"
        self._refused(Algebra("A2"), (1, 1), [("x", elems[0]), ("x", elems[1])], message)

    def test_own_built_in_label_and_one_table_per_degree(self):
        # the block replaces its degree's table, built-in labels included;
        # a degree takes one table, loaded or built
        alg = Algebra("A2")
        alg.tables.load_user_table((1, 0), [("b+(1,0,0,0)", alg.half.gen(MINUS, 0))])
        assert alg.tables.degree_of("b+(1,0,0,0)") == (1, 0)
        alg.tables.labels_of_degree((0, 1))
        for gamma, i in [((1, 0), 0), ((0, 1), 1)]:
            message = f"the table of degree {list(gamma)} is already registered"
            with pytest.raises(UserTableError, match=re.escape(message)):
                alg.tables.load_user_table(gamma, [("z", alg.half.gen(MINUS, i))])
        with pytest.raises(UnknownLabel):
            alg.tables.degree_of("z")


class TestCrystal:
    def test_sl2_chain(self, sl2):
        # partial-tilde^1 (F^2-label on the plus side) -> F-label
        lab2 = sl2.label_of(PLUS, sl2.half.word(PLUS, "11"))
        lab1 = sl2.tables.crystal_shift(0, 1, lab2)
        assert sl2.dcb_elem(PLUS, lab1) == sl2.half.word(PLUS, "1")

    def test_inverse_shift(self, sl2):
        lab1 = sl2.label_of(PLUS, sl2.half.word(PLUS, "1"))
        lab3 = sl2.tables.crystal_shift(0, -2, lab1)
        assert sl2.dcb_elem(PLUS, lab3) == sl2.half.word(PLUS, "111")

    def test_a2_tame_family_shift(self, a2):
        # the printed negative shift on the monomial family:
        # partial-tilde_1^(-r) b+(0,a12,0,a2) = b+(0,a12-r,r,a2)
        for a12 in range(3):
            for a2_ in range(2):
                if a12 == 0 and a2_ == 0:
                    continue
                for r in range(a12 + 1):
                    src = f"b+(0,{a12},0,{a2_})"
                    a2.tables.dcb_table((a2_, a12 + a2_))
                    got = a2.tables.crystal_shift(0, -r, src)
                    assert got == f"b+(0,{a12 - r},{r},{a2_})" or r == 0

    def test_derivative_structure_constants(self, a2):
        # partial_i^(r) of a dual element expands integrally over the table
        gamma = (2, 1)
        for lab in a2.tables.labels_of_degree(gamma):
            x = a2.dcb_elem(PLUS, lab)
            img = a2.half.deriv(0, x, "plain", 1)
            if img.is_zero():
                continue
            coeffs = a2.tables.half_to_dcb(img)
            for c in coeffs.values():
                assert c.is_laurent()


class TestHalfToDcb:
    @pytest.mark.parametrize("preset", ["A2", "B2"])
    def test_matches_word_loop(self, preset):
        # half_to_dcb reads to_dcb of the element in the double; the loop it
        # replaced summed the word-to-label rows over the words of each degree
        alg = Algebra.get(preset)
        rng = random.Random(16)
        for sign in (MINUS, PLUS):
            for _ in range(8):
                terms = {}
                for _ in range(rng.randrange(1, 5)):
                    w = tuple(rng.randrange(2) for _ in range(rng.randrange(4)))
                    terms[w] = Rat.of(Laurent({rng.randrange(-2, 3): rng.choice([-2, -1, 1, 3])}))
                x = alg.half.element(sign, terms)
                want = {}
                for gamma in x.degrees():
                    w2d = alg.tables.word_to_dcb(gamma)
                    for w, c in x.component(gamma).terms.items():
                        for lab, d in w2d[w].items():
                            want[lab] = want.get(lab, RAT_ZERO) + c * d
                want = {lab: c for lab, c in want.items() if not c.is_zero()}
                assert alg.tables.half_to_dcb(x) == want


class TestTwistedStructureConstants:
    def test_product_constants_integral(self, a2):
        # b b' = q^(-deg.deg'/2) sum C~ b'' with C~ Laurent in q
        for g1, g2 in [((1, 0), (0, 1)), ((1, 1), (1, 0)), ((1, 1), (1, 1))]:
            a2.tables.dcb_table(tuple(x + y for x, y in zip(g1, g2)))
            for l1 in a2.tables.labels_of_degree(g1):
                for l2 in a2.tables.labels_of_degree(g2):
                    prod = a2.dcb_elem(MINUS, l1) * a2.dcb_elem(MINUS, l2)
                    coeffs = a2.tables.half_to_dcb(prod)
                    twist = nu_power(a2.datum.dot(g1, g2))
                    for c in coeffs.values():
                        val = c * twist
                        assert val.is_laurent()
                        assert all(k % 2 == 0 for k in val.as_laurent().c)

    def test_coproduct_constants_integral(self, a2):
        # Delta(b) = sum q^(deg'.deg''/2) C~ b' x b'' with C~ Laurent in q
        for gamma in [(1, 1), (2, 1)]:
            for lab in a2.tables.labels_of_degree(gamma):
                elem = a2.dcb_elem(MINUS, lab)
                cop = coproduct(a2.half, elem)
                blocks = {}
                for (lw, rw), c in cop.items():
                    key = (a2.half.word_degree(lw), a2.half.word_degree(rw))
                    blocks.setdefault(key, {})[(lw, rw)] = c
                for (g1, g2), terms in blocks.items():
                    w2d_l = a2.tables.word_to_dcb(g1)
                    w2d_r = a2.tables.word_to_dcb(g2)
                    acc = {}
                    for (lw, rw), c in terms.items():
                        for la, ca in w2d_l[lw].items():
                            for lb, cb in w2d_r[rw].items():
                                acc[(la, lb)] = acc.get((la, lb), c * 0) + c * ca * cb
                    twist = nu_power(-a2.datum.dot(g1, g2))
                    for c in acc.values():
                        val = c * twist
                        assert val.is_laurent()
                        assert all(k % 2 == 0 for k in val.as_laurent().c)

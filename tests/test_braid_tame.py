import pytest

from qdouble import Algebra
from qdouble.braid import reduced_words, tame_apply
from qdouble.double import kmono
from qdouble.halves import PLUS, MINUS
from qdouble.scalar import Rat, nu_power, qsq_binom
from qdouble.sl2oracle import SL2Oracle


@pytest.fixture(scope="module")
def sl2():
    return Algebra.get("A1")


@pytest.fixture(scope="module")
def a2():
    return Algebra.get("A2")


class TestBraidSL2:
    def test_t_of_epow(self, sl2):
        # T(E^m) = K_+^(-m) diamond F^m
        orc = SL2Oracle(sl2.ctx)
        for m in range(4):
            lhs = sl2.braid.T(0, orc.epow(m, "localized"))
            rhs = sl2.ctx.diamond(kmono((0,), (-m,)), orc.fpow(m, "localized"))
            assert lhs == rhs

    def test_t_of_chebyshev(self, sl2):
        # T(C^(r)) = (K_+ K_-)^(-r) C^(r)
        orc = SL2Oracle(sl2.ctx)
        for r in range(4):
            lhs = sl2.braid.T(0, orc.chebyshev(r).with_flavor("localized"))
            rhs = sl2.ctx.multiply(
                sl2.ctx.k_elem(kmono((-r,), (-r,)), "localized"),
                orc.chebyshev(r).with_flavor("localized"),
            )
            assert lhs == rhs

    def test_closed_form(self, sl2):
        # T(K_-^a- K_+^a+ . F^m- bullet E^m+) = K_-^(-a- - m-) K_+^(-a+ - m+) . F^m+ bullet E^m-
        orc = SL2Oracle(sl2.ctx)
        for am in (-1, 0, 2):
            for ap in (0, 1):
                for mm in range(4):
                    for mp in range(4):
                        x = sl2.ctx.diamond(
                            kmono((am,), (ap,)), orc.bullet_closed(mm, mp)
                        ).with_flavor("localized")
                        lhs = sl2.braid.T(0, x)
                        rhs = sl2.ctx.diamond(
                            kmono((-am - mm,), (-ap - mp,)), orc.bullet_closed(mp, mm)
                        ).with_flavor("localized")
                        assert lhs == rhs, (am, ap, mm, mp)

    def test_tame_apply(self, sl2):
        for m in range(4):
            lab = sl2.tables.labels_of_degree((m,))[0]
            K, f_lab, t_lab = tame_apply(sl2, 0, lab)
            assert K == kmono((0,), (-m,))


class TestTameA2:
    def test_all_through_height_3(self, a2):
        for h in range(4):
            for gamma in a2.datum.degrees_of_height(h):
                for lab in a2.tables.labels_of_degree(gamma):
                    for i in range(2):
                        tame_apply(a2, i, lab)

    def test_sl3_closed_form(self, a2):
        # F_1^r bullet b+(0,a2,a12,0) =
        #   sum_t (-1)^t q^(t(|a12-r|+1)) binom_{q^2}(min(r,a12), t)
        #         K_{+1}^t diamond F_1^(r-t) b+(0,a2+t,a12-t,0)
        half = a2.half
        for r in range(3):
            for a2_ in range(2):
                for a12 in range(3):
                    if a12 + a2_ == 0:
                        continue
                    lp = f"b+(0,{a2_},{a12},0)"
                    a2.tables.dcb_table((a12, a2_ + a12))
                    lm = a2.label_of(MINUS, half.word(MINUS, [0] * r)) if r else "1"
                    got = a2.bullet(lm, lp)
                    expected = a2.ctx.zero("full")
                    mn = min(r, a12)
                    for t in range(mn + 1):
                        coeff = Rat.of((-1) ** t) * nu_power(
                            2 * t * (abs(a12 - r) + 1)
                        ) * Rat.of(qsq_binom(mn, t, 4))
                        blab = f"b+(0,{a2_ + t},{a12 - t},0)"
                        a2.tables.dcb_table((a12 - t, a2_ + t + a12 - t))
                        body = a2.ctx.from_halves(
                            minus=half.word(MINUS, [0] * (r - t)),
                            plus=a2.dcb_elem(PLUS, blab),
                            flavor="full",
                        )
                        expected = expected + a2.ctx.diamond(
                            kmono((0, 0), (t, 0)), body
                        ).scale(coeff)
                    assert got == expected, (r, a2_, a12)

    def test_negative_shift_family(self, a2):
        # F_1^r bullet b+(0,a2,0,a21) uses K_{-1} powers and inverted binomials
        half = a2.half
        for r in range(3):
            for a2_ in range(2):
                for a21 in range(3):
                    if a21 + a2_ == 0:
                        continue
                    lp = f"b+(0,{a2_},0,{a21})"
                    a2.tables.dcb_table((a21, a2_ + a21))
                    lm = a2.label_of(MINUS, half.word(MINUS, [0] * r)) if r else "1"
                    got = a2.bullet(lm, lp)
                    expected = a2.ctx.zero("full")
                    mn = min(r, a21)
                    for t in range(mn + 1):
                        coeff = Rat.of((-1) ** t) * nu_power(
                            -2 * t * (abs(a21 - r) + 1)
                        ) * Rat.of(qsq_binom(mn, t, -4))
                        blab = f"b+(0,{a2_ + t},0,{a21 - t})"
                        a2.tables.dcb_table((a21 - t, a2_ + a21))
                        body = a2.ctx.from_halves(
                            minus=half.word(MINUS, [0] * (r - t)),
                            plus=a2.dcb_elem(PLUS, blab),
                            flavor="full",
                        )
                        expected = expected + a2.ctx.diamond(
                            kmono((t, 0), (0, 0)), body
                        ).scale(coeff)
                    assert got == expected, (r, a2_, a21)


class TestReducedWordIndependence:
    def test_a2_all_elements(self, a2):
        seen = set()
        for word in [(0,), (1,), (0, 1), (1, 0), (0, 1, 0)]:
            words = reduced_words(a2.datum, word)
            if word == (0, 1, 0):
                assert set(words) == {(0, 1, 0), (1, 0, 1)}
            for x in a2.braid.generators():
                images = {w: a2.braid.T_word(w, x) for w in words}
                vals = list(images.values())
                assert all(v == vals[0] for v in vals)

    def test_b2_longest(self):
        b2 = Algebra.get("B2")
        words = reduced_words(b2.datum, (0, 1, 0, 1))
        assert set(words) == {(0, 1, 0, 1), (1, 0, 1, 0)}
        for x in b2.braid.generators():
            images = [b2.braid.T_word(w, x) for w in words]
            assert all(v == images[0] for v in images)


class TestWildExample:
    # The wild element is the mixed pair F_ij bullet E_ji of the rank-2
    # tables (the displayed two-term decomposition is not expressible over
    # the basis: the faithful image is pinned down uniquely by the
    # triangular basis property and decomposes into four elements).

    def expansion(self, aff, img):
        shift = kmono((2, 2), (2, 2))
        shifted = aff.ctx.diamond(shift, img).with_flavor("full")
        coeffs = aff.engine.expand_in_bullet_family(aff.tables.to_dcb(shifted))
        return {
            ((tuple(a - 2 for a in am), tuple(a - 2 for a in ap)), lm, lp): c
            for ((am, ap), lm, lp), c in coeffs.items()
        }

    def test_affine_a2_decomposition(self):
        aff = Algebra.get("A1affine")
        lab = lambda s, r: aff.tables._two_letter_label(0, 1, s, r)  # noqa: E731
        for g in [(1, 1), (2, 1), (2, 2), (2, 0), (0, 2)]:
            aff.tables.dcb_table(g)
        img = aff.braid.T(0, aff.bullet(lab(1, 0), lab(0, 1)).with_flavor("localized"))
        assert aff.ctx.bar(img) == img
        got = self.expansion(aff, img)
        two_q = Rat.of(__import__("qdouble.scalar", fromlist=["qround"]).qround(2, 2))
        want = {
            (((-1, 0), (0, 0)), lab(2, 0), lab(2, 0)): Rat.of(1),
            (((-1, 0), (0, 0)), lab(2, 0), lab(1, 1)): two_q,
            (((-1, 0), (1, 1)), "F[1^1]", "F[1^1]"): Rat.of(1),
            (((0, 0), (0, 0)), lab(1, 0), lab(1, 0)): Rat.of(1),
        }
        assert got == want

    def test_wildness(self):
        # the braid image is not a single K-shifted basis element
        aff = Algebra.get("A1affine")
        lab = lambda s, r: aff.tables._two_letter_label(0, 1, s, r)  # noqa: E731
        img = aff.braid.T(0, aff.bullet(lab(1, 0), lab(0, 1)).with_flavor("localized"))
        got = self.expansion(aff, img)
        assert len(got) > 1

    def test_tame_companions(self):
        # the unmixed pairs stay tame under the matching reflection
        aff = Algebra.get("A1affine")
        lab = lambda s, r: aff.tables._two_letter_label(0, 1, s, r)  # noqa: E731
        lab_j = lambda s, r: aff.tables._two_letter_label(1, 0, s, r)  # noqa: E731
        aff.tables.dcb_table((1, 2))
        img = aff.braid.T(1, aff.bullet(lab(1, 0), lab(1, 0)).with_flavor("localized"))
        assert img == aff.bullet(lab(0, 1), lab(0, 1)).with_flavor("localized")
        img2 = aff.braid.T(0, aff.bullet(lab(0, 1), lab(0, 1)).with_flavor("localized"))
        assert img2 == aff.bullet(lab(1, 0), lab(1, 0)).with_flavor("localized")


class TestBraidBasisConjectureReport:
    def test_a2_report(self, a2):
        # membership of T_i(b) in K^-1 diamond B, reported per element
        report = []
        for gamma in [(1, 0), (0, 1), (1, 1)]:
            for lm in a2.tables.labels_of_degree(gamma):
                for lp in a2.tables.labels_of_degree(gamma):
                    img = a2.braid.T(0, a2.bullet(lm, lp).with_flavor("localized"))
                    # clear K-denominators: shift by a large positive K
                    shift = kmono((3, 3), (3, 3))
                    shifted = a2.ctx.diamond(shift, img).with_flavor("full")
                    try:
                        coeffs = a2.engine.expand_in_bullet_family(a2.tables.to_dcb(shifted))
                        member = len(coeffs) == 1 and all(
                            c.is_one() for c in coeffs.values()
                        )
                    except Exception:
                        member = False
                    report.append(((lm, lp), member))
        assert all(member for _, member in report), report

import pytest

from qdouble.double import DoubleContext, kmono
from qdouble.halves import HalfAlgebra
from qdouble.scalar import Rat, nu_power
from qdouble.sl2oracle import SL2Oracle


@pytest.fixture(scope="module")
def orc():
    return SL2Oracle()


class TestChebyshev:
    def test_c0_c1(self, orc):
        assert orc.chebyshev(0) == orc.ctx.one("full")
        c1 = orc.chebyshev(1)
        expected = (
            orc.fe_word(0, 0, 1, 1)
            - orc.fe_word(0, 1, 0, 0).scale(nu_power(2))
            - orc.fe_word(1, 0, 0, 0).scale(nu_power(-2))
        )
        assert c1 == expected

    def test_c1_alternative_form(self, orc):
        # C = EF - q^-1 K_+ - q K_-
        ctx = orc.ctx
        alt = (
            ctx.multiply(orc.epow(1), orc.fpow(1))
            - orc.fe_word(0, 1, 0, 0).scale(nu_power(-2))
            - orc.fe_word(1, 0, 0, 0).scale(nu_power(2))
        )
        assert alt == orc.chebyshev(1)

    def test_central(self, orc):
        ctx = orc.ctx
        for m in range(4):
            c = orc.chebyshev(m)
            assert ctx.multiply(c, orc.epow(1)) == ctx.multiply(orc.epow(1), c)
            assert ctx.multiply(c, orc.fpow(1)) == ctx.multiply(orc.fpow(1), c)

    def test_bar_fixed(self, orc):
        for m in range(5):
            assert orc.ctx.bar(orc.chebyshev(m)) == orc.chebyshev(m)

    def test_closed_form(self, orc):
        for m in range(4):
            for k in range(3):
                lhs = orc.ctx.multiply(orc.fpow(k), orc.chebyshev(m))
                assert lhs == orc.bullet_closed(m + k, m)
                rhs = orc.ctx.multiply(orc.chebyshev(m), orc.epow(k))
                assert rhs == orc.bullet_closed(m, m + k)

    def test_product_rule(self, orc):
        # C^(a) C^(b) = sum (K_- K_+)^j C^(a+b-2j)
        ctx = orc.ctx
        for a in range(4):
            for b in range(4):
                lhs = ctx.multiply(orc.chebyshev(a), orc.chebyshev(b))
                rhs = ctx.zero("full")
                for j, idx in orc.cheb_product(a, b):
                    rhs = rhs + ctx.multiply(ctx.k_elem(kmono((j,), (j,))), orc.chebyshev(idx))
                assert lhs == rhs

    def test_cheb_via_iota(self, orc):
        # the inclusion-expansion identity, m <= 5
        for m in range(6):
            assert orc.cheb_via_iota(m) == orc.chebyshev(m)


class TestClosedForms:
    def test_bullet_factored_vs_sum(self, orc):
        for mm in range(4):
            for mp in range(4):
                assert orc.bullet_factored(mm, mp) == orc.bullet_closed(mm, mp)

    def test_bullet_bar_fixed(self, orc):
        for mm in range(3):
            for mp in range(3):
                x = orc.bullet_closed(mm, mp)
                assert orc.ctx.bar(x) == x

    def test_circ_bar_fixed_in_heis(self, orc):
        for mm in range(3):
            for mp in range(3):
                x = orc.circ_closed(mm, mp)
                assert orc.ctx.bar(x) == x

    def test_circ_matches_projected_bullet(self, orc):
        # the bullet reduces to the circle element mod K_-
        for mm in range(4):
            for mp in range(4):
                assert orc.ctx.project_heis(orc.bullet_closed(mm, mp)) == orc.circ_closed(mm, mp)

    def test_rejects_higher_rank(self):
        with pytest.raises(ValueError, match="rank-one only"):
            SL2Oracle(DoubleContext(HalfAlgebra("A2")))

    def test_basis_elem_rejects_two_sided_words(self, orc):
        with pytest.raises(ValueError, match="min"):
            orc.basis_elem(0, 0, 1, 0, 1)

    def test_trivial_cases(self, orc):
        assert orc.bullet_closed(1, 1) == orc.chebyshev(1)
        assert orc.bullet_closed(2, 0) == orc.fpow(2)
        assert orc.circ_closed(1, 1) == orc.ctx.project_heis(
            orc.ctx.multiply(orc.fpow(1), orc.epow(1))
        ) - orc.ctx.diamond(kmono((0,), (1,)), orc.ctx.one("heis_plus")).scale(nu_power(2))


class TestLambdaAction:
    def test_f_on_balanced(self, orc):
        # F_0(C^(1)) = 0 since <0>_q = 0
        got = orc.ctx.lambda_act(0, "F", (0,), orc.bullet_closed(1, 1).with_flavor("localized"))
        assert got.is_zero()

    def test_all_cases(self, orc):
        ctx = orc.ctx
        for lam in (0, 2, 4):
            for am in range(2):
                for ap in range(2):
                    for mm in range(3):
                        for mp in range(3):
                            x = ctx.diamond(
                                kmono((am,), (ap,)), orc.bullet_closed(mm, mp)
                            ).with_flavor("localized")
                            for which in ("E", "F"):
                                got = ctx.lambda_act(0, which, (lam,), x)
                                want = orc.lambda_closed(lam, am, ap, mm, mp, which).with_flavor(
                                    "localized"
                                )
                                assert got == want, (lam, am, ap, mm, mp, which)

    def test_epsilon_leading(self, orc):
        # E_lambda(F^m- bullet E^m+) = +-<eps>_q b + terms with strictly smaller
        # statistic; eps is the crystal statistic of the perfect-basis property
        ctx = orc.ctx
        from qdouble.scalar import qangle

        for lam in (0, 2, 4, 6):
            for mm in range(4):
                for mp in range(4):
                    x = orc.bullet_closed(mm, mp).with_flavor("localized")
                    got = ctx.lambda_act(0, "E", (lam,), x)
                    eps2 = orc.epsilon_stat(lam, mm, mp)
                    lead = Rat.of(qangle(eps2, 1))
                    if mm <= mp:
                        target = ctx.diamond(
                            kmono((0,), (-1,)), orc.bullet_closed(mm, mp + 1)
                        ).with_flavor("localized")
                        rest = got + target.scale(lead)
                        assert rest.is_zero()
                        continue
                    target = orc.bullet_closed(mm - 1, mp).with_flavor("localized")
                    rest = got - target.scale(lead * Rat.of(-1))
                    # the remaining pieces land on basis elements whose
                    # statistic is strictly smaller (coefficients <x> with x < eps)
                    if rest.is_zero():
                        continue
                    cands = {
                        (am, ap, mm2, mp2): ctx.diamond(
                            kmono((am,), (ap,)), orc.bullet_closed(mm2, mp2)
                        ).with_flavor("localized")
                        for (am, ap, mm2, mp2) in [
                            (1, 0, mm - 2, mp - 1),
                            (0, -1, mm, mp + 1),
                            (1, -1, mm - 1, mp),
                        ]
                        if mm2 >= 0 and mp2 >= 0
                    }
                    for (am, ap, mm2, mp2), cand in cands.items():
                        eps_cand = lam + 2 * (ap - am) + 2 * max(0, mm2 - mp2)
                        assert eps_cand < eps2

import pytest

from qdouble import Algebra, linalg
from qdouble.double import kmono
from qdouble.halves import PLUS, MINUS
from qdouble.rst import LWModule, ModuleError, RSTMap, module_from_obj, sl2_module, sp4_module, vector_module
from qdouble.scalar import Rat, RAT_ONE, RAT_ZERO, format_scalar, nu_power, qround_binom
from qdouble.sl2oracle import SL2Oracle


@pytest.fixture(scope="module")
def sl2():
    return Algebra.get("A1")


@pytest.fixture(scope="module")
def orc(sl2):
    return SL2Oracle(sl2.ctx)


# V(1) x V(1) for A1xA1 on v00, v10, v01, v11
A1XA1_DEGREES = [(0, 0), (1, 0), (0, 1), (1, 1)]


def a1xa1_tensor_square():
    """Action matrices (E, F) of V(1) x V(1); E[i][k][j] is the v_k-coefficient
    of E_i v_j."""

    def mats(entries):
        out = {i: [[RAT_ZERO] * 4 for _ in range(4)] for i in range(2)}
        for i, k, j, c in entries:
            out[i][k][j] = Rat.of(c)
        return out

    E = mats([(0, 1, 0, 1), (0, 3, 2, 1), (1, 2, 0, 1), (1, 3, 1, 1)])
    F = mats([(0, 0, 1, -1), (0, 2, 3, -1), (1, 0, 2, -1), (1, 1, 3, -1)])
    return E, F


class TestModuleConstruction:
    def test_sl2_modules_validate(self, sl2):
        for m in range(5):
            V = sl2_module(sl2, m)
            assert V.dim == m + 1

    def test_sp4_modules_validate(self):
        b2 = Algebra.get("B2")
        assert sp4_module(b2, 1).dim == 4
        assert sp4_module(b2, 2).dim == 5

    def test_a1xa1_tensor_square_validates(self):
        E, F = a1xa1_tensor_square()
        assert LWModule(Algebra.get("A1xA1"), "V1xV1", (1, 1), A1XA1_DEGREES, E, F).dim == 4

    def test_vector_modules_validate(self):
        for preset in ("A1", "A2", "A3"):
            alg = Algebra.get(preset)
            V = vector_module(alg)
            assert V.dim == alg.datum.rank + 1

    def test_shapovalov_sl2(self, sl2):
        # <v_a | v_a> = (-1)^a binom(m, a)_q
        m = 3
        V = sl2_module(sl2, m)
        vals = [V.shap[a] for a in range(m + 1)]
        from qdouble.scalar import qround_binom

        for a in range(m + 1):
            assert vals[a] == Rat.of(qround_binom(m, a, 2)) * Rat.of((-1) ** a)

    def test_rejects_bad_module(self, sl2):
        E = [[Rat.of(0), Rat.of(0)], [Rat.of(1), Rat.of(0)]]
        F = [[Rat.of(0), Rat.of(1)], [Rat.of(0), Rat.of(0)]]
        with pytest.raises(ModuleError):
            LWModule(sl2, "bad", (5,), [(0,), (1,)], {0: E}, {0: F})

    def test_rejects_bad_grading(self, sl2):
        V = sl2_module(sl2, 2)
        E, F = [list(r) for r in V.E[0]], [list(r) for r in V.F[0]]
        E[2][0] = RAT_ONE
        with pytest.raises(ModuleError, match="E_0 breaks the grading at 0->2"):
            LWModule(sl2, "bad", V.mu, V.degrees, {0: E}, V.F)
        F[0][2] = RAT_ONE
        with pytest.raises(ModuleError, match="F_0 breaks the grading at 2->0"):
            LWModule(sl2, "bad", V.mu, V.degrees, V.E, {0: F})

    def test_rejects_wrong_diagonal_commutator(self, sl2):
        V = sl2_module(sl2, 2)
        F = [[c * Rat.of(2) for c in row] for row in V.F[0]]
        with pytest.raises(ModuleError, match=r"\[E_0, F_0\] wrong at \(0,0\)"):
            LWModule(sl2, "bad", V.mu, V.degrees, V.E, {0: F})

    def test_rejects_nonvanishing_cross_commutator(self):
        E, F = a1xa1_tensor_square()
        E[0][3][2], F[0][2][3] = Rat.of(2), Rat.of(-1) / Rat.of(2)
        with pytest.raises(ModuleError, match=r"\[E_0, F_1\] does not vanish"):
            LWModule(Algebra.get("A1xA1"), "bad", (1, 1), A1XA1_DEGREES, E, F)

    @pytest.mark.parametrize("side", ["E", "F"])
    def test_serre_break_is_a_commutator_break(self, side):
        # The Serre checks stand behind the commutator checks, and on a
        # finite-dimensional module whose commutators hold the Serre elements
        # act as zero (each is a lowest-weight vector of positive weight for
        # the adjoint sl2 action on End V).  So a module that breaks Serre on
        # either side is rejected by a commutator first.
        E, F = a1xa1_tensor_square()
        scale = Rat.of(2) if side == "E" else Rat.of(1) / Rat.of(2)
        E[0][3][2], F[0][2][3] = scale, Rat.of(-1) / scale
        X = E if side == "E" else F
        serre = [
            [x - y for x, y in zip(r1, r2)]
            for r1, r2 in zip(linalg.mat_mul(X[0], X[1]), linalg.mat_mul(X[1], X[0]))
        ]
        assert any(not c.is_zero() for row in serre for c in row)
        with pytest.raises(ModuleError, match=r"\[E_0, F_1\] does not vanish"):
            LWModule(Algebra.get("A1xA1"), "bad", (1, 1), A1XA1_DEGREES, E, F)

    def test_rejects_missing_lowest_weight(self, sl2):
        zero = [[RAT_ZERO]]
        with pytest.raises(ModuleError, match="no lowest-weight vector of degree zero"):
            LWModule(sl2, "bad", (2,), [(1,)], {0: zero}, {0: zero})

    # V(m) + V(n) with V(n) from degree (m - n)/2 up, in a degree-preserving
    # basis given by the columns of P: the relations hold (each error below
    # comes after them), but the Shapovalov chain cannot give the basis a
    # diagonal invariant form
    MIXED = {
        "cannot reach vector 3": (2, 0, [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]),
        "Shapovalov block is singular": (
            2,
            0,
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1]],
        ),
        "Shapovalov adjointness fails": (
            3,
            1,
            [
                [1, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 1, 0],
                [0, 0, 1, 0, 0, 1],
                [0, 0, 0, 1, 0, 0],
                [0, 1, 0, 0, -1, 0],
                [0, 0, 1, 0, 0, 2],
            ],
        ),
    }

    @pytest.mark.parametrize("message", sorted(MIXED))
    def test_rejects_unusable_shapovalov_basis(self, sl2, message):
        m, n, P = self.MIXED[message]
        big, small = sl2_module(sl2, m), sl2_module(sl2, n)
        shift = (m - n) // 2
        degrees = big.degrees + [(d[0] + shift,) for d in small.degrees]

        def block_sum(A, B):
            return [list(row) + [RAT_ZERO] * len(B) for row in A] + [
                [RAT_ZERO] * len(A) + list(row) for row in B
            ]

        E, F = block_sum(big.E[0], small.E[0]), block_sum(big.F[0], small.F[0])
        P = [[Rat.of(c) for c in row] for row in P]
        P_inv = linalg.invert(P)
        E, F = (linalg.mat_mul(P_inv, linalg.mat_mul(X, P)) for X in (E, F))
        with pytest.raises(ModuleError, match=message):
            LWModule(sl2, "bad", (m,), degrees, {0: E}, {0: F})

    @staticmethod
    def module_file(V, shap):
        """The module file of V with the given Shapovalov entries."""
        return {
            "name": V.name,
            "mu": list(V.mu),
            "vectors": [{"name": f"v{k}", "degree": list(d)} for k, d in enumerate(V.degrees)],
            "E": {0: [[format_scalar(c) for c in row] for row in V.E[0]]},
            "F": {0: [[format_scalar(c) for c in row] for row in V.F[0]]},
            "shapovalov": [format_scalar(c) for c in shap],
        }

    def test_module_file_roundtrip(self, sl2):
        V = sl2_module(sl2, 2)
        W = module_from_obj(sl2, self.module_file(V, V.shap))
        assert W.shap == V.shap

    @pytest.mark.parametrize(
        "edit, message",
        [
            # entry 1 times v^2: the form is no longer adjoint to the action,
            # and the xi_invariant built on it is not central
            (lambda shap: [shap[0], shap[1] * nu_power(2), shap[2]], "Shapovalov adjointness fails"),
            (lambda shap: [shap[0], RAT_ZERO, shap[2]], "Shapovalov block is singular"),
            (lambda shap: shap[:2], "Shapovalov form has 2 entries, not 3"),
        ],
        ids=["scaled", "zero", "short"],
    )
    def test_supplied_shapovalov_is_checked(self, sl2, edit, message):
        V = sl2_module(sl2, 2)
        with pytest.raises(ModuleError, match=message):
            module_from_obj(sl2, self.module_file(V, edit(V.shap)))


class TestCanonicalInvariant:
    def test_sl2_exponents(self, sl2):
        # 1_V = q^(2 rho mu) sum q^(-2 eta) v-dual x v: exponents m - 2a
        m = 3
        V = sl2_module(sl2, m)
        rst = RSTMap(sl2, V)
        inv = rst.canonical_invariant()
        for coeff, dual, a in inv:
            assert coeff == nu_power(2 * (m - 2 * a))

    def test_trivial_module(self, sl2):
        V = sl2_module(sl2, 0)
        rst = RSTMap(sl2, V)
        assert len(rst.canonical_invariant()) == 1

    def test_invariance_under_action(self, sl2):
        # E_i, F_i annihilate the canonical invariant under the tensor action
        m = 2
        V = sl2_module(sl2, m)
        rst = RSTMap(sl2, V)
        from qdouble.scalar import RAT_ZERO

        # sum_a q^(2rho.mu - 2eta) E(v-dual_a x v_a) must vanish; the action:
        # E(u x v) = u x E(v) - K^-1 F(u) x K(v) on index pairs
        acc = {}
        i = 0
        for coeff, dual, a in rst.canonical_invariant():
            for j, cu in dual.items():
                ev = {t: V.E[i][t][a] for t in range(V.dim) if not V.E[i][t][a].is_zero()}
                for t, mcoef in ev.items():
                    key = (j, t)
                    acc[key] = acc.get(key, RAT_ZERO) + coeff * cu * mcoef
                fu = {t: V.F[i][t][j] for t in range(V.dim) if not V.F[i][t][j].is_zero()}
                for t, mcoef in fu.items():
                    w_t = -V.mu[i] + V.datum.coroot(i, V.degrees[t])
                    w_a = -V.mu[i] + V.datum.coroot(i, V.degrees[a])
                    key = (t, a)
                    acc[key] = acc.get(key, RAT_ZERO) - coeff * cu * mcoef * nu_power(
                        2 * (w_a - w_t)
                    )
        assert all(c.is_zero() for c in acc.values())


class TestXiSL2:
    def test_printed_pair_formula(self, sl2):
        # Xi(v^a x v_b) = q^(C(b,2)-C(a,2)) sum_k (-1)^k q^k binom(m-b+k,k) binom(a, b-k)
        #                 (K_-^(b-k) . F^(a-b+k)) (K_+^(m-b) . E^k)
        m = 3
        V = sl2_module(sl2, m)
        rst = RSTMap(sl2, V)
        ctx = sl2.ctx
        orc = SL2Oracle(ctx)
        for a in range(m + 1):
            for b in range(m + 1):
                got = rst.xi_pair(V.dual_vector(a), {b: RAT_ONE})
                expected = ctx.zero("check")
                for k in range(max(0, b - a), b + 1):
                    coeff = (
                        Rat.of((-1) ** k)
                        * nu_power(2 * k)
                        * Rat.of(qround_binom(m - b + k, k, 2))
                        * Rat.of(qround_binom(a, b - k, 2))
                    )
                    if a - b + k < 0:
                        continue
                    fpart = ctx.diamond(
                        kmono((b - k,), (0,)), orc.fpow(a - b + k, "check")
                    )
                    epart = ctx.diamond(kmono((0,), (m - b,)), orc.epow(k, "check"))
                    expected = expected + ctx.multiply(fpart, epart).scale(coeff)
                expected = expected.scale(nu_power(b * (b - 1) - a * (a - 1)))
                assert ctx.normalize_tags(expected) == got, (a, b)

    def test_extreme_weight_single_term(self, sl2):
        m = 2
        V = sl2_module(sl2, m)
        rst = RSTMap(sl2, V)
        got = rst.xi_pair(V.dual_vector(0), {0: RAT_ONE})
        assert len(got.terms) == 1

    def test_invariant_is_chebyshev(self, sl2, orc):
        # Xi(1_V) = (-1)^m C^(m) for dim <= 5
        for m in range(5):
            V = sl2_module(sl2, m)
            rst = RSTMap(sl2, V)
            got = rst.xi_invariant()
            want = orc.chebyshev(m).with_flavor("check").scale(Rat.of((-1) ** m))
            assert got == want, m

    def test_equivariance(self, sl2):
        V = sl2_module(sl2, 2)
        rst = RSTMap(sl2, V)
        for a in range(3):
            for b in range(3):
                assert rst.equivariance_check(0, {a: RAT_ONE}, {b: RAT_ONE}), (a, b)

    def test_centrality(self, sl2):
        for m in range(4):
            V = sl2_module(sl2, m)
            rst = RSTMap(sl2, V)
            assert rst.centrality_check(rst.xi_invariant())

    def test_centrality_fails_off_the_centre(self, sl2):
        # [E_1, F_1] is a nonzero torus term after the group-like projection
        rst = RSTMap(sl2, sl2_module(sl2, 1))
        assert not rst.centrality_check(sl2.ctx.e_gen(0, "check"))

    def test_basis_independence(self, sl2):
        m = 2
        V = sl2_module(sl2, m)
        a = RSTMap(sl2, V, basis="words").xi_invariant()
        b = RSTMap(sl2, V, basis="dcb").xi_invariant()
        assert a == b


class TestXiSP4:
    def test_omega1(self):
        b2 = Algebra.get("B2")
        V = sp4_module(b2, 1)
        rst = RSTMap(b2, V)
        got = rst.xi_invariant()
        lab121 = b2.label_of(MINUS, b2.tables.two_letter_dcb(0, 1, 1, 1))
        want = b2.bullet(lab121, lab121).with_flavor("check").scale(Rat.of(-1))
        assert got == want

    def test_omega2(self):
        b2 = Algebra.get("B2")
        V = sp4_module(b2, 2)
        rst = RSTMap(b2, V)
        got = rst.xi_invariant()
        half = b2.half
        e12 = half.flip(b2.tables.two_letter_dcb(0, 1, 1, 0))
        e112 = half.flip(b2.tables.two_letter_dcb(0, 1, 2, 0))
        e2112 = half.gen(PLUS, 1) * e112 - (e12 * e12).scale(nu_power(4))
        lab = b2.label_of(PLUS, e2112)
        want = b2.bullet(lab, lab).with_flavor("check")
        assert got == want


class TestXiVector:
    @pytest.mark.parametrize("preset,n", [("A1", 1), ("A2", 2), ("A3", 3)])
    def test_sln_invariant(self, preset, n):
        alg = Algebra.get(preset)
        V = vector_module(alg)
        rst = RSTMap(alg, V)
        got = rst.xi_invariant()
        # (-1)^n K_(0, omega_1 - omega_n) diamond F_[1,n] bullet E_[1,n]^*
        half = alg.half
        e_int = half.gen(PLUS, n - 1)
        for i in range(n - 2, -1, -1):
            gen_div = half.gen_divided(PLUS, i, 1)
            e_int = (e_int * gen_div).scale(nu_power(1)) - (gen_div * e_int).scale(
                nu_power(-1)
            )
        f_lab = alg.label_of(MINUS, half.flip(e_int))
        e_star_lab = alg.label_of(PLUS, half.star(e_int))
        bullet = alg.bullet(f_lab, e_star_lab).with_flavor("check")
        tag = tuple(2 if k == 0 else 0 for k in range(n))
        K = kmono((0,) * n, tuple(-1 for _ in range(n)), tag)
        want = alg.ctx.normalize_tags(
            alg.ctx.diamond(K, bullet).scale(Rat.of((-1) ** n))
        )
        assert got == want


class TestBraceAdjointness:
    def test_divided_letter_moves(self, sl2):
        # {F_i^<1> u_-, u_+} = {u_-, partial_i(u_+)} and the three companions
        import random

        from qdouble.rst import RSTMap

        alg = Algebra.get("A2")
        rst = RSTMap(alg, vector_module(alg))
        half = alg.half
        rng = random.Random(97)
        for _ in range(20):
            wm = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
            wp = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
            um = half.element(MINUS, {wm: RAT_ONE})
            up = half.element(PLUS, {wp: RAT_ONE})
            for i in range(2):
                fdiv = half.gen_divided(MINUS, i, 1)
                lhs = rst.brace(fdiv * um, up)
                rhs = rst.brace(um, half.deriv(i, up))
                assert lhs == rhs, (wm, wp, i, "left F")
                lhs2 = rst.brace(um * fdiv, up)
                rhs2 = rst.brace(um, half.deriv(i, up, "op"))
                assert lhs2 == rhs2, (wm, wp, i, "right F")
                ediv = half.gen_divided(PLUS, i, 1)
                lhs3 = rst.brace(um, ediv * up)
                rhs3 = rst.brace(half.deriv(i, um), up)
                assert lhs3 == rhs3, (wm, wp, i, "left E")
                lhs4 = rst.brace(um, up * ediv)
                rhs4 = rst.brace(half.deriv(i, um, "op"), up)
                assert lhs4 == rhs4, (wm, wp, i, "right E")


class TestBasesWords:
    @pytest.mark.parametrize(
        "preset, degrees",
        [("A1", [(1,), (2,), (3,)]), ("B2", [(1, 1), (2, 1), (1, 2), (2, 2)])],
    )
    def test_duals_pair_to_delta(self, preset, degrees):
        alg = Algebra.get(preset)
        module = sl2_module(alg, 2) if preset == "A1" else sp4_module(alg, 1)
        rst = RSTMap(alg, module, basis="words")
        for gamma in degrees:
            plus, minus, check_plus, check_minus = rst._bases(gamma)
            for b in range(len(plus)):
                for c in range(len(plus)):
                    want = RAT_ONE if b == c else Rat.of(0)
                    assert rst.brace(check_plus[b], plus[c]) == want, (gamma, b, c)
                    assert rst.brace(minus[c], check_minus[b]) == want, (gamma, b, c)

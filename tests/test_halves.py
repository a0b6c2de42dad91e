import random

import pytest

from qdouble import checks, linalg
from qdouble.halves import (
    HalfAlgebra,
    HalfElem,
    PLUS,
    MINUS,
    format_half,
    half_from_obj,
    half_to_obj,
)
from qdouble.scalar import (
    ONE,
    ZERO,
    Laurent,
    Rat,
    accumulate,
    nu_power,
    qangle,
    qangle_factorial,
    qround,
    qround_factorial,
    qsq_binom,
)


@pytest.fixture(scope="module")
def a2():
    return HalfAlgebra("A2")


@pytest.fixture(scope="module")
def sl2():
    return HalfAlgebra("A1")


def rand_elem(alg, sign, rng, height=4, nterms=3):
    terms = {}
    for _ in range(nterms):
        w = tuple(rng.randrange(alg.datum.rank) for _ in range(rng.randrange(1, height + 1)))
        terms[w] = Rat.of(Laurent({rng.randrange(-3, 4): rng.randrange(-4, 5) or 1}))
    return alg.element(sign, terms)


def reference_op(alg, i, x, power):
    """partial_i^(power) op by its own loop: each letter i is removed with the
    chi-weight of the letters before it; minus side by the transpose."""
    if x.sign == MINUS:
        return alg.transpose(reference_op(alg, i, alg.transpose(x), power))
    datum = alg.datum
    alpha_i = datum.alpha(i)
    for _ in range(power):
        out = {}
        for w, c in x.terms.items():
            shifted = list(alg.word_degree(w))
            shifted[i] -= 1
            lead = -datum.dot(alpha_i, tuple(shifted))
            prefix_exp = 0
            for p, letter in enumerate(w):
                if letter == i:
                    accumulate(out, w[:p] + w[p + 1 :], c * nu_power(lead + prefix_exp))
                prefix_exp += alg.chi_exp(datum.alpha(letter), alpha_i)
        x = HalfElem(alg, PLUS, out)
    if power > 1:
        x = x.scale(Rat.of(1) / Rat.of(qround_factorial(power, datum.qi_exp(i))))
    return x


def reference_pair(alg, x_plus, y_minus):
    """<x_plus, y_minus> by its own loop over the pivot rows: each degree
    component of x_plus, rewritten over the pivot words when a word is no
    pivot word, against every word of y_minus as it is."""
    total = Rat.of(0)
    y_by_deg = {}
    for w, c in y_minus.terms.items():
        y_by_deg.setdefault(alg.word_degree(w), []).append((w, c))
    for gamma in x_plus.degrees():
        component = x_plus.component(gamma).terms
        basis, at = alg.degree_basis(gamma), alg.word_index(gamma)
        if any(w not in basis.rows for w in component):
            component = {p: c for p, c in zip(basis.pivots, basis.coords(component)) if not c.is_zero()}
        for w1, c1 in component.items():
            for w2, c2 in y_by_deg.get(gamma, []):
                val = basis.rows[w1][at[w2]]
                if val:
                    total = total + c1 * c2 * val
    return total


def reference_pairing(alg, gamma, memo):
    """{e: {f: <e, f>}} by the Rat recursion on the first letter j of f,
    one word pair and one position at a time, zero entries left out:
    <e, j f'> = sum over the letters j of e of v^s <1>_{q_j} <e without it, f'>."""
    if gamma in memo:
        return memo[gamma]
    datum = alg.datum
    words = alg.words_of_degree(gamma)
    if sum(gamma) == 0:
        memo[gamma] = {(): {(): Rat.of(1)}}
        return memo[gamma]
    M = {e: {} for e in words}
    for f in words:
        j, rest = f[0], f[1:]
        sub = reference_pairing(alg, gamma[:j] + (gamma[j] - 1,) + gamma[j + 1 :], memo)
        bracket = Rat.of(qangle(1, datum.qi_exp(j)))
        for e in words:
            total = Rat.of(0)
            prefix_exp = 0
            for p, letter in enumerate(e):
                if letter == j:
                    val = sub[e[:p] + e[p + 1 :]].get(rest)
                    if val is not None and not val.is_zero():
                        total = total + nu_power(prefix_exp) * bracket * val
                prefix_exp += alg.chi_exp(datum.alpha(letter), datum.alpha(j))
            if not total.is_zero():
                M[e][f] = total
    memo[gamma] = M
    return M


def reference_matrix(alg, gamma, memo):
    """The full word-pairing matrix of the degree over Z[v, v^-1], by the
    Rat recursion of reference_pairing."""
    ref = reference_pairing(alg, gamma, memo)
    words = alg.words_of_degree(gamma)
    return [[ref[e][f].as_laurent() if f in ref[e] else ZERO for f in words] for e in words]


class TestCoproduct:
    def test_primitive_generator(self, a2):
        out = a2.coproduct_word((0,))
        assert sorted(out) == [(0, (), (0,)), (0, (0,), ())]

    def test_e1e2_weights(self, a2):
        # Delta(E1 E2) = E1E2 x 1 + E1 x E2 + q^-1 E2 x E1 + 1 x E1E2
        got = {(l, r): w for w, l, r in a2.coproduct_word((0, 1))}
        assert got[((0, 1), ())] == 0
        assert got[((), (0, 1))] == 0
        assert got[((0,), (1,))] == 0
        assert got[((1,), (0,))] == -2  # chi(a1, a2) = q^-1 = v^-2

    def test_multiplicativity(self, a2):
        # Delta(uv) = Delta(u) Delta(v) in the braided tensor product
        u, v = (0, 1), (1, 0)
        direct = {}
        for w, l, r in a2.coproduct_word(u + v):
            direct[(l, r)] = direct.get((l, r), Rat.of(0)) + nu_power(w)
        prod = {}
        for w1, l1, r1 in a2.coproduct_word(u):
            for w2, l2, r2 in a2.coproduct_word(v):
                cross = a2.chi_exp(a2.word_degree(r1), a2.word_degree(l2))
                key = (l1 + l2, r1 + r2)
                prod[key] = prod.get(key, Rat.of(0)) + nu_power(w1 + w2 + cross)
        direct = {k: v for k, v in direct.items() if not v.is_zero()}
        prod = {k: v for k, v in prod.items() if not v.is_zero()}
        assert direct == prod

    def test_fi_power_binomials(self, sl2):
        # Delta(F^r) = sum binom_{q^2}(r, r') F^r' x F^r'' (single letter, d=1)
        r = 4
        acc = {}
        for w, l, rr in sl2.coproduct_word((0,) * r):
            key = (len(l), len(rr))
            acc[key] = acc.get(key, Rat.of(0)) + nu_power(w)
        for rp in range(r + 1):
            assert acc[(rp, r - rp)] == Rat.of(qsq_binom(r, rp, 4))


class TestPairing:
    def test_generator(self, a2):
        e = a2.gen(PLUS, 0)
        f = a2.gen(MINUS, 0)
        assert a2.pair(e, f) == Rat.of(qangle(1, 2))
        assert a2.pair(e, a2.gen(MINUS, 1)).is_zero()

    def test_degree_mismatch(self, a2):
        assert a2.pair(a2.word(PLUS, "11"), a2.gen(MINUS, 0)).is_zero()

    def test_power_law(self):
        # <E_i^r, F_i^r> = q_i^binom(r,2) <r>_{q_i}! for r <= 6 and d_i in {1,2,3}
        for preset, i in [("A2", 0), ("B2", 1), ("G2", 1)]:
            alg = HalfAlgebra(preset)
            k = alg.datum.qi_exp(i)
            for r in range(7):
                lhs = alg.pair(alg.word(PLUS, [i] * r * 1), alg.word(MINUS, [i] * r))
                expected = Rat.of(qangle_factorial(r, k).shift(k * (r * (r - 1) // 2)))
                assert lhs == expected, (preset, i, r)

    @pytest.mark.parametrize(
        "preset, height",
        [("A2", 5), ("B2", 5), ("G2", 5), ("A1affine", 5), ("A3", 5), ("R3", 4), ("R2a3", 5)],
    )
    def test_matrix_matches_reference(self, preset, height):
        # per degree: the candidate words are the words j q, q a pivot word
        # one degree down, and their rows are, entry for entry, the rows of
        # the Rat recursion's matrix, with the same zero pattern; the pivot
        # words, R and d are those of a full elimination of that matrix
        alg = HalfAlgebra(checks.r2a3().datum if preset == "R2a3" else preset)
        memo = {}
        for h in range(height + 1):
            for gamma in alg.datum.degrees_of_height(h):
                ref = reference_pairing(alg, gamma, memo)
                words = alg.words_of_degree(gamma)
                rows = alg.pairing_rows(gamma)
                cands = [()] if not h else sorted(
                    (j,) + q
                    for j in range(alg.datum.rank) if gamma[j]
                    for q in alg.degree_basis(gamma[:j] + (gamma[j] - 1,) + gamma[j + 1 :]).pivots
                )
                assert list(rows) == cands, gamma
                for e, row in rows.items():
                    assert len(row) == len(words)
                    for f, x in zip(words, row):
                        assert isinstance(x, Laurent)
                        want = ref[e].get(f)
                        assert (want is None) == x.is_zero(), (gamma, e, f)
                        assert want is None or Rat.of(x) == want, (gamma, e, f)
                _, cols, R, d = linalg.row_reduce(reference_matrix(alg, gamma, memo))
                basis = alg.degree_basis(gamma)
                assert basis.pivots == [words[k] for k in cols], gamma
                assert basis._d == d, gamma
                assert basis._rest == {
                    w: [r[k] for r in R] for k, w in enumerate(words) if k not in cols
                }, gamma

    def test_pair_matches_reference_off_the_pivots(self):
        # words on both sides as they are, uncompressed: pivot words,
        # non-pivot candidates and (B2 (2, 2)) a word that is no candidate
        for preset, gamma, non_candidates in [
            ("A2", (2, 1), []), ("B2", (2, 2), [(0, 1, 1, 0)]),
        ]:
            alg = HalfAlgebra(preset)
            ref = reference_pairing(alg, gamma, {})
            words = alg.words_of_degree(gamma)
            assert [w for w in words if w not in alg.pairing_rows(gamma)] == non_candidates
            assert len(alg.degree_basis(gamma).pivots) < len(words)
            for e in words:
                x = HalfElem(alg, PLUS, {e: Rat.of(1)}, compressed=True)
                for f in words:
                    y = HalfElem(alg, MINUS, {f: Rat.of(1)}, compressed=True)
                    assert alg.pair(x, y) == ref[e].get(f, Rat.of(0)), (preset, e, f)

    @pytest.mark.parametrize("preset", ["A2", "B2", "A1affine"])
    def test_pair_matches_the_pivot_row_loop(self, preset):
        # seeded elements of two degrees each, on words as they are: the
        # pairing read through pairing_block is the loop that read the
        # pivot rows itself
        alg, rng = HalfAlgebra(preset), random.Random(36)
        degrees = [(2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]
        off = 0
        for _ in range(12):
            x, y = (
                HalfElem(alg, sign, {
                    w: Rat.of(Laurent({rng.randrange(-3, 4): rng.randrange(1, 4)}))
                    for gamma in rng.sample(degrees, 2)
                    for w in rng.sample(alg.words_of_degree(gamma), 3)
                }, compressed=True)
                for sign in (PLUS, MINUS)
            )
            off += sum(w not in alg.degree_basis(alg.word_degree(w)).rows for z in (x, y) for w in z.terms)
            assert alg.pair(x, y) == reference_pair(alg, x, y)
        assert off > 12

    def test_a2_fij_calibration(self, a2):
        # mandatory orientation calibration: the rank-2 dual-pair value.
        # F_ij = (q^(1/2) F2 F1 - q^(-1/2) F1 F2)/(q - q^(-1)); E_ij its letter flip.
        bracket = Rat.of(qangle(1, 2))
        f = (a2.word(MINUS, "21").scale(nu_power(1)) - a2.word(MINUS, "12").scale(nu_power(-1))).scale(
            bracket.inv()
        )
        e = a2.flip(f)
        val = a2.pair(e, f)
        # equals (q_j - q_j^-1)(q_i - q_i^-1)/(q_i^a_ij - q_i^-a_ij) up to the sign
        # (-1)^(r+s') = -1 from the detailed rank-2 pairing formula
        assert val == bracket
        assert val == bracket * bracket / Rat.of(qangle(-1, 2)) * Rat.of(-1)


class TestNormalForm:
    def test_serre_vanishes(self):
        for preset in ["A2", "B2", "G2", "A1affine"]:
            alg = HalfAlgebra(preset)
            for i, j in [(0, 1), (1, 0)]:
                assert alg.serre_element(PLUS, i, j).is_zero(), preset
                assert alg.serre_element(MINUS, i, j).is_zero(), preset

    def test_generator_nonzero(self, a2):
        e = a2.gen(PLUS, 0)
        assert not e.is_zero()
        assert a2.dim((1, 0)) == 1

    def test_rank_two_of_three(self, a2):
        # degree 2a1 + a2 has three words and rank 2 (one Serre relation)
        assert len(a2.words_of_degree((2, 1))) == 3
        assert a2.dim((2, 1)) == 2

    def test_compress_preserves_pairing(self):
        # the raw input terms and the compressed element pair alike with
        # every word of the other half; coefficients include true fractions
        # and half the inputs are already in pivot form
        rng = random.Random(7)
        fracs = [Rat.of(1) / Rat.of(qround(2)), nu_power(1) / Rat.of(qround(3)), Rat.of(-2)]
        for preset, gamma in [
            ("A2", (2, 1)), ("A2", (1, 2)), ("A2", (2, 2)), ("A2", (3, 2)),
            ("B2", (2, 1)), ("B2", (1, 2)), ("B2", (2, 2)), ("B2", (2, 3)),
            ("G2", (2, 1)), ("G2", (1, 2)), ("G2", (1, 3)),
            ("A1affine", (2, 1)), ("A1affine", (2, 2)), ("A1affine", (3, 2)),
        ]:
            alg = HalfAlgebra(preset)
            words = alg.words_of_degree(gamma)
            pivots = alg.degree_basis(gamma).pivots
            ref = reference_pairing(alg, gamma, {})
            for trial in range(8):
                pool = pivots if trial % 2 else words
                raw = {
                    w: rng.choice(fracs) * nu_power(rng.randrange(-2, 3))
                    for w in rng.sample(pool, min(3, len(pool)))
                }
                for sign in (PLUS, MINUS):
                    x = alg.element(sign, raw)
                    if trial % 2:
                        assert x.terms == raw
                    for u in words:
                        row = ref[u]
                        want = sum((c * row[w] for w, c in raw.items() if w in row), Rat.of(0))
                        got = sum((c * row[w] for w, c in x.terms.items() if w in row), Rat.of(0))
                        assert got == want, (preset, gamma, sign, u)

    def test_pivot_sets_pinned(self):
        # the pivot words fix the labels and order every digest depends on
        pinned = {
            ("A2", (2, 1)): [(0, 0, 1), (0, 1, 0)],
            ("B2", (2, 2)): [(0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1), (1, 0, 1, 0)],
            ("G2", (1, 3)): [(0, 1, 1, 1), (1, 0, 1, 1)],
            ("A1affine", (2, 2)): [
                (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)
            ],
            ("A3", (1, 1, 1)): [(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0)],
        }
        for (preset, gamma), pivots in pinned.items():
            assert HalfAlgebra(preset).degree_basis(gamma).pivots == pivots, (preset, gamma)

    def test_one_pivot_form_for_both_halves(self, a2):
        rng = random.Random(11)
        for _ in range(20):
            x = rand_elem(a2, PLUS, rng)
            assert a2.flip(x).terms == x.terms
            assert a2.element(MINUS, x.terms).terms == x.terms

    def test_non_symmetric_pairing_raises(self):
        # one entry of the pivot row of E2, the pivot word of degree (0, 1),
        # is corrupted: in degree (1, 1) the row of E1 E2 is built from it and
        # the row of E2 E1 is not, so their candidate block is not symmetric
        alg = HalfAlgebra("A2")
        row = alg.degree_basis((0, 1)).rows[(1,)]
        row[0] = row[0] + ONE
        with pytest.raises(ValueError, match="not symmetric"):
            alg.degree_basis((1, 1))

    def test_elimination_reads_candidate_rows_only(self, monkeypatch):
        # B2 (4, 4) has 70 words and 14 candidate words: row_reduce gets the
        # 14 rows of 70 entries, never the 70 x 70 pairing matrix, and no
        # lower degree gets more rows
        alg = HalfAlgebra("B2")
        fed = []
        real = linalg.row_reduce
        monkeypatch.setattr(linalg, "row_reduce", lambda A: fed.append((len(A), len(A[0]))) or real(A))
        assert alg.degree_basis((4, 4)).rank == 9
        assert fed[-1] == (14, 70)
        assert max(n for n, _ in fed) <= 14
        assert len(alg.pairing_rows((4, 4))) == 14

    def test_basis_keeps_the_pivot_rows_only(self):
        # of the 14 candidate rows of B2 (4, 4), the basis keeps the rows of
        # its 9 pivot words, each the row of the Rat recursion
        alg = HalfAlgebra("B2")
        basis = alg.degree_basis((4, 4))
        ref = reference_matrix(alg, (4, 4), {})
        at = alg.word_index((4, 4))
        assert list(basis.rows) == basis.pivots and len(basis.pivots) == 9
        for p, row in basis.rows.items():
            assert row == ref[at[p]], p

    def test_negative_power_raises(self, a2):
        # E_1 ** -1 must not be read as the unit
        e1 = a2.gen(PLUS, 0)
        with pytest.raises(ValueError, match="negative power"):
            e1 ** -1
        assert e1 ** 0 == a2.unit(PLUS) and e1 ** 2 == a2.word(PLUS, "11")


class TestInvolutions:
    def test_bar_reverses(self, a2):
        x = a2.word(PLUS, "12")
        assert a2.bar(x) == a2.word(PLUS, "21")

    def test_star_involutive(self, a2):
        rng = random.Random(3)
        for _ in range(10):
            x = rand_elem(a2, PLUS, rng)
            assert a2.star(a2.star(x)) == x
            assert a2.bar(a2.bar(x)) == x

    def test_transpose_swaps_sides(self, a2):
        x = a2.word(PLUS, "12")
        t = a2.transpose(x)
        assert t.sign == MINUS
        assert t == a2.word(MINUS, "21")
        assert a2.flip(x) == a2.word(MINUS, "12")


class TestDerivations:
    def test_power_rule(self, sl2):
        # partial_i(E_i^n) = (n)_{q_i} E_i^(n-1)
        for n in range(1, 6):
            x = sl2.word(PLUS, "1" * n)
            out = sl2.deriv(0, x)
            assert out == sl2.word(PLUS, "1" * (n - 1)).scale(Rat.of(qround(n, 2)))

    def test_kills_other_index(self, a2):
        assert a2.deriv(0, a2.gen(PLUS, 1)).is_zero()

    def test_leibniz_on_e1e2(self, a2):
        # partial_1(E1 E2) = q_1^(a_12/2) E2 = v^-1 E2
        out = a2.deriv(0, a2.word(PLUS, "12"))
        assert out == a2.gen(PLUS, 1).scale(nu_power(-1))

    def test_leibniz_rule_random(self, a2):
        rng = random.Random(11)
        datum = a2.datum
        for _ in range(40):
            x = rand_elem(a2, PLUS, rng, height=3, nterms=2)
            y = rand_elem(a2, PLUS, rng, height=3, nterms=2)
            for i in range(2):
                lhs = a2.deriv(i, x * y)
                rhs = a2.zero(PLUS)
                for gx in x.degrees():
                    for gy in y.degrees():
                        xc, yc = x.component(gx), y.component(gy)
                        rhs = rhs + (a2.deriv(i, xc) * yc).scale(
                            nu_power(datum.d[i] * datum.coroot(i, gy))
                        ) + (xc * a2.deriv(i, yc)).scale(
                            nu_power(-datum.d[i] * datum.coroot(i, gx))
                        )
                assert lhs == rhs

    def test_op_commutes_with_plain(self, a2):
        rng = random.Random(13)
        for _ in range(25):
            x = rand_elem(a2, PLUS, rng, height=4, nterms=2)
            for i, j in [(0, 1), (1, 0), (0, 0)]:
                a = a2.deriv(i, a2.deriv(j, x, "op"))
                b = a2.deriv(j, a2.deriv(i, x), "op")
                assert a == b

    def test_bar_commutes(self, a2):
        rng = random.Random(15)
        for _ in range(25):
            x = rand_elem(a2, PLUS, rng, height=4, nterms=2)
            for i in range(2):
                assert a2.bar(a2.deriv(i, x)) == a2.deriv(i, a2.bar(x))

    def test_adjointness(self, a2):
        # <f g, u> = <f, partial_g-type contraction>: specialized form
        # <E-side u, F_i * y> via partial: <x, F_i y> = factor-free check through
        # the pairing recursion itself; here check <x, y F_i-word> consistency:
        rng = random.Random(17)
        for _ in range(15):
            x = rand_elem(a2, PLUS, rng, height=4, nterms=2)
            y = rand_elem(a2, MINUS, rng, height=3, nterms=2)
            for i in range(2):
                # <x, F_i y> = <partial_{F_i}(x), y> with partial_{F_i} = bracket *
                # q_i^(coroot/2) * partial_i on each homogeneous piece
                lhs = a2.pair(x, a2.gen(MINUS, i) * y)
                rhs = Rat.of(0)
                for g in x.degrees():
                    xc = x.component(g)
                    shifted = list(g)
                    shifted[i] -= 1
                    pref = Rat.of(qangle(1, a2.datum.qi_exp(i))) * nu_power(
                        a2.datum.dot(a2.datum.alpha(i), tuple(shifted))
                    )
                    rhs = rhs + pref * a2.pair(a2.deriv(i, xc, "op"), y)
                assert lhs == rhs
                # and the right-multiplication twin via the plain derivation
                lhs2 = a2.pair(x, y * a2.gen(MINUS, i))
                rhs2 = Rat.of(0)
                for g in x.degrees():
                    xc = x.component(g)
                    shifted = list(g)
                    shifted[i] -= 1
                    pref = Rat.of(qangle(1, a2.datum.qi_exp(i))) * nu_power(
                        a2.datum.dot(a2.datum.alpha(i), tuple(shifted))
                    )
                    rhs2 = rhs2 + pref * a2.pair(a2.deriv(i, xc), y)
                assert lhs2 == rhs2

    @pytest.mark.parametrize("preset", ["A2", "B2", "G2", "A1affine"])
    def test_op_is_star_conjugate_of_plain(self, preset):
        # partial_i^op = * partial_i *, against the op derivation's own loop
        alg = HalfAlgebra(preset)
        rng = random.Random(23)
        for _ in range(6):
            for sign in (PLUS, MINUS):
                x = rand_elem(alg, sign, rng, height=4, nterms=3)
                for i in range(alg.datum.rank):
                    for power in (1, 2, 3):
                        assert alg.deriv(i, x, "op", power) == reference_op(alg, i, x, power)

    def test_ell_and_top(self, a2, sl2):
        for n in range(1, 5):
            depth, top = sl2.ell_and_top(0, sl2.word(PLUS, "1" * n))
            assert depth == n
            assert top == sl2.unit(PLUS)
        assert a2.ell_and_top(0, a2.gen(PLUS, 1))[0] == 0
        assert a2.ell_and_top(0, a2.word(PLUS, "12"))[0] == 1

    def test_top_multiplicative(self, a2):
        rng = random.Random(19)
        datum = a2.datum
        for _ in range(10):
            x = rand_elem(a2, PLUS, rng, height=3, nterms=1)
            y = rand_elem(a2, PLUS, rng, height=3, nterms=1)
            if x.is_zero() or y.is_zero():
                continue
            for i in range(2):
                lx, tx = a2.ell_and_top(i, x)
                ly, ty = a2.ell_and_top(i, y)
                lxy, txy = a2.ell_and_top(i, x * y)
                assert lxy == lx + ly
                power = datum.d[i] * (
                    lx * datum.coroot(i, y.degree()) - ly * datum.coroot(i, x.degree())
                )
                assert txy == (tx * ty).scale(nu_power(power))


class TestOperandChecks:
    """Operands from the wrong half or algebra raise ValueError, which
    `python -O` keeps."""

    @pytest.mark.parametrize("op", ["__add__", "__mul__"])
    def test_ring_operations(self, a2, op):
        x = a2.gen(PLUS, 0)
        for other in (a2.gen(MINUS, 0), HalfAlgebra("A2").gen(PLUS, 0)):
            with pytest.raises(ValueError):
                getattr(x, op)(other)

    def test_pair_signs(self, a2):
        with pytest.raises(ValueError):
            a2.pair(a2.gen(MINUS, 0), a2.gen(MINUS, 0))


class TestSerialization:
    def test_mixed_signs(self, a2):
        obj = half_to_obj(a2.gen(PLUS, 0)) + half_to_obj(a2.gen(MINUS, 1))
        with pytest.raises(ValueError, match="mixed-sign"):
            half_from_obj(a2, obj)

    @pytest.mark.parametrize(
        "obj",
        [
            [{"c": 1, "w": "F:1"}],
            [{"c": "1", "w": 1}],
            [{"c": "1"}],
            [{"c": "1", "w": "G:1"}],
            ["F:1"],
            [{"c": "(1)/(0)", "w": "F:1"}],
        ],
        ids=["c-not-str", "w-not-str", "w-missing", "side-tag", "term-not-dict", "zero-denominator"],
    )
    def test_malformed_term(self, a2, obj):
        with pytest.raises(ValueError):
            half_from_obj(a2, obj)

    def test_repeated_word_sums(self, a2):
        obj = [{"c": "1", "w": "F:1 2"}, {"c": "1*v", "w": "F:1 2"}]
        assert half_from_obj(a2, obj) == a2.word(MINUS, "12").scale(Rat.of(Laurent({0: 1, 1: 1})))

    def test_roundtrip(self, a2):
        rng = random.Random(23)
        for _ in range(10):
            x = rand_elem(a2, PLUS, rng)
            assert half_from_obj(a2, half_to_obj(x)) == x

    def test_word_format(self, a2):
        assert format_half(a2.word(PLUS, "12")).endswith("E:1 2")


class TestPsiRescale:
    def test_roundtrip(self, a2):
        x = a2.word(PLUS, "121")
        assert a2.psi_rescale(a2.psi_rescale(x), inverse=True) == x

    def test_divided_power_alignment(self, sl2):
        n = 3
        x = sl2.gen_divided(MINUS, 0, n)
        got = sl2.psi_rescale(x)
        # psi(F^<n>) = (q-q^-1)^-n G^(n) with G^(n) the standard divided power
        want = sl2.word(MINUS, "1" * n).scale(
            (Rat.of(qangle(1, 2)) ** (2 * n) * Rat.of(qround_factorial(n, 2))).inv()
        )
        assert got == want

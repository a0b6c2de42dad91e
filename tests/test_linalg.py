import random

import pytest

from qdouble import linalg
from qdouble.halves import HalfAlgebra
from qdouble.linalg import SingularMatrix, invert, mat_mul, row_reduce
from qdouble.scalar import (
    NU,
    ONE,
    ZERO,
    Laurent,
    Rat,
    RAT_ONE,
    RAT_ZERO,
    laurent_gcd,
    mul_sub,
    nu_power,
    qround,
)
from test_halves import reference_matrix


def identity(n, one=RAT_ONE, zero=RAT_ZERO):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def rand_laurent(rng, nterms):
    return Laurent({rng.randrange(-4, 5): rng.randrange(-3, 4) for _ in range(nterms)})


def reference_primitive_row(row):
    g = ZERO
    for x in row:
        g = laurent_gcd(g, x) if x else g
        if g.is_one():
            return row
    return [x.exact_div(g) for x in row]


def reference_row_reduce(A):
    """row_reduce with each cross-multiplied entry formed by two products,
    a negation and a sum."""
    kept, rows = [], []
    for idx, vec in enumerate(A):
        for c, b in rows:
            if vec[c]:
                vec = [b[c] * x - vec[c] * y for x, y in zip(vec, b)]
        c = next((j for j, x in enumerate(vec) if x), None)
        if c is None:
            continue
        vec = reference_primitive_row(vec)
        for k, (ck, b) in enumerate(rows):
            if b[c]:
                rows[k] = (ck, reference_primitive_row([vec[c] * y - b[c] * x for y, x in zip(b, vec)]))
        kept.append(idx)
        rows.append((c, vec))
    rows.sort()
    d = ONE
    for c, b in rows:
        d = d * b[c].exact_div(laurent_gcd(d, b[c]))
    R = [[x * f for x in b] for c, b in rows for f in [d.exact_div(b[c])]]
    return kept, [c for c, _ in rows], R, d


def reference_mat_mul(A, B):
    """A B by the Rat triple loop: one Rat product and one Rat sum per
    multiply-add, each entry lifted to Q(v) first."""
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = [[RAT_ZERO] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            a = Rat.of(A[i][t])
            if a.is_zero():
                continue
            for j in range(m):
                b = Rat.of(B[t][j])
                if not b.is_zero():
                    out[i][j] = out[i][j] + a * b
    return out


V4_MINUS_ONE = Laurent({4: 1, 0: -1})


def rand_entry(rng):
    """Zero, a Laurent entry, or a Rat over (v^4 - 1)^k, possibly times [3]
    or the integer 3."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice([ZERO, RAT_ZERO])
    num = rand_laurent(rng, rng.choice([1, 2, 3]))
    if kind == 1:
        return num
    den = V4_MINUS_ONE ** rng.randrange(0, 4) * rng.choice([ONE, ONE, qround(3), Laurent.const(3)])
    return Rat(num, den) if num else RAT_ZERO


def echelon(result):
    """(kept, cols, R / d) of a row_reduce result: the reduced row echelon
    form as exact Rats, which does not depend on a unit shared by R and d."""
    kept, cols, R, d = result
    return kept, cols, [[Rat(x, d) for x in row] for row in R]


class TestMulSub:
    def test_matches_products(self):
        rng = random.Random(5)
        for _ in range(400):
            a, x, b, y = (rand_laurent(rng, rng.choice([0, 1, 1, 2, 3, 5])) for _ in range(4))
            got = mul_sub(a, x, b, y)
            assert got == a * x - b * y, (a, x, b, y)
            assert all(got.c.values())
            assert hash(got) == hash(a * x - b * y)

    def test_full_cancellation(self):
        v = NU
        a, x = ONE + v, ONE - v
        cases = [(a, x, x, a), (a, x, ONE, ONE - v * v), (v, v, Laurent({2: 1}), ONE), (ZERO, a, x, ZERO)]
        for a, x, b, y in cases:
            got = mul_sub(a, x, b, y)
            assert got == ZERO and got.c == {} and hash(got) == hash(ZERO)

    def test_single_terms_and_zeros(self):
        two_v = Laurent({1: 2})
        assert mul_sub(two_v, NU, ZERO, ONE) == Laurent({2: 2})
        assert mul_sub(ZERO, ONE, two_v, NU) == Laurent({2: -2})
        assert mul_sub(NU, ONE, ONE, ONE) == Laurent({1: 1, 0: -1})


class TestRowReduce:
    @pytest.mark.parametrize("preset, gamma", [("B2", (2, 2)), ("A1affine", (2, 2)), ("A2", (3, 2))])
    def test_pivot_block_inverse(self, preset, gamma):
        # N / d = P^-1 on the Laurent pivot block of the reference pairing matrix:
        # P N == d I exactly, entries in Z[v, v^-1]
        alg = HalfAlgebra(preset)
        basis = alg.degree_basis(gamma)
        M, at = reference_matrix(alg, gamma, {}), alg.word_index(gamma)
        P = [[M[at[e]][at[f]] for f in basis.pivots] for e in basis.pivots]
        r = len(P)
        kept, cols, R, d = row_reduce([row + ident for row, ident in zip(P, identity(r, ONE, ZERO))])
        assert kept == list(range(r)) and cols == list(range(r))
        N = [row[r:] for row in R]
        for i in range(r):
            for j in range(r):
                entry = ZERO
                for k in range(r):
                    entry = entry + P[i][k] * N[k][j]
                assert entry == (d if i == j else ZERO), (i, j)
        # and a non-pivot word has pivot coordinates M[w, pivots] N / d
        for w in basis.words:
            if w in basis.pivots:
                continue
            row = [Rat.of(M[at[w]][at[f]]) for f in basis.pivots]
            Nd = [[Rat(x, d) for x in n_row] for n_row in N]
            assert basis.coords({w: RAT_ONE}) == linalg.mat_mul([row], Nd)[0], w

    @pytest.mark.parametrize(
        "preset, gamma",
        [
            ("B2", (2, 2)), ("B2", (3, 3)), ("G2", (1, 3)), ("A1affine", (2, 2)),
            ("A3", (1, 2, 1)), ("R3", (1, 1, 1)),
        ],
    )
    def test_matches_reference_on_pairing(self, preset, gamma):
        # the full word-pairing matrix of the degree, by the Rat recursion
        M = reference_matrix(HalfAlgebra(preset), gamma, {})
        assert echelon(row_reduce(M)) == echelon(reference_row_reduce(M))

    def test_matches_reference_on_rank_deficient(self):
        # A = C B with B of r rows, so rank A <= r < min(m, n)
        rng = random.Random(17)
        for trial in range(12):
            m, n = rng.randrange(3, 7), rng.randrange(3, 7)
            r = rng.randrange(1, min(m, n))
            B = [[rand_laurent(rng, rng.choice([0, 1, 2])) for _ in range(n)] for _ in range(r)]
            C = [[rand_laurent(rng, rng.choice([0, 1, 2])) for _ in range(r)] for _ in range(m)]
            A = [[sum((C[i][k] * B[k][j] for k in range(r)), ZERO) for j in range(n)] for i in range(m)]
            got = row_reduce(A)
            assert echelon(got) == echelon(reference_row_reduce(A)), trial
            assert len(got[0]) <= r

    @pytest.mark.parametrize("preset, gamma", [("A2", (3, 3)), ("G2", (4, 2)), ("A1affine", (3, 3))])
    def test_denominator_carries_no_growing_unit(self, preset, gamma):
        # each kept row is shifted to valuation 0; without the shift d is
        # v^-1756 on A2 (3, 3), and its exponent grows with the rank
        d = HalfAlgebra(preset).degree_basis(gamma)._d
        assert 0 <= d.min_exp() and d.max_exp() <= 100, d

    def test_kept_rows_dependent_second_row(self):
        v = NU
        rows = [
            [ONE, v, qround(2)],
            [v * qround(3), v * v * qround(3), v * qround(2) * qround(3)],
            [ZERO, ONE, v],
            [ONE, ZERO, ONE],
        ]
        # row 1 is v [3] times row 0; rows 0, 2 and 3 are independent
        assert row_reduce(rows)[0] == [0, 2, 3]
        assert row_reduce(rows[1:])[0] == [0, 1, 2]
        assert row_reduce([[ZERO] * 3] + rows[:2])[0] == [1]

    def test_kept_rows_and_pivot_columns(self):
        # row 1 is v row 0 and row 3 is row 0 + v^-1 row 2; column 1 is
        # v column 0.  The reduced form is d [[1, v, 0], [0, 0, 1]].
        v = NU
        A = [[ONE, v, ZERO], [v, v * v, ZERO], [ZERO, ZERO, v], [ONE, v, ONE]]
        kept, cols, R, d = row_reduce(A)
        assert (kept, cols) == ([0, 2], [0, 2])
        assert R == [[d, v * d, ZERO], [ZERO, ZERO, d]]


class TestMatMul:
    def test_matches_reference(self):
        rng = random.Random(40)
        for trial in range(60):
            n, k, m = rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(1, 5)
            A = [[rand_entry(rng) for _ in range(k)] for _ in range(n)]
            B = [[rand_entry(rng) for _ in range(m)] for _ in range(k)]
            if trial % 3 == 0:
                A[rng.randrange(n)] = [RAT_ZERO] * k
            if trial % 3 == 1:
                col = rng.randrange(m)
                for row in B:
                    row[col] = ZERO
            got = mat_mul(A, B)
            assert got == reference_mat_mul(A, B), trial
            assert all(type(x) is Rat for row in got for x in row)

    def test_reduces_over_both_denominators(self):
        # 1/(v^4 - 1) times 1/(v^4 - 1)^2 is 1/(v^4 - 1)^3, and
        # (v^4 - 1)/[3] times 3/(v^4 - 1) is 3/[3]
        A = [[Rat(ONE, V4_MINUS_ONE), Rat(V4_MINUS_ONE, qround(3))]]
        B = [[Rat(ONE, V4_MINUS_ONE**2)], [RAT_ZERO]]
        assert mat_mul(A, B) == [[Rat(ONE, V4_MINUS_ONE**3)]]
        B = [[RAT_ZERO], [Rat(Laurent.const(3), V4_MINUS_ONE)]]
        assert mat_mul(A, B) == [[Rat(Laurent.const(3), qround(3))]]

    def test_laurent_factors(self):
        # Laurent factors give Rat entries over 1, the product's as they are
        v = NU
        got = mat_mul([[ONE, v], [ZERO, ONE - v]], [[v], [ONE]])
        assert got == [[Rat.of(v + v)], [Rat.of(ONE - v)]]

    @pytest.mark.parametrize("n, k, m", [(0, 3, 2), (2, 3, 0), (2, 0, 3), (0, 0, 0)])
    def test_empty_shapes(self, n, k, m):
        A = [[RAT_ONE] * k for _ in range(n)]
        B = [[RAT_ONE] * m for _ in range(k)]
        want = [[RAT_ZERO] * m for _ in range(n)] if k else [[] for _ in range(n)]
        assert mat_mul(A, B) == want == reference_mat_mul(A, B)

    def test_inner_dimension_mismatch(self):
        with pytest.raises(ValueError, match="1x3 matrix by a 2x1 matrix"):
            mat_mul([[1, 2, 3]], [[1], [1]])
        with pytest.raises(ValueError, match="2x1 matrix by a 3x1 matrix"):
            mat_mul([[RAT_ONE], [RAT_ONE]], [[RAT_ONE]] * 3)

    def test_short_row(self):
        with pytest.raises(ValueError, match=r"2x\[1, 2\] matrix by a 2x1 matrix"):
            mat_mul([[RAT_ONE, RAT_ONE], [RAT_ONE]], [[RAT_ONE], [RAT_ONE]])
        with pytest.raises(ValueError, match=r"1x2 matrix by a 2x\[1, 2\] matrix"):
            mat_mul([[RAT_ONE, RAT_ONE]], [[RAT_ONE], [RAT_ONE, RAT_ONE]])


class TestInvert:
    def test_mixed_denominators(self):
        half = Rat.of(1) / Rat.of(qround(2))
        third = nu_power(1) / Rat.of(qround(3))
        A = [
            [half, Rat.of(2), RAT_ZERO],
            [Rat.of(Laurent({1: 1, -1: -1})), third, RAT_ONE],
            [RAT_ONE / Rat.of(3), RAT_ZERO, half * third],
        ]
        Ainv = invert(A)
        assert mat_mul(A, Ainv) == identity(3)
        assert mat_mul(Ainv, A) == identity(3)
        assert any(not x.is_laurent() for row in Ainv for x in row)

    def test_singular_raises(self):
        half = Rat.of(1) / Rat.of(qround(2))
        A = [[half, RAT_ONE], [RAT_ONE, Rat.of(qround(2))]]
        with pytest.raises(SingularMatrix, match="column 1"):
            invert(A)
        with pytest.raises(SingularMatrix, match="column 0"):
            invert([[RAT_ZERO, RAT_ONE], [RAT_ZERO, half]])

    def test_empty(self):
        assert invert([]) == []

    def test_matches_reference_product(self):
        rng = random.Random(41)
        for trial in range(20):
            n = rng.randrange(1, 5)
            A = [[rand_entry(rng) for _ in range(n)] for _ in range(n)]
            try:
                Ainv = invert(A)
            except SingularMatrix:
                continue
            assert reference_mat_mul(A, Ainv) == identity(n), trial

    def test_not_square_raises(self):
        with pytest.raises(ValueError, match="cannot invert a 1x2 matrix"):
            invert([[RAT_ONE, Rat.of(2)]])
        with pytest.raises(ValueError, match="cannot invert a 2x1 matrix"):
            invert([[RAT_ONE], [Rat.of(2)]])
        with pytest.raises(ValueError, match=r"cannot invert a 2x\[1, 2\] matrix"):
            invert([[RAT_ONE, RAT_ZERO], [RAT_ONE]])

import pytest

from qdouble import linalg
from qdouble.halves import HalfAlgebra
from qdouble.linalg import SingularMatrix, invert, mat_mul, row_reduce
from qdouble.scalar import NU, ONE, ZERO, Laurent, Rat, RAT_ONE, RAT_ZERO, nu_power, qround


def identity(n, one=RAT_ONE, zero=RAT_ZERO):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


class TestRowReduce:
    @pytest.mark.parametrize("preset, gamma", [("B2", (2, 2)), ("A1affine", (2, 2)), ("A2", (3, 2))])
    def test_pivot_block_inverse(self, preset, gamma):
        # N / d = P^-1 on the Laurent pivot block of a pairing matrix:
        # P N == d I exactly, entries in Z[v, v^-1]
        alg = HalfAlgebra(preset)
        basis = alg.degree_basis(gamma)
        M = alg.pairing_matrix(gamma)
        P = [[M[e].get(f, RAT_ZERO).as_laurent() for f in basis.pivots] for e in basis.pivots]
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
            row = [M[w].get(f, RAT_ZERO) for f in basis.pivots]
            Nd = [[Rat(x, d) for x in n_row] for n_row in N]
            assert basis.coords({w: RAT_ONE}) == linalg.mat_mul([row], Nd)[0], w

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

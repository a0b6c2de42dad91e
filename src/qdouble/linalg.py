"""Small dense exact linear algebra used by basis computations, fraction-free
over Z[v, v^-1] throughout.  A matrix of Laurent and Rat entries is brought
to one common denominator by `fraction_rows`, which takes Laurent entries as
they are.  `row_reduce` is the one elimination: it takes the pivot layer's
Laurent pairing matrices as they are, and `invert` a matrix's numerators over
their common denominator.  Products are fraction-free too: `mat_mul` and
`scaled_product` sum every output numerator with `scalar.add_mul`, with no
gcd inside the loop, and reduce each output entry once
(`scalar.over_denominator`: exact division first, a gcd only for a true
fraction), as `invert` reduces each entry of its inverse once.

Unreduced product numerators are never eliminated: they carry the whole
product denominator dA dB as a common factor, which enlarges every
cross-multiplied entry of `row_reduce` and which its row gcds must divide
out again, so a caller reduces a product (`mat_mul`) before it inverts it.
Inverting the pairing numerators of the dual bases directly made the
`tables` benchmark slower (0.366 to 0.444 s)."""
from __future__ import annotations

from .scalar import (
    ONE,
    ZERO,
    Laurent,
    Rat,
    RAT_ZERO,
    add_mul,
    laurent_gcd,
    laurent_lcm,
    laurent_values,
    mul_sub,
    over_denominator,
)


class SingularMatrix(ArithmeticError):
    pass


def _shape(M) -> str:
    widths = sorted({len(row) for row in M})
    return f"{len(M)}x{widths[0] if len(widths) == 1 else widths or 0}"


def _columns(A, B) -> int:
    """The number of columns of A B; raises ValueError when the inner
    dimensions differ or a row is short or long."""
    k = len(B)
    m = len(B[0]) if B else 0
    if any(len(row) != k for row in A) or any(len(row) != m for row in B):
        raise ValueError(f"cannot multiply a {_shape(A)} matrix by a {_shape(B)} matrix")
    return m


def fraction_rows(A):
    """(rows, den): A = rows / den with rows over Z[v, v^-1] and den the lcm
    of the denominators of the Rat entries; Laurent entries are taken as
    they are, and each row keeps its length."""
    dens = {x.den for row in A for x in row if type(x) is Rat} - {ONE}
    if not dens:
        return [[x if type(x) is Laurent else x.num for x in row] for row in A], ONE
    den = laurent_lcm(dens)
    cofactor = {b: den.exact_div(b) for b in dens | {ONE}}
    return [[x * den if type(x) is Laurent else x.num * cofactor[x.den] for x in row] for row in A], den


def _entries(nums: dict, scale: Rat, n: int, m: int) -> list:
    """The n x m matrix of Rat whose entry (i, j) is scale nums[(i, j)],
    each reduced once (`over_denominator`), and zero where nums has none."""
    if not scale.num.is_one():
        nums = {key: t * scale.num for key, t in nums.items()}
    vals = over_denominator(nums, scale.den)
    return [[vals.get((i, j), RAT_ZERO) for j in range(m)] for i in range(n)]


def scaled_product(A, B, scale: Rat) -> list:
    """scale A B as a matrix of Rat, for Laurent matrices A and B: every
    output numerator is summed by `add_mul` with no gcd, then multiplied by
    scale.num and reduced once over scale.den.  Raises ValueError when the
    inner dimensions differ or a row is short or long."""
    m = _columns(A, B)
    nonzero = [[(j, b.c) for j, b in enumerate(row) if b] for row in B]
    acc = {}
    for i, row in enumerate(A):
        for a, bs in zip(row, nonzero):
            if a:
                ac = a.c
                for j, bc in bs:
                    add_mul(acc.setdefault((i, j), {}), ac, bc)
    return _entries(laurent_values(acc), scale, len(A), m)


def mat_mul(A, B) -> list:
    """A B as a matrix of Rat, for matrices of Laurent or Rat entries: each
    factor over its one common denominator (`fraction_rows`), the Laurent
    product of the numerators, and each entry reduced once over dA dB.
    Raises ValueError when the inner dimensions differ or a row is short or
    long."""
    _columns(A, B)  # before fraction_rows reads an entry
    An, da = fraction_rows(A)
    Bn, db = fraction_rows(B)
    return scaled_product(An, Bn, Rat(ONE, da * db))


def _primitive_row(row):
    """The row shifted to valuation 0 and divided by the gcd of its entries.
    The gcd never holds a unit v^k, so the shift is what divides out the
    powers of v that the cross-multiplications bring in."""
    k = min(x.min_exp() for x in row if x)
    if k:
        row = [x.shift(-k) for x in row]
    g = ZERO
    for x in row:
        g = laurent_gcd(g, x) if x else g
        if g.is_one():
            return row
    return [x.exact_div(g) for x in row]


def row_reduce(A):
    """Fraction-free Gauss-Jordan elimination of a Laurent matrix, one row at
    a time: a row is cross-multiplied against the kept rows, b[c] vec - vec[c] b
    (each entry one `mul_sub`), and kept, divided by the gcd of its entries,
    when it is not zero, after a shift to valuation 0.  So the kept rows
    are the lexicographically-first independent set and the entries stay
    small in Z[v, v^-1].  Returns
    (kept, cols, R, d): R[k] is d times the row of the reduced row echelon
    form of A with pivot column cols[k]."""
    kept, rows = [], []  # (pivot column, row), each zero at the others' pivots
    for idx, vec in enumerate(A):
        for c, b in rows:
            if vec[c]:
                bc, vc = b[c], vec[c]
                vec = [mul_sub(bc, x, vc, y) for x, y in zip(vec, b)]
        c = next((j for j, x in enumerate(vec) if x), None)
        if c is None:
            continue
        vec = _primitive_row(vec)
        for k, (ck, b) in enumerate(rows):
            if b[c]:
                vc, bc = vec[c], b[c]
                rows[k] = (ck, _primitive_row([mul_sub(vc, y, bc, x) for y, x in zip(b, vec)]))
        kept.append(idx)
        rows.append((c, vec))
    rows.sort()
    d = ONE
    for c, b in rows:
        d = d * b[c].exact_div(laurent_gcd(d, b[c]))
    R = [[x * f for x in b] for c, b in rows for f in [d.exact_div(b[c])]]
    return kept, [c for c, _ in rows], R, d


def inverse_numerators(A):
    """(N, d) with A^-1 = N / d for a square Laurent matrix A: the right
    block of one `row_reduce` of [A | I].  Raises ValueError on a matrix
    that is not square and SingularMatrix on a singular one."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError(f"cannot invert a {_shape(A)} matrix")
    aug = [row + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(A)]
    _, cols, R, d = row_reduce(aug)
    col = next((k for k, c in enumerate(cols) if c != k), len(cols))
    if col < n:
        raise SingularMatrix(f"matrix is singular at column {col}")
    return [row[n:] for row in R], d


def invert(A):
    """Inverse of a square matrix of Rat or Laurent entries, as a matrix of
    Rat: A = An / den (`fraction_rows`), An^-1 = N / d, and each entry of
    den N / d reduced once.  Raises ValueError on a matrix that is not
    square and SingularMatrix on a singular one."""
    An, den = fraction_rows(A)
    N, d = inverse_numerators(An)
    nums = {(i, j): x for i, row in enumerate(N) for j, x in enumerate(row) if x}
    return _entries(nums, Rat(den, d), len(N), len(N))

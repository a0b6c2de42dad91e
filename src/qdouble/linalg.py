"""Small dense exact linear algebra used by basis computations: one
fraction-free elimination over Z[v, v^-1], `row_reduce`, which takes Laurent
matrices as they are (the pivot layer's pairing matrices) and Rat matrices
over one common denominator (`invert`)."""
from __future__ import annotations

from .scalar import ONE, ZERO, Rat, RAT_ZERO, common_denominator, laurent_gcd, mul_sub


class SingularMatrix(ArithmeticError):
    pass


def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = [[RAT_ZERO] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a.is_zero():
                continue
            Bt = B[t]
            row = out[i]
            for j in range(m):
                b = Bt[j]
                if not b.is_zero():
                    row[j] = row[j] + a * b
    return out


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


def _laurent_rows(A):
    """(rows, den): A = rows / den with rows over Z[v, v^-1]."""
    m = len(A[0]) if A else 0
    nums, den = common_denominator([x for row in A for x in row])
    return [nums[i * m : (i + 1) * m] for i in range(len(A))], den


def invert(A):
    """Inverse of a square matrix of Rat; raises SingularMatrix."""
    n = len(A)
    rows, den = _laurent_rows(A)
    aug = [row + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(rows)]
    _, cols, R, d = row_reduce(aug)
    col = next((k for k, c in enumerate(cols) if c != k), len(cols))
    if col < n:
        raise SingularMatrix(f"matrix is singular at column {col}")
    return [[Rat(den * x, d) if x else RAT_ZERO for x in row[n:]] for row in R]

"""Exact arithmetic in Z[v,v^-1] and Q(v), where v = q^(1/2).

Everything downstream computes over these scalars.  Laurent polynomials are
dicts {exponent: int}; rational functions are canonical num/den pairs, so
equality is structural, and by type: no Laurent equals a Rat or an int, as
their hashes differ.  The bar involution is v -> v^-1.

`Rat` keeps the canonical form without reducing from scratch: it cancels
only where two factors can meet.  A product with a single term m v^k over 1
(a sign or an integer scale) is the other numerator shifted and scaled over
its own denominator, with only the integer gcd(m, content(den)) to divide
out, and none for m = +-1.  A v-power twist is `Rat.shift`, no product.
"""
from __future__ import annotations

from math import gcd as _int_gcd
import re

__all__ = [
    "Laurent",
    "Rat",
    "ZERO",
    "ONE",
    "NU",
    "Q",
    "mul_sub",
    "qsq",
    "qround",
    "qangle",
    "qsq_factorial",
    "qround_factorial",
    "qangle_factorial",
    "qsq_binom",
    "qround_binom",
    "solve_bar_correction",
    "accumulate",
    "add_mul",
    "laurent_values",
    "common_denominator",
    "over_denominator",
    "clear_denominators",
    "cyclotomic",
    "cyclotomic_factor",
    "parse_scalar",
    "ValueTable",
]


class InexactDivision(ArithmeticError):
    pass


class BarInconsistency(ValueError):
    """Input claimed bar-antisymmetric is not."""


class Laurent:
    """Laurent polynomial in v with integer coefficients."""

    __slots__ = ("c", "_hash")

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        self.c = {k: v for k, v in coeffs.items() if v}
        self._hash = None

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(n: int) -> "Laurent":
        return Laurent({0: n}) if n else Laurent()

    @staticmethod
    def mono(coeff: int, exp: int) -> "Laurent":
        return Laurent({exp: coeff}) if coeff else Laurent()

    # -- basic queries ------------------------------------------------
    def is_zero(self) -> bool:
        return not self.c

    def is_one(self) -> bool:
        return self.c == {0: 1}

    def min_exp(self) -> int:
        if not self.c:
            raise ValueError("zero polynomial has no valuation")
        return min(self.c)

    def max_exp(self) -> int:
        if not self.c:
            raise ValueError("zero polynomial has no degree")
        return max(self.c)

    def content(self) -> int:
        g = 0
        for v in self.c.values():
            g = _int_gcd(g, abs(v))
        return g

    def leading(self) -> int:
        return self.c[self.max_exp()]

    def __bool__(self):
        return bool(self.c)

    # -- ring operations ----------------------------------------------
    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.c)
        for k, v in other.c.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        r = Laurent.__new__(Laurent)
        r.c = out
        r._hash = None
        return r

    def __neg__(self) -> "Laurent":
        r = Laurent.__new__(Laurent)
        r.c = {k: -v for k, v in self.c.items()}
        r._hash = None
        return r

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return ZERO
            r = Laurent.__new__(Laurent)
            r.c = {k: v * other for k, v in self.c.items()}
            r._hash = None
            return r
        out: dict[int, int] = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = k1 + k2
                s = out.get(k, 0) + v1 * v2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        r = Laurent.__new__(Laurent)
        r.c = out
        r._hash = None
        return r

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Laurent":
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial; use Rat")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "Laurent":
        """Multiply by v^k."""
        r = Laurent.__new__(Laurent)
        r.c = {e + k: v for e, v in self.c.items()}
        r._hash = None
        return r

    def subs_power(self, k: int) -> "Laurent":
        """Substitute v -> v^k (k nonzero integer)."""
        r = Laurent.__new__(Laurent)
        r.c = {e * k: v for e, v in self.c.items()}
        r._hash = None
        return r

    def bar(self) -> "Laurent":
        return self.subs_power(-1)

    def intdiv(self, n: int) -> "Laurent":
        out = {}
        for k, v in self.c.items():
            q, r = divmod(v, n)
            if r:
                raise InexactDivision(f"coefficient {v} not divisible by {n}")
            out[k] = q
        return Laurent(out)

    def divmod_poly(self, other: "Laurent"):
        """(q, r) with self == q * other + r: long division from the top term
        while the leading coefficient of other divides, down to the exponent
        min(self) + deg(other) - val(other), so r has its exponents from
        min(self) on; r == 0 exactly when other divides self over Z."""
        if not other.c:
            raise ZeroDivisionError
        rem, quot = dict(self.c), {}
        if rem:
            top_b = max(other.c)
            lead = other.c[top_b]
            b_terms = [(k - top_b, c) for k, c in other.c.items()]
            stop = min(rem) + top_b - min(other.c)
            for top in range(max(rem), stop - 1, -1):
                c = rem.get(top)
                if c is None:
                    continue
                cq, r = divmod(c, lead)
                if r:
                    break
                quot[top - top_b] = cq
                for k, bc in b_terms:
                    s = rem.get(top + k, 0) - cq * bc
                    if s:
                        rem[top + k] = s
                    else:
                        del rem[top + k]
        q, r = Laurent.__new__(Laurent), Laurent.__new__(Laurent)
        q.c, q._hash, r.c, r._hash = quot, None, rem, None
        return q, r

    def exact_div(self, other: "Laurent") -> "Laurent":
        q, r = self.divmod_poly(other)
        if not r.is_zero():
            raise InexactDivision(f"{self} not divisible by {other}")
        return q

    # -- comparisons ----------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, Laurent):
            return self.c == other.c
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.c.items()))
        return self._hash

    def __repr__(self):
        return f"Laurent({format_laurent(self)})"


ZERO = Laurent()
ONE = Laurent({0: 1})
NU = Laurent({1: 1})
Q = Laurent({2: 1})


def mul_sub(a: Laurent, x: Laurent, b: Laurent, y: Laurent) -> Laurent:
    """a x - b y in one pass over the terms of the four operands: the
    cross-multiplied entry of a fraction-free elimination step."""
    out: dict[int, int] = {}
    get = out.get
    for k1, v1 in a.c.items():
        for k2, v2 in x.c.items():
            k = k1 + k2
            out[k] = get(k, 0) + v1 * v2
    for k1, v1 in b.c.items():
        for k2, v2 in y.c.items():
            k = k1 + k2
            out[k] = get(k, 0) - v1 * v2
    r = Laurent.__new__(Laurent)
    r.c = {k: v for k, v in out.items() if v}
    r._hash = None
    return r


def _primitive(p: Laurent) -> Laurent:
    """Shift to valuation 0, divide by content, positive leading coefficient."""
    if p.is_zero():
        return p
    p = p.shift(-p.min_exp())
    c = p.content()
    if c > 1:
        p = p.intdiv(c)
    if p.leading() < 0:
        p = -p
    return p


def laurent_gcd(a: Laurent, b: Laurent) -> Laurent:
    """gcd in Z[v,v^-1], content times primitive part, positive leading coefficient."""
    if a.is_zero():
        return ZERO if b.is_zero() else _content_times_prim(b)
    if b.is_zero():
        return _content_times_prim(a)
    if len(a.c) == 1 or len(b.c) == 1:
        # a single term is a unit times an integer
        return Laurent.const(_int_gcd(a.content(), b.content()))
    ca, cb = a.content(), b.content()
    g_int = _int_gcd(ca, cb)
    a, b = _primitive(a), _primitive(b)
    # primitive Euclid with pseudo-remainders
    while not b.is_zero():
        # pseudo-remainder: multiply a by lead(b)^(deg gap + 1)
        la, lb = a, b
        d = la.max_exp() - lb.max_exp()
        if d < 0:
            a, b = b, a
            continue
        m = lb.leading()
        r = la * (m ** (d + 1))
        q, rem = r.divmod_poly(lb)
        assert rem.is_zero() or rem.max_exp() < lb.max_exp()
        a, b = lb, _primitive(rem) if not rem.is_zero() else ZERO
    return _primitive(a) * g_int


def _content_times_prim(p: Laurent) -> Laurent:
    c = p.content()
    return _primitive(p) * c


class Rat:
    """Element of Q(v) as a canonical fraction of integer Laurent polynomials.

    Canonical form: gcd(num, den) = 1 (polynomial and integer content), den has
    valuation 0 and positive leading coefficient.  Equality is structural.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Laurent, den: Laurent):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num, self.den = _canonicalize(num, den)
        self._hash = None

    @staticmethod
    def of(x) -> "Rat":
        if isinstance(x, Rat):
            return x
        if isinstance(x, int):
            return _rat(Laurent.const(x), ONE)
        if isinstance(x, Laurent):
            return _rat(x, ONE)
        raise TypeError(f"cannot coerce {x!r} to Rat")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_laurent(self) -> bool:
        return self.den.is_one()

    def as_laurent(self) -> Laurent:
        if not self.den.is_one():
            raise InexactDivision(f"{self} is not a Laurent polynomial")
        return self.num

    def __bool__(self):
        return not self.num.is_zero()

    # The operations below take canonical operands and keep the result
    # canonical without a gcd of the full numerator and denominator: they
    # cancel only where two factors can meet (Henrici 1956; Knuth, TAOCP 2,
    # 4.5.1).  `Rat(num, den)` stays the reference that reduces from scratch.

    def __add__(self, other):
        other = Rat.of(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.is_one():
            if d.is_one():
                return _rat(a + c, ONE)
            # gcd(c + a d, d) = gcd(c, d) = 1
            return _rat(c + a * d, d)
        if d.is_one():
            return _rat(a + c * b, b)
        g = laurent_gcd(b, d)
        if g.is_one():
            # a prime of b d dividing a d + c b would divide both b and d
            return _rat(a * d + c * b, b * d)
        b1, d1 = b.exact_div(g), d.exact_div(g)
        t = a * d1 + c * b1
        if t.is_zero():
            return RAT_ZERO
        # t is coprime to b1 and d1, so it can only share factors with g
        g2 = laurent_gcd(t, g)
        if g2.is_one():
            return _rat(t, b1 * d)
        return _rat(t.exact_div(g2), b1 * d.exact_div(g2))

    __radd__ = __add__

    def __neg__(self):
        return _rat(-self.num, self.den)

    def __sub__(self, other):
        return self + (-Rat.of(other))

    def __rsub__(self, other):
        return Rat.of(other) + (-self)

    def __mul__(self, other):
        other = Rat.of(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero() or c.is_zero():
            return RAT_ZERO
        # a twist, sign or scale m v^k meets only the integer content of
        # the other denominator
        if b.is_one() and len(a.c) == 1:
            return _times_term(c, d, a)
        if d.is_one() and len(c.c) == 1:
            return _times_term(a, b, c)
        # cross-cancel: gcd(a/g1 c/g2, b/g2 d/g1) = 1
        if not d.is_one():
            g1 = laurent_gcd(a, d)
            if not g1.is_one():
                a, d = a.exact_div(g1), d.exact_div(g1)
        if not b.is_one():
            g2 = laurent_gcd(c, b)
            if not g2.is_one():
                c, b = c.exact_div(g2), b.exact_div(g2)
        # with a Laurent operand, keep the other denominator itself
        return _rat(a * c, d if b.is_one() else b if d.is_one() else b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * Rat.of(other).inv()

    def __rtruediv__(self, other):
        return Rat.of(other) / self

    def inv(self) -> "Rat":
        if self.num.is_zero():
            raise ZeroDivisionError
        return _unit_normal(self.den, self.num)

    def __pow__(self, n: int) -> "Rat":
        if n < 0:
            return self.inv() ** (-n)
        # den^n keeps valuation 0 and a positive leading coefficient
        return _rat(self.num**n, self.den**n)

    def bar(self) -> "Rat":
        return _unit_normal(self.num.bar(), self.den.bar())

    def shift(self, k: int) -> "Rat":
        """Multiply by v^k: the numerator shifted over the same denominator,
        canonical as it is, since v is a unit."""
        return _rat(self.num.shift(k), self.den)

    def __eq__(self, other):
        if not isinstance(other, Rat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self):
        return f"Rat({format_scalar(self)})"


def _canonicalize(num: Laurent, den: Laurent):
    if num.is_zero():
        return ZERO, ONE
    g = laurent_gcd(num, den)
    if not g.is_one():
        num = num.exact_div(g)
        den = den.exact_div(g)
    # den: valuation 0, positive leading coefficient; unit shifts go to num
    s = den.min_exp()
    if s:
        den = den.shift(-s)
        num = num.shift(-s)
    if den.leading() < 0:
        den = -den
        num = -num
    c = _int_gcd(num.content(), den.content())
    if c > 1:
        num = num.intdiv(c)
        den = den.intdiv(c)
    return num, den


def _rat(num: Laurent, den: Laurent) -> Rat:
    """The Rat num/den, which the caller knows to be canonical (a zero
    numerator only ever comes with den = 1)."""
    r = Rat.__new__(Rat)
    r.num = num
    r.den = den
    r._hash = None
    return r


def _times_term(num: Laurent, den: Laurent, term: Laurent) -> Rat:
    """(m v^k num)/den for canonical num/den and the single term m v^k:
    num shifted and scaled over den as it is, unless m shares an integer
    factor g with the content of den, which then divides out of both."""
    ((k, m),) = term.c.items()
    if m not in (1, -1) and not den.is_one():
        g = _int_gcd(m, den.content())
        if g != 1:
            m //= g
            den = den.intdiv(g)
    r = Laurent.__new__(Laurent)
    r.c = {e + k: x * m for e, x in num.c.items()}
    r._hash = None
    return _rat(r, den)


def _unit_normal(num: Laurent, den: Laurent) -> Rat:
    """num/den with gcd(num, den) = 1: move the unit +-v^k of den to num."""
    s = den.min_exp()
    if s:
        num, den = num.shift(-s), den.shift(-s)
    if den.leading() < 0:
        num, den = -num, -den
    return _rat(num, den)


RAT_ZERO = Rat.of(0)
RAT_ONE = Rat.of(1)


class ValueTable:
    """One object per distinct value: equal Laurents stored through the
    table are one object, and so are equal Rats, each over the table's own
    num and den.  Laurent and Rat are immutable values with cached hashes,
    so equal values can share an object as long as nothing sums into a
    stored coefficient dict in place.  A Rat is keyed on its stored num and
    den, whose hashes are cached once."""

    __slots__ = ("_laurents", "_rats")

    def __init__(self):
        self._laurents: dict = {}
        self._rats: dict = {}

    def laurent(self, x: Laurent) -> Laurent:
        return self._laurents.setdefault(x, x)

    def rat(self, x: Rat) -> Rat:
        key = (self.laurent(x.num), self.laurent(x.den))
        got = self._rats.get(key)
        if got is None:
            got = self._rats[key] = x if x.num is key[0] and x.den is key[1] else _rat(*key)
        return got

    def terms(self, terms: dict) -> dict:
        """terms {key: Laurent or Rat} with every value stored once."""
        return {k: self.rat(c) if isinstance(c, Rat) else self.laurent(c) for k, c in terms.items()}


def accumulate(out: dict, key, val) -> None:
    """out[key] += val over Rat or Laurent values, keeping no zero entries."""
    old = out.get(key)
    s = val if old is None else old + val
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


def add_mul(acc: dict, a: dict, b: dict, shift: int = 0) -> None:
    """acc += a b v^shift in place over coefficient dicts {exponent: int} (a
    Laurent's `.c`), with no temporary Laurent; a and b are only read, and
    zero coefficients stay in acc until `laurent_values`."""
    get = acc.get
    for k1, v1 in a.items():
        k1 += shift
        for k2, v2 in b.items():
            k = k1 + k2
            acc[k] = get(k, 0) + v1 * v2


def laurent_values(sums: dict) -> dict:
    """{key: Laurent} of {key: coefficient dict} summed by `add_mul`,
    without zero coefficients or zero values.  The Laurents take over the
    dicts that hold no zero, so the caller must not reuse sums."""
    out = {}
    for key, c in sums.items():
        if 0 in c.values():
            c = {k: v for k, v in c.items() if v}
        if c:
            r = out[key] = Laurent.__new__(Laurent)
            r.c, r._hash = c, None
    return out


def laurent_lcm(dens) -> Laurent:
    """The lcm of nonzero Laurent polynomials, by exact division by gcds;
    the first is taken as it is."""
    it = iter(dens)
    d = next(it, ONE)
    for b in it:
        d = d * b.exact_div(laurent_gcd(d, b))
    return d


def common_denominator(xs) -> tuple[list[Laurent], Laurent]:
    """(nums, d) with xs[k] = nums[k] / d, d the lcm of the denominators."""
    dens = {x.den for x in xs} - {ONE}
    if not dens:
        return [x.num for x in xs], ONE
    d = laurent_lcm(dens)
    cofactor = {b: d.exact_div(b) for b in dens | {ONE}}
    return [x.num * cofactor[x.den] for x in xs], d


def over_denominator(nums: dict, den: Laurent) -> dict:
    """{key: num / den} over a dict of nonzero Laurent numerators: a
    fraction-free kernel sums its numerators with `add_mul` and reduces
    each result once here.  Exact division comes first: a quotient q with no
    remainder is the canonical q / 1, and only a true fraction pays for the
    gcd of `Rat(num, den)`."""
    if den.is_one():
        return {k: _rat(t, ONE) for k, t in nums.items()}
    out = {}
    for k, t in nums.items():
        q, r = t.divmod_poly(den)
        out[k] = Rat(t, den) if r.c else _rat(q, ONE)
    return out


def nu_power(k: int) -> Rat:
    return _rat(Laurent.mono(1, k), ONE)


# ---------------------------------------------------------------------------
# quantum numbers
# ---------------------------------------------------------------------------

def qsq(a: int, base: int = 1) -> Laurent:
    """[a] in base v^base: (x^a - 1)/(x - 1) evaluated at x = v^base."""
    if a >= 0:
        p = Laurent({k: 1 for k in range(a)})
    else:
        p = Laurent({k: -1 for k in range(a, 0)})
    return p.subs_power(base)


def qround(a: int, base: int = 1) -> Laurent:
    """(a) in base v^base: (x^a - x^-a)/(x - x^-1)."""
    if a >= 0:
        p = Laurent({k: 1 for k in range(-(a - 1), a, 2)})
    else:
        p = -Laurent({k: 1 for k in range(a + 1, -a, 2)})
    return p.subs_power(base)


def qangle(a: int, base: int = 1) -> Laurent:
    """<a> in base v^base: x^a - x^-a."""
    if a == 0:
        return ZERO
    return Laurent({a: 1, -a: -1}).subs_power(base)


def _qproduct(q, args, base: int) -> Laurent:
    """The product of q(j, base) over j in args, in order; ONE when empty."""
    p = ONE
    for j in args:
        p = p * q(j, base)
    return p


def qsq_factorial(a: int, base: int = 1) -> Laurent:
    return _qproduct(qsq, range(1, a + 1), base)


def qround_factorial(a: int, base: int = 1) -> Laurent:
    return _qproduct(qround, range(1, a + 1), base)


def qangle_factorial(a: int, base: int = 1) -> Laurent:
    return _qproduct(qangle, range(1, a + 1), base)


def qsq_binom(a: int, n: int, base: int = 1) -> Laurent:
    """[a choose n] in base v^base; 0 for n < 0."""
    if n < 0:
        return ZERO
    return _qproduct(qsq, range(a, a - n, -1), base).exact_div(qsq_factorial(n, base))


def qround_binom(a: int, n: int, base: int = 1) -> Laurent:
    """(a choose n) in base v^base; 0 for n < 0."""
    if n < 0:
        return ZERO
    return _qproduct(qround, range(a, a - n, -1), base).exact_div(qround_factorial(n, base))


# ---------------------------------------------------------------------------
# bar correction and denominator clearing
# ---------------------------------------------------------------------------

def solve_bar_correction(f: Laurent, side: str = "positive") -> Laurent:
    """Unique p with p - bar(p) = f and p supported in v^(>0) (or v^(<0)).

    Requires bar(f) = -f (in particular zero constant term).
    """
    if not (f + f.bar()).is_zero():
        raise BarInconsistency(f"{f} is not bar-antisymmetric")
    if side == "positive":
        return Laurent({k: v for k, v in f.c.items() if k > 0})
    if side == "negative":
        return Laurent({k: v for k, v in f.c.items() if k < 0})
    raise ValueError(f"side must be positive or negative, got {side!r}")


_cyclo_cache: dict[int, Laurent] = {}


def cyclotomic(k: int) -> Laurent:
    """k-th cyclotomic polynomial in v, exact integer coefficients."""
    if k in _cyclo_cache:
        return _cyclo_cache[k]
    p = Laurent({k: 1, 0: -1})
    for d in range(1, k):
        if k % d == 0:
            p = p.exact_div(cyclotomic(d))
    _cyclo_cache[k] = p
    return p


def _totient(k: int) -> int:
    """Euler's totient, the degree of cyclotomic(k), by trial division."""
    out, n, p = k, k, 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    return out - out // n if n > 1 else out


def _symmetrize_factor(p: Laurent) -> Laurent:
    """Minimal multiple of p lying in Z[v + v^-1], positive leading coefficient.

    p irreducible with valuation 0.  Returns v^(-deg/2) p when p is palindromic
    of even degree, else the normalization of p * bar(p).
    """
    deg = p.max_exp()
    rev = p.bar().shift(deg)
    if deg % 2 == 0 and (rev == p or rev == -p):
        out = p.shift(-deg // 2)
    else:
        out = (p * p.bar())
        out = out.shift(-(out.max_exp() + out.min_exp()) // 2)
    if out.leading() < 0:
        out = -out
    return out


def is_symmetric(p: Laurent) -> bool:
    """True when p is fixed by bar."""
    return p == p.bar()


def clear_denominators(fractions) -> Laurent:
    """Minimal d in Z[v+v^-1] with positive minimal leading coefficient such
    that d * f is a Laurent polynomial for every f in the input.

    d is the lcm of the integer contents of the denominators times, for each
    cyclotomic index k, the symmetrized Phi_k to the largest multiplicity it
    has in a denominator.  Raises ValueError on a denominator with a
    non-cyclotomic factor, and when d fails its own checks: bar-symmetric,
    clearing every fraction.
    """
    fractions = [Rat.of(f) for f in fractions]
    dens = {f.den for f in fractions} - {ONE}
    if not dens:
        return ONE
    int_lcm, mult = 1, {}
    for den in dens:
        _, c, cyc, others = cyclotomic_factor(den)
        if others:
            raise ValueError(f"denominator {den} has the non-cyclotomic factor {others[0]}")
        int_lcm = int_lcm * c // _int_gcd(int_lcm, c)
        for k, m in cyc:
            mult[k] = max(mult.get(k, 0), m)
    d = Laurent.const(int_lcm)
    for k in sorted(mult):
        d = d * _symmetrize_factor(cyclotomic(k)) ** mult[k]
    if not is_symmetric(d):
        raise ValueError(f"clearing factor {d} is not bar-symmetric")
    for f in fractions:
        if not (Rat.of(d) * f).is_laurent():
            raise ValueError(f"clearing factor {d} leaves a denominator in {f}")
    return d


def cyclotomic_factor(p: Laurent):
    """Factor p as unit * constant * product of cyclotomics * cofactor, by
    exact division by Phi_1, Phi_2, ... while the cofactor has degree left.

    Returns (unit, constant, factors, others) where unit = (+-1, v-power),
    factors is a sorted list of (k, multiplicity) over cyclotomic indices and
    others is [the cyclotomic-free cofactor], or [] when that cofactor is 1.
    Only k with totient(k) <= deg(cofactor) can divide, and totient(k) >=
    sqrt(k/2) bounds the search by k <= 2 deg^2.
    """
    if p.is_zero():
        raise ValueError("cannot factor 0")
    val = p.min_exp()
    q = p.shift(-val)
    sign = 1 if q.leading() > 0 else -1
    content = q.content()
    q = q.intdiv(sign * content)
    cyc = []
    k = 1
    while q.max_exp() and k <= 2 * q.max_exp() ** 2:
        if _totient(k) <= q.max_exp():
            m = 0
            while True:
                quot, rem = q.divmod_poly(cyclotomic(k))
                if rem:
                    break
                q, m = quot, m + 1
            if m:
                cyc.append((k, m))
        k += 1
    return (sign, val), content, cyc, [q] if q.max_exp() else []


# ---------------------------------------------------------------------------
# text serialization: sums "c*v^k" in decreasing k; rationals "(num)/(den)"
# ---------------------------------------------------------------------------

def format_laurent(p: Laurent) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k in sorted(p.c, reverse=True):
        c = p.c[k]
        if k == 0:
            parts.append(f"{c}")
        elif k == 1:
            parts.append(f"{c}*v")
        else:
            parts.append(f"{c}*v^{k}")
    out = " + ".join(parts)
    return out.replace("+ -", "- ")


def format_scalar(x) -> str:
    x = Rat.of(x)
    if x.den.is_one():
        return format_laurent(x.num)
    return f"({format_laurent(x.num)})/({format_laurent(x.den)})"


_TERM_RE = re.compile(r"^([+-]?\d+)(?:\*v(?:\^(-?\d+))?)?$")


def parse_laurent(s: str) -> Laurent:
    s = s.strip().replace(" - ", " + -").replace("- ", "-")
    if s == "0":
        return ZERO
    out = ZERO
    for term in s.split(" + "):
        term = term.strip()
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"cannot parse Laurent term {term!r}")
        c = int(m.group(1))
        if "*v" not in term:
            k = 0
        elif m.group(2) is None:
            k = 1
        else:
            k = int(m.group(2))
        out = out + Laurent.mono(c, k)
    return out


def parse_scalar(s: str) -> Rat:
    """The scalar format_scalar writes as s; ValueError on any other text."""
    s = s.strip()
    if s.startswith("(") and ")/(" in s and s.endswith(")"):
        parts = s[1:-1].split(")/(")
        if len(parts) != 2:
            raise ValueError(f"cannot parse scalar {s!r}: expected (num)/(den)")
        numer, denom = map(parse_laurent, parts)
        if denom.is_zero():
            raise ValueError(f"zero denominator in {s!r}")
        return Rat(numer, denom)
    return Rat.of(parse_laurent(s))

import functools
import itertools
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from qdouble import scalar
from qdouble.scalar import (
    Laurent,
    Rat,
    ZERO,
    ONE,
    NU,
    qsq,
    qround,
    qangle,
    qsq_factorial,
    qround_factorial,
    qangle_factorial,
    qsq_binom,
    qround_binom,
    solve_bar_correction,
    add_mul,
    laurent_values,
    clear_denominators,
    cyclotomic,
    cyclotomic_factor,
    format_scalar,
    parse_scalar,
    BarInconsistency,
    _symmetrize_factor,
)


def eval_fraction(p: Laurent, x: Fraction) -> Fraction:
    """p evaluated at the rational number x."""
    return sum((Fraction(v) * x**k for k, v in p.c.items()), Fraction(0))


def L(**kw):
    return Laurent({int(k[1:].replace("m", "-")): v for k, v in kw.items()})


laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=-9, max_value=9), max_size=6
).map(Laurent)


class TestLaurent:
    def test_add_mul(self):
        p = Laurent({2: 1, 0: 1})
        q = Laurent({-2: 3})
        assert p * q == Laurent({0: 3, -2: 3})
        assert p + q == Laurent({2: 1, 0: 1, -2: 3})

    def test_bar_substitution(self):
        # v^2 + 1 -> 1 + v^-2
        assert Laurent({2: 1, 0: 1}).bar() == Laurent({0: 1, -2: 1})
        assert ONE.bar() == ONE

    @given(laurents, laurents)
    @settings(max_examples=200, deadline=None)
    def test_bar_ring_map(self, a, b):
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()
        assert a.bar().bar() == a

    def test_exact_div(self):
        p = Laurent({2: 1, 0: -1})
        assert p.exact_div(Laurent({1: 1, 0: -1})) == Laurent({1: 1, 0: 1})

    @given(laurents, laurents.filter(lambda b: b and b.min_exp() != 0))
    @settings(max_examples=300, deadline=None)
    def test_divmod_identity(self, a, b):
        # a == q b + r for a divisor of nonzero valuation, r from min(a) on,
        # and an exact multiple divides with remainder 0
        q, r = a.divmod_poly(b)
        assert q * b + r == a
        assert r.is_zero() or r.min_exp() >= a.min_exp()
        assert (a * b).divmod_poly(b) == (a, ZERO)

    def test_divmod_remainder_not_shifted(self):
        # deg b - val b = 2 exceeds the span of a: nothing to divide
        q, r = Laurent({4: 2}).divmod_poly(Laurent({0: -3, -2: -2}))
        assert q == ZERO and r == Laurent({4: 2})


class TestRat:
    def test_canonical_equality(self):
        a = Rat(Laurent({1: 1}), Laurent({2: 1, 0: -1}))
        b = Rat(Laurent({0: 1}), Laurent({1: 1, -1: -1}))
        assert a == b

    def test_bar_of_inverse_angle(self):
        # (v - v^-1)^-1 -> (v^-1 - v)^-1 = -(v - v^-1)^-1
        x = Rat.of(1) / Rat.of(qangle(1))
        assert x.bar() == -x

    @given(laurents, laurents, laurents)
    @settings(max_examples=100, deadline=None)
    def test_field_ops(self, a, b, c):
        if b.is_zero() or c.is_zero():
            return
        x = Rat(a, b)
        y = Rat(b, c)
        assert (x * y) * y.inv() == x
        assert (x + y) - y == x

    def test_equal_scalars_hash_equal(self):
        # equality is by type: a Laurent and a Rat of the same value are not
        # equal, as their hashes differ; so are an int and either
        laurents = [ZERO, ONE, -ONE, NU, Laurent({0: 2}), Laurent({1: 1, -1: -1})]
        samples = [0, 1, -1, 2, *laurents, *map(Rat.of, laurents), Rat(ONE, NU + ONE)]
        for a, b in itertools.product(samples, repeat=2):
            if a == b:
                assert hash(a) == hash(b), (a, b)

    def test_numeric_agreement(self):
        x = Rat(Laurent({3: 2, 0: -1}), Laurent({2: 1, 0: 3}))
        t = Fraction(7, 3)
        assert eval_fraction(x.num, t) / eval_fraction(x.den, t) == (2 * t**3 - 1) / (t**2 + 3)


def _prod(*factors):
    out = ONE
    for f in factors:
        out = out * f
    return out


PHI1, PHI2, PHI4, PHI8, PHI16 = (cyclotomic(k) for k in (1, 2, 4, 8, 16))
W = Laurent({4: 2, 0: 1})  # 2v^4 + 1
TWO = Laurent.const(2)

# Fractions whose numerators and denominators share factors, drawn from the
# denominators met in practice: products of cyclotomics Phi_k (k = 1, 2, 4,
# 8, 16), 2v^4 + 1 and the integer 2, with single terms, negatives and zero.
# Each is reduced from scratch by Rat(num, den).
SHARED = [
    (ZERO, ONE),
    (Laurent.mono(3, -2), ONE),
    (-ONE, ONE),
    (_prod(PHI1, PHI2), ONE),
    (NU, PHI1),
    (-PHI2, _prod(PHI1, PHI4)),
    (PHI4.shift(3), _prod(PHI1, PHI2, PHI8)),
    (_prod(TWO, PHI8), _prod(PHI4, PHI8, PHI8)),
    (ONE, TWO),
    (W, _prod(TWO, PHI16)),
    (-PHI16.shift(-1), _prod(W, PHI2)),
    (Laurent({2: 1, 1: -1, 0: 3}), _prod(PHI8, PHI8)),
    (_prod(PHI1, PHI1, PHI2), _prod(TWO, PHI4, PHI8)),
    (Laurent.mono(-2, 5), _prod(PHI1, PHI16)),
    (_prod(PHI2, W), _prod(PHI1, PHI1)),
    (Laurent.const(4), _prod(PHI2, PHI4, PHI8, PHI16)),
    (NU * 3, _prod(W, W).shift(2)),
    (_prod(PHI1, PHI4), Laurent.mono(-6, 1)),
]


def _same_as_reference(got, num, den):
    """got is exactly the canonical form Rat(num, den) reduces to."""
    ref = Rat(num, den)
    assert (got.num, got.den) == (ref.num, ref.den)
    if got.is_zero():
        assert got.num.c == {} and got.den.c == {0: 1}


class TestRatReference:
    """Every operation of Rat against a from-scratch reduction."""

    pool = [Rat(n, d) for n, d in SHARED]

    @pytest.mark.parametrize("x", pool, ids=range(len(SHARED)))
    def test_binary(self, x):
        a, b = x.num, x.den
        for y in self.pool:
            c, d = y.num, y.den
            _same_as_reference(x + y, a * d + c * b, b * d)
            _same_as_reference(x - y, a * d - c * b, b * d)
            _same_as_reference(x * y, a * c, b * d)
            if not y.is_zero():
                _same_as_reference(x / y, a * d, b * c)

    @pytest.mark.parametrize("x", pool, ids=range(len(SHARED)))
    def test_unary(self, x):
        a, b = x.num, x.den
        _same_as_reference(x.bar(), a.bar(), b.bar())
        _same_as_reference(-x, -a, b)
        for n in range(4):
            _same_as_reference(x**n, a**n, b**n)
        if not x.is_zero():
            _same_as_reference(x.inv(), b, a)
            _same_as_reference(x**-2, b**2, a**2)
        _same_as_reference(x + 1, a + b, b)
        _same_as_reference(x * 2, a * 2, b)


class TestSingleTermProducts:
    """A factor m v^k over 1 shifts and scales the other numerator over its
    denominator as it is.  Only the integer content of that denominator can
    meet m, and an integer gcd divides it out, so no laurent_gcd runs."""

    terms = [Laurent.mono(m, k) for m in (1, -1, 2, -2, 3, 4) for k in (-3, 0, 2)]

    def test_pool_has_content_in_its_denominators(self):
        assert {2, 6} <= {x.den.content() for x in TestRatReference.pool}

    @pytest.mark.parametrize("x", TestRatReference.pool, ids=range(len(SHARED)))
    def test_against_reference(self, x, monkeypatch):
        calls = []
        real = scalar.laurent_gcd
        monkeypatch.setattr(scalar, "laurent_gcd", lambda a, b: calls.append((a, b)) or real(a, b))
        for t in self.terms:
            y = Rat.of(t)
            products = (x * y, y * x)
            assert calls == []
            for got in products:
                _same_as_reference(got, x.num * t, x.den)
            calls.clear()

    @pytest.mark.parametrize("m", [1, -1, 2, -2])
    @pytest.mark.parametrize(
        "num, den",
        [
            (Laurent({1: 1, 0: 3}), ONE),
            (Laurent({2: 1, 0: 1}), Laurent({1: 1, 0: 1})),  # content 1
            (Laurent({2: 1, 0: 1}), Laurent({2: 2, 0: 2})),  # content 2
            (Laurent({3: 3}), Laurent({1: 4, 0: 2})),  # content 2
        ],
        ids=["den-one", "content-1", "content-2", "content-2-single-term"],
    )
    def test_times_term(self, m, num, den):
        # m = +-1 and den = 1 skip the content of den; m = +-2 meets content 2
        x = Rat(num, den)
        for k in (-2, 0, 3):
            term = Laurent.mono(m, k)
            got = scalar._times_term(x.num, x.den, term)
            _same_as_reference(got, x.num * term, x.den)


class TestShift:
    """A v-power twist is a shift of the numerator over the same denominator."""

    @pytest.mark.parametrize("x", TestRatReference.pool, ids=range(len(SHARED)))
    def test_shift_is_the_twist(self, x):
        for k in range(-3, 4):
            got = x.shift(k)
            assert got == x * scalar.nu_power(k)
            _same_as_reference(got, x.num.shift(k), x.den)

    def test_zero_stays_canonical(self):
        z = Rat(ZERO, ONE).shift(5)
        assert (z.num.c, z.den.c) == ({}, {0: 1})


class TestQNumbers:
    def test_round_3(self):
        # (3) = v^2 + 1 + v^-2
        assert qround(3) == Laurent({2: 1, 0: 1, -2: 1})

    def test_sq_vs_round(self):
        # [a]_{v^2} = v^(a-1) (a)_v for a = 1..6
        for a in range(1, 7):
            assert qsq(a, 2) == qround(a).shift(a - 1)

    def test_binom_negative(self):
        assert qsq_binom(5, -1) == ZERO
        assert qround_binom(3, -1, 2) == ZERO

    def test_round_nonneg_symmetric(self):
        # (a) in Z_{>=0}[v + v^-1] for 0 <= a <= 12
        for a in range(13):
            p = qround(a)
            assert p == p.bar()
            assert all(c >= 0 for c in p.c.values())

    def test_bin_bar_identity(self):
        # binom_{v^-2}(a,n) = v^(2n(n-a)) binom_{v^2}(a,n)
        for a in range(9):
            for n in range(a + 1):
                lhs = qsq_binom(a, n, -2)
                rhs = qsq_binom(a, n, 2).shift(2 * n * (n - a))
                assert lhs == rhs

    @pytest.mark.parametrize("base", [1, 2, 4, -4])
    def test_products_match_loops(self, base):
        # every factorial and binomial is one q-product; the loops they
        # replaced multiply q(1) ... q(a), and q(a) ... q(a - n + 1) divided
        # exactly by the factorial of n
        def factorial(q, a):
            p = ONE
            for j in range(1, a + 1):
                p = p * q(j, base)
            return p

        def binom(q, a, n):
            if n < 0:
                return ZERO
            num = ONE
            for j in range(n):
                num = num * q(a - j, base)
            return num.exact_div(factorial(q, n))

        for a in range(9):
            assert qsq_factorial(a, base) == factorial(qsq, a)
            assert qround_factorial(a, base) == factorial(qround, a)
            assert qangle_factorial(a, base) == factorial(qangle, a)
            for n in range(-1, a + 2):
                assert qsq_binom(a, n, base) == binom(qsq, a, n), (a, n)
                assert qround_binom(a, n, base) == binom(qround, a, n), (a, n)

    def test_angle_vs_round(self):
        for a in range(8):
            assert qangle_factorial(a) == qround_factorial(a) * (qangle(1) ** a)


class TestBarCorrection:
    def test_read_off_positive(self):
        f = Laurent({3: 1, -3: -1, 1: 2, -1: -2})
        assert solve_bar_correction(f, "positive") == Laurent({3: 1, 1: 2})

    def test_zero(self):
        assert solve_bar_correction(ZERO, "positive") == ZERO

    def test_negative_side(self):
        f = Laurent({-2: 1, 2: -1})
        assert solve_bar_correction(f, "negative") == Laurent({-2: 1})

    def test_rejects_symmetric(self):
        with pytest.raises(BarInconsistency):
            solve_bar_correction(ONE, "positive")

    @given(laurents)
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, p):
        f = p - p.bar()
        out = solve_bar_correction(f, "positive")
        assert out - out.bar() == f


class TestClearDenominators:
    def test_phi4(self):
        # {1/(v^2+1)} -> v + v^-1, and multiplying back is integral
        d = clear_denominators([Rat(ONE, Laurent({2: 1, 0: 1}))])
        assert d == Laurent({1: 1, -1: 1})
        assert (Rat.of(d) / Rat.of(Laurent({2: 1, 0: 1}))).is_laurent()

    def test_trivial(self):
        assert clear_denominators([Rat.of(1)]) == ONE

    def test_round2_round4_q(self):
        # {1/((2)_q (4)_q)} with q = v^2: the multiplier is (2)_q (4)_q itself
        den = qround(2, 2) * qround(4, 2)
        d = clear_denominators([Rat(ONE, den)])
        assert d == den

    def test_integer_content(self):
        assert clear_denominators([Rat(ONE, Laurent.const(2))]) == Laurent.const(2)

    def test_asymmetric_multiplier_raises(self, monkeypatch):
        # the factor v^2 + 1 itself clears 1/(v^2 + 1) but is not bar-fixed
        monkeypatch.setattr(scalar, "_symmetrize_factor", lambda p: p)
        with pytest.raises(ValueError, match="bar-symmetric"):
            clear_denominators([Rat(ONE, Laurent({2: 1, 0: 1}))])

    def test_insufficient_multiplier_raises(self, monkeypatch):
        monkeypatch.setattr(scalar, "_symmetrize_factor", lambda p: ONE)
        with pytest.raises(ValueError, match="leaves a denominator"):
            clear_denominators([Rat(ONE, Laurent({2: 1, 0: 1}))])


coeff_dicts = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=4)


class TestAddMul:
    @settings(max_examples=150, deadline=None)
    @given(coeff_dicts, coeff_dicts, coeff_dicts, st.integers(-6, 6))
    def test_matches_laurent_products(self, acc, a, b, shift):
        want = Laurent(acc) + Laurent(a) * Laurent(b) * Laurent({shift: 1})
        a0, b0 = dict(a), dict(b)
        add_mul(acc, a, b, shift)
        assert Laurent(acc) == want
        assert (a, b) == (a0, b0)

    def test_cancellation_stays_until_finished(self):
        # (1 + v)(1 - v) v^2 = v^2 - v^4: the v^3 terms cancel inside one sum
        acc = {}
        add_mul(acc, {0: 1, 1: 1}, {0: 1, 1: -1}, 2)
        assert acc == {2: 1, 3: 0, 4: -1}
        sums = {"x": acc, "zero": {0: 0, 5: 0}, "empty": {}, "y": {1: 2}}
        got = laurent_values(sums)
        assert got == {"x": Laurent({2: 1, 4: -1}), "y": Laurent({1: 2})}
        assert all(0 not in c.c.values() for c in got.values())


class TestCyclotomicFactor:
    def test_phi3_phi6(self):
        p = Laurent({4: 1, 2: 1, 0: 1})
        unit, const, cyc, others = cyclotomic_factor(p)
        assert unit == (1, 0) and const == 1 and others == []
        assert cyc == [(3, 1), (6, 1)]
        # oracle: reconstruct by multiplication
        back = cyclotomic(3) * cyclotomic(6)
        assert back == p

    def test_angle_one(self):
        unit, const, cyc, others = cyclotomic_factor(qangle(1))
        assert cyc == [(1, 1), (2, 1)]
        assert unit == (1, -1) and const == 1 and others == []
        assert (cyclotomic(1) * cyclotomic(2)).shift(-1) == qangle(1)

    def test_constant(self):
        unit, const, cyc, others = cyclotomic_factor(Laurent.const(7))
        assert const == 7 and cyc == [] and others == []

    def test_non_cyclotomic_reported(self):
        p = Laurent({2: 1, 1: 1, 0: -1})
        _, _, cyc, others = cyclotomic_factor(p)
        assert cyc == [] and len(others) == 1


# -- the sympy factorisation over Z, kept as the reference for the factorizer --

_X = sympy.Symbol("x")


def _to_poly(p: Laurent) -> sympy.Poly:
    """p / v^val(p) as a sympy polynomial in x = v."""
    val = p.min_exp()
    return sympy.Poly({e - val: c for e, c in p.c.items()}, _X)


def _from_poly(f: sympy.Poly) -> Laurent:
    return Laurent({e: int(c) for (e,), c in f.as_dict().items()})


@functools.cache
def _cyclotomic_index(f: sympy.Poly) -> int:
    return next(k for k in itertools.count(1) if sympy.Poly(sympy.cyclotomic_poly(k, _X), _X) == f)


def sympy_cyclotomic_factor(p: Laurent):
    """What cyclotomic_factor must return, read off sympy's factor_list."""
    content, factors = _to_poly(p).factor_list()
    cyc, rest = [], ONE
    for f, m in factors:
        if f.is_cyclotomic:
            cyc.append((_cyclotomic_index(f), m))
        else:
            rest = rest * _from_poly(f) ** m
    sign = -1 if content < 0 else 1
    return (sign, p.min_exp()), abs(int(content)), sorted(cyc), [] if rest.is_one() else [rest]


def sympy_clear_denominators(fractions):
    """The multiplier clear_denominators must return, from sympy's lcm and
    factor_list of the denominators; None when one has a non-cyclotomic factor."""
    int_lcm, den_lcm = 1, sympy.Poly(1, _X)
    for f in fractions:
        c, prim = _to_poly(f.den).primitive()
        int_lcm, den_lcm = lcm(int_lcm, int(c)), den_lcm.lcm(prim)
    d = Laurent.const(int_lcm)
    for f, m in den_lcm.factor_list()[1]:
        if not f.is_cyclotomic:
            return None
        d = d * _symmetrize_factor(_from_poly(f)) ** m
    return d


@st.composite
def cyclotomic_products(draw):
    """sign * content * v^shift * prod Phi_k^m (k <= 40, m <= 3), times an
    optional cofactor of degree <= 4 that may or may not be cyclotomic-free."""
    p = Laurent.mono(draw(st.sampled_from([1, -1])) * draw(st.integers(1, 12)), draw(st.integers(-5, 5)))
    for k, m in draw(st.dictionaries(st.integers(1, 40), st.integers(1, 3), max_size=3)).items():
        p = p * cyclotomic(k) ** m
    coeffs = draw(st.none() | st.lists(st.integers(-3, 3), min_size=2, max_size=5))
    if coeffs is not None:
        cofactor = Laurent(dict(enumerate(coeffs)))
        assume(not cofactor.is_zero())
        p = p * cofactor
    return p


class TestFactorizerOracle:
    @given(cyclotomic_products())
    @settings(max_examples=50, deadline=None)
    def test_cyclotomic_factor_matches_sympy(self, p):
        assert cyclotomic_factor(p) == sympy_cyclotomic_factor(p)

    @given(cyclotomic_products(), cyclotomic_products())
    @settings(max_examples=30, deadline=None)
    def test_clear_denominators_matches_sympy(self, p1, p2):
        fractions = [Rat(ONE, p1), Rat(NU, p2)]
        want = sympy_clear_denominators(fractions)
        if want is None:
            with pytest.raises(ValueError, match="non-cyclotomic"):
                clear_denominators(fractions)
        else:
            assert clear_denominators(fractions) == want

    def test_non_cyclotomic_denominator_raises(self):
        with pytest.raises(ValueError, match="non-cyclotomic"):
            clear_denominators([Rat(ONE, Laurent({2: 1, 1: 1, 0: -1}))])


nonzero_laurents = laurents.filter(bool)

denominators = st.one_of(
    st.builds(Laurent.mono, st.sampled_from([1, -1]), st.integers(-4, 4)),  # units +-v^k
    nonzero_laurents,
    st.builds(  # leading coefficient other than +-1
        lambda c, p: Laurent({**p.c, max(p.c, default=0) + 1: c}),
        st.sampled_from([2, -2, 3, -6]),
        laurents,
    ),
    cyclotomic_products(),
)


@st.composite
def over_denominator_inputs(draw):
    """(numerators, den): multiples of den (Laurent quotients), multiples
    of a cyclotomic (den a product of cyclotomics or not), and any
    numerator (mostly true fractions)."""
    den = draw(denominators)
    nums = {}
    for k in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["multiple", "cyclotomic", "any"]))
        t = draw(nonzero_laurents)
        if kind == "multiple":
            t = t * den
        elif kind == "cyclotomic":
            t = t * cyclotomic(draw(st.integers(1, 12)))
        nums[k, kind] = t
    return nums, den


class TestOverDenominator:
    """over_denominator divides exactly first and reduces from scratch only
    when a remainder is left; every value is the canonical Rat(num, den)."""

    @settings(max_examples=300, deadline=None)
    @given(over_denominator_inputs())
    @example(({(0, "multiple"): L(v0=1, v1=2) * L(v0=-3, v1=1)}, L(v0=1, v1=2)))
    @example(({(0, "any"): L(v0=1), (1, "multiple"): L(v0=6, v1=3)}, L(v0=2, v1=1)))
    @example(({(0, "multiple"): L(v3=-5)}, L(vm2=-1)))
    @example(({(0, "cyclotomic"): qangle(2) * NU}, cyclotomic(4) * cyclotomic(6)))
    def test_matches_reference(self, case):
        nums, den = case
        got = scalar.over_denominator(nums, den)
        assert got.keys() == nums.keys()
        for key, t in nums.items():
            _same_as_reference(got[key], t, den)
            if key[1] == "multiple":
                assert got[key].is_laurent()


class TestValueTable:
    def test_equal_values_share_one_object(self):
        table = scalar.ValueTable()
        a, b = Laurent({-1: 2, 3: 1}), Laurent({3: 1, -1: 2})
        assert table.laurent(a) is a and table.laurent(b) is a
        den = Laurent({0: 1, 4: -1}) * -1
        x, y = Rat(Laurent(dict(a.c)), den), Rat(Laurent(dict(b.c)), den * 1)
        assert x == y and x.num is not y.num and x.den is not y.den
        got = table.terms({"x": x, "y": y, "c": Laurent(dict(a.c)), "one": Rat.of(1)})
        assert got == {"x": x, "y": y, "c": a, "one": Rat.of(1)}
        assert got["x"] is got["y"] and got["c"] is a
        # a stored Rat holds the table's num and den
        assert got["x"].num is a and got["x"].den is table.laurent(Laurent(dict(x.den.c)))
        assert table.rat(Rat.of(1)) is got["one"] and got["one"].num is table.laurent(ONE)


class TestSerialization:
    @given(laurents, laurents)
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, a, b):
        if b.is_zero():
            return
        x = Rat(a, b)
        assert parse_scalar(format_scalar(x)) == x

    def test_three_part_fraction_refused(self):
        with pytest.raises(ValueError, match=r"'\(1\)/\(1\)/\(2\)': expected \(num\)/\(den\)"):
            parse_scalar("(1)/(1)/(2)")

    def test_format_shape(self):
        assert format_scalar(Rat.of(Laurent({2: 1, 0: -3}))) == "1*v^2 - 3"

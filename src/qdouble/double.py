"""The double U_q(g~), its Heisenberg quotients, and the localized/check
extensions: triangular straightening, the diamond action, involutions and
the twisted adjoint actions.  The double knows no labels: coordinates over
the dual canonical bases (`CanonicalTables.to_dcb`) and clearing multipliers
(`Engine.d_multiplier`) live with the tables and the engine.

Elements are stored in triangular normal form: (K-monomial, F-word, E-word)
-> scalar, with both word blocks compressed to per-degree pivot words.

Straightening is one recursion with one memo, `_straight`, keyed by
(E-word, F-word, cross): a one-letter E-word moves past the F-word letter by
letter, and a longer one straightens its last letter first.

The kernels (straightening, multiply, the involutions and the pivot-word
normal form) are fraction-free: over one common denominator, they sum each
numerator into a coefficient dict with `scalar.add_mul`, product and v-shift
in one pass; a term on two pivot words passes to the normal form as it is,
and each output coefficient is reduced once.

A K-monomial q-commutes past a word with an exponent linear in the word's
degree, so each context caches one pairing vector per K-monomial
(`pairing_vector`, with kdif_dot(K, gamma) its dot product with gamma) and
memoises the products of K-monomials (`k_product`).  Every term that
straightening E-word times F-word produces has the weight of the input pair,
so bar and star twist each input term once, before the straightened terms.

One kernel, `expand_numerators`, spreads numerators over word columns,
grouped by the columns' denominators, and `over_groups` reduces each group
once: over pivot words (`word_coords`) here, from pivot words over their
DCB rows in `CanonicalTables.numerators_to_dcb`, and, keyed by labels in
place of words, the DCB coordinates of a solve over the labels' elements
(`CanonicalTables.dcb_column`) in the engine.  An involution
(`_involution_numerators`) and a product (`product_numerators`) each have
one numerator stage, the straightened numerators over one denominator.
`involution` and `multiply` spread them over pivot words; `is_bar_fixed`
and `is_transpose` compare the groups of bar(x), or of t(x), with an
element's coefficients by cross-multiplication (`matches`) and reduce
nothing.  `fold_groups` puts the groups of a product over pivot words on
one denominator by exact division, still unreduced: the engine's memoised
reverse products, which its proofs read and which go over DCB rows, one
reduction per coordinate.

Two term kernels act on terms {(K, a, b): c} over any homogeneous keys a, b
with their degrees, F-word and E-word or the labels of DCB elements b_a b_b:
`twist_terms`, K diamond, and `transpose_terms`, the transpose t.  `diamond`
and the transpose in `_involution_numerators` call them on words, and the
engine on the DCB coordinates of its solves; each twists by `Rat.shift`,
no product.
"""
from __future__ import annotations

from functools import cached_property
from operator import mul, sub

from . import linalg
from .halves import HalfAlgebra, HalfElem, PLUS, MINUS
from .scalar import (
    ONE,
    Laurent,
    Rat,
    RAT_ONE,
    RAT_ZERO,
    accumulate,
    add_mul,
    common_denominator,
    laurent_lcm,
    laurent_values,
    format_scalar,
    nu_power,
    over_denominator,
    parse_scalar,
    qangle,
)

FLAVORS = ("full", "heis_plus", "heis_minus", "localized", "check")

# the K-monomial block that is zero in a Heisenberg quotient
DROPPED_K = {"heis_plus": 0, "heis_minus": 1}

# which of K_+ and K_- the commutator [E_i, F_i] keeps, per flavor
_CROSS = {fl: (DROPPED_K.get(fl) != 1, DROPPED_K.get(fl) != 0) for fl in FLAVORS}


class FlavorError(ValueError):
    pass


def kmono(minus, plus, tag=None):
    if tag is None:
        tag = (0,) * len(minus)
    return (tuple(minus), tuple(plus), tuple(tag))


def k_one(rank: int):
    z = (0,) * rank
    return (z, z, z)


def k_mul(K1, K2):
    return (
        tuple(a + b for a, b in zip(K1[0], K2[0])),
        tuple(a + b for a, b in zip(K1[1], K2[1])),
        tuple(a + b for a, b in zip(K1[2], K2[2])),
    )


def k_is_one(K):
    return not any(K[0]) and not any(K[1]) and not any(K[2])


class TriElem:
    """Element of the double in triangular normal form."""

    __slots__ = ("ctx", "flavor", "terms")

    def __init__(self, ctx: "DoubleContext", flavor: str, terms: dict, normalized=False):
        self.ctx = ctx
        self.flavor = flavor
        if not normalized:
            terms = ctx._normalize(flavor, terms)
        self.terms = terms

    def __add__(self, other: "TriElem") -> "TriElem":
        if self.flavor != other.flavor:
            raise FlavorError(f"flavor mismatch: {self.flavor} vs {other.flavor}")
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return TriElem(self.ctx, self.flavor, out, normalized=True)

    def __sub__(self, other: "TriElem") -> "TriElem":
        return self + other.scale(-1)

    def scale(self, c) -> "TriElem":
        c = Rat.of(c)
        if c.is_zero():
            return TriElem(self.ctx, self.flavor, {}, normalized=True)
        return TriElem(
            self.ctx, self.flavor, {k: x * c for k, x in self.terms.items()}, normalized=True
        )

    def __mul__(self, other: "TriElem") -> "TriElem":
        return self.ctx.multiply(self, other)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, TriElem)
            and self.flavor == other.flavor
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.flavor, tuple(sorted(self.terms.items()))))

    def with_flavor(self, flavor: str) -> "TriElem":
        """Reinterpret (e.g. the vector-space inclusion of a Heisenberg quotient)."""
        if flavor == self.flavor:
            return self
        return TriElem(self.ctx, flavor, dict(self.terms), normalized=True)

    def __repr__(self):
        return f"TriElem[{self.flavor}]({format_tri(self)})"


class DoubleContext:
    """All double-level computation for one Cartan datum; caches are
    compute-once and shared."""

    def __init__(self, half: HalfAlgebra):
        self.half = half
        self.datum = half.datum
        self._straight: dict = {}
        self._word_coords: dict = {}
        self._pairing: dict = {}
        self._kprod: dict = {}

    # -- scalars of the torus ----------------------------------------------
    def pairing_vector(self, K) -> tuple:
        """The vector lambda(K) with kdif_dot(K, gamma) = sum_j lambda_j gamma_j,
        memoised per K-monomial: (plus - minus) . alpha_j + d_j tag_j."""
        lam = self._pairing.get(K)
        if lam is None:
            minus, plus, tag = K
            dif = tuple(p - m for p, m in zip(plus, minus))
            datum = self.datum
            lam = self._pairing[K] = tuple(
                datum.dot(dif, datum.alpha(j)) + tag[j] * datum.d[j] for j in range(datum.rank)
            )
        return lam

    def kdif_dot(self, K, gamma) -> int:
        """(plus + 2mu - minus) . gamma, tags entering through coroot data."""
        return sum(map(mul, self.pairing_vector(K), gamma))

    def k_product(self, K1, K2):
        """k_mul(K1, K2), memoised per context."""
        key = (K1, K2)
        got = self._kprod.get(key)
        if got is None:
            got = self._kprod[key] = k_mul(K1, K2)
        return got

    # -- constructors ---------------------------------------------------------
    def one(self, flavor="full") -> TriElem:
        return TriElem(self, flavor, {(k_one(self.datum.rank), (), ()): RAT_ONE}, normalized=True)

    def zero(self, flavor="full") -> TriElem:
        return TriElem(self, flavor, {}, normalized=True)

    def k_elem(self, K, flavor="full") -> TriElem:
        self._check_k(K, flavor)
        return TriElem(self, flavor, {(K, (), ()): RAT_ONE}, normalized=True)

    def e_gen(self, i, flavor="full") -> TriElem:
        i = self.datum.index(i)
        return TriElem(self, flavor, {(k_one(self.datum.rank), (), (i,)): RAT_ONE}, normalized=True)

    def f_gen(self, i, flavor="full") -> TriElem:
        i = self.datum.index(i)
        return TriElem(self, flavor, {(k_one(self.datum.rank), (i,), ()): RAT_ONE}, normalized=True)

    def from_halves(self, minus: HalfElem | None = None, plus: HalfElem | None = None, K=None, flavor="full") -> TriElem:
        """K . (minus block) . (plus block) as a TriElem (already triangular)."""
        rank = self.datum.rank
        if K is None:
            K = k_one(rank)
        terms = {}
        mterms = minus.terms if minus is not None else {(): RAT_ONE}
        pterms = plus.terms if plus is not None else {(): RAT_ONE}
        for wf, cf in mterms.items():
            for we, ce in pterms.items():
                terms[(K, wf, we)] = cf * ce
        return TriElem(self, flavor, terms, normalized=True)

    def from_half(self, x: HalfElem, flavor="full") -> TriElem:
        """A half element in the double: the minus block or the plus block,
        by its sign."""
        if x.sign == MINUS:
            return self.from_halves(minus=x, flavor=flavor)
        return self.from_halves(plus=x, flavor=flavor)

    def _check_k(self, K, flavor):
        minus, plus, tag = K
        if flavor in ("full", "heis_plus", "heis_minus"):
            if any(x < 0 for x in minus) or any(x < 0 for x in plus):
                raise FlavorError("negative K exponent needs localized flavor")
            if any(tag):
                raise FlavorError("weight tags need check flavor")
        if flavor == "heis_plus" and any(minus):
            raise FlavorError("K_- is zero in heis_plus")
        if flavor == "heis_minus" and any(plus):
            raise FlavorError("K_+ is zero in heis_minus")
        if flavor == "localized" and any(tag):
            raise FlavorError("weight tags need check flavor")

    # -- normalization -----------------------------------------------------------
    def word_coords(self, w: tuple):
        """Pivot form (num, d) of one word, shared by its F-word and E-word:
        w is the sum of num[p] / d p over the pivot words, d the lcm of the
        denominators of its coordinates."""
        got = self._word_coords.get(w)
        if got is None:
            basis = self.half.degree_basis(self.half.word_degree(w))
            nums, d = common_denominator(basis.coords({w: RAT_ONE}))
            got = self._word_coords[w] = ({p: n for p, n in zip(basis.pivots, nums) if n}, d)
        return got

    def _normalize(self, flavor: str, terms: dict) -> dict:
        terms = {k: c for k, c in terms.items() if c}
        nums, den = common_denominator([Rat.of(c) for c in terms.values()])
        return self._normalize_over(flavor, {k: dict(n.c) for k, n in zip(terms, nums)}, den)

    def _normalize_over(self, flavor: str, nums: dict, den: Laurent) -> dict:
        """Triangular normal form of {key: numerator over den}, numerators as
        coefficient dicts that the normal form consumes."""
        return over_groups(expand_numerators(nums, self.word_coords, DROPPED_K.get(flavor)), den)

    # -- straightening core ---------------------------------------------------------
    # Straightening coefficients are products of v-powers and <a>'s, so the
    # memo holds Laurent values.
    def _straighten(self, e: tuple, f: tuple, cross):
        """E-word times F-word as dict {(K, f, e): Laurent}, fully triangular."""
        key = (e, f, cross)
        got = self._straight.get(key)
        if got is not None:
            return got
        rank = self.datum.rank
        if not e or not f:
            self._straight[key] = out = {(k_one(rank), f, e): ONE}
            return out
        sums: dict = {}
        if len(e) == 1:
            i, j, frest = e[0], f[0], f[1:]
            for (K, f3, e3), c in self._straighten(e, frest, cross).items():
                shift = 2 * self.pairing_vector(K)[j]
                add_mul(sums.setdefault((K, (j,) + f3, e3), {}), c.c, ONE.c, shift)
            if i == j:  # [E_i, F_i] = (q_i^-1 - q_i)(K_+i - K_-i), cross picks the terms
                br = qangle(-1, self.datum.qi_exp(i)).c
                for side, sign, kept in ((PLUS, 1, cross[0]), (MINUS, -1, cross[1])):
                    if kept:
                        K = kmono(*unit_vec(rank, i, 1, side))
                        add_mul(sums.setdefault((K, frest, ()), {}), br, {0: sign})
        else:
            i, e_head = e[-1], e[:-1]
            deg_head = self.half.word_degree(e_head)
            for (K3, f3, e3), c3 in self._straighten((i,), f, cross).items():
                shift = -2 * self.kdif_dot(K3, deg_head)
                for (K4, f4, e4), c4 in self._straighten(e_head, f3, cross).items():
                    key2 = (self.k_product(K3, K4), f4, e4 + e3)
                    add_mul(sums.setdefault(key2, {}), c3.c, c4.c, shift)
        self._straight[key] = out = laurent_values(sums)
        return out

    # -- multiplication -------------------------------------------------------------
    def multiply(self, x: TriElem, y: TriElem) -> TriElem:
        out = self._normalize_over(x.flavor, *self.product_numerators(x, y))
        return TriElem(self, x.flavor, out, normalized=True)

    def product_numerators(self, x: TriElem, y: TriElem) -> tuple[dict, Laurent]:
        """The product x y before any reduction: (nums, den) with x y the sum
        of {(K, f, e): numerator / den}, numerators as coefficient dicts
        (zero coefficients possible), the words straightened but not yet on
        pivot words, and the torus block a Heisenberg quotient drops still
        present (the normal form drops it)."""
        if x.flavor != y.flavor:
            raise FlavorError(f"flavor mismatch: {x.flavor} vs {y.flavor}")
        cross = _CROSS[x.flavor]
        half = self.half
        xn, dx = common_denominator(list(x.terms.values()))
        yn, dy = common_denominator(list(y.terms.values()))
        kdif, kprod = self.kdif_dot, self.k_product
        out: dict = {}
        for (K1, f1, e1), n1 in zip(x.terms, xn):
            deg_f1 = half.word_degree(f1)
            dif1 = tuple(map(sub, deg_f1, half.word_degree(e1)))
            for (K2, f2, e2), n2 in zip(y.terms, yn):
                base = (n1 * n2).c
                shift = 2 * kdif(K2, dif1)
                K12 = kprod(K1, K2)
                for (K3, f3, e3), c3 in self._straighten(e1, f2, cross).items():
                    key = (kprod(K12, K3), f1 + f3, e3 + e2)
                    add_mul(out.setdefault(key, {}), base, c3.c, shift + 2 * kdif(K3, deg_f1))
        return out, dx * dy

    # -- gradings ----------------------------------------------------------------------
    def coroot_of_term(self, i: int, key) -> int:
        K, f, e = key
        return self.datum.coroot(i, self.half.word_degree(e)) - self.datum.coroot(
            i, self.half.word_degree(f)
        )

    def diamond(self, K, x: TriElem) -> TriElem:
        """K diamond x: q-power-twisted left multiplication by a torus monomial."""
        if not isinstance(K, tuple):
            raise TypeError("diamond expects a K-monomial triple")
        return TriElem(self, x.flavor, self.twist_terms(K, x.terms, self.half.word_degree), normalized=True)

    def twist_terms(self, K, terms: dict, degree) -> dict:
        """K diamond on terms {(K1, a, b): c}, a and b homogeneous keys of
        degrees degree(a) and degree(b): F-word and E-word, or the labels of
        DCB elements b_a b_b (`CanonicalTables.degree_of`).  K1 a b goes to
        K K1 a b times v^twist_shift(K, deg b - deg a)."""
        out: dict = {}
        for (K1, a, b), c in terms.items():
            dif = tuple(map(sub, degree(b), degree(a)))
            accumulate(out, (self.k_product(K, K1), a, b), c.shift(self.twist_shift(K, dif)))
        return out

    def twist_shift(self, K, dif) -> int:
        """The exponent of v that K diamond puts on a term K1 a b of weight
        dif = deg b - deg a: -kdif_dot(K, dif)."""
        return -self.kdif_dot(K, dif)

    def transpose_terms(self, terms: dict, reverse, degree):
        """The transpose t, the anti-involution swapping E_i and F_i, on
        terms {(K, a, b): c} over homogeneous keys as in `twist_terms`, with
        reverse(a) the key of the word reversal of a (for labels,
        `CanonicalTables.reversed_label`): K a b goes to
        v^(2 kdif_dot(K, deg b - deg a)) K reverse(b) reverse(a).  The
        values are anything with a v-shift (Rat, Laurent).  None when
        reverse gives None for a key."""
        out = {}
        for (K, a, b), c in terms.items():
            ra, rb = reverse(b), reverse(a)
            if ra is None or rb is None:
                return None
            out[K, ra, rb] = c.shift(2 * self.kdif_dot(K, tuple(map(sub, degree(b), degree(a)))))
        return out

    # -- involutions ----------------------------------------------------------------------
    def involution(self, x: TriElem, which: str) -> TriElem:
        out = over_groups(*self._involution_numerators(x, which))
        return TriElem(self, x.flavor, out, normalized=True)

    def _involution_numerators(self, x: TriElem, which: str):
        """The image of x before any reduction: (groups, den) with the image
        the sum over groups[(d_f, d_e)] of {key: numerator / (den d_f d_e)}
        in pivot words (see expand_numerators)."""
        if which not in ("bar", "star", "transpose"):
            raise ValueError(f"unknown involution {which!r}")
        if which == "star" and x.flavor in ("heis_plus", "heis_minus", "check"):
            raise FlavorError(f"star is unavailable in flavor {x.flavor}")
        half, drop = self.half, DROPPED_K.get(x.flavor)
        nums, den = common_denominator(list(x.terms.values()))
        if which == "transpose":
            image = self.transpose_terms(dict(zip(x.terms, nums)), lambda w: w[::-1], half.word_degree)
            return expand_numerators({key: n.c for key, n in image.items()}, self.word_coords, drop), den
        if which == "bar":
            # bar(n / d) = bar(n) / bar(d)
            nums, den = [n.bar() for n in nums], den.bar()
        cross = _CROSS[x.flavor]
        acc: dict = {}
        for (K, f, e), n in zip(x.terms, nums):
            deg_f = half.word_degree(f)
            deg_e = half.word_degree(e)
            K2 = K if which == "bar" else (K[1], K[0], K[2])
            # anti-image is (reversed e)(reversed f)(K2); restraighten.  Every
            # straightened term has weight deg f - deg e, so K2 moves left
            # past all of them with one twist.
            shift = 2 * self.kdif_dot(K2, tuple(map(sub, deg_f, deg_e)))
            for (K3, f3, e3), c3 in self._straighten(e[::-1], f[::-1], cross).items():
                add_mul(acc.setdefault((self.k_product(K3, K2), f3, e3), {}), n.c, c3.c, shift)
        return expand_numerators(acc, self.word_coords, drop), den

    def is_bar_fixed(self, x: TriElem) -> bool:
        """bar(x) == x, decided on the numerators of bar(x) (`matches`), so
        no coefficient of bar(x) is reduced."""
        return self.matches(*self._involution_numerators(x, "bar"), x)

    def is_transpose(self, y: TriElem, x: TriElem) -> bool:
        """t(x) == y for the transpose t, decided on the numerators of t(x)
        (`matches`): word reversal and the pivot-word expansion, no
        straightening, and no coefficient of t(x) reduced."""
        return y.flavor == x.flavor and self.matches(*self._involution_numerators(x, "transpose"), y)

    @staticmethod
    def matches(groups, den, y: TriElem) -> bool:
        """Whether numerator groups over den (`expand_numerators`) sum to y:
        each key's fractions sum by cross-multiplication and compare with
        y's coefficient the same way, with nothing reduced."""
        sums: dict = {}  # key -> (numerator, denominator), not reduced
        for (df, de), acc in groups.items():
            d = den * df * de
            for key, n in acc.items():
                got = sums.get(key)
                if got is None:
                    sums[key] = (n, d)
                else:
                    sums[key] = (got[0] * d + n * got[1], got[1] * d)
        if not sums.keys() >= y.terms.keys():
            return False
        for key, (n, d) in sums.items():
            c = y.terms.get(key)
            if c is None:
                if n:
                    return False
            elif (n if c.den.is_one() else n * c.den) != (c.num if d.is_one() else c.num * d):
                return False
        return True

    def bar(self, x: TriElem) -> TriElem:
        return self.involution(x, "bar")

    def star(self, x: TriElem) -> TriElem:
        return self.involution(x, "star")

    def transpose(self, x: TriElem) -> TriElem:
        return self.involution(x, "transpose")

    # -- quotients and inclusions ---------------------------------------------------------
    def project_heis(self, x: TriElem, flavor: str = "heis_plus") -> TriElem:
        """The quotient map onto a Heisenberg quotient: heis_plus, where K_-
        is zero, or heis_minus, where K_+ is zero."""
        drop = DROPPED_K[flavor]
        terms = {(K, f, e): c for (K, f, e), c in x.terms.items() if not any(K[drop])}
        return TriElem(self, flavor, terms, normalized=True)

    @cached_property
    def _cartan_inverse(self):
        """A^-1 over Q, or None when the Cartan matrix is singular."""
        try:
            return linalg.invert([[Rat.of(a) for a in row] for row in self.datum.A])
        except linalg.SingularMatrix:
            return None

    def normalize_tags(self, x: TriElem) -> TriElem:
        """Fold weight tags lying in the root lattice into plus exponents: a
        tag moves when A x = tag has an integral solution x."""
        rank = self.datum.rank
        inv = self._cartan_inverse
        out = {}
        for (K, f, e), c in x.terms.items():
            minus, plus, tag = K
            if any(tag) and inv is not None:
                sol = [sum((a * Rat.of(t) for a, t in zip(row, tag)), RAT_ZERO) for row in inv]
                if all(s.is_laurent() and set(s.num.c) <= {0} for s in sol):
                    plus = tuple(p + s.num.c.get(0, 0) for p, s in zip(plus, sol))
                    tag = (0,) * rank
            key = ((tuple(minus), tuple(plus), tuple(tag)), f, e)
            accumulate(out, key, c)
        return TriElem(self, x.flavor, out, normalized=True)

    def project_group_like(self, x: TriElem) -> TriElem:
        """Quotient by K_+i K_-i = 1: net torus exponents (localized/check)."""
        out = {}
        rank = self.datum.rank
        for (K, f, e), c in x.terms.items():
            minus, plus, tag = K
            net = kmono((0,) * rank, tuple(p - m for p, m in zip(plus, minus)), tag)
            key = (net, f, e)
            accumulate(out, key, c)
        return TriElem(self, x.flavor, out, normalized=True)

    # -- twisted actions -------------------------------------------------------------------------
    def adjoint_act(self, i, kind: str, x: TriElem) -> TriElem:
        if x.flavor not in ("localized", "check"):
            raise FlavorError("adjoint action needs the localized double")
        i = self.datum.index(i)
        E = self.e_gen(i, x.flavor)
        F = self.f_gen(i, x.flavor)
        Kp_inv = self.k_elem(kmono(*unit_vec(self.datum.rank, i, -1, PLUS)), x.flavor)
        Km = self.k_elem(kmono(*unit_vec(self.datum.rank, i, 1, MINUS)), x.flavor)
        Km_inv = self.k_elem(kmono(*unit_vec(self.datum.rank, i, -1, MINUS)), x.flavor)
        if kind == "F":
            return self.multiply(F, x) - self.multiply(self.multiply(Km, x), self.multiply(Km_inv, F))
        if kind == "E":
            return self.multiply(self.multiply(E, x) - self.multiply(x, E), Kp_inv)
        if kind == "K":
            Kp = self.k_elem(kmono(*unit_vec(self.datum.rank, i, 1, PLUS)), x.flavor)
            return self.multiply(self.multiply(Kp, x), Kp_inv)
        raise ValueError(f"unknown adjoint generator {kind!r}")

    def lambda_act(self, i, kind: str, lam, x: TriElem) -> TriElem:
        """Bar-compatible twisted action; lam is an integer vector over I."""
        i = self.datum.index(i)
        lam_i = lam[i] if not isinstance(lam, int) else lam
        di = self.datum.d[i]
        out = self.zero(x.flavor)
        E = self.e_gen(i, x.flavor)
        F = self.f_gen(i, x.flavor)
        for key, c in x.terms.items():
            term = TriElem(self, x.flavor, {key: c}, normalized=True)
            cor = self.coroot_of_term(i, key)
            if kind == "F":
                out = out + self.multiply(F, term).scale(nu_power(di * (lam_i + cor)))
                out = out - self.multiply(term, F).scale(nu_power(-di * (lam_i + cor)))
            elif kind == "E":
                inner = self.multiply(E, term).scale(nu_power(-di * lam_i)) - self.multiply(
                    term, E
                ).scale(nu_power(di * lam_i))
                out = out + self.diamond(kmono(*unit_vec(self.datum.rank, i, -1, PLUS)), inner)
            else:
                raise ValueError(f"unknown twisted generator {kind!r}")
        return out


def expand_numerators(nums: dict, column, drop=None) -> dict:
    """{(d_f, d_e): {(K, a_f, a_e): numerator}}: the words of {(K, f, e):
    numerator over den} spread over their columns, column(w) = (num, d) with
    w the sum of num[a] / d a, and grouped by the denominators of the F-word
    and the E-word, so a group lies over den d_f d_e.  Terms with a nonzero
    torus block `drop` are left out.  Numerators come in as coefficient dicts,
    only read unless both words are their own columns (pivot words), and go
    out as Laurents.  f and e may be labels in place of words, each with the
    column of its DCB element over pivot words (`Engine._element`)."""
    groups: dict = {}
    for key, n in nums.items():
        K, f, e = key
        if drop is not None and any(K[drop]):
            continue
        fc, df = column(f)
        ec, de = column(e)
        acc = groups.get((df, de))
        if acc is None:
            acc = groups[df, de] = {}
        if f in fc and e in ec:  # both identity columns: the term stays as it is
            if acc.setdefault(key, n) is not n:
                add_mul(acc[key], n, ONE.c)
            continue
        for wf, af in fc.items():
            nf = n
            if f not in fc:
                nf = {}
                add_mul(nf, n, af.c)
            for we, ae in ec.items():
                add_mul(acc.setdefault((K, wf, we), {}), nf, ae.c)
    return {g: laurent_values(acc) for g, acc in groups.items()}


def over_groups(groups: dict, den: Laurent) -> dict:
    """The reduced coefficients of numerator groups over den
    (`expand_numerators`): each group's numerators are reduced once over
    den d_f d_e, then summed (a single group needs no sum)."""
    out: dict = {}
    for (df, de), acc in groups.items():
        part = over_denominator(acc, den if df.is_one() and de.is_one() else den * df * de)
        if len(groups) == 1:
            return part
        for key, c in part.items():
            accumulate(out, key, c)
    return out


def fold_groups(groups: dict, den: Laurent) -> tuple[dict, Laurent]:
    """Numerator groups over den (`expand_numerators`) on one denominator:
    (nums, den L), L the lcm of the groups' d_f d_e, each group's
    numerators times its cofactor L / (d_f d_e), an exact division of
    Laurent polynomials; nothing is reduced."""
    dens = {g: g[0] * g[1] for g in groups}
    if len(groups) == 1:
        ((g, acc),) = groups.items()
        return acc, den * dens[g]
    lcm = laurent_lcm(set(dens.values()))
    out: dict = {}
    for g, acc in groups.items():
        cofactor = lcm.exact_div(dens[g]).c
        for key, n in acc.items():
            add_mul(out.setdefault(key, {}), n.c, cofactor)
    return laurent_values(out), den * lcm


def unit_vec(rank: int, i: int, power: int, side: int):
    """The (minus, plus, tag) exponents of K_(side)i^power."""
    vec = [0] * rank
    vec[i] = power
    zero = (0,) * rank
    if side == PLUS:
        return zero, tuple(vec), zero
    return tuple(vec), zero, zero


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def format_tri(x: TriElem) -> str:
    parts = []
    for (K, f, e) in sorted(x.terms):
        c = format_scalar(x.terms[(K, f, e)])
        kf = f"K[{','.join(map(str, K[0]))};{','.join(map(str, K[1]))}]"
        if any(K[2]):
            kf += f"w[{','.join(map(str, K[2]))}]"
        fs = "F:" + " ".join(x.ctx.datum.labels[i] for i in f)
        es = "E:" + " ".join(x.ctx.datum.labels[i] for i in e)
        parts.append(f"({c})*{kf}*{fs}*{es}")
    return " + ".join(parts) if parts else "0"


def tri_to_obj(x: TriElem):
    out = []
    for (K, f, e) in sorted(x.terms):
        out.append(
            {
                "K": {"minus": list(K[0]), "plus": list(K[1]), "tag": list(K[2])},
                "F": " ".join(x.ctx.datum.labels[i] for i in f),
                "E": " ".join(x.ctx.datum.labels[i] for i in e),
                "c": format_scalar(x.terms[(K, f, e)]),
            }
        )
    return out


def tri_from_obj(ctx: DoubleContext, flavor: str, obj) -> TriElem:
    terms = {}
    for item in obj:
        K = kmono(item["K"]["minus"], item["K"]["plus"], item["K"].get("tag"))
        f = tuple(ctx.datum.index(tok) for tok in item["F"].split())
        e = tuple(ctx.datum.index(tok) for tok in item["E"].split())
        terms[(K, f, e)] = parse_scalar(item["c"])
    return TriElem(ctx, flavor, terms)

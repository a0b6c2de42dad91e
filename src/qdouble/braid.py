"""Bar-equivariant braid operators on the localized double, braid-relation
verification, Schubert-cell PBW monomials and tameness checks."""
from __future__ import annotations

from .double import DoubleContext, TriElem, FlavorError, kmono, unit_vec
from .halves import HalfElem, PLUS, MINUS
from .scalar import Rat, nu_power


class BraidOps:
    """T_i and friends for one double context; letter images are cached."""

    def __init__(self, ctx: DoubleContext):
        self.ctx = ctx
        self.datum = ctx.datum
        self._letters: dict = {}
        self._roots: dict = {}

    # -- generator images ------------------------------------------------------
    def _letter_image(self, i: int, sign: int, j: int) -> TriElem:
        key = (i, sign, j)
        got = self._letters.get(key)
        if got is not None:
            return got
        ctx = self.ctx
        datum = self.datum
        if i == j:
            # T_i(E_i) = q_i^-1 K_+i^-1 F_i and T_i(F_i) = q_i^-1 K_-i^-1 E_i
            K = kmono(*unit_vec(datum.rank, i, -1, sign))
            term = (K, (i,), ()) if sign == PLUS else (K, (), (i,))
            out = TriElem(ctx, "localized", {term: nu_power(-datum.qi_exp(i))})
        else:
            # sum_{r+s=-a_ij} (-1)^r q_i^s v^(d_i a_ij) X_i^<r> X_j X_i^<s>
            a = datum.A[i][j]
            half = ctx.half
            acc = half.zero(sign)
            for r in range(-a + 1):
                s = -a - r
                x_r, x_s = half.gen_divided(sign, i, r), half.gen_divided(sign, i, s)
                coeff = Rat.of((-1) ** r) * nu_power(datum.qi_exp(i) * s + datum.d[i] * a)
                acc = acc + (x_r * half.gen(sign, j) * x_s).scale(coeff)
            out = ctx.from_half(acc, "localized")
        self._letters[key] = out
        return out

    def _k_image(self, i: int, K):
        minus, plus, tag = K
        if any(tag):
            raise FlavorError("braid operators are not defined on weight tags")
        row = self.datum.A[i]
        dm = -sum(row[j] * m for j, m in enumerate(minus))
        dp = -sum(row[j] * p for j, p in enumerate(plus))
        new_minus = list(minus)
        new_plus = list(plus)
        new_minus[i] += dm
        new_plus[i] += dp
        return (tuple(new_minus), tuple(new_plus), tag)

    # -- the automorphism -------------------------------------------------------
    def T(self, i, x: TriElem, inverse: bool = False) -> TriElem:
        """Braid operator T_i (or its inverse) on the localized double."""
        i = self.datum.index(i)
        if inverse:
            return self.ctx.transpose(self.T(i, self.ctx.transpose(x)))
        ctx = self.ctx
        out = ctx.zero("localized")
        for (K, f, e), c in x.terms.items():
            acc = ctx.k_elem(self._k_image(i, K), "localized").scale(c)
            for letter in f:
                acc = ctx.multiply(acc, self._letter_image(i, MINUS, letter))
            for letter in e:
                acc = ctx.multiply(acc, self._letter_image(i, PLUS, letter))
            out = out + acc
        return out

    def T_word(self, word, x: TriElem) -> TriElem:
        """Apply T_{i_1} ... T_{i_m}."""
        for i in reversed(word):
            x = self.T(i, x)
        return x

    def T_half(self, i, x: HalfElem) -> HalfElem:
        """T_i of a half element whose image stays in the same half."""
        return self._extract_half(self.T(i, self.ctx.from_half(x, "localized")), x.sign)

    def _extract_half(self, tri: TriElem, sign: int) -> HalfElem:
        terms = {}
        for (K, f, e), c in tri.terms.items():
            if any(K[0]) or any(K[1]) or any(K[2]):
                raise ValueError("braid image does not lie in the half algebra")
            if sign == PLUS:
                if f:
                    raise ValueError("braid image mixes the halves")
                terms[e] = c
            else:
                if e:
                    raise ValueError("braid image mixes the halves")
                terms[f] = c
        return HalfElem(self.ctx.half, sign, terms)

    # -- verification utilities ------------------------------------------------------
    def generators(self):
        ctx = self.ctx
        rank = self.datum.rank
        gens = []
        for k in range(rank):
            gens.append(ctx.e_gen(k, "localized"))
            gens.append(ctx.f_gen(k, "localized"))
            for side in (MINUS, PLUS):
                gens.append(ctx.k_elem(kmono(*unit_vec(rank, k, 1, side)), "localized"))
        return gens

    def braid_relation_check(self, i, j) -> bool:
        """T_i T_j T_i ... = T_j T_i T_j ... with m_ij factors, on all generators."""
        i, j = self.datum.index(i), self.datum.index(j)
        m = self.datum.braid_order(i, j)
        if m == 0:
            raise ValueError("infinite braid order; relation check unsupported")
        left = tuple(i if k % 2 == 0 else j for k in range(m))
        right = tuple(j if k % 2 == 0 else i for k in range(m))
        for x in self.generators():
            if self.T_word(left, x) != self.T_word(right, x):
                return False
        return True

    def T_equivariance_check(self, i, x: TriElem) -> dict:
        """The three symmetry identities for T_i on one element."""
        ctx = self.ctx
        x = x.with_flavor("localized")
        out = {
            "bar": ctx.bar(self.T(i, x)) == self.T(i, ctx.bar(x)),
            "star": ctx.star(self.T(i, x)) == self.T(i, ctx.star(x), inverse=True),
            "transpose": ctx.transpose(self.T(i, x)) == self.T(i, ctx.transpose(x), inverse=True),
        }
        return out

    # -- Schubert cells ------------------------------------------------------------------
    def root_vector(self, word, r: int, n: int = 1) -> HalfElem:
        """T_{s_{i_1}} ... T_{s_{i_{r-1}}} (E_{i_r}^n) for a reduced word.

        Powers are taken after the braid chain: the operators are algebra
        maps, and powering inside the half algebra is far cheaper than
        dragging E^n through the double.
        """
        word = tuple(self.datum.index(i) for i in word)
        key = (word[:r], n)
        got = self._roots.get(key)
        if got is not None:
            return got
        if n != 1:
            out = self.root_vector(word, r, 1) ** n
        else:
            out = self.ctx.half.gen(PLUS, word[r - 1])
            for k in range(r - 2, -1, -1):
                out = self.T_half(word[k], out)
        self._roots[key] = out
        return out

    def schubert_pbw(self, word, amounts) -> HalfElem:
        """PBW monomial E_i^a attached to a reduced word, amounts a >= 0."""
        word = tuple(self.datum.index(i) for i in word)
        if not self.datum.is_reduced(word):
            raise ValueError(f"word {word} is not reduced")
        if len(word) != len(amounts):
            raise ValueError(f"{len(amounts)} PBW amounts for a word of length {len(word)}")
        if min(amounts, default=0) < 0:
            raise ValueError(f"negative PBW amount in {tuple(amounts)}")
        half = self.ctx.half
        out = half.unit(PLUS)
        for r, a in enumerate(amounts, start=1):
            if a:
                out = out * self.root_vector(word, r, a)
        return out

    def mu_exponent(self, word, amounts) -> int:
        """nu-exponent mu(a) = sum over s < r of a_r (beta_s . beta_r) of the
        rescaling for the PBW lattice, beta the roots of the word
        (`CartanDatum.word_roots`)."""
        datum = self.datum
        roots = datum.word_roots(tuple(datum.index(i) for i in word))
        return sum(a * datum.dot(roots[s], roots[r]) for r, a in enumerate(amounts) for s in range(r))


def tame_apply(algebra, i, lab_plus: str):
    """Verify and return the braid image of a dual-canonical-basis element.

    T_i(b_+) = K_{+i}^(-ell) diamond F_i^ell bullet T_i(top), with ell the
    nilpotency depth and top the highest divided-power derivative.  Both sides
    are computed independently; a mismatch is a fatal consistency error.
    Returns (K-monomial, minus label, plus label) of the basis-element form.
    """
    i = algebra.datum.index(i)
    half = algebra.half
    b = algebra.dcb_elem(PLUS, lab_plus)
    ell, top = half.ell_and_top(i, b)
    top_lab = algebra.label_of(PLUS, top)
    t_top = algebra.braid.T_half(i, algebra.dcb_elem(PLUS, top_lab))
    t_top_lab = algebra.label_of(PLUS, t_top)
    rank = algebra.datum.rank
    f_lab = algebra.label_of(MINUS, half.word(MINUS, [i] * ell))
    K = kmono((0,) * rank, tuple(-ell if k == i else 0 for k in range(rank)))
    rhs = algebra.ctx.diamond(K, algebra.bullet(f_lab, t_top_lab)).with_flavor("localized")
    lhs = algebra.braid.T(i, algebra.ctx.from_half(b, "localized"))
    if lhs != rhs:
        raise AssertionError(f"tameness identity fails for {lab_plus} at index {i}")
    return K, f_lab, t_top_lab


def reduced_words(datum, w_word):
    """All reduced words of the element given by one reduced word (finite type)."""
    target = tuple(datum.weyl_act(tuple(w_word), beta) for beta in map(datum.alpha, range(datum.rank)))
    length = len(w_word)
    out = []

    def rec(prefix):
        if len(prefix) == length:
            acts = tuple(
                datum.weyl_act(tuple(prefix), datum.alpha(k)) for k in range(datum.rank)
            )
            if acts == target:
                out.append(tuple(prefix))
            return
        for k in range(datum.rank):
            cand = prefix + [k]
            if datum.is_reduced(tuple(cand)):
                rec(cand)

    rec([])
    return out

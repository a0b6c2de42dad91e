"""The half quantum groups U_q^+ and U_q^- as graded word algebras.

Words are stored freely; the quantum Serre quotient is imposed through the
radical of the bilinear pairing between the two halves, so elements carry a
canonical per-degree coordinate form over pivot words.  The pairing is
symmetric and its radical is a two-sided ideal (Lusztig, Introduction to
Quantum Groups, 1.2.3-1.2.4), so every pivot word of a degree gamma is j q,
q a pivot word of gamma - alpha_j: each degree pairs and eliminates only
those candidate words, whose rows come from the pivot rows one degree down.
The braided coproduct, the pairing, the bar/star/transpose involutions and
the quasi-derivations live here.
"""
from __future__ import annotations

from itertools import permutations

from .cartan import CartanDatum, get_datum
from .scalar import (
    ONE,
    ZERO,
    Rat,
    RAT_ONE,
    RAT_ZERO,
    accumulate,
    common_denominator,
    format_scalar,
    nu_power,
    parse_scalar,
    qangle,
    qangle_factorial,
    qround_factorial,
)
from . import linalg

PLUS = +1
MINUS = -1


class HalfElem:
    """Homogeneous-or-not element of U_q^+ or U_q^-, stored compressed.

    terms maps word tuples (index sequences) to Rat coefficients; every degree
    component is expressed over that degree's pivot words, so equality and
    zero tests are structural.
    """

    __slots__ = ("alg", "sign", "terms")

    def __init__(self, alg: "HalfAlgebra", sign: int, terms: dict, compressed=False):
        self.alg = alg
        self.sign = sign
        if not compressed:
            terms = alg._compress(terms)
        self.terms = terms

    # -- ring structure -----------------------------------------------------
    def _check_operand(self, other: "HalfElem"):
        if self.sign != other.sign:
            raise ValueError("operands of opposite signs")
        if self.alg is not other.alg:
            raise ValueError("operands of different algebras")

    def __add__(self, other: "HalfElem") -> "HalfElem":
        self._check_operand(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            accumulate(out, w, c)
        return HalfElem(self.alg, self.sign, out, compressed=True)

    def __sub__(self, other: "HalfElem") -> "HalfElem":
        return self + other.scale(-1)

    def scale(self, c) -> "HalfElem":
        c = Rat.of(c)
        if c.is_zero():
            return HalfElem(self.alg, self.sign, {}, compressed=True)
        return HalfElem(
            self.alg, self.sign, {w: x * c for w, x in self.terms.items()}, compressed=True
        )

    def __mul__(self, other: "HalfElem") -> "HalfElem":
        self._check_operand(other)
        out: dict[tuple, Rat] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                accumulate(out, w, c1 * c2)
        return HalfElem(self.alg, self.sign, out)

    def __pow__(self, n: int) -> "HalfElem":
        if n < 0:
            raise ValueError("negative power of a half element")
        out = self.alg.unit(self.sign)
        for _ in range(n):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, HalfElem)
            and self.sign == other.sign
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(self.key())

    def key(self):
        return (self.sign, tuple(sorted(self.terms.items())))

    # -- grading --------------------------------------------------------------
    def degrees(self) -> list[tuple[int, ...]]:
        return sorted({self.alg.word_degree(w) for w in self.terms})

    def degree(self) -> tuple[int, ...]:
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError(f"element is not homogeneous: degrees {degs}")
        return degs[0]

    def component(self, gamma) -> "HalfElem":
        terms = {w: c for w, c in self.terms.items() if self.alg.word_degree(w) == gamma}
        return HalfElem(self.alg, self.sign, terms, compressed=True)

    def __repr__(self):
        return f"HalfElem({'E' if self.sign == PLUS else 'F'}: {format_half(self)})"


class HalfAlgebra:
    """Per-datum cache for words and pivot bases (which hold the pivot
    rows of the pairing); each entry is computed once."""

    def __init__(self, datum):
        self.datum: CartanDatum = get_datum(datum)
        self._words: dict[tuple, list] = {}
        self._index: dict[tuple, dict] = {}
        self._basis: dict[tuple, "DegreeBasis"] = {}

    # -- constructors ---------------------------------------------------------
    def unit(self, sign: int) -> HalfElem:
        return HalfElem(self, sign, {(): RAT_ONE}, compressed=True)

    def zero(self, sign: int) -> HalfElem:
        return HalfElem(self, sign, {}, compressed=True)

    def gen(self, sign: int, i) -> HalfElem:
        i = self.datum.index(i)
        return HalfElem(self, sign, {(i,): RAT_ONE}, compressed=True)

    def word(self, sign: int, letters) -> HalfElem:
        w = tuple(self.datum.index(i) for i in letters)
        return self.element(sign, {w: RAT_ONE})

    def element(self, sign: int, terms: dict) -> HalfElem:
        return HalfElem(self, sign, {w: Rat.of(c) for w, c in terms.items()})

    def gen_divided(self, sign: int, i, n: int) -> HalfElem:
        """X_i^<n> = X_i^n / <n>_{q_i}!."""
        i = self.datum.index(i)
        c = Rat.of(1) / Rat.of(qangle_factorial(n, self.datum.qi_exp(i)))
        return self.element(sign, {(i,) * n: c})

    # -- word-level data --------------------------------------------------------
    def word_degree(self, w: tuple) -> tuple[int, ...]:
        out = [0] * self.datum.rank
        for i in w:
            out[i] += 1
        return tuple(out)

    def words_of_degree(self, gamma) -> list[tuple]:
        gamma = tuple(gamma)
        if gamma not in self._words:
            letters = []
            for i, m in enumerate(gamma):
                letters.extend([i] * m)
            self._words[gamma] = sorted(set(permutations(letters)))
        return self._words[gamma]

    def word_index(self, gamma) -> dict:
        """{word: its position in words_of_degree(gamma)}."""
        gamma = tuple(gamma)
        if gamma not in self._index:
            self._index[gamma] = {w: a for a, w in enumerate(self.words_of_degree(gamma))}
        return self._index[gamma]

    def chi_exp(self, alpha, beta) -> int:
        """nu-exponent of chi(alpha, beta) = q^(alpha.beta)."""
        return 2 * self.datum.dot(alpha, beta)

    def coproduct_word(self, w: tuple):
        """Deconcatenation coproduct of a word: list of (nu-power, left, right).

        The weight for the subset S of positions sent left is the product of
        chi(letter_a, letter_b) over pairs a not in S, b in S with a < b.
        """
        n = len(w)
        datum = self.datum
        out = []
        for mask in range(1 << n):
            left, right = [], []
            weight = 0
            right_deg = [0] * datum.rank
            for pos in range(n):
                letter = w[pos]
                if mask >> pos & 1:
                    left.append(letter)
                    weight += self.chi_exp(tuple(right_deg), datum.alpha(letter))
                else:
                    right.append(letter)
                    right_deg[letter] += 1
            out.append((weight, tuple(left), tuple(right)))
        return out

    # -- pairing -----------------------------------------------------------------
    def pairing_rows(self, gamma) -> dict:
        """{w: [<w, f> for f in words_of_degree(gamma)]} over the candidate
        words w = j q of the degree, q a pivot word of gamma - alpha_j, in word
        order, entries in Z[v, v^-1]; every pivot word of gamma is a candidate
        (see DegreeBasis).  The row of j q is its column, by symmetry, and the
        recursion on the first letter j gives that column,
        <e, j q> = <1>_{q_j} sum over the letters j of e of v^s <e without it, q>,
        s the chi-exponent of the letters before it against j, reading
        <e without it, q> = <q, e without it> from the pivot row of q one
        degree down (`DegreeBasis.rows`).  Not memoised: the DegreeBasis of
        gamma calls it once and keeps the pivot rows only."""
        gamma = tuple(gamma)
        if not any(gamma):
            return {(): [ONE]}
        datum = self.datum
        words = self.words_of_degree(gamma)
        rows = {}
        for j in range(datum.rank):
            if not gamma[j]:
                continue
            sub_gamma = gamma[:j] + (gamma[j] - 1,) + gamma[j + 1 :]
            at = self.word_index(sub_gamma)
            chi = [self.chi_exp(datum.alpha(i), datum.alpha(j)) for i in range(datum.rank)]
            # for every word e: (position of e with one j deleted, its v-shift)
            deleted = []
            for e in words:
                out, shift = [], 0
                for p, letter in enumerate(e):
                    if letter == j:
                        out.append((at[e[:p] + e[p + 1 :]], shift))
                    shift += chi[letter]
                deleted.append(out)
            bracket = qangle(1, datum.qi_exp(j))
            for q, row_q in self.degree_basis(sub_gamma).rows.items():
                row = []
                for terms in deleted:
                    total = ZERO
                    for r, shift in terms:
                        if row_q[r]:
                            total = total + row_q[r].shift(shift)
                    row.append(total * bracket if total else ZERO)
                rows[(j,) + q] = row
        return rows

    def pairing_block(self, gamma, words, elems) -> list:
        """The pairing <w, x> of degree gamma, M[w, pivots] x^T, as a matrix
        with a row per word w and a column per element x: w any word of
        gamma, x an element of degree gamma on any words, read over the pivot
        words (`DegreeBasis.coords`), and M the word-pairing matrix, whose
        entry M[w, p] = <p, w> comes from the pivot row of p
        (`DegreeBasis.rows`) by symmetry.  `pair` and the twisted form of the
        tables read the pivot rows only through it.  The Laurent pivot rows
        enter `linalg.mat_mul` as they are: the product is fraction-free, over
        the one common denominator of the coordinates, and each entry is
        reduced once.  The dual bases invert this block only after that
        reduction, since unreduced numerators carry the whole denominator
        as a common factor into the elimination (`linalg`)."""
        basis, at = self.degree_basis(gamma), self.word_index(gamma)
        Mw = [[basis.rows[p][at[w]] for p in basis.pivots] for w in words]
        return linalg.mat_mul(Mw, list(zip(*(basis.coords(x.terms) for x in elems))))

    def pair(self, x_plus: HalfElem, y_minus: HalfElem) -> Rat:
        """Bilinear pairing U_q^+ x U_q^- -> Q(v); zero across distinct degrees.
        Each degree component of x_plus, on any words, is summed against the
        column of y_minus in `pairing_block`, which reads y_minus over the
        pivot words; that pairs alike, since the radical pairs to zero."""
        if x_plus.sign != PLUS or y_minus.sign != MINUS:
            raise ValueError("pair takes a plus element and a minus element")
        total = RAT_ZERO
        for gamma in set(x_plus.degrees()) & set(y_minus.degrees()):
            xc = x_plus.component(gamma).terms
            for c, (f,) in zip(xc.values(), self.pairing_block(gamma, list(xc), [y_minus.component(gamma)])):
                total = total + c * f
        return total

    # -- canonical coordinates ------------------------------------------------------
    def degree_basis(self, gamma) -> "DegreeBasis":
        gamma = tuple(gamma)
        if gamma not in self._basis:
            self._basis[gamma] = DegreeBasis(self, gamma)
        return self._basis[gamma]

    def dim(self, gamma) -> int:
        return self.degree_basis(gamma).rank

    def _compress(self, terms: dict) -> dict:
        """Rewrite every degree component over its pivot words."""
        by_deg: dict[tuple, dict] = {}
        for w, c in terms.items():
            c = Rat.of(c)
            if c.is_zero():
                continue
            by_deg.setdefault(self.word_degree(w), {})[w] = c
        out: dict[tuple, Rat] = {}
        for gamma, component in by_deg.items():
            basis = self.degree_basis(gamma)
            for w, c in zip(basis.pivots, basis.coords(component)):
                accumulate(out, w, c)
        return out

    # -- involutions ------------------------------------------------------------------
    def bar(self, x: HalfElem) -> HalfElem:
        """Antilinear word reversal."""
        return HalfElem(self, x.sign, {tuple(reversed(w)): c.bar() for w, c in x.terms.items()})

    def star(self, x: HalfElem) -> HalfElem:
        """Linear word reversal."""
        return HalfElem(self, x.sign, {tuple(reversed(w)): c for w, c in x.terms.items()})

    def transpose(self, x: HalfElem) -> HalfElem:
        """Side swap, an anti-map."""
        return HalfElem(self, -x.sign, {tuple(reversed(w)): c for w, c in x.terms.items()})

    def flip(self, x: HalfElem) -> HalfElem:
        """The composition *t: letterwise side swap keeping word order.

        Both halves share the pivot words, so the terms are already compressed.
        """
        return HalfElem(self, -x.sign, dict(x.terms), compressed=True)

    # -- quasi-derivations -----------------------------------------------------------
    def deriv(self, i, x: HalfElem, variant: str = "plain", power: int = 1) -> HalfElem:
        """partial_i (variant plain) or partial_i^op = * partial_i * on either half.

        power r applies the divided power partial_i^(r) = partial_i^r / (r)_{q_i}!.
        Minus-side input is handled by conjugating with the transpose.
        """
        i = self.datum.index(i)
        if variant == "op":
            return self.star(self.deriv(i, self.star(x), "plain", power))
        if variant != "plain":
            raise ValueError(f"unknown derivation variant {variant!r}")
        if x.sign == MINUS:
            return self.transpose(self.deriv(i, self.transpose(x), variant, power))
        out = x
        for _ in range(power):
            out = self._deriv_once(i, out)
        if power > 1:
            out = out.scale(Rat.of(1) / Rat.of(qround_factorial(power, self.datum.qi_exp(i))))
        return out

    def _deriv_once(self, i: int, x: HalfElem) -> HalfElem:
        datum = self.datum
        alpha_i = datum.alpha(i)
        out: dict[tuple, Rat] = {}
        for w, c in x.terms.items():
            deg = self.word_degree(w)
            shifted = list(deg)
            shifted[i] -= 1
            lead = -datum.dot(alpha_i, tuple(shifted))
            suffix_exp = 0
            for p in range(len(w) - 1, -1, -1):
                if w[p] == i:
                    coeff = c * nu_power(lead + suffix_exp)
                    key = w[:p] + w[p + 1 :]
                    accumulate(out, key, coeff)
                suffix_exp += self.chi_exp(alpha_i, datum.alpha(w[p]))
        return HalfElem(self, PLUS, out)

    def ell_and_top(self, i, x: HalfElem):
        """Nilpotency depth ell_i(x) and the top divided-power image."""
        if x.is_zero():
            raise ValueError("ell_i undefined on 0")
        i = self.datum.index(i)
        depth = 0
        top = x
        while True:
            nxt = self.deriv(i, top)
            if nxt.is_zero():
                break
            depth += 1
            top = nxt
        if depth:
            top = top.scale(Rat.of(1) / Rat.of(qround_factorial(depth, self.datum.qi_exp(i))))
        return depth, top

    def psi_rescale(self, x: HalfElem, inverse: bool = False) -> HalfElem:
        """Conversion between the rescaled presentation used here and the
        standard one: every E_i picks up (q_i^-1 - q_i)^-1 and every F_i picks
        up (q_i - q_i^-1)^-1 (inverse=True undoes it)."""
        out = {}
        for w, c in x.terms.items():
            factor = RAT_ONE
            for letter in w:
                bracket = Rat.of(qangle(1, self.datum.qi_exp(letter)))
                if x.sign == PLUS:
                    bracket = -bracket
                factor = factor * (bracket if inverse else bracket.inv())
            out[w] = c * factor
        return HalfElem(self, x.sign, out, compressed=True)

    # -- distinguished elements ----------------------------------------------------------
    def serre_element(self, sign: int, i, j) -> HalfElem:
        """sum_{r+s=1-a_ij} (-1)^s X_i^<r> X_j X_i^<s>; zero in the quotient."""
        i, j = self.datum.index(i), self.datum.index(j)
        n = 1 - self.datum.A[i][j]
        out = self.zero(sign)
        for s in range(n + 1):
            r = n - s
            term = self.gen_divided(sign, i, r) * self.gen(sign, j) * self.gen_divided(sign, i, s)
            out = out + term.scale((-1) ** s)
        return out


class DegreeBasis:
    """Pivot data of one degree component: the pivot words are the
    lexicographically-first words whose rows of the word-pairing matrix M
    are independent.  M is symmetric for a symmetrizable datum (Lusztig
    1.2.3), so one pivot set and one coordinate map serve both halves, and by
    M = M[:, pivots] E, E = R / d the reduced row echelon form of M, word w
    has pivot coordinates E[:, w] = M[w, pivots] P^-1, P = M[pivots, pivots].

    Only the candidate rows of `HalfAlgebra.pairing_rows` are eliminated.
    The radical of the pairing is a two-sided ideal (Lusztig 1.2.4), so if
    a word w is, modulo the radical, a combination of lexicographically
    smaller words, so is j w.  Every pivot word of gamma is therefore j q, q
    a pivot word of gamma - alpha_j.  A row outside the pivots is dependent
    on the rows before it and leaves the kept rows of the elimination as
    they are, so the candidate rows give the pivots, R and d that all of M
    gives.  The whole layer is over Z[v, v^-1]: the rows have Laurent
    entries, and `linalg.row_reduce` returns R and d as Laurent
    polynomials.  Symmetry is checked on the candidate block: the entry at
    (a, b) comes from the recursion on the first letter of a, the entry at
    (b, a) from the one on the first letter of b.  Of the candidate rows,
    only the pivot rows are kept, `rows = {p: [<p, f> for f in words]}`:
    `HalfAlgebra.pairing_block`, through which `pair` and the twisted form
    of the tables pair, and the candidate rows one degree up read them."""

    def __init__(self, alg: HalfAlgebra, gamma: tuple):
        self.gamma = gamma
        rows = alg.pairing_rows(gamma)
        at = alg.word_index(gamma)
        cands = list(rows)
        if any(rows[a][at[b]] != rows[b][at[a]] for k, a in enumerate(cands) for b in cands[:k]):
            raise ValueError(f"pairing of degree {gamma} is not symmetric on its candidate words")
        # by symmetry the pivot columns are the kept rows
        _, cols, R, self._d = linalg.row_reduce(list(rows.values()))
        words = self.words = alg.words_of_degree(gamma)
        self.pivots = [words[k] for k in cols]
        self.rows = {p: rows[p] for p in self.pivots}
        self._rest = {w: [r[j] for r in R] for j, w in enumerate(words) if j not in cols}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def coords(self, component: dict) -> list:
        """Coordinates of a one-degree component dict over the pivot words,
        the same for an element of either half: a pivot word gives its
        coefficient, a non-pivot word w its coefficient times E[:, w]."""
        out = [component.get(w, RAT_ZERO) for w in self.pivots]
        rest = [w for w in component if w not in self.pivots]
        if rest:
            nums, den = common_denominator(list(component.values()))
            num, d = dict(zip(component, nums)), self._d
            for k, p in enumerate(self.pivots):
                s = num[p] * d if p in num else ZERO
                for w in rest:
                    s = s + num[w] * self._rest[w][k]
                out[k] = Rat(s, den * d)
        return out


# ---------------------------------------------------------------------------
# serialization: words as "E:1 2 1"; elements as sorted coefficient/word lists
# ---------------------------------------------------------------------------

def format_word(alg: HalfAlgebra, sign: int, w: tuple) -> str:
    tag = "E" if sign == PLUS else "F"
    return f"{tag}:{' '.join(alg.datum.labels[i] for i in w)}"


def parse_word(alg: HalfAlgebra, text: str):
    """The side and letters of a word 'E:...' or 'F:...'.  Raises ValueError
    on anything else (a CartanError for an unknown letter)."""
    if not isinstance(text, str) or text.partition(":")[0].strip() not in ("E", "F"):
        raise ValueError(f"word {text!r} must read 'E:...' or 'F:...'")
    tag, _, rest = text.partition(":")
    letters = tuple(alg.datum.index(tok) for tok in rest.split())
    return PLUS if tag.strip() == "E" else MINUS, letters


def format_half(x: HalfElem) -> str:
    parts = []
    for w in sorted(x.terms):
        parts.append(f"({format_scalar(x.terms[w])})*{format_word(x.alg, x.sign, w)}")
    return " + ".join(parts) if parts else "0"


def half_to_obj(x: HalfElem):
    return [
        {"c": format_scalar(x.terms[w]), "w": format_word(x.alg, x.sign, w)}
        for w in sorted(x.terms)
    ]


def half_from_obj(alg: HalfAlgebra, obj) -> HalfElem:
    """The sum of obj's terms {"c": scalar, "w": word}, as half_to_obj writes
    them; ValueError on a malformed term or on words of both sides."""
    sign = None
    terms = {}
    for item in obj:
        if not isinstance(item, dict) or not isinstance(item.get("c"), str):
            raise ValueError(f'term {item!r} must be {{"c": str, "w": str}}')
        s, w = parse_word(alg, item.get("w"))
        if sign is None:
            sign = s
        elif s != sign:
            raise ValueError("mixed-sign element: it mixes E-side and F-side words")
        accumulate(terms, w, parse_scalar(item["c"]))
    if sign is None:
        sign = PLUS
    return HalfElem(alg, sign, terms)

"""Canonical bases of U_q^- (computed for finite type, tabulated where the
algorithmic path does not reach), their duals under the twisted form (one
Gram inverse in pivot coordinates per degree), the coordinates of words and
of elements of the double over the dual canonical bases (`word_to_dcb`,
`to_dcb`), and crystal-style shift operators on dual-canonical-basis labels.
Coordinates are read from numerators over one denominator on any words of
their degrees (`numerators_to_dcb`) by the double's kernel
`expand_numerators` over DCB rows, so a product straight from
`DoubleContext.product_numerators` needs no pivot-word normal form, and
each coordinate is reduced once.  Each registered table keeps its elements'
numerators over one denominator (`dcb_column`), the columns over which the
engine builds a solve's element from its coordinates.  `reversed_label`
names the word reversal of a label's element, for the engine's transpose
partners.
"""
from __future__ import annotations

from functools import cached_property
from itertools import permutations

from .cartan import PRESETS
from .double import expand_numerators, over_groups
from .halves import HalfAlgebra, HalfElem, PLUS, MINUS
from .lusztig import bar_fix
from .scalar import (
    Laurent,
    Rat,
    RAT_ZERO,
    common_denominator,
    nu_power,
    qangle,
    qangle_factorial,
    qround_binom,
)
from . import linalg


class TableIncomplete(LookupError):
    """No table source covers the requested degree."""


class UnknownLabel(KeyError):
    """A label, or an element, that no built dual-canonical table holds."""


class TableConflict(AssertionError):
    """A table is inconsistent with the computed basis."""


class UserTableError(ValueError):
    """A user table that cannot be the degree's dual canonical basis."""


class CBTable:
    def __init__(self, gamma, labels, elements, dual_labels):
        self.gamma = gamma
        self.labels = list(labels)
        self.elements = list(elements)  # minus-side HalfElems
        self.dual_labels = list(dual_labels)  # the label of each element's dual


class DCBTable:
    def __init__(self, gamma, labels, minus_elems, duals):
        self.gamma = gamma
        self.labels = list(labels)
        self.minus = list(minus_elems)
        self.duals = list(duals)  # the basis dual to minus under ((,))
        # the numerators of each element over den, set by `_register`
        self.numerators: list = []
        self.den = None


def sigma_matrix(W, height) -> list:
    """The sigma-matrix (-1)^height bar(W) W^-1 of the pivot coordinates W
    of a degree's PBW monomials, a row per monomial.  sigma, the antilinear
    automorphism fixing the canonical basis, keeps the pivot words and bars
    each coefficient, times (-1)^height.  Fraction-free: W = Wn / dW, and the
    one `row_reduce` that inverts Wn gives Wn^-1 = N / d, so sigma is
    (-1)^height dW bar(Wn) N / (bar(dW) d), each entry reduced once
    (`linalg.scaled_product`) rather than W^-1 reduced entry by entry and
    multiplied over Q(v)."""
    Wn, dW = linalg.fraction_rows(W)
    N, d = linalg.inverse_numerators(Wn)
    scale = Rat(-dW if height % 2 else dW, dW.bar() * d)
    return linalg.scaled_product([[c.bar() for c in row] for row in Wn], N, scale)


class CanonicalTables:
    """Append-only cache of canonical and dual canonical bases per degree."""

    def __init__(self, algebra):
        self.alg = algebra
        self.half: HalfAlgebra = algebra.half
        self.datum = algebra.datum
        self._cb: dict = {}
        self._dcb: dict = {}
        self._w2d: dict = {}
        self._by_elem: dict = {}
        self._label_info: dict = {}
        self._ell: dict = {}
        self._reversed: dict = {}  # label -> reversed label, or None

    # ----------------------------------------------------------------- fgfrm
    def fgfrm(self, x: HalfElem, y: HalfElem) -> Rat:
        """Twisted symmetric form on U_q^-: ((x,y)) = sum over the degrees
        gamma of x of v^-ulgamma(gamma) <x_gamma^{*t}, y>."""
        if x.sign != MINUS or y.sign != MINUS:
            raise ValueError("fgfrm takes two minus elements")
        half, total = self.half, RAT_ZERO
        for gamma in x.degrees():
            total = total + half.pair(half.flip(x.component(gamma)), y).shift(-self.datum.ulgamma(gamma))
        return total

    def _form_block(self, gamma, words, elems) -> list:
        """The twisted form ((w, x)) = v^-ul <w, x> of degree gamma, ul =
        ulgamma(gamma): `HalfAlgebra.pairing_block`, a row per word w and a
        column per element x, twisted by v^-ul."""
        ul = self.datum.ulgamma(gamma)
        return [[c.shift(-ul) for c in row] for row in self.half.pairing_block(gamma, words, elems)]

    # --------------------------------------------------------- canonical bases
    def canonical_basis(self, gamma) -> CBTable:
        gamma = tuple(gamma)
        if gamma in self._cb:
            return self._cb[gamma]
        table = self._build_cb(gamma)
        if self._is_preset("A2") and any(gamma):
            # the A2 duals are the PBW monomials E1^a1 E2^a2 E12^a12 E21^a21
            # with min(a1, a2) = 0, labelled b+(a1,a2,a12,a21)
            table.dual_labels = [
                f"b+({n1 - m},{n2 - m},{n12},{m})"
                for n1, n12, n2 in _compositions(gamma, self._pbw_roots[1])
                for m in [min(n1, n2)]
            ]
        self._cb[gamma] = table
        return table

    def _build_cb(self, gamma) -> CBTable:
        half = self.half
        support = [i for i, g in enumerate(gamma) if g]
        if len(support) == 0:
            return CBTable(gamma, ["1"], [half.unit(MINUS)], ["1"])
        if len(support) == 1:
            i = support[0]
            n = gamma[i]
            return CBTable(
                gamma,
                [f"can[{i}^{n}]"],
                [half.gen_divided(MINUS, i, n)],
                [f"F[{self.datum.labels[i]}^{n}]"],
            )
        if (table := self._two_letter_cb(gamma)) is not None:
            return table
        if gamma == (2, 2) and self._is_preset("A1affine"):
            return self._affine22_cb()
        if gamma == (1, 1, 1) and self._is_preset("R3"):
            return self._r3_cb()
        if self.datum.is_finite_type():
            return self._algorithmic_cb(gamma)
        name = self.datum.name or self.datum.to_json()
        raise TableIncomplete(f"no canonical basis source for {name} degree {gamma}")

    def _is_preset(self, name) -> bool:
        """True when the datum has the Cartan matrix and symmetrizers of the
        preset, whatever its name: the hand tables depend on nothing else."""
        preset = PRESETS[name]
        return (self.datum.A, self.datum.d) == (preset.A, preset.d)

    def _two_letter_cb(self, gamma):
        """Degree n alpha_i + alpha_j, n <= -a_ij: the divided-power
        sandwiches F_i^<s> F_j F_i^<n-s>; None for any other degree."""
        half = self.half
        support = [k for k, g in enumerate(gamma) if g]
        if len(support) != 2:
            return None
        i, j = support
        if gamma[j] != 1:
            i, j = j, i
        n = gamma[i]
        if gamma[j] != 1 or n > -self.datum.A[i][j]:
            return None
        labels, elems, duals = [], [], []
        for s in range(n + 1):
            labels.append(f"can[{i}^{s} {j} {i}^{n - s}]")
            elems.append(
                half.gen_divided(MINUS, i, s)
                * half.gen_divided(MINUS, j, 1)
                * half.gen_divided(MINUS, i, n - s)
            )
            duals.append(self._two_letter_label(i, j, n - s, s))
        return CBTable(gamma, labels, elems, duals)

    def _affine22_cb(self) -> CBTable:
        half = self.half
        labels, elems, duals = [], [], []
        for i, j in [(0, 1), (1, 0)]:
            di = lambda n: half.gen_divided(MINUS, i, n)  # noqa: E731
            dj = lambda n: half.gen_divided(MINUS, j, n)  # noqa: E731
            labels.append(f"can[{i}2 {j}2]")
            elems.append(di(2) * dj(2))
            labels.append(f"can[{i} {j}2 {i}]")
            elems.append(di(1) * dj(2) * di(1))
            labels.append(f"can[{i} {j} {i} {j}]")
            elems.append(di(1) * dj(1) * di(1) * dj(1) - di(2) * dj(2))
            duals += [self._reversed_label(w) for w in [(i, i, j, j), (i, j, j, i), (i, j, i, j)]]
        return CBTable((2, 2), labels, elems, duals)

    def _r3_cb(self) -> CBTable:
        """R3 degree (1,1,1): the six products F_k^<1> F_j^<1> F_i^<1>."""
        words = [(k, j, i) for i, j, k in permutations(range(3))]
        f = [self.half.gen_divided(MINUS, i, 1) for i in range(3)]
        return CBTable(
            (1, 1, 1),
            [f"can[{k} {j} {i}]" for k, j, i in words],
            [f[k] * f[j] * f[i] for k, j, i in words],
            [self._reversed_label(w) for w in words],
        )

    def _reversed_label(self, word) -> str:
        """The label F[...] of the dual of a divided-power monomial: its word
        reversed."""
        return "F[" + " ".join(self.datum.labels[i] for i in reversed(word)) + "]"

    # -- the PBW + bar-correction engine (finite type) --------------------------
    @cached_property
    def _pbw_roots(self):
        """A reduced longest word and its positive roots, in PBW order."""
        word = self.datum.longest_word()
        return word, self.datum.word_roots(word)

    def _pbw_monomials(self, gamma):
        """(comps, scaled): the compositions of gamma over the PBW roots, in
        sorted order, and their divided-power PBW monomials on braid's
        lattice (v^-mu), on which the sigma-matrix is unitriangular."""
        datum = self.datum
        word, roots = self._pbw_roots
        comps = _compositions(gamma, roots)
        braid = self.alg.braid
        scaled = []
        for a in comps:
            c = nu_power(-braid.mu_exponent(word, a))
            for i, n in zip(word, a):
                c = c / Rat.of(qangle_factorial(n, datum.qi_exp(i)))
            scaled.append(self.half.flip(braid.schubert_pbw(word, a)).scale(c))
        return comps, scaled

    def _algorithmic_cb(self, gamma) -> CBTable:
        comps, scaled = self._pbw_monomials(gamma)
        basis = self.half.degree_basis(gamma)
        sign = Rat.of((-1) ** sum(gamma))
        sig = sigma_matrix([basis.coords(x.terms) for x in scaled], sum(gamma))
        # in the sorted composition order (lexicographic in Lusztig data) the
        # sigma-matrix is upper unitriangular (Lusztig, J. AMS 3, 1990)
        n = len(comps)
        for k, r in enumerate(sig):
            if not r[k].is_one() or any(not c.is_zero() for c in r[:k]):
                raise TableConflict(f"sigma-matrix at {gamma} is not upper unitriangular in row {k}")
        rows = [{l: c for l, c in enumerate(r) if not c.is_zero()} for r in sig]
        labels, elems = [], []
        for k, a in enumerate(comps):
            elem = scaled[k]
            fix = bar_fix(rows[k], range(k + 1, n), rows.__getitem__, "negative", f"{gamma} row {k}")
            for l, c in fix.items():
                elem = elem + scaled[l].scale(c)
            if any(c.bar() * sign != c for c in elem.terms.values()):
                raise TableConflict(f"canonical element at {gamma} not sigma-fixed")
            labels.append("can" + "".join(f"[{r}^{n}]" if n else "" for r, n in enumerate(a)))
            elems.append(elem)
        gs = ",".join(map(str, gamma))
        return CBTable(gamma, labels, elems, [f"b({gs}).{k}" for k in range(len(elems))])

    # ------------------------------------------------------------ dual bases
    def dcb_table(self, gamma) -> DCBTable:
        gamma = tuple(gamma)
        table = self._dcb.get(gamma)
        if table is None:
            cb = self.canonical_basis(gamma)
            duals = self.dual_basis(gamma, cb.elements)
            table = self._register(DCBTable(gamma, cb.dual_labels, duals, cb.elements))
        return table

    def _register(self, table: DCBTable) -> DCBTable:
        """File a table under its degree, its labels and its elements, and
        put its elements over one denominator (`dcb_column`)."""
        nums, table.den = common_denominator([c for x in table.minus for c in x.terms.values()])
        it = iter(nums)
        table.numerators = [{w: next(it) for w in x.terms} for x in table.minus]
        self._dcb[table.gamma] = table
        for k, (lab, minus) in enumerate(zip(table.labels, table.minus)):
            self._label_info[lab] = (table.gamma, k)
            self._by_elem[minus.key()] = lab
        return table

    def dual_basis(self, gamma, elems) -> list:
        """The basis dual to elems under ((,)), element for element: the
        rows, over the pivot words, of the inverse of the pivot block
        `_form_block(gamma, pivots, elems)`.  Raises TableConflict on a
        wrong count, SingularMatrix on dependent elems."""
        half = self.half
        pivots = half.degree_basis(gamma).pivots
        if len(elems) != len(pivots):
            raise TableConflict(
                f"table at {gamma} has {len(elems)} elements, dimension is {len(pivots)}"
            )
        return [
            HalfElem(half, MINUS, {p: c for p, c in zip(pivots, row) if c}, compressed=True)
            for row in linalg.invert(self._form_block(gamma, pivots, elems))
        ]

    def _two_letter_label(self, i, j, s, r) -> str:
        """The label F[i^s j i^r] of the dual of F_i^<r> F_j F_i^<s>."""
        return self._reversed_label((i,) * r + (j,) + (i,) * s)

    def two_letter_dcb(self, i, j, s: int, r: int) -> HalfElem:
        """F_{i^s j i^r} by the printed two-index recursion; s + r <= -a_ij."""
        i, j = self.datum.index(i), self.datum.index(j)
        a = self.datum.A[i][j]
        if s + r > -a:
            raise ValueError(f"two-letter family out of range: s + r = {s + r} > -a_ij = {-a}")
        half = self.half
        qi = self.datum.qi_exp(i)
        di = self.datum.d[i]
        fi = half.gen(MINUS, i)
        cur = half.gen(MINUS, j)
        k = l = 0
        while k < s:
            denom = Rat.of(qangle(-(k + l + a), qi))
            cur = (cur * fi).scale(nu_power(qi * (-k) - di * a) / denom) - (fi * cur).scale(
                nu_power(qi * k + di * a) / denom
            )
            k += 1
        while l < r:
            denom = Rat.of(qangle(-(k + l + a), qi))
            cur = (fi * cur).scale(nu_power(qi * (-l) - di * a) / denom) - (cur * fi).scale(
                nu_power(qi * l + di * a) / denom
            )
            l += 1
        return cur

    # ------------------------------------------------------------- label layer
    def dcb_elem(self, sign: int, label: str) -> HalfElem:
        gamma, k = self._label_info_get(label)
        minus = self.dcb_table(gamma).minus[k]
        if sign == MINUS:
            return minus
        return self.half.flip(minus)

    def _label_info_get(self, label):
        if label not in self._label_info:
            # build the degree the label encodes, then look again
            gamma = self._label_degree(label)
            if gamma is not None:
                self.dcb_table(gamma)
        if label not in self._label_info:
            raise UnknownLabel(f"unknown dual-canonical-basis label {label!r}")
        return self._label_info[label]

    def _label_degree(self, label: str):
        """The degree a built-in label encodes (`1`, `F[i^n j ...]`, `b(gamma).k`,
        the A2 `b+(a1,a2,a12,a21)`), or None."""
        gamma = [0] * self.datum.rank
        try:
            if label.startswith("F[") and label.endswith("]"):
                for i, _, n in (tok.partition("^") for tok in label[2:-1].split()):
                    gamma[self.datum.index(i)] += int(n or 1)
            elif label.startswith("b("):
                gamma = [int(g) for g in label[2:].partition(")")[0].split(",")]
            elif label.startswith("b+("):
                a1, a2, a12, a21 = map(int, label[3:-1].split(","))
                gamma = [a1 + a12 + a21, a2 + a12 + a21]
            elif label != "1":
                return None
        except ValueError:  # a CartanError is a ValueError
            return None
        return tuple(gamma) if len(gamma) == self.datum.rank and min(gamma) >= 0 else None

    def label_of(self, sign: int, elem: HalfElem) -> str:
        """Label of a dual-canonical-basis element, by value."""
        minus = elem if sign == MINUS else self.half.flip(elem)
        gamma = minus.degree()
        self.dcb_table(gamma)
        key = minus.key()
        if key not in self._by_elem:
            raise UnknownLabel(f"element of degree {gamma} is not in the table")
        return self._by_elem[key]

    def reversed_label(self, label: str):
        """The label *l of the word reversal (star) of a label's DCB element,
        or None when that is no element of the table, as in a --tables block
        that reversal does not keep; memoised per label.  The engine reads it
        for a pair's transpose partner, and no table build calls it."""
        if label not in self._reversed:
            try:
                got = self.label_of(MINUS, self.half.star(self.dcb_elem(MINUS, label)))
            except UnknownLabel:
                got = None
            self._reversed[label] = got
        return self._reversed[label]

    def dcb_column(self, label: str):
        """The column (num, d) of a label: its DCB element is the sum of
        num[w] / d w over its pivot words, d the denominator of its degree's
        table.  The F-side and E-side elements share it, as flip keeps the
        words."""
        gamma, k = self._label_info_get(label)
        table = self._dcb[gamma]
        return table.numerators[k], table.den

    def labels_of_degree(self, gamma) -> list:
        return list(self.dcb_table(tuple(gamma)).labels)

    def degree_of(self, label: str):
        return self._label_info_get(label)[0]

    # -------------------------------------------------- word -> label transitions
    def word_to_dcb(self, gamma) -> dict:
        """Word -> {label: coefficient} for one degree, by pairing every word
        with the duals of the table; F-words and E-words share the pivot form,
        so one map serves both halves."""
        return self._word_rows(gamma)[0]

    def to_dcb(self, x) -> dict:
        """Coordinates {(K, label_-, label_+): scalar} of an element x of the
        double over the products K b_- b_+ (`from_halves` with K, no diamond
        twist): `numerators_to_dcb` of its coefficients over their common
        denominator."""
        nums, dx = common_denominator(list(x.terms.values()))
        return self.numerators_to_dcb({key: n.c for key, n in zip(x.terms, nums)}, dx)

    def numerators_to_dcb(self, nums: dict, den: Laurent) -> dict:
        """to_dcb of the element sum {(K, f, e): numerator / den}, numerators
        coefficient dicts that are only read, each word on any word of its
        degree: `_word_rows` has a row for every word and the pairing with the
        duals is linear, so an element off its pivot words (a product from
        `DoubleContext.product_numerators`) needs no normal form first.  Each
        coordinate is reduced once."""
        return over_groups(expand_numerators(nums, self._dcb_row), den)

    def _dcb_row(self, w):
        """The DCB row (num, d) of one word: w is the sum of num[label] / d
        b_label, d the lcm of the denominators of its degree's rows."""
        _, rows, d = self._word_rows(self.half.word_degree(w))
        return rows[w], d

    def _word_rows(self, gamma):
        gamma = tuple(gamma)
        got = self._w2d.get(gamma)
        if got is not None:
            return got
        # the coefficient of w on table element k is ((w, duals[k]))
        table = self.dcb_table(gamma)
        words = self.half.words_of_degree(gamma)
        out = {
            w: {table.labels[k]: c for k, c in enumerate(row) if not c.is_zero()}
            for w, row in zip(words, self._form_block(gamma, words, table.duals))
        }
        nums, d = common_denominator([c for row in out.values() for c in row.values()])
        it = iter(nums)
        rows = {w: {lab: next(it) for lab in row} for w, row in out.items()}
        self._w2d[gamma] = got = (out, rows, d)
        return got

    def half_to_dcb(self, x: HalfElem) -> dict:
        """Expand a half element over dual-canonical labels: the label slot of
        its side in the to_dcb coordinates of x as an element of the double."""
        slot = 1 if x.sign == MINUS else 2
        return {idx[slot]: c for idx, c in self.to_dcb(self.alg.ctx.from_half(x)).items()}

    # ------------------------------------------------------------ crystal layer
    def ell(self, label: str, i) -> int:
        i = self.datum.index(i)
        key = (label, i)
        if key not in self._ell:
            plus = self.dcb_elem(PLUS, label)
            self._ell[key] = self.half.ell_and_top(i, plus)[0]
        return self._ell[key]

    def crystal_shift(self, i, r: int, label: str) -> str:
        """Kashiwara-style shift on plus-side labels: r >= 0 lowers ell_i by r,
        r < 0 raises it scanning the target degree table."""
        i = self.datum.index(i)
        plus = self.dcb_elem(PLUS, label)
        ell = self.ell(label, i)
        if r == 0:
            return label
        if r > 0:
            if r > ell:
                raise ValueError(f"crystal shift {r} exceeds ell_i = {ell}")
            image = self.half.deriv(i, plus, "plain", r)
            coeffs = self.half_to_dcb(image)
            binom = Rat.of(qround_binom(ell, r, self.datum.qi_exp(i)))
            hits = [
                lab
                for lab, c in coeffs.items()
                if self.ell(lab, i) == ell - r and c == binom
            ]
            if len(hits) != 1:
                raise TableIncomplete(f"crystal shift of {label} not resolved: {hits}")
            return hits[0]
        # r < 0: unique hat-b with the same top and ell increased by -r
        top = self.half.ell_and_top(i, plus)[1]
        target_deg = tuple(
            g + (-r) * (1 if k == i else 0) for k, g in enumerate(self.degree_of(label))
        )
        hits = []
        for lab in self.labels_of_degree(target_deg):
            cand = self.dcb_elem(PLUS, lab)
            if self.ell(lab, i) != ell - r:
                continue
            if self.half.ell_and_top(i, cand)[1] == top:
                hits.append(lab)
        if len(hits) != 1:
            raise TableIncomplete(f"inverse crystal shift of {label} not resolved: {hits}")
        return hits[0]

    # ----------------------------------------------------------- file interface
    def load_user_table(self, gamma, labeled_elements):
        """Register a user-supplied dual basis for one degree, in place of the
        table the degree would build.  Raises UserTableError, and registers
        nothing, unless the degree has no table yet; each element is nonzero,
        F-side and of the degree; each label is free; the elements are a basis
        of the degree; where the degree has a canonical basis, their duals
        are that basis in some order; and bar fixes every element, as it fixes
        every dual canonical basis element (the engine reads bar(b_- b_+) as
        b_+ b_-).  A label is free unless it is registered, or `_label_degree`
        reads it as a built-in label of another degree: the labels of all
        tables share one namespace, and a block replaces its degree's table,
        built-in labels included."""
        gamma = tuple(gamma)
        where = f"of degree {list(gamma)}"
        if gamma in self._dcb:
            raise UserTableError(f"the table {where} is already registered")
        labels = []
        for label, elem in labeled_elements:
            if elem.is_zero():
                raise UserTableError(f"element {label!r} is zero")
            if elem.sign != MINUS:
                raise UserTableError(f"element {label!r} is E-side; tables hold F-side elements")
            if elem.degrees() != [gamma]:
                raise UserTableError(f"element {label!r} has a word not {where}")
            owner = self._label_info[label][0] if label in self._label_info else self._label_degree(label)
            if label in labels or owner not in (None, gamma):
                raise UserTableError(
                    f"label {label!r} {where} is taken by degree {list(owner or gamma)}"
                )
            labels.append(label)
        elems = [el for _, el in labeled_elements]
        try:
            duals = self.dual_basis(gamma, elems)
        except (TableConflict, linalg.SingularMatrix):
            raise UserTableError(
                f"the elements {where} are not a basis (dimension {self.half.dim(gamma)})"
            ) from None
        try:
            cb = self.canonical_basis(gamma).elements
        except TableIncomplete:
            cb = None
        if cb is not None and {x.key() for x in duals} != {x.key() for x in cb}:
            raise UserTableError(f"the elements {where} are not dual to the canonical basis")
        for label, elem in labeled_elements:
            if self.half.bar(elem) != elem:
                raise UserTableError(f"element {label!r} {where} is not bar-invariant")
        self._register(DCBTable(gamma, labels, elems, duals))


def _compositions(gamma, roots):
    """All nonnegative integer combinations of the root list summing to gamma."""
    out = []
    n = len(roots)

    def rec(idx, remaining, acc):
        if idx == n:
            if not any(remaining):
                out.append(tuple(acc))
            return
        beta = roots[idx]
        max_mult = min(
            (rem // b for rem, b in zip(remaining, beta) if b), default=sum(remaining)
        )
        for m in range(max_mult + 1):
            nxt = tuple(r - m * b for r, b in zip(remaining, beta))
            if all(x >= 0 for x in nxt):
                rec(idx + 1, nxt, acc + [m])

    rec(0, tuple(gamma), [])
    out.sort()
    return out

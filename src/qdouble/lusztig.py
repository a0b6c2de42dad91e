"""Lusztig's lemma and the equivariant bar-correction engine.

`bar_fix` is the one bar-correction solver: the canonical bases of the halves
(`CanonicalTables._algorithmic_cb`), the circle product in the Heisenberg
quotients and the bullet product in the full double all go through it.  A
circ or bullet record is solved over the lower records of its own kind,
each already proved bar-fixed: bar(m) - m of the pair's K = 1 member m
expands over them (`Engine._greedy_expand`, which checks each key into the
pair's family before it reads, and so solves, that key's record), and
bar_fix reads the expansion with every lower bar row zero.  The record's
certificate, its corrections over the members, composes each correction
with the certificate of its lower record.  The engine also owns the
per-label-pair memos: the reverse products b_+ b_- on pivot words over one
denominator (`_reverse_words`, straightened once per transpose orbit), the
same products in DCB coordinates (`reverse_dcb`, read from them, one
reduction per coordinate) and the clearing multipliers (`d_multiplier`).
Every coefficient the memos keep goes through the engine's value table
(`scalar.ValueTable`), so equal values share one object, and no kernel may
sum into a stored coefficient in place.
Bar fixes every DCB element and reverses products, so the bar of a member
reads bar(b_- b_+) = b_+ b_- from the same memo.  A solve works in DCB
coordinates, through the double's one K-twist `DoubleContext.twist_terms`
read over labels, and with no `to_dcb` readback; a power of v twists by
`Rat.shift`, no product.  An element is built from coordinates by the
double's kernel `expand_numerators`, over the labels' DCB columns with one
reduction per coefficient, and only where something reads it: every
bullet, and a circ when `Engine.circ` asks or its own proof needs it.
Transpose t, the anti-involution swapping E_i and F_i, sends
b_lm bullet b_lp to b_*lp bullet b_*lm (and circ likewise), *l the label of
the word reversal (`CanonicalTables.reversed_label`).  So one pair of each
transpose orbit is solved and the other relabeled from its record by one
coordinate rule (`Engine._transpose`, the double's
`DoubleContext.transpose_terms` read over labels); reverse products are
relabeled the same way.  A relabeled record skips its member's bar and
`bar_fix`, not its proof: its greedy expansion over the members must be
unitriangular, with corrections on the kind's side that are polynomials in
q (`Engine._certify`), and its element bar-fixed; by Lusztig's lemma it is
then the unique solve.
Every record is proved bar-fixed by one exact word-level check that reads
neither the bar of its member nor bar_fix (`Engine._prove`).  A solved
record, and a pair that is its own partner or has none, is proved over the
memoised reverse products (`Engine._bar_fixed`): bar of its element is the
sum over its coordinates c K b_l2 b_l3 of bar(c), a power of v and K times
b_l3 b_l2 on pivot words, compared with the element by
cross-multiplication (`DoubleContext.matches`); each label's DCB element
is checked bar-fixed once.  A relabeled record ends in
`DoubleContext.is_transpose`: its element is t of its partner's, which is
proved, and bar commutes with t.  A circ met first through the bullet of
its own pair is proved by that bullet's proof alone (`Engine._through_bullet`):
the quotient map onto the circ's Heisenberg quotient is an algebra map that
commutes with bar and sends the bullet to the circ, since every bullet
correction moves the torus slot it kills.
Also structure-constant extraction and basis enumeration: `basis_rows`
solves every bullet of the bound first and then streams the rows, each with
its pair's untwisted bullet, so that a writer twists each row as it renders
it; no twisted row is kept.
`product_expansion_via_coproduct` gives the DCB coordinates of reverse_dcb
by triple coproducts and pairings, no straightening: the two-path check.
Its triple coproducts are memoised per label and sign in the engine.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

from .double import DROPPED_K, TriElem, expand_numerators, fold_groups, kmono, k_is_one, k_one, over_groups
from .halves import PLUS, MINUS
from .scalar import (
    ONE,
    BarInconsistency,
    Laurent,
    Rat,
    RAT_ONE,
    RAT_ZERO,
    ValueTable,
    accumulate,
    add_mul,
    clear_denominators,
    common_denominator,
    cyclotomic_factor,
    laurent_lcm,
    laurent_values,
    nu_power,
    solve_bar_correction,
)


class TriangularityError(ValueError):
    pass


def bar_fix(target_row, candidates, row, side: str, where: str) -> dict:
    """Lusztig's lemma: the unique corrections p_s making E + sum p_s E_s
    bar-fixed, where target_row is the expansion of bar(E) over the family and
    row(u) that of bar(E_u).

    candidates lists the family labels below E, each after every label whose
    bar row it appears in.  Returns s -> p_s (nonzero only), each p_s strictly
    positive (side="positive") or strictly negative (side="negative") in v.
    """
    p: dict = {}
    for s in candidates:
        f = target_row.get(s, RAT_ZERO)
        for u, pu in p.items():
            c = row(u).get(s)
            if c is not None:
                f = f + pu.bar() * c
        if f.is_zero():
            continue
        if not f.is_laurent():
            raise TriangularityError(f"{where}: non-integral datum at {s}: {f}")
        try:
            p[s] = Rat.of(solve_bar_correction(f.as_laurent(), side))
        except BarInconsistency as exc:
            raise TriangularityError(f"{where}: inconsistent bar row at {s}: {exc}") from exc
    return p


def _assert_q_poly(coeff: Rat, where: str):
    lau = coeff.as_laurent()
    if any(k % 2 for k in lau.c):
        raise TriangularityError(f"{where}: coefficient {lau} is not a polynomial in q")


# The two bar-fixed families, per (kind, variant): the kind whose elements
# make the family at K = 1 ("pair" is d * b_- b_+), the flavor the solve runs
# in, the sign of the corrections in v, the torus slot (0 for K_-, 1 for K_+)
# every correction must move, and whether the other slot may move as well.
_KINDS = {
    ("circ", "plus"): ("pair", "heis_plus", "positive", 1, False),
    ("circ", "minus"): ("pair", "heis_minus", "negative", 0, False),
    ("bullet", "plus"): ("circ", "full", "negative", 0, True),
    ("bullet", "minus"): ("circ", "full", "positive", 1, True),
}


def _moves(kind, variant, K) -> bool:
    """The slot rule of the kind's corrections for K = (am, ap)."""
    slot, free = _KINDS[kind, variant][3:]
    return any(K[slot]) and (free or not any(K[1 - slot]))


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


class BasisRow(NamedTuple):
    """One row K diamond (b_- bullet b_+) of a basis table, K = K_minus
    K_plus: the certificate s -> p_s of the bullet's solve and the bullet
    element itself, untwisted."""

    K_minus: tuple
    K_plus: tuple
    b_minus: str
    b_plus: str
    certificate: dict
    bullet: TriElem


def certificate_obj(cert: dict) -> dict:
    """A certificate as text, {str(s): str(p_s)} in the order of repr(s)."""
    return {str(k): str(v) for k, v in sorted(cert.items(), key=repr)}


class Engine:
    """circ/bullet tables for one algebra; memoized per kind and label pair.

    circ(b_-, b_+) is the bar-fixed element over K diamond (d b_- b_+) in a
    Heisenberg quotient, bullet(b_-, b_+) the bar-fixed element over
    K diamond iota(circ) in the full double.  A record (coords, certificate,
    element) is the one memo of a solve, solved over the proved lower
    records of the kind (`_corrections`) or, when the transpose partner
    (*lp, *lm) already has a record, relabeled from it (`_transpose`) and
    proved unitriangular (`_certify`).  The bar of a member reads
    bar(b_- b_+) as the memoised reverse product b_+ b_-, itself relabeled
    from the partner's where that exists.  The engine holds its memos per
    record, label pair or label: the records, the reverse products on
    pivot words and in DCB coordinates, the clearing multipliers, the
    labels whose DCB element is checked bar-fixed, and the triple coproducts of
    `product_expansion_via_coproduct`.  Their coefficients (numerators and
    denominators, coordinates, certificates, element terms, multipliers)
    are stored through one value table that lives with the engine, one
    object per distinct Laurent and Rat.  Pairs with a label that has no
    reversed label, and pairs that are their own partner, are always
    solved.  Each record is proved bar-fixed once (`_prove`): a solve over
    the reverse products on pivot words (`_bar_fixed`), a relabeled record
    by `is_transpose` against its proved partner, and a circ record first
    met through its own pair's bullet by that bullet's proof
    (`_through_bullet`); such a circ record holds no element until `circ`,
    or a proof that reads it, builds it (`_solve`).  No record that is not
    proved stays in the memo.
    """

    def __init__(self, algebra):
        self.ctx = algebra.ctx
        self.datum = algebra.datum
        self.tables = algebra.tables
        self._solved: dict = {}  # (kind, lm, lp, variant) -> (coords, certificate, element)
        self._reverse: dict = {}  # (lm, lp) -> DCB coordinates of b_+ b_- in full
        self._words: dict = {}  # (lm, lp) -> b_+ b_- in full on pivot words, (nums, den)
        self._fixed: set = set()  # labels whose DCB element is checked bar-fixed
        self._triples: dict = {}  # (label, sign) -> triple coproduct over labels
        self._d_memo: dict = {}  # (lm, lp) -> clearing multiplier
        self._values = ValueTable()  # each coefficient of the memos above, stored once

    # ====================================================== clearing multipliers
    def reverse_dcb(self, lab_minus: str, lab_plus: str) -> dict:
        """DCB coordinates (to_dcb) of the reverse product b_+ b_- in `full`,
        memoised per label pair: the commutator expansion d_multiplier
        clears, and the terms the bar of a member is built from.  The
        product on pivot words (`_reverse_words`) goes to DCB coordinates
        (`numerators_to_dcb`), each coordinate reduced once.  Transpose
        sends b_+ b_- to the reverse product of the partner pair (*lp, *lm),
        so once that is known the coordinates are relabeled from it
        (`_transpose`)."""
        key = (lab_minus, lab_plus)
        got = self._reverse.get(key)
        if got is None:
            partner = self._partner(lab_minus, lab_plus)
            if partner in self._reverse:
                got = self._transpose(self._reverse[partner])
            if got is None:
                nums, den = self._reverse_words(lab_minus, lab_plus)
                got = self.tables.numerators_to_dcb({idx: n.c for idx, n in nums.items()}, den)
            got = self._reverse[key] = self._values.terms(got)
        return got

    def _reverse_words(self, lab_minus: str, lab_plus: str) -> tuple:
        """The reverse product b_+ b_- in `full` on pivot words over one
        denominator, (nums, den) with nums {(K, f, e): Laurent}, memoised per
        label pair: the straightened numerators of the product
        (`product_numerators`) or, once the partner (*lp, *lm) has its
        memo, the transpose of the partner's at word level
        (`DoubleContext.transpose_terms` on reversed words), with no
        straightening; either is spread over pivot words (`word_coords`)
        and its groups folded onto one denominator (`fold_groups`)."""
        key = (lab_minus, lab_plus)
        got = self._words.get(key)
        if got is None:
            ctx = self.ctx
            partner = self._partner(lab_minus, lab_plus)
            if partner in self._words:
                nums, den = self._words[partner]
                image = ctx.transpose_terms(nums, lambda w: w[::-1], ctx.half.word_degree)
                nums = {idx: n.c for idx, n in image.items()}
            else:
                bm = self.tables.dcb_elem(MINUS, lab_minus)
                bp = self.tables.dcb_elem(PLUS, lab_plus)
                nums, den = ctx.product_numerators(ctx.from_halves(plus=bp), ctx.from_halves(minus=bm))
            nums, den = fold_groups(expand_numerators(nums, ctx.word_coords), den)
            got = self._words[key] = self._values.terms(nums), self._values.laurent(den)
        return got

    def d_multiplier(self, lab_minus: str, lab_plus: str) -> Laurent:
        """Minimal monic multiplier clearing the commutator expansion of the pair."""
        key = (lab_minus, lab_plus)
        if key in self._d_memo:
            return self._d_memo[key]
        fracs = []
        for (K, lm, lp), c in self.reverse_dcb(lab_minus, lab_plus).items():
            if k_is_one(K):
                continue
            d_low = self.d_multiplier(lm, lp)
            fracs.append(c / Rat.of(d_low))
        d = clear_denominators(fracs)
        # prop:square-roots-style sanity: monic product of Phi_k(q), k >= 3
        if not d.is_one():
            if any(k % 2 for k in d.c):
                raise ValueError(f"multiplier {d} is not a polynomial in q")
            unit, const, cyc, others = cyclotomic_factor(Laurent({k // 2: v for k, v in d.c.items()}))
            if const != 1 or others or any(k < 3 for k, _ in cyc):
                raise ValueError(f"multiplier {d} is not a monic product of admissible cyclotomics")
        d = self._d_memo[key] = self._values.laurent(d)
        return d

    # ================================================================ circ/bullet
    def circ(self, lm: str, lp: str, variant: str = "plus") -> TriElem:
        return self._solve("circ", lm, lp, variant)[2]

    def bullet(self, lm: str, lp: str, variant: str = "plus") -> TriElem:
        return self._solve("bullet", lm, lp, variant)[2]

    def _family_dcb(self, kind, lm, lp, variant) -> dict:
        """DCB coordinates of the kind's element at (lm, lp): the closed form
        {(1, lm, lp): d} for "pair", the solve's record otherwise."""
        if kind == "pair":
            return {(k_one(self.datum.rank), lm, lp): Rat.of(self.d_multiplier(lm, lp))}
        return self._proved(kind, lm, lp, variant)[0]

    def _partner(self, lm, lp):
        """The transpose partner (*lp, *lm) of a label pair, or None when a
        label has no reversed label or the pair is its own partner."""
        rev = self.tables.reversed_label
        partner = (rev(lp), rev(lm))
        if None in partner or partner == (lm, lp):
            return None
        return partner

    def _transpose(self, coords):
        """DCB coordinates of t(x) from those of x, t the transpose
        (`DoubleContext.transpose_terms` over labels): K b_l2 b_l3 goes to
        v^(2 kdif_dot(K, deg l3 - deg l2)) K b_*l3 b_*l2.  None when a label
        has no reversed label."""
        return self.ctx.transpose_terms(coords, self.tables.reversed_label, self.tables.degree_of)

    def _member_bar(self, kind, lm, lp, variant) -> dict:
        """DCB coordinates of bar of the K = 1 member, by linearity from the
        reverse products; no member is barred.

        The member has coordinates c over K b_l2 b_l3 (for circ the one
        pair term {(1, lm, lp): d}, for bullet those of iota(circ)), which
        give bar(c) bar(b_l2 b_l3) K, and K moves to the left past the weight
        deg l3 - deg l2.  Bar is an antilinear anti-automorphism that fixes
        every DCB element, so bar(b_l2 b_l3) = b_l3 b_l2 = reverse_dcb(l2, l3).
        A Heisenberg quotient then drops its zero torus block (the quotient
        map from `full` is an algebra map and commutes with bar).
        """
        below, flavor = _KINDS[kind, variant][:2]
        drop = DROPPED_K.get(flavor)
        out: dict = {}
        for (K, l2, l3), c in self._family_dcb(below, lm, lp, variant).items():
            dif = _sub(self.tables.degree_of(l3), self.tables.degree_of(l2))
            f = c.bar().shift(-2 * self.ctx.kdif_dot(K, dif))
            for (K2, m2, m3), r in self.reverse_dcb(l2, l3).items():
                K3 = self.ctx.k_product(K, K2)
                if drop is None or not any(K3[drop]):
                    accumulate(out, (K3, m2, m3), f * r)
        return out

    def _off_member(self, kind, lm, lp, variant, coords, family, what) -> dict:
        """The greedy expansion of coords minus the pair's K = 1 member over
        the family (`_greedy_expand`, each key checked to be a correction
        label of the pair).  coords must hold the member once: its
        coefficient at (1, lm, lp) over the member's is the diagonal, which
        must be 1."""
        member = self._family_dcb(_KINDS[kind, variant][0], lm, lp, variant)
        rest = dict(coords)
        for idx, c in member.items():
            accumulate(rest, idx, -c)
        one = (k_one(self.datum.rank), lm, lp)
        diag = RAT_ONE + rest.pop(one, RAT_ZERO) / member[one]
        if diag != RAT_ONE:
            raise TriangularityError(f"{what} is not unitriangular: diagonal {diag}, not 1")
        return self._greedy_expand(rest, family, variant, (kind, lm, lp), what)

    def _in_family(self, kind, lm, lp, variant, s) -> bool:
        """Whether s = ((am, ap), l2, l3), its exponents already checked
        nonnegative, is a correction label of the pair: the slot rule, and
        deg l2 = deg lm - alpha, deg l3 = deg lp - alpha for alpha = am + ap."""
        (am, ap), l2, l3 = s
        alpha = _add(am, ap)
        deg = self.tables.degree_of
        return (
            _moves(kind, variant, (am, ap))
            and deg(l2) == _sub(deg(lm), alpha)
            and deg(l3) == _sub(deg(lp), alpha)
        )

    def _solve(self, kind: str, lm: str, lp: str, variant: str) -> tuple:
        """The proved record (coords, certificate, element) of the pair, the
        element built now if the record has none (a circ record proved
        through its bullet)."""
        key = (kind, lm, lp, variant)
        got = self._proved(*key)
        if got[2] is None:
            got = self._solved[key] = (*got[:2], self._element(kind, variant, got[0]))
        return got

    def _proved(self, kind, lm, lp, variant) -> tuple:
        """The record (coords, certificate, element or None) of the
        bar-fixed element member(lm, lp) + sum p_s K_s diamond x_s over the
        proved lower records x_s of the kind (Lusztig's lemma through
        bar_fix, `_corrections`, or the transpose of the partner's record,
        `_certify`): its DCB coordinates, its corrections over the members
        K_s diamond member(s) (the certificate), and the element sum c K
        b_l2 b_l3 in the kind's flavor.  A bullet whose own circ record is
        missing comes from `_through_bullet`, whose circ record gets no
        element; every other record gets its element and one exact proof
        (`_prove`) before it is kept."""
        key = (kind, lm, lp, variant)
        got = self._solved.get(key)
        if got is None:
            if kind == "bullet" and ("circ", lm, lp, variant) not in self._solved:
                return self._through_bullet(lm, lp, variant)
            coords, cert, partner = self._record(*key)
            got = coords, cert, self._element(kind, variant, coords)
            self._prove(key, coords, got[2], partner)
            self._solved[key] = got
        return got

    def _prove(self, key, coords, element, partner):
        """Prove a record's element bar-fixed by one exact word-level check:
        for a record relabeled from its partner's, that the element is t of
        the partner's element, which is proved bar-fixed, and bar commutes
        with t (both composites are antilinear automorphisms that agree on
        E_i, F_i and K); for a solve, that bar of its coordinates over the
        memoised reverse products is the element (`_bar_fixed`)."""
        kind, lm, lp, variant = key
        where = f"{kind}({lm},{lp}) failed bar-invariance"
        if partner is None:
            if not self._bar_fixed(coords, element):
                raise TriangularityError(where)
        elif not self.ctx.is_transpose(element, self._solve(kind, *partner, variant)[2]):
            raise TriangularityError(f"{where}: it is not the transpose of {kind}({partner[0]},{partner[1]})")

    def _bar_fixed(self, coords, element) -> bool:
        """bar(x) == x for the element x = sum c K b_l2 b_l3 of coordinates
        in its flavor, decided at word level.  Bar is an antilinear
        anti-automorphism that fixes K and, as `_check_fixed` checks once per
        label, every DCB element, so bar(c K b_l2 b_l3) is
        bar(c) v^(-2 kdif_dot(K, deg l3 - deg l2)) K b_l3 b_l2, the reverse
        product on pivot words (`_reverse_words`) times K.  The torus block
        the flavor drops is dropped, as in `_member_bar`.  The sum goes over
        one denominator, the coordinates' times the lcm of the memos', each
        coordinate's numerator times its memo's cofactor (an exact
        division), and is compared with the element's coefficients by
        cross-multiplication (`DoubleContext.matches`), with nothing
        reduced.  This reads straightening and the pivot normal form, not
        `numerators_to_dcb`, the member's bar or `bar_fix`; that x is the
        sum of its coordinates holds by construction (`_element`)."""
        ctx, deg = self.ctx, self.tables.degree_of
        drop = DROPPED_K.get(element.flavor)
        nums, den = common_denominator(list(coords.values()))
        memos = [self._reverse_words(l2, l3) for _, l2, l3 in coords]
        lcm = laurent_lcm({d for _, d in memos})
        acc: dict = {}
        for (K, l2, l3), n, (words, d) in zip(coords, nums, memos):
            self._check_fixed(l2)
            self._check_fixed(l3)
            nb = n.bar() if d == lcm else n.bar() * lcm.exact_div(d)
            shift = -2 * ctx.kdif_dot(K, _sub(deg(l3), deg(l2)))
            for (K2, f, e), w in words.items():
                K3 = ctx.k_product(K, K2)
                if drop is None or not any(K3[drop]):
                    add_mul(acc.setdefault((K3, f, e), {}), nb.c, w.c, shift)
        return ctx.matches({(ONE, ONE): laurent_values(acc)}, den.bar() * lcm, element)

    def _check_fixed(self, label):
        """Raise unless bar fixes the label's DCB element, checked once per
        label and engine.  Bar commutes with flip, so the E-side element is
        then fixed too."""
        if label not in self._fixed:
            b = self.tables.dcb_elem(MINUS, label)
            if self.ctx.half.bar(b) != b:
                raise TriangularityError(f"DCB element {label} is not bar-fixed")
            self._fixed.add(label)

    def _through_bullet(self, lm, lp, variant) -> tuple:
        """The bullet record of the pair, solved over its own circ record,
        which is recorded with no element and proved by the bullet's proof
        alone.  The bullet's coordinates are the circ's plus corrections
        whose K_- slot (K_+ for "minus") is nonzero, as the slot rule
        (`_in_family`) checks on every solve and `_certify`, so the quotient
        map onto the circ's Heisenberg quotient sends the bullet to the
        circ; it is an algebra map that commutes with bar, so the circ is
        bar-fixed once the bullet is.  On any failure no record of the pair
        stays cached, and a TriangularityError first runs the circ's own
        proof (`_bar_fixed`) on its element, so a wrong circ fails as it
        would alone."""
        own, bullet = ("circ", lm, lp, variant), ("bullet", lm, lp, variant)
        coords, cert, _ = self._record(*own)
        self._solved[own] = coords, cert, None
        try:
            return self._proved(*bullet)
        except BaseException as exc:
            del self._solved[own]
            self._solved.pop(bullet, None)
            if isinstance(exc, TriangularityError) and not self._bar_fixed(coords, self._element("circ", variant, coords)):
                raise TriangularityError(f"circ({lm},{lp}) failed bar-invariance") from exc
            raise

    def _record(self, kind, lm, lp, variant) -> tuple:
        """(coords, certificate, partner) of the pair, not yet proved
        bar-fixed.  Transpose maps the kind's element at (lm, lp) to the one
        at the partner (*lp, *lm), so once the partner's record exists the
        coordinates are relabeled from it (`_transpose`), proved
        unitriangular (`_certify`) in place of a solve, and partner names
        it; otherwise `_corrections` solves and partner is None.  The
        coordinates and certificate come with their coefficients stored in
        the value table."""
        partner = self._partner(lm, lp)
        record = self._solved.get((kind, *partner, variant)) if partner else None
        coords = self._transpose(record[0]) if record else None
        if coords is not None:
            cert = self._certify(kind, lm, lp, variant, coords)
        else:
            cert, coords = self._corrections(kind, lm, lp, variant)
            partner = None
        return self._values.terms(coords), self._values.terms(cert), partner

    def _element(self, kind, variant, coords) -> TriElem:
        """The element of DCB coordinates in the kind's flavor, built over
        one denominator and spread by `expand_numerators` over the labels'
        DCB columns (`CanonicalTables.dcb_column`), each coefficient reduced
        once and stored in the value table."""
        nums, den = common_denominator(list(coords.values()))
        groups = expand_numerators({idx: n.c for idx, n in zip(coords, nums)}, self.tables.dcb_column)
        terms = self._values.terms(over_groups(groups, den))
        return TriElem(self.ctx, _KINDS[kind, variant][1], terms, normalized=True)

    def _corrections(self, kind, lm, lp, variant) -> tuple:
        """Lusztig's lemma for the pair over the lower records of its own
        kind, each already proved bar-fixed.  bar(m) - m of the member m
        expands over them as sum a_s K_s diamond x_s (`_off_member`), so
        m + sum p_s K_s diamond x_s is bar-fixed when p_s - bar(p_s) = a_s:
        bar_fix with every lower bar row zero.  Returns the certificate,
        the corrections over the members (p_s, plus p_s times each entry of
        x_s's certificate moved by K_s, as K diamond K' diamond y =
        KK' diamond y), and the DCB coordinates of the record."""
        below, _, side = _KINDS[kind, variant][:3]
        where = f"{kind}({lm},{lp})"
        found = self._off_member(kind, lm, lp, variant, self._member_bar(kind, lm, lp, variant), kind, f"bar of {where}")
        coords, cert = dict(self._family_dcb(below, lm, lp, variant)), {}
        for s, p in bar_fix(found, list(found), lambda _: {}, side, where).items():
            (am, ap), l2, l3 = s
            lower, lower_cert = self._proved(kind, l2, l3, variant)[:2]
            accumulate(cert, s, p)
            for ((bm, bp), m2, m3), c in lower_cert.items():
                accumulate(cert, ((_add(am, bm), _add(ap, bp)), m2, m3), p * c)
            for idx, c in self.ctx.twist_terms(kmono(am, ap), lower, self.tables.degree_of).items():
                accumulate(coords, idx, p * c)
        for s, p in cert.items():
            _assert_q_poly(p, f"{where} correction at {s}")
        return cert, coords

    def _certify(self, kind, lm, lp, variant, coords) -> dict:
        """The corrections of transported coordinates: their expansion over
        the kind's members (`_off_member`), each a Laurent polynomial in q
        strictly on the kind's side in v.  With the bar-invariance check
        that follows, Lusztig's lemma makes the record the unique solve."""
        below, _, side = _KINDS[kind, variant][:3]
        where = f"{kind}({lm},{lp})"
        cert = self._off_member(kind, lm, lp, variant, coords, below, where)
        positive = side == "positive"
        for s, p in cert.items():
            if not (p.is_laurent() and all(k > 0 if positive else k < 0 for k in p.num.c)):
                raise TriangularityError(f"{where} correction at {s}: {p} is not strictly {side} in v")
            _assert_q_poly(p, f"{where} correction at {s}")
        return cert

    def expand_in_bullet_family(self, expansion: dict, variant: str = "plus") -> dict:
        """Plain DCB coordinates of a full element over K diamond bullet."""
        return self._greedy_expand(expansion, "bullet", variant)

    def _greedy_expand(self, expansion: dict, kind: str, variant: str, owner=None, what="") -> dict:
        """Coordinates over the family K diamond (kind element); greedy along
        growing torus height.  Given owner = (kind2, lm, lp), each key must
        be a correction label of kind2 at the pair (`_in_family`), checked
        before the key's family element is read, and so solved: an
        expansion that leaves the family raises instead of reaching for a
        record at or above the pair."""
        remaining = dict(expansion)
        out = {}
        while remaining:
            key = min(
                remaining,
                key=lambda k: (sum(k[0][0]), sum(k[0][1]), k[0][0], k[0][1], k[1], k[2]),
            )
            (K, l2, l3) = key
            am, ap, tag = K
            if any(tag) or any(x < 0 for x in am) or any(x < 0 for x in ap):
                raise TriangularityError(f"expansion outside the basis cone at {key}")
            s = ((am, ap), l2, l3)
            if owner and not self._in_family(*owner, variant, s):
                raise TriangularityError(f"{what} leaves the family at {s}")
            twisted = self.ctx.twist_terms(K, self._family_dcb(kind, l2, l3, variant), self.tables.degree_of)
            coeff = remaining[key] / twisted[key]
            out[s] = coeff
            for idx, c in twisted.items():
                accumulate(remaining, idx, -coeff * c)
        return out

    # ======================================================== structure constants
    def structure_constants(self, lm: str, lp: str):
        """Expansion of d * b_- b_+ over K diamond (b'_- bullet b'_+); its DCB
        coordinates are {(1, lm, lp): d} by definition (the "pair" family).

        Returns (coefficients, positivity report); integrality is asserted,
        positivity only reported.
        """
        coeffs = self.expand_in_bullet_family(self._family_dcb("pair", lm, lp, "plus"))
        report = {"positive": True, "violations": []}
        out = {}
        for idx, c in coeffs.items():
            if not c.is_laurent():
                raise TriangularityError(f"structure constant at {idx} not Laurent: {c}")
            lau = c.as_laurent()
            _assert_q_poly(c, f"structure constant at {idx}")
            out[idx] = c
            if any(v < 0 for v in lau.c.values()):
                report["positive"] = False
                report["violations"].append((idx, lau))
        return out, report

    # ================================================================ enumeration
    def basis_rows(self, bound, j_minus=None, j_plus=None):
        """The rows K diamond (b_- bullet b_+) within the componentwise bound,
        with the biparabolic support filter, as a stream of `BasisRow` in
        sorted (K_minus, K_plus, b_minus, b_plus) order.  Every bullet is
        solved before this returns, lower total height first, so each circ
        record is first met through its own pair's bullet
        (`_through_bullet`) and every lower member is already proved.  A row
        carries its pair's certificate and proved bullet element as the
        record holds them, untwisted: no row builds or keeps an element."""
        entries = self._basis_entries(tuple(bound), j_minus, j_plus)
        degree = self.tables.degree_of
        pairs = sorted({(lm, lp) for _, _, lm, lp in entries})
        for lm, lp in sorted(pairs, key=lambda pair: sum(degree(pair[0]) + degree(pair[1]))):
            self.bullet(lm, lp)
        return (BasisRow(am, ap, lm, lp, *self._solve("bullet", lm, lp, "plus")[1:]) for am, ap, lm, lp in entries)

    def _basis_entries(self, bound, j_minus, j_plus) -> list:
        """The sorted (am, ap, lm, lp) of the rows within the bound."""
        rank = self.datum.rank
        entries = []
        for am in self.datum.degrees_up_to(bound):
            rest_m = tuple(b - a for b, a in zip(bound, am))
            for ap in self.datum.degrees_up_to(rest_m):
                shift = tuple(a + b for a, b in zip(am, ap))
                room = tuple(b - s for b, s in zip(bound, shift))
                for gm in self.datum.degrees_up_to(room):
                    if j_minus is not None and any(
                        gm[k] for k in range(rank) if k not in j_minus
                    ):
                        continue
                    for gp in self.datum.degrees_up_to(room):
                        if j_plus is not None and any(
                            gp[k] for k in range(rank) if k not in j_plus
                        ):
                            continue
                        for lmm in self.tables.labels_of_degree(gm):
                            for lpp in self.tables.labels_of_degree(gp):
                                entries.append((am, ap, lmm, lpp))
        entries.sort()
        return entries

    def enumerate_basis(self, bound, j_minus=None, j_plus=None) -> list:
        """The rows of `basis_rows` as a list of dicts, each element built
        by this call as K diamond bullet (`DoubleContext.diamond`) and not
        memoised, and each certificate as text (`certificate_obj`)."""
        return [
            {
                "K_minus": list(row.K_minus),
                "K_plus": list(row.K_plus),
                "b_minus": row.b_minus,
                "b_plus": row.b_plus,
                "element": self.ctx.diamond(kmono(row.K_minus, row.K_plus), row.bullet),
                "certificate": certificate_obj(row.certificate),
            }
            for row in self.basis_rows(bound, j_minus, j_plus)
        ]

    def certificate(self, kind: str, lm: str, lp: str, variant: str = "plus") -> dict:
        """The corrections s -> p_s of the solve, solving on demand."""
        return self._proved(kind, lm, lp, variant)[1]


# ---------------------------------------------------------------------------
# the coproduct-pairing route to the product expansion (two-path check)
# ---------------------------------------------------------------------------

def product_expansion_via_coproduct(algebra, lm: str, lp: str) -> dict:
    """b_+ b_- in DCB coordinates {(K, l_-, l_+): c}, the form of
    `Engine.reverse_dcb`, computed through triple coproducts and pairings
    only: independent of the straightening path.

    A term K_-^|m3| (b''_- b''_+) K_+^|p3| is the coordinate
    (K_-^|m3| K_+^|p3|, m2, p2) once K_+^|p3| has moved left past the
    weight |m2| - |p2|: a factor v^(2 kdif_dot(K_+^|p3|, |m2| - |p2|)), that
    is v^(2 |p3| . (|m2| - |p2|)).  The pairings are memoised per label
    pair, and the DCB coordinates of each slot word (`half_to_dcb`) per
    word.
    """
    half = algebra.half
    tables = algebra.tables
    datum = algebra.datum
    triples, values = algebra.engine._triples, algebra.engine._values

    def triple_dcb(label, sign):
        got = triples.get((label, sign))
        if got is None:
            got = triples[label, sign] = values.terms(expand_triple(label, sign))
        return got

    def expand_triple(label, sign):
        elem = tables.dcb_elem(sign, label)
        # expand (Delta x 1) Delta on the word level
        acc = {}
        for w, c in elem.terms.items():
            for weight1, left, right in half.coproduct_word(w):
                for weight2, l1, l2 in half.coproduct_word(left):
                    sets = (l1, l2, right)
                    coeff = c * nu_power(weight1 + weight2)
                    accumulate(acc, sets, coeff)
        # convert words to labels per slot
        out = {}
        for (w1, w2, w3), c in acc.items():
            for la, ca in word_dcb(w1).items():
                for lb, cb in word_dcb(w2).items():
                    for lc, cc in word_dcb(w3).items():
                        key = (la, lb, lc)
                        accumulate(out, key, c * ca * cb * cc)
        return out

    @functools.cache
    def word_dcb(w):
        # F-words and E-words share their DCB coordinates
        return tables.half_to_dcb(half.element(MINUS, {w: RAT_ONE}))

    @functools.cache
    def pair_antipode(p3, m1):
        # <b'_-, S^-1(b'''_+)>
        d3p = tables.degree_of(p3)
        s_inv = half.star(tables.dcb_elem(PLUS, p3)).scale(
            Rat.of((-1) ** sum(d3p)) * nu_power(-2 * datum.ulgamma(d3p))
        )
        return half.pair(s_inv, tables.dcb_elem(MINUS, m1))

    @functools.cache
    def pair_plain(p1, m3):
        # <b'''_-, b'_+>
        return half.pair(tables.dcb_elem(PLUS, p1), tables.dcb_elem(MINUS, m3))

    trip_p = triple_dcb(lp, PLUS)
    trip_m = triple_dcb(lm, MINUS)
    total: dict = {}
    for (p1, p2, p3), cp in trip_p.items():
        d1p, d2p, d3p = (tables.degree_of(x) for x in (p1, p2, p3))
        for (m1, m2, m3), cm in trip_m.items():
            d1m, d2m, d3m = (tables.degree_of(x) for x in (m1, m2, m3))
            # pairing supports
            if d1m != d3p or d3m != d1p:
                continue
            pair1 = pair_antipode(p3, m1)
            if pair1.is_zero():
                continue
            pair2 = pair_plain(p1, m3)
            if pair2.is_zero():
                continue
            weight = 2 * datum.dot(d3p, _sub(d2m, d2p))
            weight -= 2 * (datum.dot(d2m, d1m) + datum.dot(d2m, d3m) + datum.dot(d3m, d1m))
            accumulate(total, (kmono(d3m, d3p), m2, p2), cp * cm * nu_power(weight) * pair1 * pair2)
    return total

"""The equivariant bar-correction engine and its two applications: the
circle product in the Heisenberg quotient and the bullet product in the full
double, together with structure-constant extraction and basis enumeration.
"""
from __future__ import annotations

import functools

from .double import TriElem, kmono, k_mul
from .halves import PLUS, MINUS
from .scalar import Laurent, Rat, RAT_ZERO, accumulate, nu_power, solve_bar_correction


class TriangularityError(ValueError):
    pass


def toposort(labels, row_fn):
    """Deterministic topological order: s before t whenever row(t)[s] != 0.

    Preserves the incoming label order among incomparable elements; raises on
    cycles (bar matrix not unitriangular).
    """
    deps = {t: set() for t in labels}
    for t in labels:
        row = row_fn(t)
        diag = row.get(t)
        if diag is None or not (Rat.of(diag) == Rat.of(1)):
            raise TriangularityError(f"bar matrix diagonal at {t} is {diag}, not 1")
        for s, c in row.items():
            if s != t and not Rat.of(c).is_zero():
                deps[t].add(s)
    out = []
    done = set()
    marked = set()

    def visit(t):
        if t in done:
            return
        if t in marked:
            raise TriangularityError(f"bar matrix has a cycle through {t}")
        marked.add(t)
        for s in sorted(deps[t], key=labels.index):
            visit(s)
        marked.discard(t)
        done.add(t)
        out.append(t)

    for t in labels:
        visit(t)
    return out


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
        p[s] = Rat.of(solve_bar_correction(f.as_laurent(), side))
    return p


def ll_solve(order, row_fn, side: str):
    """Unique bar-fixed corrections over a unitriangular family.

    order: labels listed lower-first (as produced by toposort); row_fn(t) is
    the expansion of bar(E_t) over the family.  Returns, per target t, a dict
    s -> p_s with C_t = E_t + sum p_s E_s bar-fixed (see bar_fix).
    """

    @functools.cache
    def row(t):
        return {s: Rat.of(c) for s, c in row_fn(t).items()}

    return {
        t: bar_fix(row(t), reversed(order[:k]), row, side, f"target {t}")
        for k, t in enumerate(order)
    }


def _assert_q_poly(coeff: Rat, where: str):
    lau = coeff.as_laurent()
    if any(k % 2 for k in lau.c):
        raise TriangularityError(f"{where}: coefficient {lau} is not a polynomial in q")


class Engine:
    """circ/bullet tables for one algebra; memoized per label pair."""

    def __init__(self, algebra):
        self.alg = algebra
        self.ctx = algebra.ctx
        self.half = algebra.half
        self.datum = algebra.datum
        self._circ: dict = {}
        self._bullet: dict = {}
        self._circ_dcb: dict = {}
        self._bullet_dcb: dict = {}
        self._circ_bar_row: dict = {}
        self._bullet_bar_row: dict = {}
        self._certificates: dict = {}

    # -- shared helpers -----------------------------------------------------
    @property
    def tables(self):
        return self.alg.tables

    def d(self, lm, lp) -> Laurent:
        return self.ctx.d_multiplier(lm, lp)

    def _pair_tri(self, lm, lp, flavor) -> TriElem:
        bm = self.tables.dcb_elem(MINUS, lm)
        bp = self.tables.dcb_elem(PLUS, lp)
        return self.ctx.from_halves(minus=bm, plus=bp, flavor=flavor)

    def _dcb_terms(self, x: TriElem) -> dict:
        return self.ctx.to_dcb(x).terms

    # ===================================================================== circ
    def circ(self, lm: str, lp: str, variant: str = "plus") -> TriElem:
        key = (lm, lp, variant)
        if key in self._circ:
            return self._circ[key]
        side = "positive" if variant == "plus" else "negative"
        flavor = "heis_plus" if variant == "plus" else "heis_minus"
        kslot = 1 if variant == "plus" else 0
        gm = self.tables.degree_of(lm)
        gp = self.tables.degree_of(lp)
        mins = tuple(min(a, b) for a, b in zip(gm, gp))
        alphas = self.datum.degrees_up_to(mins)
        index_order = []
        for alpha in alphas:
            if not any(alpha):
                continue
            gm2 = tuple(a - b for a, b in zip(gm, alpha))
            gp2 = tuple(a - b for a, b in zip(gp, alpha))
            for l2 in self.tables.labels_of_degree(gm2):
                for l3 in self.tables.labels_of_degree(gp2):
                    index_order.append((alpha, l2, l3))

        def bar_row0(l2, l3):
            rkey = (l2, l3, variant)
            got = self._circ_bar_row.get(rkey)
            if got is not None:
                return got
            base = self._pair_tri(l2, l3, flavor).scale(self.d(l2, l3))
            expansion = self._dcb_terms(self.ctx.bar(base))
            row = self._family_coords_circ(expansion, kslot)
            self._circ_bar_row[rkey] = row
            return row

        @functools.cache
        def row_of(idx):
            alpha, l2, l3 = idx
            return {
                (tuple(a + b for a, b in zip(alpha, beta)), m2, m3): c
                for (beta, m2, m3), c in bar_row0(l2, l3).items()
            }

        solved = bar_fix(bar_row0(lm, lp), index_order, row_of, side, f"circ({lm},{lp})")
        for s, p in solved.items():
            _assert_q_poly(p, f"circ({lm},{lp}) correction at {s}")

        result = self._pair_tri(lm, lp, flavor).scale(self.d(lm, lp))
        rank = self.datum.rank
        for (alpha, l2, l3), p in solved.items():
            kvec = kmono(alpha, (0,) * rank) if variant != "plus" else kmono((0,) * rank, alpha)
            base = self._pair_tri(l2, l3, flavor).scale(self.d(l2, l3))
            result = result + self.ctx.diamond(kvec, base).scale(p)
        if self.ctx.bar(result) != result:
            raise TriangularityError(f"circ({lm},{lp}) failed bar-invariance")
        self._certificates[("circ", lm, lp, variant)] = solved
        self._circ[key] = result
        return result

    def _family_coords_circ(self, expansion: dict, kslot: int) -> dict:
        """Plain DCB coordinates -> circ-family coordinates (diamond twist and
        clearing multiplier divided out)."""
        out = {}
        for (K, l2, l3), c in expansion.items():
            other = K[0] if kslot == 1 else K[1]
            if any(other) or any(K[2]):
                raise TriangularityError("Heisenberg expansion leaked a forbidden torus part")
            alpha = K[kslot]
            dif = tuple(
                a - b
                for a, b in zip(self.tables.degree_of(l3), self.tables.degree_of(l2))
            )
            sign = 1 if kslot == 1 else -1
            coeff = c * nu_power(sign * self.datum.dot(alpha, dif)) / Rat.of(self.d(l2, l3))
            out[(alpha, l2, l3)] = coeff
        return out

    def circ_dcb(self, lm, lp, variant: str = "plus") -> dict:
        key = (lm, lp, variant)
        if key not in self._circ_dcb:
            self._circ_dcb[key] = self._dcb_terms(
                self.circ(lm, lp, variant).with_flavor("full")
            )
        return self._circ_dcb[key]

    # =================================================================== bullet
    def bullet(self, lm: str, lp: str, variant: str = "plus") -> TriElem:
        key = (lm, lp, variant)
        if key in self._bullet:
            return self._bullet[key]
        side = "negative" if variant == "plus" else "positive"
        corr_slot = 0 if variant == "plus" else 1
        gm = self.tables.degree_of(lm)
        gp = self.tables.degree_of(lp)
        mins = tuple(min(a, b) for a, b in zip(gm, gp))
        index_order = []
        for am in self.datum.degrees_up_to(mins):
            rest = tuple(a - b for a, b in zip(mins, am))
            for ap in self.datum.degrees_up_to(rest):
                alpha = tuple(a + b for a, b in zip(am, ap))
                corr = am if corr_slot == 0 else ap
                if not any(corr):
                    continue
                gm2 = tuple(a - b for a, b in zip(gm, alpha))
                gp2 = tuple(a - b for a, b in zip(gp, alpha))
                for l2 in self.tables.labels_of_degree(gm2):
                    for l3 in self.tables.labels_of_degree(gp2):
                        index_order.append(((am, ap), l2, l3))
        index_order.sort(key=lambda idx: (sum(idx[0][corr_slot]), sum(idx[0][1 - corr_slot]), idx[0], idx[1], idx[2]))

        def bar_row0(l2, l3):
            rkey = (l2, l3, variant)
            got = self._bullet_bar_row.get(rkey)
            if got is not None:
                return got
            base = self.circ(l2, l3, variant).with_flavor("full")
            row = self.expand_in_circ_family(self._dcb_terms(self.ctx.bar(base)), variant)
            self._bullet_bar_row[rkey] = row
            return row

        @functools.cache
        def row_of(idx):
            (am, ap), l2, l3 = idx
            return {
                ((tuple(x + y for x, y in zip(am, bm_)), tuple(x + y for x, y in zip(ap, bp_))), m2, m3): c
                for ((bm_, bp_), m2, m3), c in bar_row0(l2, l3).items()
            }

        solved = bar_fix(bar_row0(lm, lp), index_order, row_of, side, f"bullet({lm},{lp})")
        for s, p in solved.items():
            _assert_q_poly(p, f"bullet({lm},{lp}) correction at {s}")

        result = self.circ(lm, lp, variant).with_flavor("full")
        for ((am, ap), l2, l3), p in solved.items():
            base = self.circ(l2, l3, variant).with_flavor("full")
            result = result + self.ctx.diamond(kmono(am, ap), base).scale(p)
        if self.ctx.bar(result) != result:
            raise TriangularityError(f"bullet({lm},{lp}) failed bar-invariance")
        self._certificates[("bullet", lm, lp, variant)] = solved
        self._bullet[key] = result
        return result

    def bullet_dcb(self, lm, lp, variant: str = "plus") -> dict:
        key = (lm, lp, variant)
        if key not in self._bullet_dcb:
            self._bullet_dcb[key] = self._dcb_terms(self.bullet(lm, lp, variant))
        return self._bullet_dcb[key]

    def expand_in_circ_family(self, expansion: dict, variant: str = "plus") -> dict:
        """Expand plain DCB coordinates of a full element over the family
        K_(am,ap) diamond iota(circ); greedy along growing torus height."""
        return self._greedy_expand(expansion, self.circ_dcb, variant)

    def expand_in_bullet_family(self, expansion: dict, variant: str = "plus") -> dict:
        return self._greedy_expand(expansion, self.bullet_dcb, variant)

    def _greedy_expand(self, expansion: dict, table_fn, variant: str) -> dict:
        remaining = {k: v for k, v in expansion.items() if not v.is_zero()}
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
            dif = tuple(
                a - b
                for a, b in zip(self.tables.degree_of(l3), self.tables.degree_of(l2))
            )
            lead = Rat.of(self.d(l2, l3)) * nu_power(-self.ctx.kdif_dot(K, dif))
            coeff = remaining[key] / lead
            out[((am, ap), l2, l3)] = coeff
            for (K2, m2, m3), c in table_fn(l2, l3, variant).items():
                dif2 = tuple(
                    a - b
                    for a, b in zip(self.tables.degree_of(m3), self.tables.degree_of(m2))
                )
                shifted = (k_mul(K, K2), m2, m3)
                val = coeff * c * nu_power(-self.ctx.kdif_dot(K, dif2))
                accumulate(remaining, shifted, -val)
        return out

    # ======================================================== structure constants
    def structure_constants(self, lm: str, lp: str):
        """Expansion of d * b_- b_+ over K diamond (b'_- bullet b'_+).

        Returns (coefficients, positivity report); integrality is asserted,
        positivity only reported.
        """
        prod = self.ctx.multiply(
            self.ctx.from_halves(minus=self.tables.dcb_elem(MINUS, lm), flavor="full"),
            self.ctx.from_halves(plus=self.tables.dcb_elem(PLUS, lp), flavor="full"),
        ).scale(self.d(lm, lp))
        coeffs = self.expand_in_bullet_family(self._dcb_terms(prod))
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
    def enumerate_basis(self, bound, j_minus=None, j_plus=None):
        """All K diamond (b_- bullet b_+) within the componentwise bound,
        with the biparabolic support filter."""
        bound = tuple(bound)
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
        out = []
        for am, ap, lmm, lpp in entries:
            elem = self.ctx.diamond(kmono(am, ap), self.bullet(lmm, lpp))
            cert = self._certificates.get(("bullet", lmm, lpp, "plus"), {})
            out.append(
                {
                    "K_minus": list(am),
                    "K_plus": list(ap),
                    "b_minus": lmm,
                    "b_plus": lpp,
                    "element": elem,
                    "certificate": {
                        str(k): str(v) for k, v in sorted(cert.items(), key=repr)
                    },
                }
            )
        return out

    def certificate(self, kind: str, lm: str, lp: str, variant: str = "plus"):
        return self._certificates.get((kind, lm, lp, variant), {})


# ---------------------------------------------------------------------------
# the coproduct-pairing route to the product expansion (two-path check)
# ---------------------------------------------------------------------------

def product_expansion_via_coproduct(algebra, lm: str, lp: str) -> TriElem:
    """b_+ b_- computed through triple coproducts and pairings only.

    Independent of the straightening path; returns the triangular form
    sum F K_(am,ap) b''_- b''_+ rebuilt as a TriElem.
    """
    half = algebra.half
    tables = algebra.tables
    datum = algebra.datum
    ctx = algebra.ctx

    def triple_dcb(label, sign):
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
            d1 = half.word_degree(w1)
            d2 = half.word_degree(w2)
            d3 = half.word_degree(w3)
            for la, ca in tables.word_to_dcb(sign, d1)[w1].items():
                for lb, cb in tables.word_to_dcb(sign, d2)[w2].items():
                    for lc, cc in tables.word_to_dcb(sign, d3)[w3].items():
                        key = (la, lb, lc)
                        accumulate(out, key, c * ca * cb * cc)
        return out

    trip_p = triple_dcb(lp, PLUS)
    trip_m = triple_dcb(lm, MINUS)
    total = ctx.zero("full")
    for (p1, p2, p3), cp in trip_p.items():
        d1p, d2p, d3p = (tables.degree_of(x) for x in (p1, p2, p3))
        for (m1, m2, m3), cm in trip_m.items():
            d1m, d2m, d3m = (tables.degree_of(x) for x in (m1, m2, m3))
            # pairing supports
            if d1m != d3p or d3m != d1p:
                continue
            # <b'_-, S^-1(b'''_+)> and <b'''_-, b'_+>
            e3p = tables.dcb_elem(PLUS, p3)
            s_inv = half.star(e3p).scale(
                Rat.of((-1) ** sum(d3p)) * nu_power(-2 * datum.ulgamma(d3p))
            )
            pair1 = half.pair(s_inv, tables.dcb_elem(MINUS, m1))
            if pair1.is_zero():
                continue
            pair2 = half.pair(tables.dcb_elem(PLUS, p1), tables.dcb_elem(MINUS, m3))
            if pair2.is_zero():
                continue
            weight = nu_power(
                -2 * (datum.dot(d2m, d1m) + datum.dot(d2m, d3m) + datum.dot(d3m, d1m))
            )
            coeff = cp * cm * weight * pair1 * pair2
            K = kmono(d3m, d3p)
            term = ctx.from_halves(
                minus=tables.dcb_elem(MINUS, m2),
                plus=tables.dcb_elem(PLUS, p2),
                flavor="full",
            )
            total = total + ctx.multiply(
                ctx.multiply(ctx.k_elem(kmono(d3m, (0,) * datum.rank)), term),
                ctx.k_elem(kmono((0,) * datum.rank, d3p)),
            ).scale(coeff)
    return total

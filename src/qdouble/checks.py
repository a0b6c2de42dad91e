"""Identity suites shared by the command-line verifier and the acceptance
tests.  Every suite is called with the seed (the seeded suites draw their
random cases from it, up front) and yields one record (name, ok, detail)
per identity.  Every record is built by `holds` from the identity's cases
in order: the first case that fails ends the fold, and the failing
record's detail names that case.  The printed tables are data, written term
by term, with q^k = v^(2k) as `nu_power(2k)`.  Nothing here mutates state
beyond the algebra caches."""
from __future__ import annotations

import json
import random

from . import linalg
from .algebra import Algebra
from .braid import tame_apply
from .cartan import CartanDatum
from .double import TriElem, kmono, tri_to_obj
from .halves import PLUS, MINUS, HalfElem
from .lusztig import TriangularityError, bar_fix, product_expansion_via_coproduct
from .rst import RSTMap, sl2_module, sp4_module, vector_module
from .scalar import (
    ONE,
    Laurent,
    Rat,
    RAT_ONE,
    RAT_ZERO,
    nu_power,
    qangle,
    qangle_factorial,
    qround,
    qround_binom,
    qsq,
    qsq_binom,
)
from .sl2oracle import SL2Oracle


def holds(name: str, cases, detail: str = ""):
    """The record (name, ok, detail) of one identity over its (case, ok)
    pairs, taken in order up to the first that fails: the record then fails
    and its detail names that case.  A passing record keeps `detail`."""
    for case, ok in cases:
        if not ok:
            return name, False, f"first failing case: {case}"
    return name, True, detail


def bracket_plus(p: Laurent) -> Rat:
    """[f]_+: strictly positive v-exponent part."""
    return Rat.of(Laurent({k: v for k, v in p.c.items() if k > 0}))


def bracket_minus(p: Laurent) -> Rat:
    return Rat.of(Laurent({k: v for k, v in p.c.items() if k < 0}))


_R2A3 = None


def r2a3() -> Algebra:
    """The symmetric rank-2 datum with a_ij = a_ji = -3 (equal-d family, a=3)."""
    global _R2A3
    if _R2A3 is None:
        _R2A3 = Algebra(CartanDatum(("1", "2"), ((2, -3), (-3, 2)), (1, 1), name="R2a3"))
    return _R2A3


class Builder:
    """Shorthand for assembling expected triangular elements."""

    def __init__(self, alg: Algebra, flavor: str = "full"):
        self.alg = alg
        self.flavor = flavor
        self.acc = alg.ctx.zero(flavor)

    def _k(self, km, kp):
        """K_-^km K_+^kp, an omitted side being K^0."""
        zero = (0,) * self.alg.datum.rank
        return kmono(tuple(km or zero), tuple(kp or zero))

    def add(self, coeff, km=None, kp=None, minus: HalfElem | None = None, plus: HalfElem | None = None):
        term = self.alg.ctx.from_halves(minus=minus, plus=plus, K=self._k(km, kp), flavor=self.flavor)
        self.acc = self.acc + term.scale(coeff)
        return self

    def add_elem(self, coeff, elem: TriElem, km=None, kp=None):
        ctx = self.alg.ctx
        scaled = ctx.multiply(ctx.k_elem(self._k(km, kp), self.flavor), elem.with_flavor(self.flavor))
        self.acc = self.acc + scaled.scale(coeff)
        return self

    def value(self) -> TriElem:
        return self.acc


def _interval(half, a, b):
    """E_[a,b] of sl_(n+1), 1-indexed inclusive; 1 when a > b."""
    if a > b:
        return half.unit(PLUS)
    out_e = half.gen(PLUS, b - 1)
    for idx in range(b - 2, a - 2, -1):
        gd = half.gen_divided(PLUS, idx, 1)
        out_e = (out_e * gd).scale(nu_power(1)) - (gd * out_e).scale(nu_power(-1))
    return out_e


def _e2112(b2):
    """E_2112 of B2: E_2 E_112 - q^2 E_12 E_12."""
    half = b2.half
    e12 = half.flip(b2.tables.two_letter_dcb(0, 1, 1, 0))
    e112 = half.flip(b2.tables.two_letter_dcb(0, 1, 2, 0))
    return half.gen(PLUS, 1) * e112 - (e12 * e12).scale(nu_power(4))


def _two_letter(alg, i, j, s, r):
    elem = alg.tables.two_letter_dcb(i, j, s, r)
    return alg.label_of(MINUS, elem), elem


def _product(name, op, lm, lp, want):
    """The record of one printed product: op(lm, lp), read in the flavor of
    the printed element `want`, equals it."""
    return holds(name, [((lm, lp), op(lm, lp).with_flavor(want.flavor) == want)])


# ===========================================================================
# criterion 1: the power pairing law
# ===========================================================================

def suite_pairing_law(seed):
    for preset, i in [("A2", 0), ("B2", 1), ("G2", 1)]:
        alg = Algebra.get(preset)
        k = alg.datum.qi_exp(i)
        cases = (
            (r, alg.pair(alg.half.word(PLUS, [i] * r), alg.half.word(MINUS, [i] * r))
             == Rat.of(qangle_factorial(r, k).shift(k * (r * (r - 1) // 2))))
            for r in range(7)
        )
        yield holds(f"pairing law {preset} d={alg.datum.d[i]} r<=6", cases)


# ===========================================================================
# criterion 2: the rank-2 pairing values
# ===========================================================================

def _fij_pair_expected(alg, i, j, s, r, s2, r2) -> Rat:
    """The detailed rank-2 pairing formula for <E_{i^s j i^r}, F_{i^s2 j i^r2}>."""
    a = alg.datum.A[i][j]
    qi = alg.datum.qi_exp(i)
    qj = alg.datum.qi_exp(j)
    p = RAT_ZERO
    for l in range(0, min(s2, r) + 1):
        p = p + Rat.of(
            qround_binom(s2, l, qi) * qround_binom(r2, r - l, qi)
        ) * nu_power(qi * l * (r2 + s2 + 2 * a - 2))
    num = (
        Rat.of(qangle(1, qj))
        * Rat.of(qangle_factorial(s, qi))
        * Rat.of(qangle_factorial(r, qi))
    )
    den = RAT_ONE
    for t in range(s + r):
        den = den * Rat.of(qangle(a + t, qi))
    sign = Rat.of((-1) ** (r + s2))
    power = nu_power(qi * (r2 * s2 + (r2 - r) * (a + r2 - 1)) // 1)
    return sign * power * p * num / den


def suite_rank2_pairing(seed):
    for preset in ("B2", "G2"):
        alg = Algebra.get(preset)
        two = alg.tables.two_letter_dcb
        amax = -alg.datum.A[0][1]
        cases = (
            ((n, s, n - s, s2, n - s2), alg.pair(alg.half.flip(two(0, 1, s, n - s)), two(0, 1, s2, n - s2))
             == _fij_pair_expected(alg, 0, 1, s, n - s, s2, n - s2))
            for n in range(1, amax + 1)
            for s in range(n + 1)
            for s2 in range(n + 1)
        )
        yield holds(f"rank-2 pairing grid {preset} (s+r <= {amax})", cases)
    # A2 anchor: the formula gives (-1)^(r+s') (q-q^-1)^2/(q^-1-q) = +(q-q^-1);
    # the shorthand display in the partial-converse proof omits the sign factor
    a2 = Algebra.get("A2")
    f12 = a2.tables.two_letter_dcb(0, 1, 1, 0)
    got = a2.pair(a2.half.flip(f12), f12)
    quoted = Rat.of(qangle(1, 2)) * Rat.of(qangle(1, 2)) / Rat.of(qangle(-1, 2))
    yield holds(
        "A2 anchor <E_12, F_12>",
        [
            ("the detailed formula", got == _fij_pair_expected(a2, 0, 1, 1, 0, 1, 0)),
            ("-(quoted display)", got == quoted * Rat.of(-1)),
        ],
        f"computed {got}; equals -(quoted display)",
    )


# ===========================================================================
# criterion 3: quantum Serre vanishing
# ===========================================================================

def suite_serre(seed):
    for preset in ("A2", "B2", "G2", "A1affine"):
        half = Algebra.get(preset).half
        cases = (
            ((sign, i, j), half.serre_element(sign, i, j).is_zero())
            for i, j in [(0, 1), (1, 0)]
            for sign in (PLUS, MINUS)
        )
        yield holds(f"Serre vanishing {preset}", cases)


# ===========================================================================
# criterion 4: rank-one engine against the closed-form oracle
# ===========================================================================

def suite_sl2_oracle(seed):
    alg = Algebra.get("A1")
    orc = SL2Oracle(alg.ctx)
    lab = lambda n: alg.tables.labels_of_degree((n,))[0]  # noqa: E731
    grid = [(mm, mp) for mm in range(5) for mp in range(5)]
    yield holds(
        "sl2 circ engine = closed form (m <= 4)",
        (((mm, mp), alg.circ(lab(mm), lab(mp)) == orc.circ_closed(mm, mp)) for mm, mp in grid),
    )
    yield holds(
        "sl2 bullet engine = closed form (m <= 4)",
        (((mm, mp), alg.bullet(lab(mm), lab(mp)) == orc.bullet_closed(mm, mp)) for mm, mp in grid),
    )
    engine, closed = alg.bullet(lab(2), lab(3)), orc.bullet_closed(2, 3)
    shifts = {(a_m, a_p): kmono((a_m,), (a_p,)) for a_m in range(3) for a_p in range(3)}
    yield holds(
        "sl2 shifted family a_+- <= 2",
        ((a, alg.ctx.diamond(K, engine) == alg.ctx.diamond(K, closed)) for a, K in shifts.items()),
    )
    yield holds(
        "sl2 C^(m) = F^m bullet E^m (m <= 4)",
        ((m, alg.bullet(lab(m), lab(m)) == orc.chebyshev(m)) for m in range(5)),
    )
    yield holds(
        "sl2 inclusion expansion of C^(m) (m <= 5)",
        ((m, orc.cheb_via_iota(m) == orc.chebyshev(m)) for m in range(6)),
    )


# ===========================================================================
# criterion 5: clearing multipliers
# ===========================================================================

def suite_multipliers(seed):
    height = 4
    for preset in ("A2", "B2"):
        alg = Algebra.get(preset)
        labs = [
            lab
            for h in range(height + 1)
            for gamma in alg.datum.degrees_of_height(h)
            for lab in alg.tables.labels_of_degree(gamma)
        ]
        cases = (((lm, lp), alg.d_multiplier(lm, lp) == ONE) for lm in labs for lp in labs)
        yield holds(f"multipliers trivial on {preset} pairs (ht <= {height} each)", cases)
    for preset, name, lab, want in [
        ("A1affine", "affine d(F_ij) = (2)_q", "F[1 2]", qround(2, 2)),
        ("A1affine", "affine d(F_ij2i) = (2)_{q^2}", "F[1 2 2 1]", qround(2, 4)),
        ("A1affine", "affine d(F_j2i2) = (2)_q (4)_q", "F[2 2 1 1]", qround(2, 2) * qround(4, 2)),
        ("R3", "rank-3 d(F_ijk) = (3)_q", "F[1 2 3]", qround(3, 2)),
    ]:
        yield holds(name, [((lab, lab), Algebra.get(preset).d_multiplier(lab, lab) == want)])


# ===========================================================================
# criterion 6: every printed circ/bullet table
# ===========================================================================

def suite_tables_minus_one_family(seed):
    """The a_ji = -1 family instantiated at d = 1 (A2), 2 (B2), 3 (G2)."""
    for preset, d in (("A2", 1), ("B2", 2), ("G2", 3)):
        alg = Algebra.get(preset)
        half = alg.half
        ctx = alg.ctx
        i, j = 0, 1
        lab_ij, f_ij = _two_letter(alg, i, j, 1, 0)
        lab_ji, f_ji = _two_letter(alg, i, j, 0, 1)
        e_ij = half.flip(f_ij)
        e_ji = half.flip(f_ji)
        lab_fi = alg.label_of(MINUS, half.gen(MINUS, i))
        lab_fj = alg.label_of(MINUS, half.gen(MINUS, j))
        ai, aj = alg.datum.alpha(i), alg.datum.alpha(j)

        def k_ij(s):
            """The exponents of K_i^s K_j."""
            return tuple(s * a + b for a, b in zip(ai, aj))

        # commutator of the dual pair
        e_side = ctx.from_halves(plus=e_ij, flavor="full")
        f_side = ctx.from_halves(minus=f_ij, flavor="full")
        comm = ctx.multiply(e_side, f_side) - ctx.multiply(f_side, e_side)
        want = (
            Builder(alg)
            .add(Rat.of(qangle(1, 2)) * Rat.of(-1), kp=k_ij(1))
            .add(Rat.of(qangle(1, 2)), km=k_ij(1))
            .value()
        )
        yield holds(f"{preset} [E_ij, F_ij]", [(lab_ij, comm == want)])

        # dual pair bullet
        want = (
            Builder(alg)
            .add(RAT_ONE, minus=f_ij, plus=e_ij)
            .add(-nu_power(2), kp=k_ij(1))
            .add(-nu_power(-2), km=k_ij(1))
            .value()
        )
        yield _product(f"{preset} F_ij bullet E_ij", alg.bullet, lab_ij, lab_ij, want)

        # top divided pair F_{i^d j}
        lab_idj, f_idj = _two_letter(alg, i, j, d, 0)
        want = (
            Builder(alg)
            .add(RAT_ONE, minus=f_idj, plus=half.flip(f_idj))
            .add(-nu_power(2 * d), kp=k_ij(d))
            .add(-nu_power(-2 * d), km=k_ij(d))
            .value()
        )
        yield _product(f"{preset} F_(i^d j) bullet E_(i^d j)", alg.bullet, lab_idj, lab_idj, want)

        if d > 2:
            lab_i2j, f_i2j = _two_letter(alg, i, j, 2, 0)
            pref = Rat.of(qround((d - 1) // 2, 4)) if d % 2 else Rat.of(qround(d - 1, 2))
            kexp = 1 if d % 2 else 2
            want = (
                Builder(alg)
                .add(pref, minus=f_i2j, plus=half.flip(f_i2j))
                .add(-nu_power(2 * kexp), kp=k_ij(2))
                .add(-nu_power(-2 * kexp), km=k_ij(2))
                .value()
            )
            yield _product(f"{preset} F_(i^2 j) bullet E_(i^2 j)", alg.bullet, lab_i2j, lab_i2j, want)

        # mixed circle products
        want = (
            Builder(alg)
            .add(RAT_ONE, minus=f_ij, plus=e_ji)
            .add(-nu_power(2 * d), kp=aj, minus=half.gen(MINUS, i), plus=half.gen(PLUS, i))
            .add(nu_power(2 * d + 2) - bracket_plus(Laurent.mono(1, 2 * d - 2)), kp=k_ij(1))
            .value()
        )
        yield _product(f"{preset} F_ij circ E_ji", alg.circ, lab_ij, lab_ji, want)

        want = (
            Builder(alg)
            .add_elem(RAT_ONE, alg.circ(lab_ij, lab_ji))
            .add_elem(-nu_power(-2), alg.circ(lab_fj, lab_fj), km=ai)
            .add(nu_power(-2 - 2 * d), km=k_ij(1))
            .value()
        )
        yield _product(f"{preset} F_ij bullet E_ji", alg.bullet, lab_ij, lab_ji, want)

        want = (
            Builder(alg)
            .add(RAT_ONE, minus=f_ji, plus=e_ij)
            .add(-nu_power(2), kp=ai, minus=half.gen(MINUS, j), plus=half.gen(PLUS, j))
            .add(nu_power(2 * d + 2), kp=k_ij(1))
            .value()
        )
        yield _product(f"{preset} F_ji circ E_ij", alg.circ, lab_ji, lab_ij, want)

        # the K_-i K_-j coefficient reads q^(-1-d) - [q^(1-d)]_-, matching the
        # parallel equal-d display (the printed parenthesization drops the sign)
        want = (
            Builder(alg)
            .add_elem(RAT_ONE, alg.circ(lab_ji, lab_ij))
            .add_elem(-nu_power(-2 * d), alg.circ(lab_fi, lab_fi), km=aj)
            .add(nu_power(-2 - 2 * d) - bracket_minus(Laurent.mono(1, 2 - 2 * d)), km=k_ij(1))
            .value()
        )
        yield _product(f"{preset} F_ji bullet E_ij", alg.bullet, lab_ji, lab_ij, want)


def suite_tables_equal_d(seed):
    """The equal-d family at a = 1 (A2), a = 2 (affine A1), a = 3 (hyperbolic)."""
    for a in (1, 2, 3):
        alg = {1: Algebra.get("A2"), 2: Algebra.get("A1affine"), 3: r2a3()}[a]
        half = alg.half
        i, j = 0, 1
        amod = a % 2
        d_a2 = 1 if a == 2 else 0

        labs = {}
        for s, r in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (1, 2), (0, 3)]:
            if s + r <= a:
                labs[(s, r)] = _two_letter(alg, i, j, s, r)
        lab_fi = alg.label_of(MINUS, half.gen(MINUS, i))
        lab_fj = alg.label_of(MINUS, half.gen(MINUS, j))
        fi = half.gen(MINUS, i)
        ei = half.gen(PLUS, i)

        # the K-shape of F_{i^s j} bullet E_{i^s j}
        def shape_cases():
            for s in range(1, a + 1):
                binom = Rat.of(qround_binom(a, s, 2))
                for lab_x, f_x in (_two_letter(alg, i, j, s, 0), _two_letter(alg, i, j, 0, s)):
                    got = alg.bullet(lab_x, lab_x)
                    want = (
                        Builder(alg)
                        .add(binom, minus=f_x, plus=half.flip(f_x))
                        .add(-nu_power(2), kp=(s, 1))
                        .add(-nu_power(-2), km=(s, 1))
                        .value()
                    )
                    yield (lab_x, lab_x), got == want

        yield holds(f"equal-d a={a}: F_(i^s j) bullet shape", shape_cases())

        # mixed pair
        lab_ij, f_ij = labs[(1, 0)]
        lab_ji, f_ji = labs[(0, 1)]
        want = (
            Builder(alg)
            .add(Rat.of(qround(a, 2)), minus=f_ij, plus=half.flip(f_ji))
            .add(-nu_power(2 * a), kp=(0, 1), minus=fi, plus=ei)
            .add(nu_power(2 * a + 2) - bracket_plus(Laurent.mono(1, 2 * a - 2)), kp=(1, 1))
            .value()
        )
        yield _product(f"equal-d a={a}: F_ij circ E_ji", alg.circ, lab_ij, lab_ji, want)

        want = (
            Builder(alg)
            .add_elem(RAT_ONE, alg.circ(lab_ij, lab_ji))
            .add_elem(-nu_power(-2 * a), alg.circ(lab_fj, lab_fj), km=(1, 0))
            .add(nu_power(-2 - 2 * a) - bracket_minus(Laurent.mono(1, 2 - 2 * a)), km=(1, 1))
            .add(-bracket_minus(Laurent.mono(1, 2 - 2 * a)), km=(1, 0), kp=(0, 1))
            .value()
        )
        yield _product(f"equal-d a={a}: F_ij bullet E_ji", alg.bullet, lab_ij, lab_ji, want)

        if a == 1:
            continue

        # ---- a > 1 displays ----
        # F_{ij^2} lives in the j-family: pattern j^s i j^r with s = 0, r = 2
        lab_ij2, f_ij2 = _two_letter(alg, j, i, 0, 2)
        lab_j2i, f_j2i = _two_letter(alg, j, i, 2, 0)
        lab_i2j, f_i2j = labs[(2, 0)]
        lab_ji2, f_ji2 = labs[(0, 2)]
        lab_iji, f_iji = labs[(1, 1)]
        lab_j2 = alg.label_of(MINUS, half.word(MINUS, [j, j]))

        binom_a2 = Rat.of(qround_binom(a, 2, 2))
        # F_{ij^2} circ E_{j^2 i}
        want = (
            Builder(alg)
            .add(binom_a2, minus=f_ij2, plus=half.flip(f_j2i))
            .add(
                -(nu_power(2 * a) + bracket_plus(Laurent.mono(1, 2 * a - 4))) * Rat.of(qround(a, 2)),
                kp=(0, 1),
                minus=f_ij,
                plus=half.flip(f_ji),
            )
            .add(
                nu_power(4) * (RAT_ONE + bracket_plus(Laurent.mono(1, 4 * a - 8))), kp=(0, 2), minus=fi, plus=ei
            )
            .add(
                -(nu_power(6) + (nu_power(6) - nu_power(2)) * bracket_plus(Laurent.mono(1, 4 * a - 8))),
                kp=(1, 2),
            )
            .value()
        )
        yield _product(f"equal-d a={a}: F_ij2 circ E_j2i", alg.circ, lab_ij2, lab_j2i, want)

        # F_{ij^2} bullet E_{j^2 i}
        want = (
            Builder(alg)
            .add_elem(RAT_ONE, alg.circ(lab_ij2, lab_j2i))
            .add_elem(
                -nu_power(2 * (-1 - 2 * amod)) * Rat.of(qsq((a - amod) // 2, -8)),
                alg.circ(lab_j2, lab_j2),
                km=(1, 0),
            )
            # the q^-4 [a-3]_{q^-2} block is absent from the unique element at
            # a = 2 (the printed coefficient would not vanish there); it
            # vanishes on its own at a = 3
            .add_elem(
                nu_power(-8) * Rat.of(qsq(a - 3, -4)) * Rat.of(0 if a == 2 else 1),
                alg.circ(lab_fj, lab_fj),
                km=(1, 0),
                kp=(0, 1),
            )
            .add_elem(
                nu_power(-4 * a) + nu_power(4 - 4 * a) - bracket_minus(Laurent.mono(1, -4 * amod)),
                alg.circ(lab_fj, lab_fj),
                km=(1, 1),
            )
            .add(
                nu_power(2 - 4 * a) + nu_power(6 - 4 * a - 4 * d_a2) - nu_power(-6)
                - bracket_minus(Laurent.mono(1, -2 * amod)),
                km=(1, 1),
                kp=(0, 1),
            )
            .add(
                nu_power(-2)
                * (
                    Rat.of(1 - d_a2)
                    - nu_power(-4 * amod) * Rat.of(qsq((a - amod) // 2 - 1, -8))
                ),
                km=(1, 0),
                kp=(0, 2),
            )
            .add(
                nu_power(6 - 4 * a) - nu_power(2 - 4 * a) - bracket_minus(Laurent.mono(1, 2 * amod - 2)),
                km=(1, 2),
            )
            .value()
        )
        yield _product(f"equal-d a={a}: F_ij2 bullet E_j2i", alg.bullet, lab_ij2, lab_j2i, want)

        # F_{i^2 j} circ E_{j i^2}
        want = (
            Builder(alg)
            .add(binom_a2, minus=f_i2j, plus=half.flip(f_ji2))
            .add(
                -nu_power(2 * (1 + 2 * amod)) * Rat.of(qsq((a - amod) // 2, 8)),
                kp=(0, 1),
                minus=half.word(MINUS, [i, i]),
                plus=half.word(PLUS, [i, i]),
            )
            .add(
                nu_power(4 * a) + nu_power(4 * a - 4) - bracket_plus(Laurent.mono(1, 4 * amod)),
                kp=(1, 1),
                minus=fi,
                plus=ei,
            )
            .add(
                nu_power(4 * a - 6) - nu_power(4 * a - 2) - bracket_plus(Laurent.mono(1, 2 - 2 * amod)),
                kp=(2, 1),
            )
            .value()
        )
        yield _product(f"equal-d a={a}: F_i2j circ E_ji2", alg.circ, lab_i2j, lab_ji2, want)

        # F_{i^2 j} bullet E_{j i^2}
        want = (
            Builder(alg)
            .add_elem(RAT_ONE, alg.circ(lab_i2j, lab_ji2))
            .add_elem(
                -(nu_power(-2 * a) + bracket_minus(Laurent.mono(1, 4 - 2 * a))),
                alg.circ(lab_ij, lab_ji),
                km=(1, 0),
            )
            .add_elem(
                nu_power(-4) * (RAT_ONE + bracket_minus(Laurent.mono(1, 8 - 4 * a))),
                alg.circ(lab_fj, lab_fj),
                km=(2, 0),
            )
            .add_elem(
                bracket_minus(Laurent.mono(1, 4 * amod - 4)), alg.circ(lab_fi, lab_fi), km=(1, 0), kp=(0, 1)
            )
            .add(-bracket_minus(Laurent.mono(1, -2 * amod)), km=(1, 0), kp=(1, 1))
            .add(
                -nu_power(-6) * bracket_minus(Laurent.mono(1, 8 - 4 * a))
                + nu_power(-4) * (bracket_minus(Laurent.mono(1, 10 - 4 * a)) - nu_power(-2)),
                km=(2, 1),
            )
            # final term sits on K_-i^2 K_+j with [q^-{a}]_- (the display's
            # torus subscripts and the bare q-power are garbled; fixed by the
            # unique bar-fixed triangular element, vanishing at a = 2)
            .add(
                nu_power(-2) * bracket_minus(Laurent.mono(1, 8 - 4 * a))
                + bracket_minus(Laurent.mono(1, -2 * amod)),
                km=(2, 0),
                kp=(0, 1),
            )
            .value()
        )
        yield _product(f"equal-d a={a}: F_i2j bullet E_ji2", alg.bullet, lab_i2j, lab_ji2, want)

        # F_{iji} circ E_{j i^2}
        want = (
            Builder(alg)
            .add(binom_a2, minus=f_iji, plus=half.flip(f_ji2))
            .add(-nu_power(2 * a - 2), kp=(1, 1), minus=fi, plus=ei)
            .add(nu_power(2 * a) - bracket_plus(Laurent.mono(1, 2 * a - 4)), kp=(2, 1))
            .value()
        )
        yield _product(f"equal-d a={a}: F_iji circ E_ji2", alg.circ, lab_iji, lab_ji2, want)

        # F_{iji} bullet E_{j i^2}
        want = (
            Builder(alg)
            .add_elem(RAT_ONE, alg.circ(lab_iji, lab_ji2))
            .add_elem(-nu_power(2 - 2 * a), alg.circ(lab_ji, lab_ji), km=(1, 0))
            .add(-bracket_minus(Laurent.mono(1, 4 - 2 * a)), km=(1, 0), kp=(1, 1))
            .add(nu_power(-2 * a) - bracket_minus(Laurent.mono(1, 4 - 2 * a)), km=(2, 1))
            .value()
        )
        yield _product(f"equal-d a={a}: F_iji bullet E_ji2", alg.bullet, lab_iji, lab_ji2, want)

        # F_{iji} circ/bullet E_{iji}: the display normalizes by (a)^2 (a-1),
        # which is a non-minimal clearing ((a)_q is the minimal multiplier,
        # as the affine multiplier checks pin); the printed element is a
        # well-formed bar-invariant but not the theorem-normalized one.
        pref = Rat.of(qround(a, 2)) * Rat.of(qround(a, 2)) * Rat.of(qround(a - 1, 2))
        printed = (
            Builder(alg, "heis_plus")
            .add(pref, minus=f_iji, plus=half.flip(f_iji))
            .add(
                -nu_power(4) * Rat.of(qround(a, 2)) * Rat.of(qsq(a - 1, 4)),
                kp=(1, 0),
                minus=f_ij,
                plus=half.flip(f_ji),
            )
            .add(nu_power(2 * a + 4) * Rat.of(qsq(a - 1, 4)), kp=(1, 1), minus=fi, plus=ei)
            .add(-nu_power(2 * a - 2) * (RAT_ONE + nu_power(4 * a)), kp=(2, 1))
            .value()
        )
        eng = alg.circ(lab_iji, lab_iji)
        dmin = alg.d_multiplier(lab_iji, lab_iji)
        yield holds(
            f"equal-d a={a}: F_iji circ E_iji (print vs minimal normalization)",
            [
                ("printed display bar-fixed", alg.ctx.is_bar_fixed(printed)),
                ("engine element bar-fixed", alg.ctx.is_bar_fixed(eng)),
                ("engine d = (a)_q", dmin == qround(a, 2)),
                ("printed display != engine element", printed != eng),
            ],
            "printed display is bar-fixed with non-minimal leading factor; engine keeps d=(a)_q",
        )

        printed_bullet = (
            Builder(alg)
            .add_elem(RAT_ONE, printed.with_flavor("full"))
            .add_elem(-nu_power(-4) * Rat.of(qsq(a - 1, -4)), alg.circ(lab_ji, lab_ij), km=(1, 0))
            .add_elem(
                nu_power(-2 * a - 4) * Rat.of(qsq(a - 1, -4)), alg.circ(lab_fi, lab_fi), km=(1, 1)
            )
            .add(-nu_power(2 - 2 * a), km=(1, 0), kp=(1, 1))
            .add(nu_power(-2 - 2 * a) * Rat.of(qsq(a - 1, -4)) - nu_power(2 - 2 * a), km=(1, 1), kp=(1, 0))
            .add(-nu_power(2 - 2 * a) * (RAT_ONE + nu_power(-4 * a)), km=(2, 1))
            .value()
        )
        eng_b = alg.bullet(lab_iji, lab_iji)
        yield holds(
            f"equal-d a={a}: F_iji bullet E_iji (engine characterization)",
            [
                ("engine element bar-fixed", alg.ctx.is_bar_fixed(eng_b)),
                ("engine element projects onto the engine circ", alg.ctx.project_heis(eng_b) == eng),
                ("printed display bar-fixed", alg.ctx.is_bar_fixed(printed_bullet)),
                ("printed display projects onto the printed circ",
                 alg.ctx.project_heis(printed_bullet) == printed),
            ],
            "printed companion display inherits the non-minimal normalization",
        )

        if a > 2:
            lab_iji2, f_iji2 = labs[(1, 2)]
            lab_ji3, f_ji3 = labs[(0, 3)]
            want = (
                Builder(alg)
                .add(Rat.of(qround_binom(a, 3, 2)), minus=f_iji2, plus=half.flip(f_ji3))
                .add(-nu_power(2 * a - 4), kp=(2, 1), minus=fi, plus=ei)
                .add(nu_power(2 * a - 2) - bracket_plus(Laurent.mono(1, 2 * a - 6)), kp=(3, 1))
                .value()
            )
            yield _product(f"equal-d a={a}: F_iji2 circ E_ji3", alg.circ, lab_iji2, lab_ji3, want)

            want = (
                Builder(alg)
                .add_elem(RAT_ONE, alg.circ(lab_iji2, lab_ji3))
                .add_elem(-nu_power(4 - 2 * a), alg.circ(lab_ji2, lab_ji2), km=(1, 0))
                .add(-bracket_minus(Laurent.mono(1, 6 - 2 * a)), km=(1, 0), kp=(2, 1))
                .add(nu_power(2 - 2 * a) - bracket_minus(Laurent.mono(1, 6 - 2 * a)), km=(3, 1))
                .value()
            )
            yield _product(f"equal-d a={a}: F_iji2 bullet E_ji3", alg.bullet, lab_iji2, lab_ji3, want)


def suite_tables_affine22(seed):
    """The printed degree-(2,2) circ/bullet identities of the affine datum."""
    alg = Algebra.get("A1affine")
    half = alg.half
    i, j = 0, 1
    two_q = Rat.of(qround(2, 2))
    four_q = Rat.of(qround(4, 2))

    lab_ji, f_ji = _two_letter(alg, i, j, 0, 1)
    lab_ij = _two_letter(alg, i, j, 1, 0)[0]
    lab_j2i = _two_letter(alg, j, i, 2, 0)[0]
    lab_ij2 = _two_letter(alg, j, i, 0, 2)[0]
    lab_fi = alg.label_of(MINUS, half.gen(MINUS, i))
    lab_fj = alg.label_of(MINUS, half.gen(MINUS, j))
    lab_j2 = alg.label_of(MINUS, half.word(MINUS, [j, j]))

    for name in ("F[2 2 1 1]", "F[2 1 2 1]"):
        f_elem = alg.dcb_elem(MINUS, name)
        want = (
            Builder(alg)
            .add(two_q * four_q, minus=f_elem, plus=half.flip(f_elem))
            .add((nu_power(2) - nu_power(6)) * two_q, kp=(1, 1), minus=f_ji, plus=half.flip(f_ji))
            .add(Rat.of(-2) * nu_power(4), kp=(2, 2))
            .value()
        )
        yield _product(f"affine22 {name} circ", alg.circ, name, name, want)
        want = (
            Builder(alg)
            .add_elem(RAT_ONE, alg.circ(name, name))
            .add_elem(nu_power(-2) - nu_power(-6), alg.circ(lab_ji, lab_ji), km=(1, 1))
            .add(Rat.of(-2) * nu_power(-4), km=(2, 2))
            .add(-nu_power(-4), km=(1, 1), kp=(1, 1))
            .value()
        )
        yield _product(f"affine22 {name} bullet", alg.bullet, name, name, want)

    name = "F[1 2 2 1]"
    f_elem = alg.dcb_elem(MINUS, name)
    want = (
        Builder(alg)
        .add(Rat.of(qround(2, 4)), minus=f_elem, plus=half.flip(f_elem))
        .add(
            nu_power(2) - nu_power(6),
            kp=(1, 0),
            minus=alg.dcb_elem(MINUS, lab_ij2),
            plus=alg.dcb_elem(PLUS, lab_j2i),
        )
        .add(
            (nu_power(10) - nu_power(6)) * two_q,
            kp=(1, 1),
            minus=alg.dcb_elem(MINUS, lab_ij),
            plus=alg.dcb_elem(PLUS, lab_ji),
        )
        .add(nu_power(6) - nu_power(10), kp=(1, 2), minus=half.gen(MINUS, i), plus=half.gen(PLUS, i))
        .add(nu_power(12) - nu_power(8) - nu_power(4), kp=(2, 2))
        .value()
    )
    yield _product(f"affine22 {name} circ", alg.circ, name, name, want)

    want = (
        Builder(alg)
        .add_elem(RAT_ONE, alg.circ(name, name))
        .add_elem(nu_power(-2) - nu_power(-6), alg.circ(lab_j2i, lab_ij2), km=(1, 0))
        .add_elem(-nu_power(-4), alg.circ(lab_j2, lab_j2), km=(1, 0), kp=(1, 0))
        .add_elem(nu_power(-10) - nu_power(-6), alg.circ(lab_ji, lab_ij), km=(1, 1))
        .add_elem(Rat.of(2) * nu_power(-6), alg.circ(lab_fj, lab_fj), km=(1, 1), kp=(1, 0))
        .add_elem(nu_power(-6) - nu_power(-10), alg.circ(lab_fi, lab_fi), km=(1, 2))
        .add(nu_power(-12) - nu_power(-8) - nu_power(-4), km=(2, 2))
        # this torus term sits on K_-i K_-j^2 K_+i (the printed subscripts
        # K_-i K_+i K_+j^2 have plus and minus exchanged)
        .add(-nu_power(-8), km=(1, 2), kp=(1, 0))
        .add(nu_power(-8), km=(1, 1), kp=(1, 1))
        .value()
    )
    yield _product(f"affine22 {name} bullet", alg.bullet, name, name, want)


def suite_tables_rank3(seed):
    """The printed rank-3 bullet/circ identities (all off-diagonal -1)."""
    alg = Algebra.get("R3")
    half = alg.half
    i, j, k = 0, 1, 2
    three_q = Rat.of(qround(3, 2))
    lab_ijk = "F[1 2 3]"
    f_ijk = alg.dcb_elem(MINUS, lab_ijk)

    def e_lab(a, b, c):
        return f"F[{alg.datum.labels[a]} {alg.datum.labels[b]} {alg.datum.labels[c]}]"

    def kvec(*idx):
        v = [0, 0, 0]
        for x in idx:
            v[x] += 1
        return tuple(v)

    # plain bullets; for the mixed permutations the unique bar-fixed element
    # carries +q, +q^-1 torus corrections (the display's minus signs fail
    # bar-invariance against the computed leading block)
    for (a, b, c), kexp, sign in [((i, j, k), 2, -1), ((i, k, j), 1, 1), ((j, i, k), 1, 1)]:
        lp = e_lab(a, b, c)
        want = (
            Builder(alg)
            .add(three_q, minus=f_ijk, plus=alg.dcb_elem(PLUS, lp))
            .add(nu_power(2 * kexp) * Rat.of(sign), kp=kvec(i, j, k))
            .add(nu_power(-2 * kexp) * Rat.of(sign), km=kvec(i, j, k))
            .value()
        )
        letters = "".join(alg.datum.labels[x] for x in (a, b, c))
        yield _product(f"rank3 F_ijk bullet E_{letters}", alg.bullet, lab_ijk, lp, want)

    lab_fj = alg.label_of(MINUS, half.gen(MINUS, j))
    lab_fk = alg.label_of(MINUS, half.gen(MINUS, k))
    lab_fjk = _two_letter(alg, j, k, 1, 0)[0]
    lab_fkj = _two_letter(alg, j, k, 0, 1)[0]
    lab_fij = _two_letter(alg, i, j, 1, 0)[0]
    lab_fji = _two_letter(alg, i, j, 0, 1)[0]

    # F_ijk circ E_jki and its bullet
    lp = e_lab(j, k, i)
    want = (
        Builder(alg)
        .add(three_q, minus=f_ijk, plus=alg.dcb_elem(PLUS, lp))
        .add(-nu_power(6), kp=kvec(j, k), minus=half.gen(MINUS, i), plus=half.gen(PLUS, i))
        .add(nu_power(8) - nu_power(4), kp=kvec(i, j, k))
        .value()
    )
    yield _product("rank3 F_ijk circ E_jki", alg.circ, lab_ijk, lp, want)
    want = (
        Builder(alg)
        .add_elem(RAT_ONE, alg.circ(lab_ijk, lp))
        .add_elem(-nu_power(-6), alg.circ(lab_fjk, lab_fjk), km=kvec(i))
        .add(-nu_power(-4), km=kvec(i), kp=kvec(j, k))
        .add(nu_power(-8) - nu_power(-4), km=kvec(i, j, k))
        .value()
    )
    yield _product("rank3 F_ijk bullet E_jki", alg.bullet, lab_ijk, lp, want)

    # F_ijk circ E_kji and its bullet (the print garbles two torus subscripts;
    # fixed by the unique bar-fixed element, cross-checked below)
    lp = e_lab(k, j, i)
    want = (
        Builder(alg)
        .add(three_q, minus=f_ijk, plus=alg.dcb_elem(PLUS, lp))
        .add(-nu_power(6), kp=kvec(k), minus=alg.dcb_elem(MINUS, lab_fij), plus=alg.dcb_elem(PLUS, lab_fji))
        .add(nu_power(8), kp=kvec(j, k), minus=half.gen(MINUS, i), plus=half.gen(PLUS, i))
        .add(nu_power(2) - nu_power(10), kp=kvec(i, j, k))
        .value()
    )
    yield _product("rank3 F_ijk circ E_kji", alg.circ, lab_ijk, lp, want)
    # the K_-i K_-j K_+k term enters with +q^-3 (print has the sign flipped),
    # and the q^-1 - q^-5 block sits on K_-i K_-j K_-k, not on the plus side
    want = (
        Builder(alg)
        .add_elem(RAT_ONE, alg.circ(lab_ijk, lp))
        .add_elem(-nu_power(-6), alg.circ(lab_fjk, lab_fkj), km=kvec(i))
        .add_elem(-nu_power(-4), alg.circ(lab_fj, lab_fj), km=kvec(i), kp=kvec(k))
        .add_elem(nu_power(-8), alg.circ(lab_fk, lab_fk), km=kvec(i, j))
        .add(nu_power(-2) - nu_power(-10), km=kvec(i, j, k))
        .add(nu_power(-6), km=kvec(i, j), kp=kvec(k))
        .value()
    )
    yield _product("rank3 F_ijk bullet E_kji", alg.bullet, lab_ijk, lp, want)

    # F_ijk circ E_kij and its bullet
    lp = e_lab(k, i, j)
    # torus coefficient q^4 - q^2 (the print's bare -q^2 is not in q Z[q]
    # relative to the computed expansion)
    want = (
        Builder(alg)
        .add(three_q, minus=f_ijk, plus=alg.dcb_elem(PLUS, lp))
        .add(-nu_power(6), kp=kvec(k), minus=alg.dcb_elem(MINUS, lab_fij), plus=alg.dcb_elem(PLUS, lab_fij))
        .add(nu_power(8) - nu_power(4), kp=kvec(i, j, k))
        .value()
    )
    yield _product("rank3 F_ijk circ E_kij", alg.circ, lab_ijk, lp, want)
    want = (
        Builder(alg)
        .add_elem(RAT_ONE, alg.circ(lab_ijk, lp))
        .add_elem(-nu_power(-6), alg.circ(lab_fk, lab_fk), km=kvec(i, j))
        .add(nu_power(-8) - nu_power(-4), km=kvec(i, j, k))
        .add(-nu_power(-4), km=kvec(i, j), kp=kvec(k))
        .value()
    )
    yield _product("rank3 F_ijk bullet E_kij", alg.bullet, lab_ijk, lp, want)


def suite_tables_tony(seed):
    """sp4 circ/bullet pairs and the interval circ formula for sl_(n+1)."""
    b2 = Algebra.get("B2")
    half = b2.half
    lab121, f121 = _two_letter(b2, 0, 1, 1, 1)
    lab_f12, f12 = _two_letter(b2, 0, 1, 1, 0)
    lab_f21, f21 = _two_letter(b2, 0, 1, 0, 1)
    lab_f1 = b2.label_of(MINUS, half.gen(MINUS, 0))
    want = (
        Builder(b2)
        .add(RAT_ONE, minus=f121, plus=half.flip(f121))
        .add(-nu_power(2), kp=(1, 0), minus=f12, plus=half.flip(f21))
        .add(nu_power(6), kp=(1, 1), minus=half.gen(MINUS, 0), plus=half.gen(PLUS, 0))
        .add(-nu_power(8), kp=(2, 1))
        .value()
    )
    yield _product("sp4 F_121 circ E_121", b2.circ, lab121, lab121, want)
    want = (
        Builder(b2)
        .add_elem(RAT_ONE, b2.circ(lab121, lab121))
        .add_elem(-nu_power(-2), b2.circ(lab_f21, lab_f12), km=(1, 0))
        .add_elem(nu_power(-6), b2.circ(lab_f1, lab_f1), km=(1, 1))
        .add(-nu_power(-8), km=(2, 1))
        .value()
    )
    name = "sp4 F_121 bullet E_121 (last two display signs fixed by bar-invariance)"
    yield _product(name, b2.bullet, lab121, lab121, want)

    lab2112 = b2.label_of(PLUS, _e2112(b2))
    f2112 = b2.dcb_elem(MINUS, lab2112)
    lab_f211 = _two_letter(b2, 0, 1, 0, 2)[0]
    lab_f112 = _two_letter(b2, 0, 1, 2, 0)[0]
    lab_f2 = b2.label_of(MINUS, half.gen(MINUS, 1))
    want = (
        Builder(b2)
        .add(RAT_ONE, minus=f2112, plus=half.flip(f2112))
        .add(-nu_power(4), kp=(0, 1), minus=b2.dcb_elem(MINUS, lab_f211), plus=b2.dcb_elem(PLUS, lab_f112))
        .add(nu_power(10) + nu_power(6), kp=(1, 1), minus=f21, plus=half.flip(f12))
        .add(-nu_power(8), kp=(2, 1), minus=half.gen(MINUS, 1), plus=half.gen(PLUS, 1))
        .add(nu_power(12), kp=(2, 2))
        .value()
    )
    yield _product("sp4 F_2112 circ E_2112", b2.circ, lab2112, lab2112, want)
    want = (
        Builder(b2)
        .add_elem(RAT_ONE, b2.circ(lab2112, lab2112))
        .add_elem(-nu_power(-4), b2.circ(lab_f112, lab_f211), km=(0, 1))
        .add_elem(nu_power(-10) + nu_power(-6), b2.circ(lab_f12, lab_f21), km=(1, 1))
        .add_elem(-nu_power(-8), b2.circ(lab_f2, lab_f2), km=(2, 1))
        .add(nu_power(-12), km=(2, 2))
        .add(nu_power(-8), km=(1, 1), kp=(1, 1))
        .value()
    )
    yield _product("sp4 F_2112 bullet E_2112", b2.bullet, lab2112, lab2112, want)

    # interval circ formula for sl_(n+1), n = 2, 3
    for preset in ("A2", "A3"):
        alg = Algebra.get(preset)
        n = alg.datum.rank
        half = alg.half

        def interval_cases():
            for a in range(1, n + 1):
                for b in range(a, n + 1):
                    e_ab = _interval(half, a, b)
                    lm = alg.label_of(MINUS, half.flip(e_ab))
                    lp = alg.label_of(PLUS, half.star(e_ab))
                    got = alg.circ(lm, lp).with_flavor("full")
                    want = Builder(alg)
                    for jj in range(a - 1, b + 1):
                        e_aj = _interval(half, a, jj)
                        want.add(
                            Rat.of((-1) ** (b - jj)) * nu_power(2 * (b - jj)),
                            kp=tuple(1 if jj <= t < b else 0 for t in range(n)),
                            minus=half.flip(e_aj),
                            plus=half.star(e_aj),
                        )
                    yield (a, b), got == want.value()

        yield holds(f"sl_(n+1) interval circ formula {preset}", interval_cases())


# ===========================================================================
# criterion 7: braid symmetries
# ===========================================================================

def suite_braid(seed):
    for preset in ("A2", "B2", "G2", "A1xA1"):
        braid = Algebra.get(preset).braid
        yield holds(f"braid relation {preset}", [((0, 1), braid.braid_relation_check(0, 1))])

    a2 = Algebra.get("A2")
    rng = random.Random(seed)

    def random_elem():
        terms = {}
        for _ in range(2):
            f = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 4)))
            e = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 4)))
            K = kmono(
                tuple(rng.randrange(-1, 2) for _ in range(2)),
                tuple(rng.randrange(-1, 2) for _ in range(2)),
            )
            terms[(K, f, e)] = Rat.of(Laurent({rng.randrange(-2, 3): 1}))
        return TriElem(a2.ctx, "localized", terms)

    elems = [random_elem() for _ in range(6)]
    yield holds(
        "braid bar/star/transpose equivariance (random ht <= 3)",
        (
            ((t, i), all(a2.braid.T_equivariance_check(i, x).values()))
            for t, x in enumerate(elems)
            for i in range(2)
        ),
    )

    sl2 = Algebra.get("A1")
    orc = SL2Oracle(sl2.ctx)

    def closed_form_cases():
        for am in (-1, 0, 1):
            for ap in (0, 2):
                for mm in range(4):
                    for mp in range(4):
                        x = sl2.ctx.diamond(kmono((am,), (ap,)), orc.bullet_closed(mm, mp))
                        want = sl2.ctx.diamond(kmono((-am - mm,), (-ap - mp,)), orc.bullet_closed(mp, mm))
                        got = sl2.braid.T(0, x.with_flavor("localized"))
                        yield (am, ap, mm, mp), got == want.with_flavor("localized")

    yield holds("sl2 braid closed form (m <= 3)", closed_form_cases())
    cheb = [orc.chebyshev(r).with_flavor("localized") for r in range(4)]
    yield holds(
        "sl2 T(C^(r)) = (K+K-)^-r C^(r)",
        (
            (r, sl2.braid.T(0, c) == sl2.ctx.multiply(sl2.ctx.k_elem(kmono((-r,), (-r,)), "localized"), c))
            for r, c in enumerate(cheb)
        ),
    )

    # the wild decomposition of the mixed affine pair (frozen from the unique
    # expansion over the basis; the displayed two-term identity is not
    # expressible over the paper's own label range -- see the ledger)
    aff = Algebra.get("A1affine")
    img = aff.braid.T(0, aff.bullet("F[1 2]", "F[2 1]").with_flavor("localized"))
    shift = kmono((2, 2), (2, 2))
    shifted = aff.ctx.diamond(shift, img).with_flavor("full")
    coeffs = aff.engine.expand_in_bullet_family(aff.tables.to_dcb(shifted))
    got = {
        ((tuple(a - 2 for a in am), tuple(a - 2 for a in ap)), lm, lp): c
        for ((am, ap), lm, lp), c in coeffs.items()
    }
    want = {
        (((-1, 0), (0, 0)), "F[1 1 2]", "F[1 1 2]"): RAT_ONE,
        (((-1, 0), (0, 0)), "F[1 1 2]", "F[1 2 1]"): Rat.of(qround(2, 2)),
        (((-1, 0), (1, 1)), "F[1^1]", "F[1^1]"): RAT_ONE,
        (((0, 0), (0, 0)), "F[1 2]", "F[1 2]"): RAT_ONE,
    }
    yield holds(
        "wild braid image of the mixed affine pair (4-term decomposition)",
        [
            ("the frozen decomposition", got == want),
            ("bar-fixed image", aff.ctx.is_bar_fixed(img)),
            ("more than one term", len(got) > 1),
        ],
    )


# ===========================================================================
# criterion 8: tameness
# ===========================================================================

def suite_tame(seed):
    height = 4
    a2 = Algebra.get("A2")
    pairs = [
        (lab, i)
        for h in range(height + 1)
        for gamma in a2.datum.degrees_of_height(h)
        for lab in a2.tables.labels_of_degree(gamma)
        for i in range(2)
    ]

    def tame(lab, i):
        try:
            tame_apply(a2, i, lab)
        except AssertionError:
            return False
        return True

    yield holds(
        f"A2 tameness identity on all labels through height {height}",
        (((lab, i), tame(lab, i)) for lab, i in pairs),
        f"{len(pairs)} checks",
    )

    half = a2.half

    def closed_form_cases():
        for r in range(3):
            for a2_ in range(2):
                for a12 in range(3):
                    if a12 + a2_ == 0:
                        continue
                    lp = f"b+(0,{a2_},{a12},0)"
                    lm = a2.label_of(MINUS, half.word(MINUS, [0] * r)) if r else "1"
                    got = a2.bullet(lm, lp)
                    expected = a2.ctx.zero("full")
                    mn = min(r, a12)
                    for tt in range(mn + 1):
                        coeff = Rat.of((-1) ** tt) * nu_power(2 * tt * (abs(a12 - r) + 1)) * Rat.of(
                            qsq_binom(mn, tt, 4)
                        )
                        body = a2.ctx.from_halves(
                            minus=half.word(MINUS, [0] * (r - tt)),
                            plus=a2.dcb_elem(PLUS, f"b+(0,{a2_ + tt},{a12 - tt},0)"),
                            flavor="full",
                        )
                        expected = expected + a2.ctx.diamond(kmono((0, 0), (tt, 0)), body).scale(coeff)
                    yield (lm, lp), got == expected

    yield holds("sl3 tame closed forms F_1^r bullet b+(0,a2,a12,0)", closed_form_cases())
    yield holds(
        "sl3 negative crystal shifts on the monomial family",
        (
            ((a12, a2_, r), a2.tables.crystal_shift(0, -r, f"b+(0,{a12},0,{a2_})")
             == f"b+(0,{a12 - r},{r},{a2_})")
            for a12 in range(1, 3)
            for a2_ in range(2)
            for r in range(1, a12 + 1)
        ),
    )


# ===========================================================================
# criterion 9: the equivariant invariant map
# ===========================================================================

def suite_rst(seed):
    sl2 = Algebra.get("A1")
    orc = SL2Oracle(sl2.ctx)
    yield holds(
        "sl2 invariant image is (-1)^m C^(m), dim <= 5",
        (
            (m, RSTMap(sl2, sl2_module(sl2, m)).xi_invariant()
             == orc.chebyshev(m).with_flavor("check").scale(Rat.of((-1) ** m)))
            for m in range(5)
        ),
    )

    V = sl2_module(sl2, 2)
    rst = RSTMap(sl2, V)
    yield holds(
        "sl2 equivariance spot checks",
        (((a, b), rst.equivariance_check(0, {a: RAT_ONE}, {b: RAT_ONE})) for a in range(3) for b in range(3)),
    )
    maps = [RSTMap(sl2, sl2_module(sl2, m)) for m in range(4)]
    yield holds(
        "centrality of the projected invariant (sl2)",
        ((m, rst_m.centrality_check(rst_m.xi_invariant())) for m, rst_m in enumerate(maps)),
    )
    yield holds(
        "basis independence of the invariant map",
        [("V(2)", RSTMap(sl2, V, basis="words").xi_invariant() == RSTMap(sl2, V, basis="dcb").xi_invariant())],
    )

    def vector_cases():
        for preset, n in (("A1", 1), ("A2", 2), ("A3", 3)):
            alg = Algebra.get(preset)
            got = RSTMap(alg, vector_module(alg)).xi_invariant()
            half = alg.half
            e_int = _interval(half, 1, n)
            f_lab = alg.label_of(MINUS, half.flip(e_int))
            e_star_lab = alg.label_of(PLUS, half.star(e_int))
            bullet = alg.bullet(f_lab, e_star_lab).with_flavor("check")
            tag = tuple(2 if k == 0 else 0 for k in range(n))
            K = kmono((0,) * n, tuple(-1 for _ in range(n)), tag)
            yield preset, got == alg.ctx.normalize_tags(alg.ctx.diamond(K, bullet).scale(Rat.of((-1) ** n)))

    yield holds("sl_(n+1) invariant = weight-shifted interval bullet, n <= 3", vector_cases())

    b2 = Algebra.get("B2")
    V1 = sp4_module(b2, 1)
    lab121 = _two_letter(b2, 0, 1, 1, 1)[0]
    yield holds(
        "sp4 omega_1 invariant = -F_121 bullet E_121",
        [
            ("V(omega_1)", RSTMap(b2, V1).xi_invariant()
             == b2.bullet(lab121, lab121).with_flavor("check").scale(Rat.of(-1))),
        ],
    )
    V2 = sp4_module(b2, 2)
    lab2112 = b2.label_of(PLUS, _e2112(b2))
    yield holds(
        "sp4 omega_2 invariant = F_2112 bullet E_2112",
        [("V(omega_2)", RSTMap(b2, V2).xi_invariant() == b2.bullet(lab2112, lab2112).with_flavor("check"))],
    )


# ===========================================================================
# criterion 10: structure constants
# ===========================================================================

def suite_strconst(seed):
    sl2 = Algebra.get("A1")
    orc = SL2Oracle(sl2.ctx)

    # the recursion coefficients of F^n E^n, positivity asserted for n <= 5
    cs = {(0, 0, 0): Laurent({0: 1})}

    def c(n, r, j):
        if r < 0 or j < 0 or j > r or r > n:
            return Laurent()
        if (n, r, j) not in cs:
            val = (
                c(n - 1, r, j) + c(n - 1, r - 2, j - 1)
            ) + c(n - 1, r - 1, j).shift(-2) + c(n - 1, r - 1, j - 1).shift(2)
            cs[(n, r, j)] = val.shift(4 * (r - 2 * j))
        return cs[(n, r, j)]

    def recursion_cases():
        for n in range(1, 6):
            lhs = sl2.ctx.multiply(orc.fpow(n), orc.epow(n))
            rhs = sl2.ctx.zero("full")
            for r in range(n + 1):
                for j in range(r + 1):
                    coeff = c(n, r, j)
                    yield (n, r, j), all(v >= 0 for v in coeff.c.values()) and coeff.bar() == c(n, r, r - j)
                    if not coeff.is_zero():
                        rhs = rhs + sl2.ctx.multiply(
                            sl2.ctx.k_elem(kmono((j,), (r - j,))), orc.chebyshev(n - r)
                        ).scale(coeff)
            yield n, lhs == rhs

    yield holds("sl2 recursion coefficients positive and exact, n <= 5", recursion_cases())

    a2 = Algebra.get("A2")

    def report(lm, lp):
        """The report of the pair's structure constants, or None when they
        cannot be formed."""
        try:
            return a2.structure_constants(lm, lp)[1]
        except TriangularityError:
            return None

    reports = {
        (lm, lp): report(lm, lp)
        for h1 in range(5)
        for g1 in a2.datum.degrees_of_height(h1)
        for g2 in a2.datum.degrees_of_height(4 - h1)
        for lm in a2.tables.labels_of_degree(g1)
        for lp in a2.tables.labels_of_degree(g2)
    }
    formed = [rep for rep in reports.values() if rep is not None]
    # positivity is a conjecture: reported in the detail, never asserted
    positivity = "all positive" if all(rep["positive"] for rep in formed) else "negative coefficients found"
    yield holds(
        "A2 structure constants integral (pairs of total height <= 4)",
        ((pair, rep is not None) for pair, rep in reports.items()),
        f"{len(formed)} pairs; positivity: {positivity}",
    )

    # every A2 pair above has d = 1; the A1affine pair F[1 2] has d = (2)_q,
    # so its expansion must rebuild d b_- b_+, which differs from b_- b_+
    aff = Algebra.get("A1affine")
    f12 = "F[1 2]"
    try:
        coeffs, _ = aff.structure_constants(f12, f12)
    except TriangularityError:
        coeffs = {}  # no expansion rebuilds d b_- b_+
    total = aff.ctx.zero("full")
    for ((am, ap), l2, l3), coeff in coeffs.items():
        total = total + aff.ctx.diamond(kmono(am, ap), aff.bullet(l2, l3)).scale(coeff)
    pair = aff.ctx.from_halves(minus=aff.dcb_elem(MINUS, f12), plus=aff.dcb_elem(PLUS, f12))
    d = aff.d_multiplier(f12, f12)
    yield holds(
        "A1affine F[1 2] structure constants rebuild d b_- b_+ with d = (2)_q",
        [
            ("d = (2)_q", d == qround(2, 2)),
            ("the expansion rebuilds d b_- b_+", total == pair.scale(d)),
            ("d b_- b_+ != b_- b_+", pair.scale(d) != pair),
        ],
    )


# ===========================================================================
# criterion 11: property suites
# ===========================================================================

def suite_properties(seed):
    rng = random.Random(seed)
    # every random case is drawn before any is checked, so a failing record
    # leaves the draws of the records after it as they are

    def unitriangular():
        """A random lower unitriangular matrix over Z[v, v^-1]."""
        n = rng.randrange(2, 6)
        P = [[RAT_ZERO] * n for _ in range(n)]
        for t in range(n):
            for s in range(t):
                if rng.random() < 0.6:
                    P[t][s] = Rat.of(Laurent({rng.randrange(1, 4): rng.randrange(-3, 4)}))
        return [[(RAT_ONE if a == b else RAT_ZERO) + P[a][b] for b in range(n)] for a in range(n)]

    def bar_fix_inverts(M):
        n = len(M)
        Minv = linalg.invert(M)
        Mbar = [[x.bar() for x in row] for row in M]
        B = linalg.mat_mul(Mbar, Minv)
        # M is lower unitriangular, so bar row t reaches only the labels below t
        rows = [{s: B[t][s] for s in range(n) if not B[t][s].is_zero()} for t in range(n)]
        sols = [
            bar_fix(rows[t], reversed(range(t)), rows.__getitem__, "positive", f"row {t}")
            for t in range(n)
        ]
        R = [
            [RAT_ONE if a == b else sols[a].get(b, RAT_ZERO) for b in range(n)] for a in range(n)
        ]
        ident = [[RAT_ONE if a == b else RAT_ZERO for b in range(n)] for a in range(n)]
        # idempotence: identity bar data returns no corrections
        unit = lambda k: {k: RAT_ONE}  # noqa: E731
        return linalg.mat_mul(R, M) == ident and not any(
            bar_fix(unit(t), reversed(range(t)), unit, "positive", f"row {t}") for t in range(n)
        )

    families = [unitriangular() for _ in range(100)]
    yield holds(
        "bar-correction engine on 100 random consistent families",
        ((t, bar_fix_inverts(M)) for t, M in enumerate(families)),
    )

    a2 = Algebra.get("A2")
    half = a2.half
    datum = a2.datum
    draws = []
    for _ in range(500):
        w = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 6)))
        coeff = Laurent({rng.randrange(-2, 3): rng.randrange(1, 4)})
        w2 = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
        draws.append((w, coeff, w2, rng.randrange(2), rng.randrange(2)))

    def leibniz_cases():
        for t, (w, coeff, w2, i, jj) in enumerate(draws):
            x = half.element(PLUS, {w: Rat.of(coeff)})
            y = half.element(PLUS, {w2: RAT_ONE})
            if x.is_zero() or y.is_zero():
                continue
            gx, gy = half.word_degree(w), half.word_degree(w2)
            lhs = half.deriv(i, x * y)
            rhs = (half.deriv(i, x) * y).scale(
                nu_power(datum.d[i] * datum.coroot(i, gy))
            ) + (x * half.deriv(i, y)).scale(nu_power(-datum.d[i] * datum.coroot(i, gx)))
            yield t, lhs == rhs and half.deriv(i, half.deriv(jj, x, "op")) == half.deriv(
                jj, half.deriv(i, x), "op"
            )

    yield holds("quasi-derivation Leibniz/commutation on 500 random elements", leibniz_cases())

    def random_pair():
        """A random element of the A2 double and a random K-monomial."""
        terms = {}
        for _ in range(2):
            f = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 3)))
            e = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 3)))
            K = kmono((rng.randrange(2), rng.randrange(2)), (rng.randrange(2), rng.randrange(2)))
            terms[(K, f, e)] = Rat.of(Laurent({rng.randrange(-2, 3): 1}))
        return TriElem(a2.ctx, "full", terms), kmono((rng.randrange(2), 0), (0, rng.randrange(2)))

    bar = a2.ctx.bar
    yield holds(
        "bar involutivity and diamond equivariance",
        (
            (t, bar(bar(x)) == x and bar(a2.ctx.diamond(K, x)) == a2.ctx.diamond(K, bar(x)))
            for t, (x, K) in enumerate([random_pair() for _ in range(40)])
        ),
    )

    def two_path_cases():
        for gm, gp in [((1, 0), (0, 1)), ((1, 1), (1, 0)), ((1, 1), (1, 1))]:
            for lm in a2.tables.labels_of_degree(gm):
                for lp in a2.tables.labels_of_degree(gp):
                    got = product_expansion_via_coproduct(a2, lm, lp)
                    yield (lm, lp), got == a2.engine.reverse_dcb(lm, lp)

    yield holds("two-path product expansion agreement (rank 2)", two_path_cases())

    sl2 = Algebra.get("A1")

    def render(alg):
        rows = alg.engine.enumerate_basis((2,))
        return json.dumps(
            [
                {k: (tri_to_obj(v) if k == "element" else v) for k, v in row.items()}
                for row in rows
            ],
            sort_keys=True,
        )

    render(sl2)  # fill the shared instance's memos first
    yield holds(
        "deterministic output: fresh and warm A1 instances agree",
        [("A1 at degree (2,)", render(Algebra("A1")) == render(sl2))],
    )


SUITES = {
    "pairing": suite_pairing_law,
    "rank2pairing": suite_rank2_pairing,
    "serre": suite_serre,
    "sl2": suite_sl2_oracle,
    "multipliers": suite_multipliers,
    "tables-minusone": suite_tables_minus_one_family,
    "tables-equald": suite_tables_equal_d,
    "tables-affine": suite_tables_affine22,
    "rank3": suite_tables_rank3,
    "tables-tony": suite_tables_tony,
    "braid": suite_braid,
    "tame": suite_tame,
    "rst": suite_rst,
    "strconst": suite_strconst,
    "properties": suite_properties,
}

CLI_SUITES = {
    "sl2": ("sl2", "strconst"),
    "rank2": ("pairing", "rank2pairing", "serre", "multipliers", "tables-minusone", "tables-equald", "tables-affine"),
    "rank3": ("rank3",),
    "braid": ("braid", "tame"),
    "rst": ("rst",),
    "all": tuple(SUITES),
}


def run_suites(names, seed: int = 2026):
    """Every record of the named suites, in order."""
    return [record for name in names for record in SUITES[name](seed)]

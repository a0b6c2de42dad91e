"""Lowest-weight modules from explicit action tables, the Shapovalov pairing,
the canonical invariant, and the equivariant map into the weight-extended
double, with comparison hooks against bullet elements."""
from __future__ import annotations

from itertools import product

from .double import TriElem, kmono
from .halves import HalfElem, PLUS, MINUS
from .scalar import (
    Rat,
    RAT_ONE,
    RAT_ZERO,
    accumulate,
    nu_power,
    parse_scalar,
    qangle,
    qround,
)
from . import linalg


class ModuleError(ValueError):
    pass


class LWModule:
    """Lowest-weight module given by action matrices of the unit divided powers.

    E[i][k][j] is the v_k-coefficient of E_i^<1> v_j (same layout for F).
    Construction checks the grading (E_i raises the degree by alpha_i, F_i
    lowers it) and the commutators [E_i^<1>, F_j^<1>].  These imply the
    quantum Serre relations, which are not checked: a Serre element on
    either side is killed by ad F_i and has ad K_i-weight 2 - a_ij > 0 in
    End V, so on a finite-dimensional module it would be a lowest-weight
    vector of positive weight, and acts as zero.  The Shapovalov pairing is
    built from the lowest-weight vector or taken from the input; both checked.
    """

    def __init__(self, algebra, name, mu, degrees, E, F, shapovalov=None):
        self.alg = algebra
        self.datum = algebra.datum
        self.name = name
        self.mu = tuple(mu)  # coroot evaluations of the lowest weight's negative
        self.degrees = [tuple(d) for d in degrees]
        self.dim = len(self.degrees)
        self.E = {i: [[Rat.of(c) for c in row] for row in M] for i, M in E.items()}
        self.F = {i: [[Rat.of(c) for c in row] for row in M] for i, M in F.items()}
        self._shap = shapovalov
        self._check_relations()
        self._build_shapovalov()

    # -- relations and the Shapovalov form ------------------------------------
    def _check_relations(self):
        datum = self.datum
        n = self.dim
        rank = datum.rank
        zero = [[RAT_ZERO] * n for _ in range(n)]
        # degree compatibility: E_i raises the degree by alpha_i, F_i lowers it
        for i in range(rank):
            for j in range(n):
                for k in range(n):
                    for mats, tag, step in ((self.E, "E", 1), (self.F, "F", -1)):
                        moved = tuple(d + step * (t == i) for t, d in enumerate(self.degrees[j]))
                        if not mats[i][k][j].is_zero() and self.degrees[k] != moved:
                            raise ModuleError(f"{tag}_{i} breaks the grading at {j}->{k}")
        # commutators [E_i^<1>, F_j^<1>] = delta_ij diag(-(coroot(-mu+|v|))_{q_i})
        for i in range(rank):
            for j in range(rank):
                ef = linalg.mat_mul(self.E[i], self.F[j])
                fe = linalg.mat_mul(self.F[j], self.E[i])
                comm = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ef, fe)]
                if i != j:
                    if comm != zero:
                        raise ModuleError(f"[E_{i}, F_{j}] does not vanish")
                else:
                    for b in range(n):
                        w = -self.mu[i] + self.datum.coroot(i, self.degrees[b])
                        want = Rat.of(qround(w, datum.qi_exp(i))) * Rat.of(-1)
                        for a in range(n):
                            expect = want if a == b else RAT_ZERO
                            if comm[a][b] != expect:
                                raise ModuleError(f"[E_{i}, F_{i}] wrong at ({a},{b})")

    def _build_shapovalov(self):
        """The diagonal Shapovalov form, supplied or built from the lowest-weight
        vector, checked nonsingular and adjoint: <E_i v_a|v_b> = <v_a|F_i v_b>."""
        n = self.dim
        if self._shap is not None:
            shap = [Rat.of(c) for c in self._shap]
            if len(shap) != n:
                raise ModuleError(f"Shapovalov form has {len(shap)} entries, not {n}")
        else:
            shap = [None] * n
            # the lowest-weight vector is the unique degree-zero one
            order = sorted(range(n), key=lambda j: sum(self.degrees[j]))
            base = order[0]
            if any(self.degrees[base]):
                raise ModuleError("no lowest-weight vector of degree zero")
            shap[base] = RAT_ONE
            for j in order[1:]:
                for i, w in product(range(self.datum.rank), range(n)):
                    if shap[w] is not None and not self.E[i][j][w].is_zero():
                        break
                else:
                    raise ModuleError(f"cannot reach vector {j} for the Shapovalov chain")
                # <v_j|v_j> from <E_i w | v_j> = <w | F_i v_j>
                shap[j] = self.F[i][w][j] * shap[w] / self.E[i][j][w]
        if any(s.is_zero() for s in shap):
            raise ModuleError("Shapovalov block is singular")
        self.shap = shap
        for i, a, b in product(range(self.datum.rank), range(n), range(n)):
            if self.E[i][b][a] * shap[b] != self.F[i][a][b] * shap[a]:
                raise ModuleError("Shapovalov adjointness fails")

    # -- actions -----------------------------------------------------------------
    def act_letter(self, sign: int, i: int, vec: dict) -> dict:
        """Action of E_i (sign +) or F_i (sign -) in the paper normalization
        X_i = <1>_{q_i} X_i^<1>."""
        M = self.E[i] if sign == PLUS else self.F[i]
        bracket = Rat.of(qangle(1, self.datum.qi_exp(i)))
        out: dict = {}
        for j, c in vec.items():
            for k in range(self.dim):
                if not M[k][j].is_zero():
                    accumulate(out, k, c * M[k][j] * bracket)
        return out

    def act_half(self, x: HalfElem, vec: dict) -> dict:
        out: dict = {}
        for w, coeff in x.terms.items():
            cur = dict(vec)
            for letter in reversed(w):
                cur = self.act_letter(x.sign, letter, cur)
                if not cur:
                    break
            for k, c in cur.items():
                accumulate(out, k, coeff * c)
        return out

    def pairing(self, u: dict, v: dict) -> Rat:
        total = RAT_ZERO
        for j, c in u.items():
            if j in v:
                total = total + c * v[j] * self.shap[j]
        return total

    def dual_vector(self, j: int) -> dict:
        return {j: self.shap[j].inv()}


# ---------------------------------------------------------------------------
# built-in modules
# ---------------------------------------------------------------------------

def sl2_module(algebra, m: int) -> LWModule:
    """(m+1)-dimensional irreducible with standard divided-power action."""
    n = m + 1
    E = [[RAT_ZERO] * n for _ in range(n)]
    F = [[RAT_ZERO] * n for _ in range(n)]
    for b in range(n):
        if b + 1 < n:
            E[b + 1][b] = Rat.of(qround(b + 1, 2))
        if b - 1 >= 0:
            F[b - 1][b] = Rat.of(qround(m - b + 1, 2)) * Rat.of(-1)
    degrees = [(b,) for b in range(n)]
    return LWModule(algebra, f"sl2-dim{n}", (m,), degrees, {0: E}, {0: F})


def vector_module(algebra) -> LWModule:
    """Vector representation of sl_(n+1) with lowest weight -omega_1."""
    rank = algebra.datum.rank
    n = rank + 1
    E = {i: [[RAT_ZERO] * n for _ in range(n)] for i in range(rank)}
    F = {i: [[RAT_ZERO] * n for _ in range(n)] for i in range(rank)}
    for i in range(rank):
        E[i][i + 1][i] = RAT_ONE
        F[i][i][i + 1] = Rat.of(-1)
    degrees = [tuple(1 if t < j else 0 for t in range(rank)) for j in range(n)]
    mu = tuple(1 if i == 0 else 0 for i in range(rank))
    return LWModule(algebra, f"sl{n}-vector", mu, degrees, E, F)


def sp4_module(algebra, fundamental: int) -> LWModule:
    """The two fundamental modules of sp4 on the short-first preset."""
    if fundamental == 1:
        degrees = [(0, 0), (1, 0), (1, 1), (2, 1)]
        E = {0: [[RAT_ZERO] * 4 for _ in range(4)], 1: [[RAT_ZERO] * 4 for _ in range(4)]}
        F = {0: [[RAT_ZERO] * 4 for _ in range(4)], 1: [[RAT_ZERO] * 4 for _ in range(4)]}
        E[0][1][0] = RAT_ONE
        E[1][2][1] = RAT_ONE
        E[0][3][2] = RAT_ONE
        F[0][2][3] = Rat.of(-1)
        F[1][1][2] = Rat.of(-1)
        F[0][0][1] = Rat.of(-1)
        return LWModule(algebra, "sp4-omega1", (1, 0), degrees, E, F)
    if fundamental == 2:
        degrees = [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]
        E = {0: [[RAT_ZERO] * 5 for _ in range(5)], 1: [[RAT_ZERO] * 5 for _ in range(5)]}
        F = {0: [[RAT_ZERO] * 5 for _ in range(5)], 1: [[RAT_ZERO] * 5 for _ in range(5)]}
        two_q = Rat.of(qround(2, 2))
        E[1][1][0] = RAT_ONE
        E[0][2][1] = RAT_ONE
        E[0][3][2] = two_q
        E[1][4][3] = RAT_ONE
        F[1][0][1] = Rat.of(-1)
        F[0][1][2] = two_q * Rat.of(-1)
        F[0][2][3] = Rat.of(-1)
        F[1][3][4] = Rat.of(-1)
        return LWModule(algebra, "sp4-omega2", (0, 1), degrees, E, F)
    raise ValueError("fundamental must be 1 or 2")


def module_from_obj(algebra, obj) -> LWModule:
    """Module file: {"mu":[...],"vectors":[{"name","degree"}...],
    "E":{i: matrix},"F":{i: matrix},"shapovalov":[...]} with scalar strings."""
    degrees = [tuple(v["degree"]) for v in obj["vectors"]]
    E = {
        int(i): [[parse_scalar(c) for c in row] for row in M] for i, M in obj["E"].items()
    }
    F = {
        int(i): [[parse_scalar(c) for c in row] for row in M] for i, M in obj["F"].items()
    }
    shap = [parse_scalar(c) for c in obj["shapovalov"]] if "shapovalov" in obj else None
    return LWModule(algebra, obj.get("name", "user"), tuple(obj["mu"]), degrees, E, F, shap)


# ---------------------------------------------------------------------------
# the equivariant map
# ---------------------------------------------------------------------------

class RSTMap:
    def __init__(self, algebra, module: LWModule, basis: str = "words"):
        self.alg = algebra
        self.V = module
        self.datum = algebra.datum
        self.basis_kind = basis
        self._dual_cache: dict = {}

    # -- dual bases of the halves w.r.t. the brace pairing -----------------------
    def brace(self, u_minus: HalfElem, u_plus: HalfElem) -> Rat:
        """{u_-, u_+} = q^(-ulgamma/2) <u_+, u_->, degreewise: the twisted form
        ((u_+^{*t}, u_-))."""
        return self.alg.tables.fgfrm(self.alg.half.flip(u_plus), u_minus)

    def _bases(self, gamma):
        """(plus, minus, check_plus, check_minus) with {check_plus[b], plus[c]}
        = delta = {minus[c], check_minus[b]}: as ((,)) is symmetric, check_plus
        is the basis dual to minus and check_minus its flip."""
        gamma = tuple(gamma)
        key = (gamma, self.basis_kind)
        if key in self._dual_cache:
            return self._dual_cache[key]
        half = self.alg.half
        tables = self.alg.tables
        if self.basis_kind == "words":
            # both halves are spanned by the same pivot words
            pivots = half.degree_basis(gamma).pivots
            minus = [half.element(MINUS, {w: RAT_ONE}) for w in pivots]
            duals = tables.dual_basis(gamma, minus)
        elif self.basis_kind == "dcb":
            table = tables.dcb_table(gamma)
            minus, duals = table.minus, table.duals
        else:
            raise ValueError(f"unknown basis kind {self.basis_kind!r}")
        out = ([half.flip(x) for x in minus], minus, duals, [half.flip(x) for x in duals])
        self._dual_cache[key] = out
        return out

    # -- the map itself --------------------------------------------------------------
    def xi_pair(self, uvec: dict, vvec: dict) -> TriElem:
        """Xi(u tensor v) for vectors given as index -> coefficient dicts."""
        V = self.V
        alg = self.alg
        datum = self.datum
        ctx = alg.ctx
        rank = datum.rank
        out = ctx.zero("check")
        tag = tuple(2 * m for m in V.mu)
        by_deg_u: dict = {}
        by_deg_v: dict = {}
        for vec, by_deg in ((uvec, by_deg_u), (vvec, by_deg_v)):
            for j, c in vec.items():
                by_deg.setdefault(V.degrees[j], {})[j] = c
        for du, uv in by_deg_u.items():
            for dv, vv in by_deg_v.items():
                prefactor = nu_power(datum.ulgamma(dv) - datum.ulgamma(du))
                for gp in datum.degrees_up_to(dv):
                    gm = tuple(a - b + c_ for a, b, c_ in zip(du, dv, gp))
                    if any(x < 0 for x in gm):
                        continue
                    plus, _, check_plus, _ = self._bases(gp)
                    _, minus_m, _, check_minus_m = self._bases(gm)
                    eta_exp = 2 * datum.eta(gp)
                    for bp, cp in zip(plus, check_plus):
                        cp_v = V.act_half(cp, vv)
                        if not cp_v:
                            continue
                        for bm, cm in zip(minus_m, check_minus_m):
                            cm_t = alg.half.transpose(cm)
                            cm_u = V.act_half(cm_t, uv)
                            if not cm_u:
                                continue
                            val = V.pairing(cp_v, cm_u)
                            if val.is_zero():
                                continue
                            # (K_(kv,0) diamond b_-)(K_(0,2mu-dv) diamond b_+)
                            kv = tuple(a - b for a, b in zip(dv, gp))
                            K1 = kmono(kv, (0,) * rank)
                            K2 = kmono((0,) * rank, tuple(-x for x in dv), tag)
                            term = ctx.multiply(
                                ctx.diamond(K1, ctx.from_halves(minus=bm, flavor="check")),
                                ctx.diamond(K2, ctx.from_halves(plus=bp, flavor="check")),
                            )
                            out = out + term.scale(val * prefactor * nu_power(eta_exp))
        return ctx.normalize_tags(out)

    def xi_invariant(self) -> TriElem:
        """Xi applied to the canonical invariant."""
        total = self.alg.ctx.zero("check")
        for coeff, dual, a in self.canonical_invariant():
            total = total + self.xi_pair(dual, {a: RAT_ONE}).scale(coeff)
        return self.alg.ctx.normalize_tags(total)

    def canonical_invariant(self):
        """1_V as a list of (coefficient, dual-slot vector, vector index)."""
        V = self.V
        rho_exp = 2 * self.datum.two_rho_dot(V.mu)
        out = []
        for a in range(V.dim):
            coeff = nu_power(rho_exp - 4 * self.datum.eta(V.degrees[a]))
            out.append((coeff, V.dual_vector(a), a))
        return out

    # -- verification hooks ------------------------------------------------------------
    def centrality_check(self, x: TriElem) -> bool:
        """[x, E_i] = [x, F_i] = 0 after the group-like projection."""
        ctx = self.alg.ctx
        for i in range(self.datum.rank):
            for gen in (ctx.e_gen(i, "check"), ctx.f_gen(i, "check")):
                comm = ctx.multiply(x, gen) - ctx.multiply(gen, x)
                if not ctx.project_group_like(comm).is_zero():
                    return False
        return True

    def equivariance_check(self, i: int, uvec: dict, vvec: dict) -> bool:
        """Xi(E_i . (u tensor v)) = [E_i, Xi(u tensor v)] K_{+i}^(-1), with
        E_i . (u tensor v) = u tensor E_i v - K_i^-1 F_i u tensor K_i v."""
        V = self.V
        ctx = self.alg.ctx
        datum = self.datum

        def K(power, vec):
            # v_j has K_i-eigenvalue q_i^(coroot_i(|v_j|) - mu_i)
            return {
                j: c * nu_power(power * datum.qi_exp(i) * (datum.coroot(i, V.degrees[j]) - V.mu[i]))
                for j, c in vec.items()
            }

        lhs = self.xi_pair(uvec, V.act_letter(PLUS, i, vvec)) - self.xi_pair(
            K(-1, V.act_letter(MINUS, i, uvec)), K(1, vvec)
        )
        rhs = ctx.adjoint_act(i, "E", self.xi_pair(uvec, vvec))
        return ctx.normalize_tags(lhs) == ctx.normalize_tags(rhs)

"""Cartan data, grading monoids, bicharacters and Weyl-word utilities.

Degrees over the index set are plain integer tuples; the symmetric pairing
alpha_i . alpha_j = d_i a_ij drives every q-power in the algebra layers.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import product


class CartanError(ValueError):
    pass


@dataclass(frozen=True)
class CartanDatum:
    """A symmetrizable Cartan datum.  labels, A and d may come as lists or
    tuples and are kept as tuples; the labels are distinct nonempty strings
    without whitespace or the label grammar's `^`, `[` and `]` (the letters
    of the words on output, read back from tokens like `F[1^2]`), and A and
    d hold plain ints, not bools or floats.  CartanError otherwise."""

    labels: tuple[str, ...]
    A: tuple[tuple[int, ...], ...]
    d: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        labels, A, d = self.labels, self.A, self.d
        if not _list_of(labels, str) or any(s.split() != [s] or set(s) & set("^[]") for s in labels):
            raise CartanError("labels must be a list of nonempty strings without whitespace, '^', '[' or ']'")
        if len(set(labels)) != len(labels):
            raise CartanError(f"labels {list(labels)} are not distinct")
        if not (isinstance(A, (list, tuple)) and all(_list_of(row, int) for row in A) and _list_of(d, int)):
            raise CartanError("Cartan matrix and symmetrizers must hold integers")
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "A", tuple(map(tuple, A)))
        object.__setattr__(self, "d", tuple(d))
        n = len(self.labels)
        if len(self.A) != n or any(len(row) != n for row in self.A):
            raise CartanError("Cartan matrix shape does not match labels")
        if len(self.d) != n or any(di <= 0 for di in self.d):
            raise CartanError("symmetrizers must be positive")
        for i in range(n):
            if self.A[i][i] != 2:
                raise CartanError("diagonal Cartan entries must equal 2")
            for j in range(n):
                if i != j and self.A[i][j] > 0:
                    raise CartanError("off-diagonal Cartan entries must be <= 0")
                if i != j and (self.A[i][j] == 0) != (self.A[j][i] == 0):
                    raise CartanError("a_ij = 0 iff a_ji = 0 violated")
                if self.d[i] * self.A[i][j] != self.d[j] * self.A[j][i]:
                    raise CartanError("datum is not symmetrizable by d")

    # -- indices --------------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        if isinstance(label, int):
            return label
        if label not in self.labels:
            raise CartanError(f"unknown index label {label!r}")
        return self.labels.index(label)

    def alpha(self, i: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    # -- pairing layer ----------------------------------------------------
    def dot(self, alpha, beta) -> int:
        """alpha . beta = sum d_i a_ij alpha_i beta_j on Gamma."""
        tot = 0
        for i, ai in enumerate(alpha):
            if not ai:
                continue
            row = self.A[i]
            di = self.d[i]
            for j, bj in enumerate(beta):
                if bj:
                    tot += ai * bj * di * row[j]
        return tot

    def eta(self, alpha) -> int:
        return sum(a * di for a, di in zip(alpha, self.d))

    def ulgamma(self, alpha) -> int:
        """gamma_(alpha) = alpha.alpha/2 - eta(alpha); vanishes on simple roots."""
        return self.dot(alpha, alpha) // 2 - self.eta(alpha)

    def coroot(self, i: int, alpha) -> int:
        """alpha_i^vee on Gamma."""
        return sum(self.A[i][j] * aj for j, aj in enumerate(alpha))

    def qi_exp(self, i: int) -> int:
        """nu-exponent of q_i."""
        return 2 * self.d[i]

    # -- degree enumeration ------------------------------------------------
    def degrees_up_to(self, gamma) -> list[tuple[int, ...]]:
        """All componentwise-bounded degrees, sorted by height then lex."""
        ranges = [range(g + 1) for g in gamma]
        out = [tuple(t) for t in product(*ranges)]
        out.sort(key=lambda t: (sum(t), t))
        return out

    def degrees_of_height(self, h: int) -> list[tuple[int, ...]]:
        """All degrees of height h, in lex order."""
        return [t for t in self.degrees_up_to((h,) * self.rank) if sum(t) == h]

    # -- Weyl group (finite type only where needed) -------------------------
    def simple_reflection(self, i: int, alpha) -> tuple[int, ...]:
        c = self.coroot(i, alpha)
        out = list(alpha)
        out[i] -= c
        return tuple(out)

    def is_finite_type(self) -> bool:
        return self._positive_roots is not None

    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        """Positive roots sorted by height; raises for non-finite type."""
        roots = self._positive_roots
        if roots is None:
            raise CartanError(f"datum {self.name or self.labels} is not of finite type")
        return roots

    @cached_property
    def _positive_roots(self) -> tuple[tuple[int, ...], ...] | None:
        """Positive roots by reflection closure, computed once per datum; None
        when the closure outgrows any finite root system of this rank."""
        roots = {self.alpha(i) for i in range(self.rank)}
        frontier = set(roots)
        bound = 64 * self.rank * self.rank
        while frontier:
            new = set()
            for beta in frontier:
                for i in range(self.rank):
                    im = self.simple_reflection(i, beta)
                    if all(c >= 0 for c in im) and im not in roots and any(im):
                        new.add(im)
            roots |= new
            frontier = new
            if len(roots) > bound:
                return None
        return tuple(sorted(roots, key=lambda t: (sum(t), t)))

    def two_rho_dot(self, coroot_evals) -> int:
        """2 rho . mu for a weight mu given by its coroot evaluations."""
        total = 0
        for beta in self.positive_roots():
            total += sum(c * self.d[k] * coroot_evals[k] for k, c in enumerate(beta))
        return total

    def weyl_act(self, word, alpha):
        """Apply s_{i_1} ... s_{i_m} (leftmost acts last) to a root-lattice vector."""
        out = alpha
        for i in reversed(word):
            out = self.simple_reflection(i, out)
        return out

    def word_roots(self, word) -> tuple[tuple[int, ...], ...]:
        """The roots beta_r = s_{i_1} ... s_{i_{r-1}}(alpha_{i_r}) of a word,
        one per letter, computed once per word and datum: the word is
        reduced iff every one is positive (Humphreys, Reflection Groups and
        Coxeter Groups, 5.6)."""
        word = tuple(word)
        roots = self._word_roots.get(word)
        if roots is None:
            roots = self._word_roots[word] = tuple(
                self.weyl_act(word[:r], self.alpha(i)) for r, i in enumerate(word)
            )
        return roots

    @cached_property
    def _word_roots(self) -> dict:
        """word -> its roots (`word_roots`)."""
        return {}

    def is_reduced(self, word) -> bool:
        return all(min(beta) >= 0 for beta in self.word_roots(word))

    def braid_order(self, i: int, j: int) -> int:
        """Order of s_i s_j: 2, 3, 4, 6 or 0 (infinite)."""
        m = self.A[i][j] * self.A[j][i]
        return {0: 2, 1: 3, 2: 4, 3: 6}.get(m, 0)

    def longest_word(self) -> tuple[int, ...]:
        """A reduced word of the longest element: greedily append the first i
        with w(alpha_i) > 0, which every element but the longest has."""
        n_pos = len(self.positive_roots())
        word: tuple[int, ...] = ()
        while len(word) < n_pos:
            word += (next(i for i in range(self.rank) if min(self.weyl_act(word, self.alpha(i))) >= 0),)
        return word

    # -- serialization -------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps({"labels": list(self.labels), "A": [list(r) for r in self.A], "d": list(self.d)})

    @staticmethod
    def from_json(text: str) -> "CartanDatum":
        try:
            obj = json.loads(text)
            return CartanDatum(obj["labels"], obj["A"], obj["d"], name=obj.get("name", ""))
        except CartanError as exc:
            raise CartanError(f"bad Cartan datum JSON: {exc}") from None
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise CartanError(f"bad Cartan datum JSON: {exc!r}") from None


def _list_of(xs, kind) -> bool:
    """Whether xs is a list or tuple of entries of exactly the type kind:
    a bool is no int."""
    return isinstance(xs, (list, tuple)) and all(type(x) is kind for x in xs)


PRESETS: dict[str, CartanDatum] = {
    "A1": CartanDatum(["1"], [[2]], [1], "A1"),
    "A1xA1": CartanDatum(["1", "2"], [[2, 0], [0, 2]], [1, 1], "A1xA1"),
    "A2": CartanDatum(["1", "2"], [[2, -1], [-1, 2]], [1, 1], "A2"),
    # index 1 short (d=1), index 2 long (d=2): sp4 orientation
    "B2": CartanDatum(["1", "2"], [[2, -2], [-1, 2]], [1, 2], "B2"),
    "G2": CartanDatum(["1", "2"], [[2, -3], [-1, 2]], [1, 3], "G2"),
    "A3": CartanDatum(["1", "2", "3"], [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [1, 1, 1], "A3"),
    # affine A1: a12 = a21 = -2
    "A1affine": CartanDatum(["1", "2"], [[2, -2], [-2, 2]], [1, 1], "A1affine"),
    # rank 3 with all off-diagonal entries -1 (affine sl3 shape)
    "R3": CartanDatum(["1", "2", "3"], [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [1, 1, 1], "R3"),
}

def get_datum(spec) -> CartanDatum:
    """Resolve a preset name, JSON text, or CartanDatum."""
    if isinstance(spec, CartanDatum):
        return spec
    if spec in PRESETS:
        return PRESETS[spec]
    if isinstance(spec, str) and spec.strip().startswith("{"):
        return CartanDatum.from_json(spec)
    raise CartanError(f"unknown Cartan datum {spec!r}")

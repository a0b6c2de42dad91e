"""Facade wiring a Cartan datum to the halves, the double, braid operators,
canonical-basis tables and the circle/bullet engine."""
from __future__ import annotations

from .braid import BraidOps
from .canbasis import CanonicalTables
from .cartan import get_datum
from .double import DoubleContext
from .halves import HalfAlgebra
from .lusztig import Engine


class Algebra:
    _registry: dict = {}

    def __init__(self, datum):
        self.datum = get_datum(datum)
        self.half = HalfAlgebra(self.datum)
        self.ctx = DoubleContext(self.half)
        self.braid = BraidOps(self.ctx)
        self.tables = CanonicalTables(self)
        self.engine = Engine(self)

    @classmethod
    def get(cls, name: str) -> "Algebra":
        """Shared instance per preset name (tables are expensive to rebuild)."""
        if name not in cls._registry:
            cls._registry[name] = cls(name)
        return cls._registry[name]

    # -- convenience delegates ------------------------------------------------
    def pair(self, x, y):
        return self.half.pair(x, y)

    def fgfrm(self, x, y):
        return self.tables.fgfrm(x, y)

    def circ(self, lm, lp, variant="plus"):
        return self.engine.circ(lm, lp, variant)

    def bullet(self, lm, lp, variant="plus"):
        return self.engine.bullet(lm, lp, variant)

    def d_multiplier(self, lm, lp):
        return self.engine.d_multiplier(lm, lp)

    def structure_constants(self, lm, lp):
        return self.engine.structure_constants(lm, lp)

    def label_of(self, sign, elem):
        return self.tables.label_of(sign, elem)

    def dcb_elem(self, sign, label):
        return self.tables.dcb_elem(sign, label)

"""Per-layer tracing of the qdouble package, applied from outside at run time.

`wrap_package` replaces the public functions and methods of each layer module,
and the arithmetic dunders and constructors of their classes, with wrappers
that open a span on entry and close it on return (except the constant-time
queries in UNTRACED).  Names that other modules bound through
``from .scalar import ...`` are re-pointed at the same wrapper, so every call
site is seen.  No file of the package changes.

A span is (name, start, end, parent).  Spans are folded into per-name totals
as they close: a span's self time is its duration minus the durations of its
direct children, and a layer's self time is the sum over its names.  Only the
open spans (one per active call) stay in memory.  Inclusive time counts the
outermost activation of a name only, so recursion is not counted twice.
`replay` folds an explicit span set through the same wrapper, for checking.

The wrapper's own bookkeeping around a call (opening the span before its
first clock read, closing it and running its hook after its last) would count
as self time of the caller.  `calibrate` measures that cost per wrapped call
on a stub, and each closing span charges it to its parent as child time, so
it drops out of every self time.  Inclusive times still contain it.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
import types

# Layer modules of the package, in dependency order.  `cartan` and `algebra`
# are not wrapped: their time counts as self time of the calling layer.
LAYERS = ("scalar", "linalg", "halves", "double", "canbasis", "lusztig", "braid", "cli")

DUNDERS = (
    "__init__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
    "__pow__",
    "__eq__",
)

# Constant-time queries called millions of times per run.  Wrapping them would
# more than double the traced run; their cost counts as the caller's self time.
UNTRACED = {
    "scalar.Laurent.is_zero",
    "scalar.Laurent.is_one",
    "scalar.Laurent.min_exp",
    "scalar.Laurent.max_exp",
    "scalar.Laurent.leading",
    "scalar.Laurent.content",
    "scalar.Rat.is_zero",
    "scalar.Rat.is_one",
    "scalar.Rat.is_laurent",
    "scalar.Rat.of",
}


class Tracer:
    """Per-name totals of closed spans: name -> [calls, incl_s, self_s, depth].

    `stack` holds the summed child time of each open span.  `clock` is read
    once when a span opens and once when it closes.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.stack: list[float] = []
        self.overhead: dict[str, float] = {}  # wrapper -> seconds per call

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def incl_s(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_s(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s[2] for name, s in self.stats.items() if name.startswith(prefix))


def _wrap(fn, name: str, tracer: Tracer, hook=None, overhead: float = 0.0):
    """`fn` inside a span named `name`.  A span's self time is its duration
    minus its direct children's, each child counting `overhead` seconds more
    than its duration (the wrapper's cost outside the child's clock reads);
    inclusive time is added only when no other span of the same name is
    open, so recursion is not counted twice."""
    st = tracer._stat(name)
    stack, clock = tracer.stack, tracer.clock
    push, pop = stack.append, stack.pop

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st[3] += 1
        push(0.0)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = clock() - t0
            child = pop()
            st[0] += 1
            st[2] += dur - child
            st[3] -= 1
            if not st[3]:
                st[1] += dur
            if stack:
                stack[-1] += dur + overhead
        if hook is not None:
            hook(args, kwargs, result)
        return result

    return wrapper


def calibrate(hook=None, args=(), kwargs=None, result=None, n=20000, trials=7) -> float:
    """Seconds one wrapped call adds to its caller's self time: a wrapped
    caller's self time per call into a wrapped stub, minus the time per call
    of the same loop into the bare stub.  Median over `trials`."""
    kwargs = kwargs or {}

    def stub(*a, **k):
        return result

    def loop(f):
        for _ in range(n):
            f(*args, **kwargs)

    per_call = []
    for _ in range(trials):
        tr = Tracer()
        child = _wrap(stub, "child", tr, hook)
        _wrap(lambda: loop(child), "caller", tr)()
        t0 = time.perf_counter()
        loop(stub)
        bare = time.perf_counter() - t0
        per_call.append((tr.self_s("caller") - bare) / n)
    return max(0.0, statistics.median(per_call))


def replay(spans, overhead: float = 0.0) -> Tracer:
    """Fold an explicit span set [(name, start, end, parent_index|None)]
    through the same wrapper the live trace uses: each span becomes a wrapped
    function that calls its children, under a clock that reads out the span
    boundaries in call order.  Raises ValueError when a child does not lie
    inside its parent or overlaps a sibling."""
    children: dict = {}
    for k, (_, start, end, parent) in enumerate(spans):
        if end < start:
            raise ValueError(f"span {k} ends before it starts")
        children.setdefault(parent, []).append(k)
    for kids in children.values():
        kids.sort(key=lambda c: spans[c][1])
    times = []

    def order(k):
        times.append(spans[k][1])
        for c in children.get(k, []):
            order(c)
        times.append(spans[k][2])

    for root in children.get(None, []):
        order(root)
    if times != sorted(times):
        raise ValueError("spans are not properly nested")
    readings = iter(times)
    tracer = Tracer(clock=lambda: next(readings))

    def make(k):
        kids = [make(c) for c in children.get(k, [])]

        def body():
            for kid in kids:
                kid()

        return _wrap(body, spans[k][0], tracer, overhead=overhead)

    for root in [make(r) for r in children.get(None, [])]:
        root()
    return tracer


def _hooks(mods, tracer: Tracer) -> dict:
    """Counts taken at a boundary from its arguments and result, keyed by span
    name, each with sample (args, kwargs, result) to calibrate it on.  They
    call the original (unwrapped) methods, so they add no spans."""
    Laurent, Rat = mods["scalar"].Laurent, mods["scalar"].Rat
    is_one = Laurent.is_one
    counts = tracer.counts
    for key in ("scalar.laurent_gcd.nontrivial", "scalar.Rat.canon", "scalar.Rat.canon.den_nontrivial"):
        counts.setdefault(key, 0)

    def gcd_hook(args, kwargs, result):
        if not is_one(result):
            counts["scalar.laurent_gcd.nontrivial"] += 1

    def rat_init_hook(args, kwargs, result):
        if not kwargs.get("_canonical", args[3] if len(args) > 3 else False):
            counts["scalar.Rat.canon"] += 1
            if not is_one(args[0].den):
                counts["scalar.Rat.canon.den_nontrivial"] += 1

    v = Laurent.mono(1, 1)
    r = Rat(v, v + Laurent.mono(1, 0))
    return {
        "scalar.laurent_gcd": (gcd_hook, (v, v), {}, v),
        "scalar.Rat.__init__": (rat_init_hook, (r, r.num, r.den), {}, None),
    }


def wrap_package(mods: dict, tracer: Tracer):
    """Wrap the layer modules in `mods` (layer name -> module) in place.

    Every module of the package in sys.modules is then scanned for names bound
    to a wrapped function, and those are re-pointed at the wrapper.  The
    wrapper cost is calibrated first, once for plain wrappers and once per
    hook; the calibrated seconds per call are in `tracer.overhead`.
    """
    hooks = _hooks(mods, tracer)
    tracer.overhead = {"plain": calibrate()}
    for name, (hook, args, kwargs, result) in hooks.items():
        tracer.overhead[name] = calibrate(hook, args, kwargs, result)
    for key in tracer.counts:
        tracer.counts[key] = 0
    replaced: dict = {}  # original function -> wrapper

    def wrapped(fn, name):
        got = replaced.get(fn)
        if got is None:
            hook = hooks[name][0] if name in hooks else None
            cost = tracer.overhead.get(name, tracer.overhead["plain"])
            got = replaced[fn] = _wrap(fn, name, tracer, hook, cost)
        return got

    for layer in LAYERS:
        mod = mods[layer]
        modname = mod.__name__
        for attr, val in list(vars(mod).items()):
            if getattr(val, "__module__", None) != modname:
                continue
            if isinstance(val, types.FunctionType) and not attr.startswith("_"):
                setattr(mod, attr, wrapped(val, f"{layer}.{attr}"))
            elif isinstance(val, type):
                _wrap_class(val, f"{layer}.{val.__name__}", wrapped)
    package = mods["scalar"].__name__.rpartition(".")[0]
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if isinstance(val, types.FunctionType) and val in replaced:
                setattr(mod, attr, replaced[val])


def _wrap_class(cls, prefix: str, wrapped):
    for attr, val in list(vars(cls).items()):
        if attr.startswith("_") and attr not in DUNDERS or f"{prefix}.{attr}" in UNTRACED:
            continue
        if isinstance(val, staticmethod):
            setattr(cls, attr, staticmethod(wrapped(val.__func__, f"{prefix}.{val.__func__.__name__}")))
        elif isinstance(val, types.FunctionType):
            setattr(cls, attr, wrapped(val, f"{prefix}.{val.__name__}"))

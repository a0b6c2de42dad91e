"""The benchmark workloads: fixed inputs, a cold pass, a warm pass and the
correctness gate of each.

Every workload gets freshly imported package modules (`mods`, layer name ->
module) and builds its own `Algebra` instances in `setup`, so each round's
cold pass starts from empty caches.  The harness puts the clock to time with
in `env["clock"]`.  Gates run outside the timed regions.  An op that raises
is a failed op: its traceback goes to stderr and its output is FAILED.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import traceback

FAILED = object()


def attempt(fn, *args):
    """fn(*args), or FAILED when it raises."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        return FAILED


class Pass:
    """One timed pass: start and end on the harness clock, the start time and
    seconds of each op, and the outputs."""

    def __init__(self, t0: float, t1: float, op_t: list, op_s: list, outputs: list, count: int = 1):
        self.t0 = t0
        self.t1 = t1
        self.op_t = op_t
        self.op_s = op_s
        self.outputs = outputs
        self.count = count  # repetitions of the workload's warm unit it timed

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


# ---------------------------------------------------------------------------
# basis-a2: the paper's headline table through the command line
# ---------------------------------------------------------------------------

class BasisA2:
    """`qdouble basis --preset A2 --height 2` through `cli.main`, stdout
    captured.  The cold emission pays every cache build; each warm
    re-emission in the same process is one op."""

    name = "basis-a2"
    argv = ["basis", "--preset", "A2", "--height", "2"]
    # sha256 of the emitted text (889,437 bytes, 663 rows).
    digest = "f11550d8693fdbff4fe42a6fcd0445e2ad7694166d51e3559867b7f87e610d2a"
    rows = 663
    warm_reps = 20
    ops_from = "warm"

    def setup(self, mods, seed, round_):
        # cli.main resolves the preset through Algebra.get, so this is the
        # instance the emission fills.
        return {"mods": mods, "algs": {"A2": mods["algebra"].Algebra.get("A2")}}

    def _emit(self, env):
        clock = env["clock"]
        buf = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(buf):
            rc = attempt(env["mods"]["cli"].main, list(self.argv))
        t1 = clock()
        return Pass(t0, t1, [t0], [t1 - t0], [(rc, buf.getvalue())])

    def cold(self, env):
        return self._emit(env)

    def warm(self, env, reps=None):
        return [self._emit(env) for _ in range(self.warm_reps if reps is None else reps)]

    def gate(self, env, cold, warm):
        """Returns (attempted, failed, digest).  Every emission must exit 0
        and match the recorded digest; every row of the cold emission must be
        bar-fixed."""
        failed = 0
        outs = [o for p in [cold, *warm] for o in p.outputs]
        digests = set()
        for k, (rc, text) in enumerate(outs):
            d = hashlib.sha256(text.encode()).hexdigest()
            digests.add(d)
            ok = rc == 0 and d == self.digest
            if ok and k == 0:
                ok = attempt(self._rows_bar_fixed, env, text) is True
            failed += not ok
        return len(outs), failed, ",".join(sorted(digests))

    def _rows_bar_fixed(self, env, text):
        ctx = env["algs"]["A2"].ctx
        tri_from_obj = env["mods"]["double"].tri_from_obj
        rows = json.loads(text)
        return len(rows) == self.rows and all(
            ctx.bar(x) == x for x in (tri_from_obj(ctx, "full", r["element"]) for r in rows)
        )


# ---------------------------------------------------------------------------
# tables: canonical and dual canonical basis builds per degree
# ---------------------------------------------------------------------------

# Fixed degree list, in height order per preset.  Left out on purpose:
#   A1affine (1,3) and (3,1): no table source covers them (TableIncomplete);
#   G2 above height 2, e.g. (1,2): one build takes about 21 s.
# A change that extends coverage therefore does not change this workload.
DEGREES = {
    "A2": [
        (0, 0),
        (0, 1), (1, 0),
        (0, 2), (1, 1), (2, 0),
        (0, 3), (1, 2), (2, 1), (3, 0),
        (0, 4), (1, 3), (2, 2), (3, 1), (4, 0),
        (0, 5), (1, 4), (2, 3), (3, 2), (4, 1), (5, 0),
        (0, 6), (1, 5), (2, 4), (3, 3), (4, 2), (5, 1), (6, 0),
    ],
    "B2": [
        (0, 0),
        (0, 1), (1, 0),
        (0, 2), (1, 1), (2, 0),
        (0, 3), (1, 2), (2, 1), (3, 0),
        (0, 4), (1, 3), (2, 2), (3, 1), (4, 0),
        (0, 5), (1, 4), (2, 3), (3, 2), (4, 1), (5, 0),
    ],
    "A3": [
        (0, 0, 0),
        (0, 0, 1), (0, 1, 0), (1, 0, 0),
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
        (0, 0, 3), (0, 1, 2), (0, 2, 1), (0, 3, 0), (1, 0, 2), (1, 1, 1), (1, 2, 0),
        (2, 0, 1), (2, 1, 0), (3, 0, 0),
        (0, 0, 4), (0, 1, 3), (0, 2, 2), (0, 3, 1), (0, 4, 0), (1, 0, 3), (1, 1, 2),
        (1, 2, 1), (1, 3, 0), (2, 0, 2), (2, 1, 1), (2, 2, 0), (3, 0, 1), (3, 1, 0),
        (4, 0, 0),
    ],
    "G2": [
        (0, 0),
        (0, 1), (1, 0),
        (0, 2), (1, 1), (2, 0),
    ],
    "A1affine": [
        (0, 0),
        (0, 1), (1, 0),
        (0, 2), (1, 1), (2, 0),
        (0, 3), (1, 2), (2, 1), (3, 0),
        (0, 4), (2, 2), (4, 0),
    ],
}


class Tables:
    """`canonical_basis` + `dcb_table` for every degree of DEGREES on fresh
    instances, one op per degree.  The warm unit reads every table back from
    the filled caches and renders its labels and elements as text, as a user
    printing the tables would.  It takes about 7 ms, so a warm pass times
    `warm_renders` of them in a row: a pass then spans enough host-speed
    samples to be normalised."""

    name = "tables"
    # sha256 over the rendered labels and elements of every table, in
    # DEGREES order.
    digest = "5ead48b1da827dd48f1f018366be37b146b47db56b67a0db97ca42aef45782db"
    warm_reps = 10
    warm_renders = 40
    ops_from = "cold"

    def setup(self, mods, seed, round_):
        Algebra = mods["algebra"].Algebra
        return {"mods": mods, "algs": {p: Algebra(p) for p in DEGREES}}

    @staticmethod
    def _build(tables, g):
        return tables.canonical_basis(g), tables.dcb_table(g)

    def cold(self, env):
        clock = env["clock"]
        op_t, op_s, outs = [], [], []
        start = clock()
        for preset, degrees in DEGREES.items():
            tables = env["algs"][preset].tables
            for g in degrees:
                t0 = clock()
                built = attempt(self._build, tables, g)
                op_s.append(clock() - t0)
                op_t.append(t0)
                outs.append((preset, g, built))
        return Pass(start, clock(), op_t, op_s, outs)

    def warm(self, env, reps=None):
        """A pass's outputs are the sha256 of each rendering's text (or
        FAILED), hashed after the pass's end is read."""
        clock = env["clock"]
        fmt = env["mods"]["halves"].format_half
        n = self.warm_renders
        passes = []
        for _ in range(self.warm_reps if reps is None else reps):
            t0 = clock()
            texts = [attempt(self._read_back, env["algs"], fmt) for _ in range(n)]
            t1 = clock()
            outs = [t if t is FAILED else _sha256(t) for t in texts]
            passes.append(Pass(t0, t1, [], [], outs, count=n))
        return passes

    @classmethod
    def _read_back(cls, algs, fmt):
        return "".join(
            cls._render(fmt, preset, g, cls._build(algs[preset].tables, g))
            for preset, degrees in DEGREES.items()
            for g in degrees
        )

    @staticmethod
    def _render(fmt, preset, g, built):
        """The labels and elements of one degree's tables, one per line."""
        if built is FAILED:
            return f"{preset} {g}\nFAILED\n"
        cb, dcb = built
        return "".join([
            f"{preset} {g}\n",
            *(f"cb {lab} {fmt(x)}\n" for lab, x in zip(cb.labels, cb.elements)),
            *(f"dcb {lab} {fmt(x)}\n" for lab, x in zip(dcb.labels, dcb.minus)),
        ])

    def gate(self, env, cold, warm):
        """The text rendered from the cold builds, and every warm rendering,
        must have the recorded digest."""
        fmt = env["mods"]["halves"].format_half
        digest = attempt(lambda: _sha256("".join(self._render(fmt, *out) for out in cold.outputs)))
        ok = digest == self.digest and all(d == self.digest for w in warm for d in w.outputs)
        failed = sum(not ok or built is FAILED for _, _, built in cold.outputs)
        return len(cold.outputs), failed, digest if digest is not FAILED else "FAILED"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# arith: seeded products in the A2 and B2 full doubles
# ---------------------------------------------------------------------------

# Pool of arith input streams.  Round r of a run with seed n uses stream
# (3n + r) mod ARITH_STREAMS: three rounds per run at the declared 30 s, so
# consecutive seeds get disjoint streams.  The sha256 of every stream's
# products is recorded, one per line in stream order, in ARITH_DIGESTS_FILE
# (written by record_arith.py).
ARITH_STREAMS = 64
ARITH_DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "arith_products.sha256")


def arith_stream_index(seed: int, round_: int) -> int:
    return (3 * seed + round_) % ARITH_STREAMS


def arith_stream(stream: int, n: int):
    """n ops, each (preset, kind, elements); an element is two distinct terms
    (K, F-word, E-word, (c, k)) meaning c v^k K F E, with words of at most two
    letters and K exponents in {0, 1}.  Plain data: no package objects.

    Presets and identity kinds follow a fixed cycle, and the F/E words come
    from one fixed draw shared by every stream: the straightening memos are
    keyed by words, so every stream fills them in the same order and the
    cold per-op tail does not depend on the seed (with words drawn per
    stream its quartile spread over seeds was 14 %).  The stream number
    draws the K exponents and the coefficients."""
    rng = random.Random(f"arith:{stream}")
    words = random.Random("arith:words")

    def word():
        return tuple(words.randrange(2) for _ in range(words.randint(0, 2)))

    def k_exps():
        return ((rng.randint(0, 1), rng.randint(0, 1)), (rng.randint(0, 1), rng.randint(0, 1)), (0, 0))

    ops = []
    for i in range(n):
        preset = ("A2", "B2")[i % 2]
        kind = ("assoc", "bar")[i // 2 % 2]
        elems = []
        for _ in range(3 if kind == "assoc" else 2):
            terms = {}
            for f, e in [(word(), word()) for _ in range(2)]:
                # Only K is redrawn on a clash, so the words stay in step.
                key = (k_exps(), f, e)
                while key in terms:
                    key = (k_exps(), f, e)
                terms[key] = (rng.choice((1, -1, 2)), rng.randint(-2, 2))
            elems.append(terms)
        ops.append((preset, kind, elems))
    return ops


class Arith:
    """A seeded stream of identity checks: (xy)z == x(yz) or
    bar(xy) == bar(y) bar(x).  No tables, no engine, no braid operators."""

    name = "arith"
    n_ops = 600
    warm_reps = 1
    ops_from = "cold"

    def setup(self, mods, seed, round_):
        Algebra = mods["algebra"].Algebra
        stream = arith_stream_index(seed, round_)
        return {
            "mods": mods,
            "algs": {p: Algebra(p) for p in ("A2", "B2")},
            "stream": stream,
            "ops": arith_stream(stream, self.n_ops),
        }

    def _pass(self, env):
        clock = env["clock"]
        scalar = env["mods"]["scalar"]
        TriElem = env["mods"]["double"].TriElem
        Rat, Laurent = scalar.Rat, scalar.Laurent
        op_t, op_s, outs = [], [], []
        t_start = clock()
        for preset, kind, elems in env["ops"]:
            ctx = env["algs"][preset].ctx
            t0 = clock()
            outs.append(attempt(self._check, ctx, kind, elems, TriElem, Rat, Laurent))
            op_s.append(clock() - t0)
            op_t.append(t0)
        return Pass(t_start, clock(), op_t, op_s, outs)

    @staticmethod
    def _check(ctx, kind, elems, TriElem, Rat, Laurent):
        """Both sides of one identity."""
        xs = [
            TriElem(ctx, "full", {key: Rat.of(Laurent.mono(c, k)) for key, (c, k) in terms.items()})
            for terms in elems
        ]
        if kind == "assoc":
            x, y, z = xs
            return ctx.multiply(ctx.multiply(x, y), z), ctx.multiply(x, ctx.multiply(y, z))
        x, y = xs
        return ctx.bar(ctx.multiply(x, y)), ctx.multiply(ctx.bar(y), ctx.bar(x))

    def cold(self, env):
        return self._pass(env)

    def warm(self, env, reps=None):
        return [self._pass(env) for _ in range(self.warm_reps if reps is None else reps)]

    def gate(self, env, cold, warm):
        """Both sides of every identity must be equal, and the products of
        every pass must have the digest recorded for the round's stream."""
        with open(ARITH_DIGESTS_FILE, encoding="ascii") as fh:
            want = fh.read().split()[env["stream"]]
        failed = 0
        digests = []
        for p in [cold, *warm]:
            d, bad = self.digest(env, p.outputs)
            digests.append(d)
            # A bad op changes the digest too; a wrong digest with no bad op
            # fails the whole pass.
            failed += bad if bad else len(p.outputs) * (d != want)
        return sum(len(p.outputs) for p in [cold, *warm]), failed, digests[0]

    @staticmethod
    def digest(env, outputs):
        """(sha256 over the products, number of ops that raised or whose two
        sides differ)."""
        fmt = env["mods"]["double"].format_tri

        def text(out):
            lhs, rhs = out
            return fmt(lhs) if lhs == rhs else None

        h = hashlib.sha256()
        bad = 0
        for out in outputs:
            t = FAILED if out is FAILED else attempt(text, out)
            if t is FAILED or t is None:
                bad += 1
                t = "FAILED"
            h.update(t.encode() + b"\n")
        return h.hexdigest(), bad


WORKLOADS = {w.name: w for w in (BasisA2(), Tables(), Arith())}

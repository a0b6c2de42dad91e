"""Command-line front end: compute basis tables, verify identity suites, and
evaluate element-level utilities.

Exit codes: 0 pass, 1 verification failure, 2 usage or configuration error
(bad arguments, unknown labels, unreadable or invalid --tables, --tables
blocks over which Lusztig's lemma fails, a degree no table source covers),
3 internal error (any other exception; the traceback goes to stderr), 141
stdout closed by its reader (128 + SIGPIPE; nothing is printed).  A
--tables file is checked at load: its JSON framing, one block per degree and
unique labels here, each element's terms by halves.half_from_obj, and every
rule of a block (F-side nonzero elements of its degree, free labels, a basis
dual to the canonical basis where there is one, bar-fixed) by
CanonicalTables.load_user_table.
strconst takes labels (`1`, `F[...]`, `b(...).k`, `b+(...)`, --tables
labels) or words (`F:...`, `E:...`).
Output is deterministic: fixed evaluation order, so the bytes are the same
across runs and PYTHONHASHSEEDs; scalars in canonical text form.  JSON output
has a one-space indent, sorted keys, ASCII escapes and one trailing newline:
its bytes are those of json.dumps(..., indent=1, sort_keys=True) plus "\n".
basis streams its table: every solve finishes first, then each row of
Engine.basis_rows is written to stdout or --out, and to the cache file, as
soon as it is rendered.  A row carries its pair's untwisted bullet, and its
element K diamond bullet is twisted while it is rendered, spliced from K
blocks, word strings and coefficients that _dumps and _encode_str render
once per emission; no twisted row is built or kept.
With QDOUBLE_CACHE_DIR set, basis tables are cached under a key covering the
datum, the bytes of the --tables file and the package source; an entry's
file name carries the sha256 of its bytes, and an entry whose bytes do not
match it is a miss that rebuilds the entry.  The
algorithmic canonical-basis path covers every finite-type datum, JSON data
included.
"""
from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import os
import sys
from operator import sub
from pathlib import Path

from .algebra import Algebra
from .canbasis import TableIncomplete, UnknownLabel, UserTableError
from .cartan import PRESETS, CartanError, get_datum
from .double import kmono, tri_to_obj
from .halves import PLUS, MINUS, half_from_obj, parse_word
from .lusztig import TriangularityError, certificate_obj
from .scalar import RAT_ONE, format_scalar


class UsageError(ValueError):
    pass


def _algebra(args, tables: bytes | None = None) -> Algebra:
    """The shared instance of a preset, or a private instance for a JSON datum
    or for user tables, so that user tables never reach a later run."""
    if tables is None and args.preset in PRESETS:
        return Algebra.get(args.preset)
    alg = Algebra(get_datum(args.preset))
    if tables is not None:
        _load_user_tables(alg, tables)
    return alg


def _read_tables(args) -> bytes | None:
    if not args.tables:
        return None
    with open(args.tables, "rb") as fh:
        return fh.read()


def _parse_word(alg: Algebra, text) -> tuple[int, tuple]:
    try:
        return parse_word(alg.half, text)
    except ValueError as exc:
        raise UsageError(exc.args[0]) from None


def _load_user_tables(alg: Algebra, data: bytes):
    """Register the blocks of a --tables file after the checks listed in the
    module docstring; a UsageError or a UserTableError on any failure."""
    try:
        blocks = json.loads(data)
    except ValueError as exc:
        raise UsageError(f"--tables is not JSON: {exc}") from None
    if not isinstance(blocks, list):
        raise UsageError("--tables must hold a JSON list of degree blocks")
    seen_degrees, seen_labels = set(), set()
    for block in blocks:
        if not isinstance(block, dict) or not isinstance(block.get("elements"), list):
            raise UsageError('a --tables block must be {"degree": [...], "elements": [...]}')
        degree = block.get("degree")
        if (
            not isinstance(degree, list)
            or len(degree) != alg.datum.rank
            or not all(type(g) is int and g >= 0 for g in degree)
        ):
            raise UsageError(f"degree {degree!r} is not a list of {alg.datum.rank} naturals")
        gamma = tuple(degree)
        if gamma in seen_degrees:
            raise UsageError(f"degree {degree} appears twice in --tables")
        seen_degrees.add(gamma)
        labeled = []
        for entry in block["elements"]:
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("label"), str)
                and isinstance(entry.get("element"), list)
            ):
                raise UsageError(
                    'a --tables element must be {"label": str, "element": [{"c": str, "w": str}, ...]}'
                )
            label = entry["label"]
            if label in seen_labels:
                raise UsageError(f"label {label!r} appears twice in --tables")
            seen_labels.add(label)
            try:
                labeled.append((label, half_from_obj(alg.half, entry["element"])))
            except ValueError as exc:
                raise UsageError(f"element {label!r}: {exc}") from None
        alg.tables.load_user_table(gamma, labeled)


def _resolve_label(alg: Algebra, token: str, sign: int) -> str:
    try:
        if ":" in token:
            s, letters = _parse_word(alg, token)
            elem = alg.half.word(s, [alg.datum.labels[i] for i in letters])
            return alg.label_of(sign, elem if s == sign else alg.half.flip(elem))
        alg.tables.degree_of(token)
        return token
    except UnknownLabel as exc:
        raise UsageError(exc.args[0]) from None


def cmd_basis(args) -> int:
    tables = _read_tables(args)
    alg = _algebra(args, tables)
    bound = tuple([args.height] * alg.datum.rank)
    def parse_filter(text):
        if text is None:
            return None
        return {alg.datum.index(tok) for tok in text.split(",") if tok}

    j_minus = parse_filter(args.j_minus)
    j_plus = parse_filter(args.j_plus)
    cache_dir = os.environ.get("QDOUBLE_CACHE_DIR")
    if cache_dir:
        key_parts = [
            _source_digest(),
            alg.datum.to_json(),
            hashlib.sha256(tables or b"").hexdigest(),
            args.height,
            args.j_minus,
            args.j_plus,
        ]
        key = hashlib.sha256(json.dumps(key_parts).encode()).hexdigest()[:16]
        prefix = os.path.join(cache_dir, f"basis-{key}.")
        text = _read_cache(prefix)
        if text is not None:
            with _output(args) as out:
                out.write(text + "\n")
            return 0
    rows = alg.engine.basis_rows(bound, j_minus=j_minus, j_plus=j_plus)
    if not cache_dir:
        with _output(args) as out:
            _write_table(rows, out.write)
            out.write("\n")
        return 0
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{prefix}{os.getpid()}.tmp"
    digest = hashlib.sha256()

    def cache_write(chunk):
        cache.write(chunk)
        digest.update(chunk.encode())

    try:
        with open(tmp, "w", encoding="utf-8") as cache, _output(args) as out:
            _write_table(rows, out.write, cache_write)
            out.write("\n")
        os.replace(tmp, f"{prefix}{digest.hexdigest()}.json")
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return 0


def _source_digest() -> str:
    """sha256 of the package's *.py sources in sorted path order, so that a
    changed program never reads a table the old one cached."""
    root = Path(__file__).parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_cache(prefix: str) -> str | None:
    """The cached table of an entry {prefix}{sha256}.json whose bytes have
    the sha256 its name carries, or None: a missing, unreadable, truncated
    or changed entry is a miss."""
    for path in glob.glob(glob.escape(prefix) + "*.json"):
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            continue
        if hashlib.sha256(data).hexdigest() == path[len(prefix) : -len(".json")]:
            return data.decode("utf-8")
    return None


_encode_str = json.encoder.encode_basestring_ascii


def _dumps(o, nl: str = "\n") -> str:
    """json.dumps(o, indent=1, sort_keys=True), byte for byte, built one string
    per container (the standard encoder is pure Python under any indent).  A
    dict key that is not a str raises TypeError."""
    t = type(o)
    if t is str:
        return _encode_str(o)
    if t is int:
        return repr(o)
    inner = nl + " "
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [_encode_str(k) + ": " + _dumps(o[k], inner) for k in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return "[" + inner + ("," + inner).join([_dumps(x, inner) for x in o]) + nl + "]"
    return json.dumps(o)


def _output(args):
    """The sink of a table: the --out file, or stdout left open."""
    if args.out:
        return open(args.out, "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def _write_table(rows, *writes):
    """Write the table's JSON text to every sink one row at a time: for the
    rows of Engine.basis_rows, the bytes of _dumps of Engine.enumerate_basis
    with tri_to_obj elements.  Each row is twisted as it is rendered
    (`_row_text`), over caches that live for one emission and hold nothing
    the size of a row.  rows is never empty: it holds the row of 1 and 1."""
    caches = _Caches()
    sep = "[\n "
    for row in rows:
        chunk = sep + _row_text(row, caches)
        for write in writes:
            write(chunk)
        sep = ",\n "
    for write in writes:
        write("\n]")


class _Caches:
    """What one emission has rendered so far, each piece rendered once: per
    label pair the bullet's render plan (`_render_plan`) and the text of the
    labels and certificate; per (K_minus, K_plus) the text of both; per K
    the K block of a term, with the key of its coefficient; per word its
    string and degree, and per pair of words the text of a term up to its
    K block; and the text of each coefficient, by its index, at each
    shift."""

    def __init__(self):
        self.plans: dict = {}  # (lm, lp) -> render plan of bullet(lm, lp)
        self.pairs: dict = {}  # (lm, lp) -> text from b_minus to the certificate
        self.k_heads: dict = {}  # (am, ap) -> text of K_minus and K_plus
        self.k_blocks: dict = {}  # K -> text of a term's K block and "c" key
        self.words: dict = {}  # word -> (string, degree)
        self.heads: dict = {}  # (f, e) -> text of a term up to its K block
        self.coeff_index: dict = {}  # coefficient -> its index
        self.coeffs: list = []  # index -> coefficient
        self.c_texts: dict = {}  # (coefficient index, shift) -> text of the term's tail


def _row_text(row, caches: _Caches) -> str:
    """The text that _dumps gives for one row of Engine.enumerate_basis,
    without the list brackets, from the same row of Engine.basis_rows.  Its
    element K diamond bullet is twisted term by term while it is rendered,
    by the rule of DoubleContext.twist_terms: the bullet's term K1 f e goes
    to K K1 f e, its coefficient times v^twist_shift(K, deg e - deg f), the
    shift read per weight.  K K1 adds K to every exponent of K1, so the
    bullet's sorted terms stay sorted."""
    x, pair, K_pair = row.bullet, (row.b_minus, row.b_plus), (row.K_minus, row.K_plus)
    plan = caches.plans.get(pair)
    if plan is None:
        plan = caches.plans[pair] = _render_plan(x, caches)
        caches.pairs[pair] = (
            _encode_str(row.b_minus) + ',\n  "b_plus": ' + _encode_str(row.b_plus)
            + ',\n  "certificate": ' + _dumps(certificate_obj(row.certificate), "\n  ")
        )
    k_head = caches.k_heads.get(K_pair)
    if k_head is None:
        k_head = caches.k_heads[K_pair] = (
            '{\n  "K_minus": ' + _dumps(list(row.K_minus), "\n  ")
            + ',\n  "K_plus": ' + _dumps(list(row.K_plus), "\n  ") + ',\n  "b_minus": '
        )
    k1s, weights, terms = plan
    ctx, K = x.ctx, kmono(row.K_minus, row.K_plus)
    k_texts = []
    for K1 in k1s:
        KK = ctx.k_product(K, K1)
        k_text = caches.k_blocks.get(KK)
        if k_text is None:
            k_obj = {"minus": list(KK[0]), "plus": list(KK[1]), "tag": list(KK[2])}
            k_text = caches.k_blocks[KK] = _dumps(k_obj, "\n    ") + ',\n    "c": '
        k_texts.append(k_text)
    shifts = [ctx.twist_shift(K, dif) for dif in weights]
    c_texts, items = caches.c_texts, []
    for k, w, c, head in terms:
        key = (c, shifts[w])
        c_text = c_texts.get(key)
        if c_text is None:
            c_text = c_texts[key] = _encode_str(format_scalar(caches.coeffs[c].shift(key[1]))) + "\n   }"
        items.append(head + k_texts[k] + c_text)
    return k_head + caches.pairs[pair] + ',\n  "element": [\n   ' + ",\n   ".join(items) + "\n  ]\n }"


def _render_plan(x, caches: _Caches) -> tuple:
    """(K1s, weights, terms) of a nonzero element x: its distinct
    K-monomials and term weights deg e - deg f, and for each term in sorted
    order the index of its K1, of its weight and of its coefficient, and its
    text up to the K block, shared by every term on the same words."""
    labels, degree, words = x.ctx.datum.labels, x.ctx.half.word_degree, caches.words
    k1s, weights, terms = {}, {}, []
    for key in sorted(x.terms):
        K1, f, e = key
        for w in (f, e):
            if w not in words:
                words[w] = (_encode_str(" ".join(labels[i] for i in w)), degree(w))
        (f_text, f_deg), (e_text, e_deg) = words[f], words[e]
        head = caches.heads.get((f, e))
        if head is None:
            head = caches.heads[f, e] = '{\n    "E": ' + e_text + ',\n    "F": ' + f_text + ',\n    "K": '
        c = x.terms[key]
        index = caches.coeff_index.get(c)
        if index is None:
            index = caches.coeff_index[c] = len(caches.coeffs)
            caches.coeffs.append(c)
        dif = tuple(map(sub, e_deg, f_deg))
        terms.append((k1s.setdefault(K1, len(k1s)), weights.setdefault(dif, len(weights)), index, head))
    return list(k1s), list(weights), terms


def cmd_verify(args) -> int:
    from . import checks

    if args.suite not in checks.CLI_SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; choose from {sorted(checks.CLI_SUITES)}")
    results = checks.run_suites(checks.CLI_SUITES[args.suite], seed=args.seed)
    failed = 0
    for name, ok, detail in results:
        line = f"{'PASS' if ok else 'FAIL'} {name}"
        if detail:
            line += f" -- {detail}"
        print(line)
        if not ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_pair(args) -> int:
    alg = _algebra(args)
    s1, w1 = _parse_word(alg, args.left)
    s2, w2 = _parse_word(alg, args.right)
    if {s1, s2} != {PLUS, MINUS}:
        raise UsageError("pair expects one E-side and one F-side word")
    plus = alg.half.element(PLUS, {(w1 if s1 == PLUS else w2): RAT_ONE})
    minus = alg.half.element(MINUS, {(w2 if s2 == MINUS else w1): RAT_ONE})
    print(format_scalar(alg.pair(plus, minus)))
    return 0


def cmd_braid(args) -> int:
    alg = _algebra(args)
    ops = []
    for token in args.word.split():
        if token.endswith("^-1"):
            ops.append((alg.datum.index(token[:-3]), True))
        else:
            ops.append((alg.datum.index(token), False))
    sign, letters = _parse_word(alg, args.element)
    x = alg.ctx.from_half(alg.half.element(sign, {letters: RAT_ONE}), "localized")
    for i, inv in reversed(ops):
        x = alg.braid.T(i, x, inverse=inv)
    print(_dumps(tri_to_obj(x)))
    return 0


def cmd_strconst(args) -> int:
    alg = _algebra(args, _read_tables(args))
    lm = _resolve_label(alg, args.b_minus, MINUS)
    lp = _resolve_label(alg, args.b_plus, PLUS)
    coeffs, report = alg.structure_constants(lm, lp)
    payload = {
        "coefficients": {
            f"K-{list(am)} K+{list(ap)} | {l1} | {l2}": format_scalar(c)
            for ((am, ap), l1, l2), c in sorted(coeffs.items(), key=repr)
        },
        "positive": report["positive"],
    }
    print(_dumps(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdouble",
        description="Exact double canonical bases for quantized enveloping algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="emit the double canonical basis table within a bound")
    p.add_argument("--preset", required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--j-minus", default=None, help="comma-separated biparabolic filter (minus side)")
    p.add_argument("--j-plus", default=None)
    p.add_argument("--tables", default=None, help="user dual-basis table file")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("suite", help="sl2 | rank2 | rank3 | braid | rst | all")
    p.add_argument("--seed", type=int, default=2026)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pair", help="pair an E-side word against an F-side word")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--preset", required=True)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("braid", help="apply a braid word to an element")
    p.add_argument("--preset", required=True)
    p.add_argument("--word", required=True, help='e.g. "1 2 1" or "1^-1 2"')
    p.add_argument("--element", required=True, help='e.g. "E:2"')
    p.set_defaults(func=cmd_braid)

    p = sub.add_parser("strconst", help="expand d b- b+ over the double canonical basis")
    p.add_argument("b_minus")
    p.add_argument("b_plus")
    p.add_argument("--preset", required=True)
    p.add_argument("--tables", default=None)
    p.set_defaults(func=cmd_strconst)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "height", 0) < 0:
            raise UsageError("height bound must be nonnegative")
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # stdout now goes to os.devnull, so that the interpreter's final
        # flush of what is left in its buffer does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UsageError, UserTableError, CartanError, TableIncomplete, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if isinstance(exc, TriangularityError) and getattr(args, "tables", None):
            # blocks that pass every check at load, bar-invariance included,
            # but are not the dual canonical basis
            print(f"error: Lusztig's lemma fails over the blocks of --tables {args.tables}: {exc}", file=sys.stderr)
            return 2
        import traceback  # only on this path: it costs memory at start-up

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())

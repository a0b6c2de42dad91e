import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st, target

import qdouble
import qdouble.algebra
import qdouble.cartan
from qdouble.cli import _Caches, _dumps, _load_user_tables, _row_text, _write_table, main
from qdouble.double import DoubleContext, TriElem, kmono, tri_to_obj
from qdouble.halves import half_to_obj
from qdouble.lusztig import BasisRow, Engine
from qdouble.scalar import RAT_ONE, Laurent, Rat

# stdout of `basis --preset A1 --height 1`, trailing newline included
A1_H1_SHA256 = "1006039b81a3375fc36c47a9a8bad7090420bf1b767d0cde3126743dae8694af"
# stdout of `basis --preset A2 --height 2`, the headline table (663 rows)
A2_H2_SHA256 = "f11550d8693fdbff4fe42a6fcd0445e2ad7694166d51e3559867b7f87e610d2a"
# stdout of `verify all` at the default seed
VERIFY_ALL_SHA256 = "432c8068c757da3ba0824f0751573392b06ccbd79fc1c32348c4095d18e35b2b"

# a valid user table for degree (1,): F_1 under the label "x"
USER_TABLE_A1 = [{"degree": [1], "elements": [{"label": "x", "element": [{"c": "1", "w": "F:1"}]}]}]

# a bar-invariant basis of A1affine (1,3), a degree with no canonical basis,
# and the stdout of `strconst x0 x1` over it
A1AFFINE_13_BAR_INVARIANT = [
    {"label": "x0", "element": [{"c": "1", "w": "F:1 2 2 2"}, {"c": "1", "w": "F:2 2 2 1"}]},
    {"label": "x1", "element": [{"c": "1", "w": "F:2 1 2 2"}, {"c": "1", "w": "F:2 2 1 2"}]},
    {"label": "x2", "element": [{"c": "1*v", "w": "F:1 2 2 2"}, {"c": "1*v^-1", "w": "F:2 2 2 1"}]},
]
A1AFFINE_13_X0_X1_SHA256 = "5bfdbfa0203ef03de355e35222ac30a6b953f60486205ea334ccf09f333ecf79"
# stdout of `strconst x2 x2` over it; `strconst x0 x2` exits 2 with nothing
# on stdout, as circ(x0, x2) meets a correction that is no polynomial in q:
# the block is bar-invariant but not the dual canonical basis
A1AFFINE_13_X2_X2_SHA256 = "d3b7991944a9b8e155b3e75eac124f4c32874afd04935d9fd28cec974807f5bb"
A1AFFINE_13_X0_X2_FAULT = (
    "circ(x0,x2) correction at (((0, 0), (0, 1)), 'F[1 2 2]', 'F[1 2 2]'): "
    "coefficient Laurent(-1*v^17 - 1*v^15 - 1*v^13 - 1*v^11 - 1*v^9 - 1*v^7) is not a polynomial in q"
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestPair:
    def test_sl2_power(self, capsys):
        code, out = run(capsys, "pair", "E:1 1", "F:1 1", "--preset", "A1")
        assert code == 0
        # q <2>_q! = v^8 - v^4 - 1 + v^-4
        assert out.strip() == "1*v^8 - 1*v^4 - 1 + 1*v^-4"

    def test_order_agnostic(self, capsys):
        code1, out1 = run(capsys, "pair", "E:1", "F:1", "--preset", "A2")
        code2, out2 = run(capsys, "pair", "F:1", "E:1", "--preset", "A2")
        assert code1 == code2 == 0 and out1 == out2

    def test_usage_error(self, capsys):
        code = main(["pair", "E:1", "E:1", "--preset", "A1"])
        assert code == 2


class TestBasis:
    def test_sl2_height0(self, capsys):
        code, out = run(capsys, "basis", "--preset", "A1", "--height", "0")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1 and rows[0]["b_minus"] == "1"

    def test_deterministic_across_hash_seeds(self):
        src = str(Path(qdouble.__file__).resolve().parents[1])
        outs = []
        for seed in ("0", "1"):
            env = {k: v for k, v in os.environ.items() if k != "QDOUBLE_CACHE_DIR"}
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-m", "qdouble.cli", "basis", "--preset", "A1", "--height", "2"],
                env=env,
                capture_output=True,
                check=True,
            )
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0]

    @pytest.mark.parametrize(
        "preset, digest",
        [
            # 45 rows, 14 of them with a non-empty bar-correction certificate
            ("A2", "ff3633646a4932b9be34d05a96eacac70da1595e5caefd2cd12ddc6b63523271"),
            ("B2", "aecd47ffdfc4c796e17038e701f7026fb9617445a1c534442ee3c8d97c71a8af"),
        ],
    )
    def test_pinned_height1_bytes(self, capsys, preset, digest):
        code, out = run(capsys, "basis", "--preset", preset, "--height", "1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "preset, height, digest, rows",
        [
            ("A3", "1", "91a66cb73b64e6f9a26876b06a7cfed712448c0b9746c340a3d00005eaa3dc3c", 357),
            ("B2", "2", "6f75f5c1ac9c496490b39873e7b88c9f4e7d1bf6ed64902f6692d494f958edcb", 757),
            ("G2", "2", "9c09c64cfeba01e933bfc66cca149a6405d23d5e04f2cb7bc59fb4d5ceb93c8f", 757),
            ("A1affine", "2", "aa3bf3507cd7374045d5d39ff3ed6eb5e52e127118078479444d58cebca5173b", 896),
        ],
    )
    def test_pinned_bytes(self, capsys, preset, height, digest, rows):
        code, out = run(capsys, "basis", "--preset", preset, "--height", height)
        assert code == 0
        assert len(json.loads(out)) == rows
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_pinned_headline_bytes(self, capsys):
        code, out = run(capsys, "basis", "--preset", "A2", "--height", "2")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == A2_H2_SHA256

    def test_user_tables_stay_private(self, capsys, tmp_path):
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps(USER_TABLE_A1))
        code, with_tables = run(
            capsys, "basis", "--preset", "A1", "--height", "1", "--tables", str(tables)
        )
        assert code == 0
        _, plain = run(capsys, "basis", "--preset", "A1", "--height", "1")
        assert hashlib.sha256(plain.encode()).hexdigest() == A1_H1_SHA256
        assert with_tables != plain

    @pytest.mark.parametrize(
        "degree, element, message",
        [
            # 2 F_1 pairs to 2 with the canonical F_1: not a dual basis element
            ([1], [{"c": "2", "w": "F:1"}], "not dual to the canonical basis"),
            ([1], {"c": "1", "w": "F:1"}, "must be {"),
            ([2], [{"c": "1", "w": "F:1 1"}, {"c": "1", "w": "E:1 1"}], "mixes E-side and F-side"),
            ([2], [{"c": "1", "w": "F:1"}], "not of degree [2]"),
            ([-1], [{"c": "1", "w": "F:1"}], "degree [-1] is not a list of 1 naturals"),
            ([True], [{"c": "1", "w": "F:1"}], "degree [True] is not a list of 1 naturals"),
            ([1], [{"c": "1", "w": "E:1"}], "element 'x' is E-side; tables hold F-side elements"),
            ([1], [{"c": "1*u", "w": "F:1"}], "element 'x': cannot parse Laurent term '1*u'"),
            ([1], [{"c": "0", "w": "F:1"}], "element 'x' is zero"),
            ([1], [{"c": "1", "w": "1"}], "word '1' must read 'E:...' or 'F:...'"),
            (
                [1],
                [{"c": "(1)/(1)/(2)", "w": "F:1"}],
                "element 'x': cannot parse scalar '(1)/(1)/(2)': expected (num)/(den)",
            ),
        ],
        ids=[
            "scaled",
            "not-a-list",
            "mixed-signs",
            "wrong-degree",
            "negative-degree",
            "bool-degree",
            "all-E",
            "bad-coefficient",
            "zero-element",
            "no-prefix",
            "three-part-fraction",
        ],
    )
    def test_invalid_user_tables(self, capsys, tmp_path, degree, element, message):
        tables = tmp_path / "tables.json"
        tables.write_text(
            json.dumps([{"degree": degree, "elements": [{"label": "x", "element": element}]}])
        )
        code = main(["basis", "--preset", "A1", "--height", "1", "--tables", str(tables)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("command", ["basis", "strconst"])
    @pytest.mark.parametrize(
        "label, owner", [("1", "[0, 0]"), ("b+(0,1,0,0)", "[0, 1]")], ids=["unit", "b+"]
    )
    def test_label_of_another_degree(self, capsys, tmp_path, command, label, owner):
        # an A2 (1,0) block may not take a built-in label of another degree:
        # the run stops at the load, before any table is written
        tables = tmp_path / "tables.json"
        element = {"label": label, "element": [{"c": "1", "w": "F:1"}]}
        tables.write_text(json.dumps([{"degree": [1, 0], "elements": [element]}]))
        argv = ["basis", "--height", "1"] if command == "basis" else ["strconst", label, label]
        code = main([*argv, "--preset", "A2", "--tables", str(tables)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"label {label!r} of degree [1, 0] is taken by degree {owner}" in captured.err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{bad", "--tables is not JSON"),
            ('{"degree": [1]}', "--tables must hold a JSON list of degree blocks"),
            ("[1]", 'a --tables block must be {"degree": [...], "elements": [...]}'),
            (json.dumps(USER_TABLE_A1 * 2), "degree [1] appears twice in --tables"),
            (
                json.dumps([{"degree": [1], "elements": USER_TABLE_A1[0]["elements"] * 2}]),
                "label 'x' appears twice in --tables",
            ),
        ],
        ids=["not-json", "not-a-list", "block-not-a-dict", "degree-twice", "label-twice"],
    )
    def test_invalid_tables_file(self, capsys, tmp_path, text, message):
        tables = tmp_path / "tables.json"
        tables.write_text(text)
        code = main(["basis", "--preset", "A1", "--height", "1", "--tables", str(tables)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err

    def test_tables_without_canonical_source_load(self, capsys, tmp_path):
        # A1affine (1,3) has no canonical basis to be dual to: a bar-invariant
        # basis of it loads, and its structure constants form
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps([{"degree": [1, 3], "elements": A1AFFINE_13_BAR_INVARIANT}]))
        code, out = run(capsys, "basis", "--preset", "A1affine", "--height", "0", "--tables", str(tables))
        assert code == 0 and json.loads(out)[0]["b_minus"] == "1"
        code, out = run(capsys, "strconst", "x0", "x1", "--preset", "A1affine", "--tables", str(tables))
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == A1AFFINE_13_X0_X1_SHA256

    def test_tables_block_without_reversal(self, capsys, tmp_path):
        # in the bar-invariant A1affine (1,3) block x0 and x1 are their own
        # word reversals and x2 reverses to no element of the block, so pairs
        # with x2 have no transpose partner and are solved, not relabeled
        text = json.dumps([{"degree": [1, 3], "elements": A1AFFINE_13_BAR_INVARIANT}])
        alg = qdouble.algebra.Algebra("A1affine")
        _load_user_tables(alg, text.encode())
        assert [alg.tables.reversed_label(x) for x in ("x0", "x1", "x2")] == ["x0", "x1", None]
        tables = tmp_path / "tables.json"
        tables.write_text(text)
        code, out = run(capsys, "strconst", "x2", "x2", "--preset", "A1affine", "--tables", str(tables))
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == A1AFFINE_13_X2_X2_SHA256
        code = main(["strconst", "x0", "x2", "--preset", "A1affine", "--tables", str(tables)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: Lusztig's lemma fails over the blocks of --tables {tables}: {A1AFFINE_13_X0_X2_FAULT}\n"
        )

    def test_tables_not_bar_invariant(self, capsys, tmp_path):
        # three of the four words of A1affine (1,3) are a basis (the Serre
        # relation ties all four), but bar reverses the words
        words = ["1 2 2 2", "2 1 2 2", "2 2 1 2"]
        elements = [{"label": f"u{k}", "element": [{"c": "1", "w": f"F:{w}"}]} for k, w in enumerate(words)]
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps([{"degree": [1, 3], "elements": elements}]))
        assert main(["strconst", "u0", "u1", "--preset", "A1affine", "--tables", str(tables)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "element 'u0' of degree [1, 3] is not bar-invariant" in captured.err

    def test_out_file(self, capsys, tmp_path):
        # --out writes the bytes that stdout carries
        target = tmp_path / "table.json"
        argv = ("basis", "--preset", "A1", "--height", "1")
        assert run(capsys, *argv, "--out", str(target)) == (0, "")
        written = target.read_bytes()
        assert written == run(capsys, *argv)[1].encode()
        assert hashlib.sha256(written).hexdigest() == A1_H1_SHA256

    def test_negative_height(self, capsys):
        code = main(["basis", "--preset", "A1", "--height", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "height bound must be nonnegative" in captured.err

    def test_r3_111_tables_checked(self, capsys, tmp_path):
        # R3 (1,1,1) has a canonical basis, so its block is checked: the six
        # words are not its dual; the dual itself, in another order, is
        from qdouble.halves import half_to_obj

        def run_block(elements):
            tables = tmp_path / "r3.json"
            tables.write_text(json.dumps([{"degree": [1, 1, 1], "elements": elements}]))
            code = main(["basis", "--preset", "R3", "--height", "0", "--tables", str(tables)])
            return code, capsys.readouterr().err

        words = [f"F:{i} {j} {k}" for i, j, k in ["123", "132", "213", "231", "312", "321"]]
        code, err = run_block([{"label": w, "element": [{"c": "1", "w": w}]} for w in words])
        assert code == 2 and "not dual to the canonical basis" in err
        r3 = qdouble.algebra.Algebra("R3")
        dual = r3.tables.dcb_table((1, 1, 1)).minus
        elements = [{"label": f"d{k}", "element": half_to_obj(x)} for k, x in enumerate(dual[::-1])]
        assert run_block(elements) == (0, "")

    def test_degree_without_source(self, capsys):
        # A1affine (1,3) has no canonical basis source: exit 2, not 3
        assert main(["basis", "--preset", "A1affine", "--height", "3"]) == 2
        assert "no canonical basis source for A1affine degree (1, 3)" in capsys.readouterr().err

    def test_json_a2_matches_preset(self, capsys):
        # a JSON copy of A2 gets the preset's b+(...) dual labels
        json_a2 = qdouble.cartan.PRESETS["A2"].to_json()
        got = run(capsys, "basis", "--preset", json_a2, "--height", "1")
        assert got == run(capsys, "basis", "--preset", "A2", "--height", "1") and got[0] == 0

    def test_unknown_filter_label(self, capsys):
        code = main(["basis", "--preset", "A2", "--height", "1", "--j-plus", "9"])
        assert code == 2
        assert "unknown index label '9'" in capsys.readouterr().err

    def test_biparabolic_filter(self, capsys):
        code, out = run(
            capsys, "basis", "--preset", "A2", "--height", "1", "--j-minus", "", "--j-plus", "1,2"
        )
        assert code == 0
        rows = json.loads(out)
        assert all(r["b_minus"] == "1" for r in rows)

    def test_j_plus_filter(self, capsys):
        # --j-plus 1 keeps exactly the rows whose b_plus has no alpha_2 part
        code, out = run(capsys, "basis", "--preset", "A2", "--height", "1", "--j-plus", "1")
        assert code == 0
        _, full = run(capsys, "basis", "--preset", "A2", "--height", "1")
        tables = qdouble.algebra.Algebra.get("A2").tables
        kept = [r for r in json.loads(full) if not tables.degree_of(r["b_plus"])[1]]
        assert json.loads(out) == kept and 0 < len(kept) < len(json.loads(full))

    def test_unknown_preset(self, capsys):
        assert main(["basis", "--preset", "Z9", "--height", "1"]) == 2

    @pytest.mark.parametrize(
        "preset",
        [
            "{bad",
            '{"labels": ["1"]}',
            '{"labels": 1, "A": 2, "d": 3}',
            # ambiguous letters, words that do not parse back, a string split
            # into letters, and entries that are no plain ints
            '{"labels": ["1", "1"], "A": [[2, -1], [-1, 2]], "d": [1, 1]}',
            '{"labels": ["a b", "2"], "A": [[2, -1], [-1, 2]], "d": [1, 1]}',
            '{"labels": "12", "A": [[2, -1], [-1, 2]], "d": [1, 1]}',
            '{"labels": ["1", "2"], "A": [[2, -1], [-1, 2]], "d": [true, true]}',
            '{"labels": [1, 2], "A": [[2, -1], [-1, 2]], "d": [1, 1]}',
            '{"labels": ["1", "2"], "A": [[2, -1], [-1, 2]], "d": [1.5, 1.5]}',
            '{"labels": ["1", "2"], "A": [[2, -1.0], [-1, 2]], "d": [1, 1]}',
            # letters holding the label grammar's own characters, which
            # print as labels like F[a^^1] that do not read back
            '{"labels": ["a^", "b"], "A": [[2, -2], [-1, 2]], "d": [1, 2]}',
            '{"labels": ["[a", "b"], "A": [[2, -1], [-1, 2]], "d": [1, 1]}',
            '{"labels": ["a", "b]"], "A": [[2, -1], [-1, 2]], "d": [1, 1]}',
        ],
    )
    def test_bad_json_datum(self, capsys, preset):
        assert main(["basis", "--preset", preset, "--height", "1"]) == 2
        assert "bad Cartan datum JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "preset, message",
        [
            ('{"labels": ["1", "2"], "A": [[2]], "d": [1, 1]}', "Cartan matrix shape does not match labels"),
            ('{"labels": ["1"], "A": [[2]], "d": [0]}', "symmetrizers must be positive"),
            ('{"labels": ["1"], "A": [[3]], "d": [1]}', "diagonal Cartan entries must equal 2"),
            ('{"labels": ["1", "2"], "A": [[2, 0], [-1, 2]], "d": [1, 1]}', "a_ij = 0 iff a_ji = 0 violated"),
        ],
        ids=["shape", "symmetrizer", "diagonal", "zero-pattern"],
    )
    def test_invalid_json_datum(self, capsys, preset, message):
        code = main(["basis", "--preset", preset, "--height", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err

    def test_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QDOUBLE_CACHE_DIR", str(tmp_path))
        _, out1 = run(capsys, "basis", "--preset", "A1", "--height", "1")
        assert list(tmp_path.glob("basis-*.json"))
        _, out2 = run(capsys, "basis", "--preset", "A1", "--height", "1")
        assert out1 == out2

    def test_cache_key_covers_tables(self, capsys, tmp_path, monkeypatch):
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps(USER_TABLE_A1))
        argv = ["basis", "--preset", "A1", "--height", "1"]
        _, uncached = run(capsys, *argv, "--tables", str(tables))
        cache = tmp_path / "cache"
        monkeypatch.setenv("QDOUBLE_CACHE_DIR", str(cache))
        _, plain = run(capsys, *argv)
        _, cached = run(capsys, *argv, "--tables", str(tables))
        assert cached == uncached != plain
        # an entry that does not decode is a miss, and is rewritten
        for entry in cache.glob("basis-*.json"):
            entry.write_bytes(b"\xff{")
        assert run(capsys, *argv) == (0, plain)
        assert run(capsys, *argv, "--tables", str(tables)) == (0, uncached)
        assert all(json.loads(e.read_text()) for e in cache.glob("basis-*.json"))
        assert not list(cache.glob("*.tmp"))


    def test_cache_key_covers_source(self, tmp_path):
        # the same command from a copy of the package one byte apart: a changed
        # program is not served the table the old one cached
        pkg = Path(qdouble.__file__).resolve().parent
        copy = tmp_path / "src" / "qdouble"
        shutil.copytree(pkg, copy, ignore=shutil.ignore_patterns("__pycache__"))
        with open(copy / "__init__.py", "a", encoding="utf-8") as fh:
            fh.write("\n")
        cache = tmp_path / "cache"
        outs = []
        for src in (pkg.parent, copy.parent):
            env = {**os.environ, "QDOUBLE_CACHE_DIR": str(cache), "PYTHONPATH": str(src)}
            proc = subprocess.run(
                [sys.executable, "-m", "qdouble.cli", "basis", "--preset", "A1", "--height", "1"],
                env=env,
                capture_output=True,
                check=True,
            )
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert hashlib.sha256(outs[0]).hexdigest() == A1_H1_SHA256
        assert len(list(cache.glob("basis-*.json"))) == 2

    def test_closed_stdout(self, tmp_path):
        # the reader of stdout is gone before the child writes: exit 141
        # (128 + SIGPIPE), nothing on stderr, and no cache entry
        src = str(Path(qdouble.__file__).resolve().parents[1])
        cache = tmp_path / "cache"
        env = {**os.environ, "QDOUBLE_CACHE_DIR": str(cache), "PYTHONPATH": src}
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qdouble.cli", "basis", "--preset", "A2", "--height", "1"],
                env=env,
                stdout=write,
                stderr=subprocess.PIPE,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, b"")
        assert list(cache.iterdir()) == []


def payload_text(rows) -> str:
    """The reference bytes of a basis table: its rows with tri_to_obj
    elements, through _dumps."""
    return _dumps([{**row, "element": tri_to_obj(row["element"])} for row in rows])


class TestRowRenderer:
    # each streamed row as _row_text twists and renders it, and the table as
    # _write_table streams it, against the payload that _dumps renders
    # whole from the rows of enumerate_basis, whose elements are
    # ctx.diamond(K, bullet); swapping the "E" and "F" fragments of a term
    # fails every case

    @staticmethod
    def _compare(engine, *args):
        rows = engine.enumerate_basis(*args)
        stream = list(engine.basis_rows(*args))
        caches = _Caches()
        for row, ref in zip(stream, rows, strict=True):
            assert _row_text(row, caches) == payload_text([ref])[3:-2]
        buf = io.StringIO()
        _write_table(iter(stream), buf.write)
        assert buf.getvalue() == payload_text(rows)
        return rows

    @pytest.mark.parametrize("preset", ["A2", "B2", "G2", "A1affine"])
    def test_height_two(self, preset):
        alg = qdouble.algebra.Algebra.get(preset)
        rows = self._compare(alg.engine, (2,) * alg.datum.rank)
        assert any(row["K_minus"] != row["K_plus"] for row in rows)

    def test_two_weight_element(self):
        # no table row has terms of two weights deg e - deg f, so a row is
        # made up: its first term has weight 0, the others the weights
        # -alpha_1, alpha_2 and alpha_2 - alpha_1 (the last on K1 != 1),
        # which each twist below shifts differently
        alg = qdouble.algebra.Algebra.get("A2")
        ctx, one = alg.ctx, kmono((0, 0), (0, 0))
        v = Rat.of(Laurent({1: 1}))
        x = TriElem(
            ctx,
            "full",
            {(one, (), ()): RAT_ONE, (one, (0,), ()): v, (one, (), (1,)): v * v, (kmono((0, 1), (0, 0)), (0,), (1,)): v},
        )
        caches = _Caches()
        for am, ap in [((0, 0), (0, 0)), ((1, 0), (0, 0)), ((0, 1), (2, 0)), ((1, 1), (0, 1))]:
            ref = {"K_minus": list(am), "K_plus": list(ap), "b_minus": "x", "b_plus": "y"}
            ref.update(element=ctx.diamond(kmono(am, ap), x), certificate={"s": "p"})
            row = BasisRow(am, ap, "x", "y", {"s": "p"}, x)
            assert _row_text(row, caches) == payload_text([ref])[3:-2]

    @pytest.mark.parametrize(
        "j_minus, j_plus", [("1", "2"), ("", "1,2"), ("2", "")], ids=["1|2", "none|both", "2|none"]
    )
    def test_filters(self, capsys, j_minus, j_plus):
        alg = qdouble.algebra.Algebra.get("A2")
        rows = self._compare(
            alg.engine,
            (2, 2),
            {alg.datum.index(t) for t in j_minus.split(",") if t},
            {alg.datum.index(t) for t in j_plus.split(",") if t},
        )
        argv = ("basis", "--preset", "A2", "--height", "2", "--j-minus", j_minus, "--j-plus", j_plus)
        assert run(capsys, *argv) == (0, payload_text(rows) + "\n")

    def test_escaped_labels(self, capsys, tmp_path):
        # an A2 (1,1) block whose labels need JSON escapes: a quote and a
        # non-ASCII letter
        built = qdouble.algebra.Algebra.get("A2").tables.dcb_table((1, 1)).minus
        labels = ['x"\u00e9', "y\u2202"]
        block = [
            {"degree": [1, 1], "elements": [{"label": lab, "element": half_to_obj(el)} for lab, el in zip(labels, built)]}
        ]
        data = json.dumps(block).encode()
        alg = qdouble.algebra.Algebra("A2")
        _load_user_tables(alg, data)
        rows = self._compare(alg.engine, (2, 2))
        assert {row["b_minus"] for row in rows} >= set(labels)
        tables = tmp_path / "tables.json"
        tables.write_bytes(data)
        code, out = run(capsys, "basis", "--preset", "A2", "--height", "1", "--tables", str(tables))
        assert code == 0 and '"x\\"\\u00e9"' in out
        assert out == payload_text(alg.engine.enumerate_basis((1, 1))) + "\n"


class TestBasisSinks:
    # stdout, --out and the cache file each get the rows one at a time

    ARGV = ("basis", "--preset", "A1", "--height", "2")

    def test_failing_solve_writes_nothing(self, capsys, tmp_path, monkeypatch):
        # a --tables run has a private instance, so every row is solved
        # afresh; the solve of the last row raises
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps(USER_TABLE_A1))
        argv = [*self.ARGV, "--tables", str(tables)]
        real, calls = Engine.bullet, []

        def counting(self, lm, lp, *rest):
            calls.append((lm, lp))
            return real(self, lm, lp, *rest)

        monkeypatch.setattr(Engine, "bullet", counting)
        assert run(capsys, *argv)[0] == 0
        last, calls[:] = len(calls), []

        def failing(self, lm, lp, *rest):
            calls.append((lm, lp))
            if len(calls) == last:
                raise RuntimeError("late row")
            return real(self, lm, lp, *rest)

        monkeypatch.setattr(Engine, "bullet", failing)
        cache, target = tmp_path / "cache", tmp_path / "table.json"
        monkeypatch.setenv("QDOUBLE_CACHE_DIR", str(cache))
        for extra in ([], ["--out", str(target)]):
            calls[:] = []
            code = main([*argv, *extra])
            captured = capsys.readouterr()
            assert code == 3 and captured.out == ""
            assert "internal error: RuntimeError: late row" in captured.err
            assert len(calls) == last
        assert not target.exists()
        assert not cache.exists() or not list(cache.iterdir())

    def test_no_row_is_twisted_ahead_of_writing(self, capsys, monkeypatch):
        # a cold run twists each row as it writes it: no diamond call, and
        # no memo keyed by (K_minus, K_plus, b_minus, b_plus) left behind
        monkeypatch.setattr(qdouble.algebra.Algebra, "_registry", {})
        real, calls = DoubleContext.diamond, []
        monkeypatch.setattr(DoubleContext, "diamond", lambda self, K, x: calls.append(K) or real(self, K, x))
        code, out = run(capsys, "basis", "--preset", "A2", "--height", "2")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == A2_H2_SHA256
        assert calls == []
        engine = qdouble.algebra.Algebra.get("A2").engine
        keys = [k for memo in vars(engine).values() if isinstance(memo, (dict, set)) for k in memo]
        assert len(keys) > 663
        assert not [k for k in keys if isinstance(k, tuple) and len(k) == 4 and isinstance(k[0], tuple)]

    def test_unwritable_out_leaves_no_cache(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("QDOUBLE_CACHE_DIR", str(cache))
        code = main([*self.ARGV, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.startswith("error: ")
        assert not list(cache.iterdir())

    def test_sinks_carry_the_same_bytes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("QDOUBLE_CACHE_DIR", raising=False)
        code, plain = run(capsys, *self.ARGV)
        assert code == 0 and plain.endswith("]\n")
        cache = tmp_path / "cache"
        monkeypatch.setenv("QDOUBLE_CACHE_DIR", str(cache))
        assert run(capsys, *self.ARGV) == (0, plain)
        [entry] = cache.glob("basis-*.json")
        assert entry.read_text() + "\n" == plain
        # with basis_rows gone, only the cache can serve the table
        monkeypatch.delattr(Engine, "basis_rows")
        target = tmp_path / "table.json"
        assert run(capsys, *self.ARGV, "--out", str(target)) == (0, "")
        assert target.read_text() == run(capsys, *self.ARGV)[1] == plain
        assert not list(cache.glob("*.tmp"))


class TestCacheEntries:
    # a cache entry's file name carries the sha256 of its bytes: a hit
    # serves the entry unparsed, and an entry whose bytes no longer match
    # is a miss that rebuilds it, with the same bytes on stdout

    ARGV = ("basis", "--preset", "A1", "--height", "2")

    @pytest.fixture
    def cached(self, capsys, tmp_path, monkeypatch):
        """(uncached stdout, the one cache entry after a cached run)."""
        monkeypatch.delenv("QDOUBLE_CACHE_DIR", raising=False)
        _, plain = run(capsys, *self.ARGV)
        cache = tmp_path / "cache"
        monkeypatch.setenv("QDOUBLE_CACHE_DIR", str(cache))
        assert run(capsys, *self.ARGV) == (0, plain)
        [entry] = cache.glob("basis-*.json")
        assert entry.name.endswith(f".{hashlib.sha256(entry.read_bytes()).hexdigest()}.json")
        return plain, entry

    def test_hit_serves_the_entry_unparsed(self, capsys, monkeypatch, cached):
        plain, entry = cached
        monkeypatch.delattr(Engine, "basis_rows")
        monkeypatch.setattr(json, "loads", None)
        assert run(capsys, *self.ARGV) == (0, plain)

    @pytest.mark.parametrize("damage", ["truncated", "one-byte-in-a-string"])
    def test_damaged_entry_is_a_miss(self, capsys, monkeypatch, cached, damage):
        plain, entry = cached
        data = entry.read_bytes()
        if damage == "truncated":
            bad = data[: len(data) // 2]
        else:
            # a label inside a string value: still valid JSON, one byte apart
            at = data.index(b'"b_minus": "F[1^1]"') + len('"b_minus": "F[1^')
            bad = data[:at] + b"7" + data[at + 1 :]
            assert json.loads(bad) != json.loads(data)
        entry.write_bytes(bad)
        builds, real = [], Engine.basis_rows
        monkeypatch.setattr(Engine, "basis_rows", lambda self, *a, **k: builds.append(1) or real(self, *a, **k))
        assert run(capsys, *self.ARGV) == (0, plain)
        assert builds == [1]
        assert [p.name for p in entry.parent.iterdir()] == [entry.name]
        assert entry.read_bytes() == data


class TestBraidCmd:
    def test_t1_on_e2(self, capsys):
        code, out = run(capsys, "braid", "--preset", "A2", "--word", "1", "--element", "E:2")
        assert code == 0
        rows = json.loads(out)
        assert {r["E"] for r in rows} == {"1 2", "2 1"}

    def test_unknown_word_label(self, capsys):
        code = main(["braid", "--preset", "A2", "--word", "9", "--element", "E:2"])
        assert code == 2
        assert "unknown index label '9'" in capsys.readouterr().err

    def test_inverse_roundtrip(self, capsys):
        code, out = run(
            capsys, "braid", "--preset", "A2", "--word", "1 1^-1", "--element", "E:2"
        )
        rows = json.loads(out)
        assert len(rows) == 1 and rows[0]["E"] == "2" and rows[0]["c"] == "1"

    def test_output_is_indented_json(self, capsys):
        code, out = run(capsys, "braid", "--preset", "B2", "--word", "1 2", "--element", "F:1 2")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=1, sort_keys=True) + "\n"


class TestStrconst:
    def test_sl2_fe(self, capsys):
        code, out = run(capsys, "strconst", "F:1", "E:1", "--preset", "A1")
        assert code == 0
        payload = json.loads(out)
        assert payload["positive"] is True
        assert len(payload["coefficients"]) == 3

    @pytest.mark.parametrize(
        "preset, labels, words",
        [
            ("A1", ["F[1^1]", "F[1^1]"], ["F:1", "F:1"]),
            ("A1", ["1", "1"], ["F:", "E:"]),
            ("A2", ["b+(1,0,0,0)", "b+(1,0,0,0)"], ["F:1", "E:1"]),
        ],
        ids=["F-label", "unit", "A2-b+"],
    )
    def test_labels_by_name(self, capsys, monkeypatch, preset, labels, words):
        # in a fresh process no degree is built before the labels are read
        monkeypatch.setattr(qdouble.algebra.Algebra, "_registry", {})
        by_label = run(capsys, "strconst", *labels, "--preset", preset)
        assert by_label[0] == 0
        assert by_label == run(capsys, "strconst", *words, "--preset", preset)

    def test_output_is_indented_json(self, capsys):
        code, out = run(capsys, "strconst", "F:1", "E:1", "--preset", "A2")
        assert code == 0 and len(json.loads(out)["coefficients"]) > 1
        assert out == json.dumps(json.loads(out), indent=1, sort_keys=True) + "\n"

    def test_negative_coefficient_exits_zero(self, capsys):
        # positivity is reported, not checked
        code, out = run(capsys, "strconst", "F[2 2 1]", "F[1 2 2]", "--preset", "A1affine")
        payload = json.loads(out)
        assert code == 0 and payload["positive"] is False
        assert payload["coefficients"]["K-[0, 2] K+[0, 0] | F[1^1] | F[1^1]"] == "-1*v^-4 + 1*v^-8"

    def test_user_label(self, capsys, tmp_path):
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps(USER_TABLE_A1))
        code, out = run(capsys, "strconst", "x", "x", "--preset", "A1", "--tables", str(tables))
        assert code == 0 and json.loads(out)["coefficients"]

    @pytest.mark.parametrize(
        "words",
        [["1 2 2 2", "2 1 2 2"], ["1 2 2 2", "2 1 2 2", "1 2 2 2|2 1 2 2"]],
        ids=["too-few", "dependent"],
    )
    def test_tables_not_a_basis(self, capsys, tmp_path, words):
        # A1affine (1,3) has dimension 3 and no canonical-basis source
        elements = [
            {"label": f"x{k}", "element": [{"c": "1", "w": f"F:{w}"} for w in text.split("|")]}
            for k, text in enumerate(words)
        ]
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps([{"degree": [1, 3], "elements": elements}]))
        argv = ["strconst", "F:1 2 2 2", "E:1", "--preset", "A1affine", "--tables", str(tables)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "the elements of degree [1, 3] are not a basis (dimension 3)" in err

    def test_element_not_in_table(self, capsys):
        # F_1 F_2 is no dual canonical basis element of A2 (1,1)
        code = main(["strconst", "F:1 2", "E:1", "--preset", "A2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "element of degree (1, 1) is not in the table" in captured.err

    def test_unknown_labels(self, capsys):
        code = main(["strconst", "nosuch", "alsono", "--preset", "A2"])
        assert code == 2
        assert "unknown dual-canonical-basis label 'nosuch'" in capsys.readouterr().err


# strs with quotes, backslashes, control and non-ASCII characters, and
# astral characters that escape to surrogate pairs; ints past 2**64
_texts = st.text(st.sampled_from('"\\\x00\x1f\x7f\n\t a\xe9\u2028\U0001d11e') | st.characters())
_ints = st.integers() | st.integers(min_value=2**64, max_value=2**200) | st.integers(max_value=-(2**64))
_json = st.recursive(
    _texts | _ints | st.booleans() | st.none() | st.floats(),
    lambda kids: st.lists(kids, max_size=4) | st.tuples(kids, kids) | st.dictionaries(_texts, kids, max_size=4),
    max_leaves=30,
)
# depth 6, keys out of order, every kind of leaf and both empty containers
_DEEP = {"z": 0, "a": [{"\U0001d11e": [[{"k": ["\"\\\x01\xe9", -(2**70), None, True, {}, []]}]]}]}


def _depth(o) -> int:
    items = o.values() if isinstance(o, dict) else o if isinstance(o, (list, tuple)) else ()
    return 1 + max(map(_depth, items), default=0)


class TestDumps:
    @given(_json)
    @example(_DEEP)
    @settings(max_examples=300, deadline=None)
    def test_bytes_of_json_dumps(self, obj):
        target(float(_depth(obj)))
        assert _dumps(obj) == json.dumps(obj, indent=1, sort_keys=True)

    @given(st.integers() | st.none() | st.booleans() | st.tuples(st.integers()), _json)
    @settings(max_examples=50, deadline=None)
    def test_non_str_key_raises(self, key, value):
        with pytest.raises(TypeError):
            _dumps([{"a": {key: value}}])
        with pytest.raises(TypeError):
            _dumps({"a": 1, key: value})


class TestInternalError:
    @pytest.mark.parametrize("exc", [KeyError("boom"), ValueError("boom")], ids=["KeyError", "ValueError"])
    def test_exit_3(self, capsys, monkeypatch, exc):
        def fail(self, x, y):
            raise exc

        monkeypatch.setattr(qdouble.algebra.Algebra, "pair", fail)
        code = main(["pair", "E:1", "F:1", "--preset", "A1"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"internal error: {type(exc).__name__}: ")
        assert "Traceback" in err

    def test_verify_strconst_exit_3(self, capsys, monkeypatch):
        # an internal error in criterion 10's A2 line is not a failed check;
        # the A1affine line runs unpatched, so only the A2 catch is exercised
        real = qdouble.algebra.Algebra.structure_constants

        def broken(self, lm, lp):
            if self.datum.name == "A2":
                raise TypeError("patched")
            return real(self, lm, lp)

        monkeypatch.setattr(qdouble.algebra.Algebra, "structure_constants", broken)
        code = main(["verify", "sl2"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("internal error: TypeError: patched")


class TestVerify:
    def test_sl2_suite(self, capsys):
        code, out = run(capsys, "verify", "sl2")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_failing_suite_exits_1(self, capsys, monkeypatch):
        from qdouble import checks

        monkeypatch.setitem(checks.SUITES, "failing", lambda seed: [("patched identity", False, "")])
        monkeypatch.setitem(checks.CLI_SUITES, "sl2", ("failing",))
        code, out = run(capsys, "verify", "sl2")
        assert code == 1
        assert out == "FAIL patched identity\n0/1 checks passed\n"

    def test_failing_line_names_its_case(self, capsys, monkeypatch):
        # the closed form made wrong at (m_-, m_+) = (1, 2) alone
        from qdouble.sl2oracle import SL2Oracle

        closed = SL2Oracle.circ_closed

        def wrong(self, m_minus, m_plus):
            x = closed(self, m_minus, m_plus)
            return x + x if (m_minus, m_plus) == (1, 2) else x

        monkeypatch.setattr(SL2Oracle, "circ_closed", wrong)
        code, out = run(capsys, "verify", "sl2")
        assert code == 1
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == ["FAIL sl2 circ engine = closed form (m <= 4) -- first failing case: (1, 2)"]

    def test_holds_stops_at_the_first_failing_case(self):
        from qdouble.checks import holds

        def cases():
            yield (0, 0), True
            yield (1, 2), False
            raise AssertionError("a case after the failing one was evaluated")

        assert holds("x", cases(), "kept") == ("x", False, "first failing case: (1, 2)")
        assert holds("x", [(0, True), ((0, 1), True)], "kept") == ("x", True, "kept")
        assert holds("x", [], "kept") == ("x", True, "kept")

    def test_verify_all_bytes(self, capsys):
        # every suite, byte for byte; the acceptance tests have warmed the
        # shared instances by the time this runs
        code, out = run(capsys, "verify", "all")
        assert code == 0 and out.endswith("\n117/117 checks passed\n")
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256

    def test_unknown_suite(self, capsys):
        assert main(["verify", "nope"]) == 2

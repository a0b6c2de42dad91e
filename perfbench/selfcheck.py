"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

1. Self time computed from a synthetic nested span set, with recursion and
   siblings, equals the hand-computed values, with and without a per-call
   wrapper cost; a badly nested set is refused.  The calibrated wrapper cost
   is positive and below 20 microseconds.
2. For each workload, two traced runs with seed SEED both pass their gates
   (which include: the wrapped round's digest equals the unwrapped round's)
   and report identical call counts, memo sizes and count ratios.

Exit code 0 when every check passes.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from spans import calibrate, replay  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
# Metrics that are pure counts (or ratios of counts) and must repeat exactly.
EXACT_SUFFIXES = (".calls", ".memo_entries", "_frac")


def check_self_time() -> list:
    # a: [0,10] with children b: [1,4] and c: [5,9]; b has child d: [2,3];
    # c has a recursive child c: [6,8].  Layers are the name prefixes x, y.
    spans = [
        ("x.a", 0.0, 10.0, None),
        ("y.b", 1.0, 4.0, 0),
        ("y.c", 5.0, 9.0, 0),
        ("x.d", 2.0, 3.0, 1),
        ("y.c", 6.0, 8.0, 2),
        ("x.a", 11.0, 12.5, None),
    ]
    # With a wrapper cost of 0.25 s per call, each span's self time loses
    # 0.25 s per direct child: a (first) has two, b and c (outer) one each.
    expected = {
        # overhead: {name: (calls, incl_s, self_s)}
        0.0: {"x.a": (2, 11.5, 4.5), "y.b": (1, 3.0, 2.0), "y.c": (2, 4.0, 4.0), "x.d": (1, 1.0, 1.0)},
        0.25: {"x.a": (2, 11.5, 4.0), "y.b": (1, 3.0, 1.75), "y.c": (2, 4.0, 3.75), "x.d": (1, 1.0, 1.0)},
    }
    layers = {0.0: {"x": 5.5, "y": 6.0}, 0.25: {"x": 5.0, "y": 5.5}}
    errors = []
    for overhead, want in expected.items():
        tr = replay(spans, overhead)
        for name, (calls, incl, self_) in want.items():
            got = (tr.calls(name), tr.incl_s(name), tr.self_s(name))
            if got != (calls, incl, self_):
                errors.append(f"span fold {name} at cost {overhead}: got {got}, expected {(calls, incl, self_)}")
        for layer, self_ in layers[overhead].items():
            if tr.layer_self_s(layer) != self_:
                errors.append(f"layer {layer} self time {tr.layer_self_s(layer)} at cost {overhead}, expected {self_}")
    try:
        replay([("x.a", 0.0, 2.0, None), ("x.b", 1.0, 3.0, 0)])
        errors.append("a child ending after its parent was accepted")
    except ValueError:
        pass
    cost = calibrate()
    if not 0.0 < cost < 20e-6:
        errors.append(f"calibrated wrapper cost {cost * 1e9:.0f} ns is not in (0, 20000) ns")
    return errors


def traced(workload: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=os.path.dirname(HERE))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def check_repeatable(workload: str) -> list:
    runs = [traced(workload) for _ in range(2)]
    errors = [f"{workload}: traced run {k} failed its gates" for k, r in enumerate(runs) if not r["correct"]]
    exact = sorted(n for n in runs[0]["metrics"] if n.endswith(EXACT_SUFFIXES) and n != "trace.overhead_frac")
    for name in exact:
        a, b = (r["metrics"][name]["value"] for r in runs)
        if a != b:
            errors.append(f"{workload}: {name} differs between traced runs: {a} vs {b}")
    print(f"{workload}: {len(exact)} exact metrics compared over two traced runs")
    return errors


def main() -> int:
    errors = check_self_time()
    print(f"span fold: {'ok' if not errors else 'FAILED'}")
    for workload in WORKLOADS:
        errors += check_repeatable(workload)
    for e in errors:
        print("FAIL", e)
    print("selfcheck", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

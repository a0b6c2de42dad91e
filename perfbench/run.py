"""qdouble benchmark.

    python3 perfbench/run.py --workload basis-a2|tables|arith|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/``.  With ``--trace 0`` the run prints the end-to-end metrics declared
in BENCHMARK.json; with ``--trace 1`` it prints the per-layer metrics of one
traced round.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every correctness gate passed.

Each run re-executes itself with PYTHONHASHSEED fixed and QDOUBLE_CACHE_DIR
unset, imports the package once untimed (bytecode compilation), then runs a
fixed number of rounds.  A round re-imports the package and builds the
workload's Algebra instances (timed as set-up), runs the cold pass and the
warm pass, and checks the outputs outside the timed regions.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HASH_SEED = "0"
MODULES = ("algebra", "scalar", "linalg", "halves", "double", "canbasis", "lusztig", "braid", "cli")
# Nominal seconds of one round (set-up, cold pass, warm pass, gate) on a
# 2-core x86-64 VM; the number of rounds is --seconds over this, at least 1,
# so every run with the same --seconds does the same work.
ROUND_S = {"basis-a2": 45.0, "tables": 10.0, "arith": 10.0}
SETUP_REPS = 5

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402
from spans import Tracer, wrap_package  # noqa: E402
from hostspeed import REF_KERNEL_S, HostMeter  # noqa: E402


class HarnessError(RuntimeError):
    pass


def fresh_import() -> dict:
    """Drop every module of the package and import the layer modules anew."""
    for name in [n for n in sys.modules if n == "qdouble" or n.startswith("qdouble.")]:
        del sys.modules[name]
    importlib.import_module("qdouble")
    return {m: importlib.import_module(f"qdouble.{m}") for m in MODULES}


def first_import():
    sys.path.insert(0, SRC)
    try:
        import qdouble
    except ImportError as exc:
        raise HarnessError(f"cannot import qdouble from {SRC}: {exc}") from exc
    where = os.path.dirname(os.path.abspath(qdouble.__file__))
    if where != os.path.join(SRC, "qdouble"):
        raise HarnessError(f"qdouble imported from {where}, not from {SRC}")
    fresh_import()


def percentile(sorted_xs, p: float):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(p / 100 * len(sorted_xs)) - 1)
    return sorted_xs[k]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n samples beyond it."""
    p = (100 * (n - 10)) // n
    while p > 0 and n - math.ceil(p / 100 * n) < 10:
        p -= 1
    return p


def run_plain(wl, seed, seconds):
    """Rounds under the host-speed meter.  Every time is reported at reference
    host speed: each measured interval, a pass or an op, is divided by the
    meter's factor over that interval."""
    rounds = max(1, round(seconds / ROUND_S[wl.name]))
    setups, colds, warms = [], [], []
    attempted = failed = 0
    digests = []
    with HostMeter() as meter:
        for r in range(rounds):
            for _ in range(SETUP_REPS):
                env = None
                gc.collect()
                t0 = meter.now()
                env = wl.setup(fresh_import(), seed, r)
                setups.append((t0, meter.now()))
            env["clock"] = meter.now
            gc.collect()
            cold = wl.cold(env)
            warm = wl.warm(env)
            a, f, d = wl.gate(env, cold, warm)
            attempted += a
            failed += f
            digests.append(d)
            colds.append(cold)
            warms.extend(warm)
            for p in [cold, *warm]:
                p.outputs = None
            del env
            gc.collect()

    def ref_wall(p):
        return p.wall / meter.factor(p.t0, p.t1) / p.count

    op_s = sorted(
        x / meter.factor(t, t + x)
        for p in (colds if wl.ops_from == "cold" else warms)
        for t, x in zip(p.op_t, p.op_s)
    )
    tail = tail_percentile(len(op_s))
    metrics = {
        "setup_s": statistics.median((t1 - t0) / meter.factor(t0, t1) for t0, t1 in setups),
        "wall_s": statistics.median(ref_wall(p) for p in colds),
        "warm_s": statistics.median(ref_wall(p) for p in warms),
        "op_p50_ms": 1e3 * percentile(op_s, 50),
        "op_tail_ms": 1e3 * percentile(op_s, tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    factors = [d / REF_KERNEL_S for _, d in meter.samples]
    notes = {
        "rounds": rounds,
        "op_tail": f"p{tail} of {len(op_s)} {wl.ops_from} ops",
        "host_factor": f"mean {statistics.mean(factors):.3f} over {len(factors)} kernel samples",
        "raw_s": f"setup {statistics.median(t1 - t0 for t0, t1 in setups):.4g}  "
                 f"wall {statistics.median(p.wall for p in colds):.4g}  "
                 f"warm {statistics.median(p.wall / p.count for p in warms):.4g}",
        "digests": " ".join(digests),
    }
    return attempted, failed, metrics, notes


def traced_round(wl, seed, tracer=None):
    env = wl.setup(fresh_import(), seed, 0)
    env["clock"] = time.perf_counter
    if tracer is not None:
        wrap_package(env["mods"], tracer)
    gc.collect()
    t0 = time.perf_counter()
    cold = wl.cold(env)
    warm = wl.warm(env, reps=1)
    wall = time.perf_counter() - t0
    return env, cold, warm, wall


def layer_metrics(tr: Tracer, algs) -> dict:
    def frac(a, b):
        return a / b if b else 0.0

    ctxs = [alg.ctx for alg in algs.values()]
    m = {f"{layer}.self_s": tr.layer_self_s(layer) for layer in
         ("scalar", "linalg", "halves", "double", "canbasis", "lusztig")}
    gcd = "scalar.laurent_gcd"
    m.update({
        "scalar.laurent_gcd.calls": tr.calls(gcd),
        "scalar.laurent_gcd.incl_s": tr.incl_s(gcd),
        "scalar.laurent_gcd.nontrivial_frac": frac(tr.counts.get(gcd + ".nontrivial", 0), tr.calls(gcd)),
        "scalar.Laurent.divmod_poly.self_s": tr.self_s("scalar.Laurent.divmod_poly"),
        "scalar.Rat.canon.calls": tr.counts.get("scalar.Rat.canon", 0),
        "scalar.Rat.den_nontrivial_frac": frac(
            tr.counts.get("scalar.Rat.canon.den_nontrivial", 0), tr.counts.get("scalar.Rat.canon", 0)
        ),
        "scalar.Laurent.mul.calls": tr.calls("scalar.Laurent.__mul__"),
        "scalar.Laurent.mul.self_s": tr.self_s("scalar.Laurent.__mul__"),
        "scalar.clear_denominators.incl_s": tr.incl_s("scalar.clear_denominators"),
        "scalar.cyclotomic_factor.calls": tr.calls("scalar.cyclotomic_factor"),
        "linalg.solve_vec.calls": tr.calls("linalg.solve_vec"),
        "linalg.solve_vec.incl_s": tr.incl_s("linalg.solve_vec"),
        "linalg.invert.calls": tr.calls("linalg.invert"),
        "linalg.invert.incl_s": tr.incl_s("linalg.invert"),
        "halves.pairing_matrix.calls": tr.calls("halves.HalfAlgebra.pairing_matrix"),
        "halves.pairing_matrix.incl_s": tr.incl_s("halves.HalfAlgebra.pairing_matrix"),
        "halves.degree_basis.incl_s": tr.incl_s("halves.HalfAlgebra.degree_basis"),
        "halves.pair.calls": tr.calls("halves.HalfAlgebra.pair"),
        "double.multiply.calls": tr.calls("double.DoubleContext.multiply"),
        "double.multiply.incl_s": tr.incl_s("double.DoubleContext.multiply"),
        "double.word_coords.calls": tr.calls("double.DoubleContext.word_coords"),
        "double.word_coords.miss_frac": frac(
            sum(len(c._word_coords) for c in ctxs), tr.calls("double.DoubleContext.word_coords")
        ),
        "double.straighten.memo_entries": sum(len(c._straight) for c in ctxs),
        "double.bar.incl_s": tr.incl_s("double.DoubleContext.bar"),
        "double.to_dcb.incl_s": tr.incl_s("double.DoubleContext.to_dcb"),
        "double.d_multiplier.calls": tr.calls("double.DoubleContext.d_multiplier"),
        "double.d_multiplier.incl_s": tr.incl_s("double.DoubleContext.d_multiplier"),
        "double.tri_to_obj.incl_s": tr.incl_s("double.tri_to_obj"),
        "canbasis.canonical_basis.calls": tr.calls("canbasis.CanonicalTables.canonical_basis"),
        "canbasis.canonical_basis.incl_s": tr.incl_s("canbasis.CanonicalTables.canonical_basis"),
        "canbasis.dcb_table.incl_s": tr.incl_s("canbasis.CanonicalTables.dcb_table"),
        "canbasis.fgfrm.incl_s": tr.incl_s("canbasis.CanonicalTables.fgfrm"),
        "lusztig.bullet.calls": tr.calls("lusztig.Engine.bullet"),
        "lusztig.bullet.incl_s": tr.incl_s("lusztig.Engine.bullet"),
        "lusztig.circ.calls": tr.calls("lusztig.Engine.circ"),
        "lusztig.circ.incl_s": tr.incl_s("lusztig.Engine.circ"),
        "lusztig.ll_solve.calls": tr.calls("lusztig.ll_solve"),
        "braid.T.calls": tr.calls("braid.BraidOps.T"),
        "braid.T.incl_s": tr.incl_s("braid.BraidOps.T"),
        "cli.main.incl_s": tr.incl_s("cli.main"),
    })
    return m


def run_traced(wl, seed):
    """One untraced round, then the same round traced; per-layer metrics come
    from the traced round, whose outputs must match the untraced ones."""
    env, cold, warm, base_wall = traced_round(wl, seed)
    a0, f0, d0 = wl.gate(env, cold, warm)
    del env, cold, warm
    gc.collect()
    tracer = Tracer()
    env, cold, warm, wall = traced_round(wl, seed, tracer)
    metrics = layer_metrics(tracer, env["algs"])
    metrics["trace.overhead_frac"] = wall / base_wall - 1
    a1, f1, d1 = wl.gate(env, cold, warm)
    failed = f0 + f1 + (d0 != d1)
    notes = {
        "untraced_s": base_wall,
        "traced_s": wall,
        "wrapper_cost_ns": " ".join(f"{k} {1e9 * v:.0f}" for k, v in tracer.overhead.items()),
        "digest": d1,
        "digests_match": d0 == d1,
    }
    return a0 + a1, failed, metrics, notes


def declared_metrics(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    declared = declared_metrics(args.trace)
    first_import()
    if args.trace:
        attempted, failed, values, notes = run_traced(wl, args.seed)
    else:
        attempted, failed, values, notes = run_plain(wl, args.seed, args.seconds)
    missing = sorted(set(declared) - set(values))
    if missing:
        raise HarnessError(f"no value for declared metrics {missing}")
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}  "
          f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')}")
    for name, unit in declared.items():
        print(f"  {name:40s} {values[name]:14.6g} {unit}")
    print(f"  {'fail_frac':40s} {failed / max(attempted, 1):14.6g} ({failed}/{attempted} ops)")
    for key, val in notes.items():
        print(f"  # {key}: {val}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rc = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        rc = rc or proc.returncode
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            total["correct"] = False
            continue
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(total), flush=True)
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except (HarnessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def controlled_env():
    """Re-execute with PYTHONHASHSEED fixed and QDOUBLE_CACHE_DIR unset: with a
    cache directory set, `basis` would read a cached file instead of computing."""
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED and "QDOUBLE_CACHE_DIR" not in os.environ:
        return
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("QDOUBLE_CACHE_DIR", None)
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)


if __name__ == "__main__":
    controlled_env()
    sys.exit(main())

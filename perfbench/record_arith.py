"""Record the sha256 of the products of every arith input stream.

    python3 perfbench/record_arith.py

Runs the cold pass of each stream of the pool on fresh instances, checks that
both sides of every identity agree, and writes one digest per line, in stream
order, to arith_products.sha256.  The `arith` gate compares each pass with
these.  Re-record only when the printed form of products changes on purpose.
"""
from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import first_import, fresh_import  # noqa: E402
from workloads import ARITH_DIGESTS_FILE, ARITH_STREAMS, WORKLOADS, arith_stream  # noqa: E402


def main() -> int:
    wl = WORKLOADS["arith"]
    first_import()
    digests = []
    for stream in range(ARITH_STREAMS):
        env = wl.setup(fresh_import(), 0, 0)
        env.update(stream=stream, ops=arith_stream(stream, wl.n_ops), clock=time.perf_counter)
        digest, bad = wl.digest(env, wl.cold(env).outputs)
        if bad:
            print(f"stream {stream}: {bad} ops raised or broke their identity", file=sys.stderr)
            return 1
        print(f"stream {stream} {digest}", flush=True)
        digests.append(digest)
    with open(ARITH_DIGESTS_FILE, "w", encoding="ascii") as fh:
        fh.write("".join(d + "\n" for d in digests))
    return 0


if __name__ == "__main__":
    sys.exit(main())

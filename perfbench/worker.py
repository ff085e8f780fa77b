"""One workload run in a fresh interpreter; started by run.py, one at a time.

Modes:
  setup   set up (import ncsym, generate inputs, load references) and exit
  timed   set up, then run whole passes (at least 3) until --seconds have elapsed
  fixed   set up, then run the first pass untraced
  traced  set up, then run the first pass with every ncsym layer traced

The last line of stdout is a JSON object: the CLOCK_MONOTONIC instant at
which set-up ended, op counts, each pass's wall time, the key and latency
of every op that returned, the keys of ops whose value was wrong, a digest
of every op's output and, when traced, the per-layer figures.  Each value is
checked as soon as its op returns, outside the op's timed interval, and is
not kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
# The machine's speed can change for seconds at a time; run.py reports
# medians over passes, so a timed run needs a few of them.
MIN_PASSES = 3


def run_ops(ops, seconds, max_ops, call, settle, min_passes=1):
    """Closed loop over ``ops`` (a list of passes) in whole passes.

    Runs at least ``min_passes`` passes and stops at the first pass boundary
    after ``seconds``, or after ``max_ops`` ops when that is set.  Each op's
    value goes to ``settle(key, value, failed)`` as soon as its timed
    interval ends, and is then dropped, so memory does not grow with the
    number of ops run.  Returns (records, pass walls) with one (key, seconds,
    failed) record per op; an op that raises is a failed op.
    """
    records = []
    walls = []
    start = time.perf_counter()
    while True:
        for ops_pass in ops:
            began_pass = time.perf_counter()
            for key, thunk in ops_pass:
                began = time.perf_counter()
                try:
                    value, failed = call(key, thunk), False
                except Exception as exc:  # a refused op, counted in error_rate
                    value, failed = f"{type(exc).__name__}: {exc}", True
                records.append((key, time.perf_counter() - began, failed))
                settle(key, value, failed)
                if max_ops and len(records) >= max_ops:
                    break
            walls.append(time.perf_counter() - began_pass)
            if max_ops and len(records) >= max_ops:
                return records, walls
            if len(walls) >= min_passes and time.perf_counter() - start >= seconds:
                return records, walls


class Judge:
    """Checks each op's value: wrong keys, refusals and an output digest."""

    def __init__(self, workload):
        self.workload = workload
        self.wrong = []
        self.errors = {}
        self.digest = hashlib.sha256()

    def settle(self, key, value, failed):
        """Record one op's outcome; returns its canonical value."""
        if failed:
            self.errors[value] = self.errors.get(value, 0) + 1
        else:
            value = self.workload.canon(value)
            if not self.workload.check(key, value):
                self.wrong.append(key)
        self.digest.update(json.dumps([key, failed, value]).encode())
        return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "fixed", "traced"))
    parser.add_argument("--max-ops", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed)
    ready = time.monotonic()
    import ncsym

    if not Path(ncsym.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"ncsym imported from {ncsym.__file__}, not from this checkout")
    result = {"ready": ready}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    def plain(key, thunk):
        return thunk()

    call = plain
    finish = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        finish = tracing.install(tracer)
        call = tracer.op
    judge = Judge(workload)
    stdout_bytes = 0

    def settle(key, value, failed):
        nonlocal stdout_bytes
        value = judge.settle(key, value, failed)
        if args.workload == "cli" and not failed:
            stdout_bytes += len(value[1].encode())

    if args.mode == "timed":
        records, walls = run_ops(
            workload.passes, args.seconds, args.max_ops, call, settle, MIN_PASSES
        )
    else:
        records, walls = run_ops(workload.passes[:1], 0.0, args.max_ops, call, settle)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(
        walls=walls,
        attempted=len(records),
        failed=sum(1 for r in records if r[2]),
        ops=[[key, seconds] for key, seconds, failed in records if not failed],
        wrong=judge.wrong,
        errors=judge.errors,
        digest=judge.digest.hexdigest(),
        rss_mb=rss_mb,
    )
    if finish is not None:
        finish()
        if args.workload == "cli":
            tracer.counts["cli.stdout_bytes"] = stdout_bytes
        result["layers"] = tracer.flat()
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

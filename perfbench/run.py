"""The ncsym benchmark: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload antipode --seed 1 --seconds 55 --trace 0

Every run happens in fresh interpreters started one after another (see
worker.py), so no memo table carries over between workloads or from one
phase to the next.

--trace 0  times the workload: one interpreter that sets up and runs whole
           passes, at least three, for --seconds, with SETUP_REPEATS
           set-up-only interpreters, half before it and half after.
           Prints the end-to-end metrics of BENCHMARK.json.
--trace 1  runs the first pass untraced, then the same pass traced, each in
           its own interpreter.  Prints the per-layer metrics of
           BENCHMARK.json; their counts repeat exactly for a given seed.

Human-readable lines (sample counts, error rate, environment) come first;
the last line of stdout is the JSON result.  A copy of the result, with the
environment, goes to .bench_out/.  The exit code is 0 only when every op's
value was right; a refused op is not wrong, it counts in error_rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 10
DEADLINE_S = 170


class WorkerFailed(RuntimeError):
    pass


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def environment():
    """Interpreter, CPU count and source identity recorded with each result."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
    }


def _git_sha():
    """HEAD's commit from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def start_worker(args, mode, deadline, trace_out=None):
    """Run worker.py in a fresh interpreter and return (start, its result)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--max-ops", str(args.max_ops),
    ]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker ran past the {DEADLINE_S} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    return start, json.loads(lines[-1])


def percentile(ordered, q):
    """The sample at rank ceil(q * (n - 1)) of a sorted list.

    A pass mixes ops of very different cost, so a rank can fall on the
    boundary between two kinds of op; taking the upper sample there, not an
    interpolation, keeps the figure on one kind of op and off the slowest
    outlier of the cheaper kind.
    """
    return ordered[math.ceil(q * (len(ordered) - 1))]


def fastest_repeats(ops):
    """Each op's latency replaced by the fastest latency of its key in the run.

    Inputs recur across a run's passes.  A shared machine can slow down by
    up to 1.7x for seconds at a time under other tenants' load, and a figure
    pooled over the run moves with the share of time spent slow; timing each
    input by its fastest repeat, as timeit keeps the fastest repeat, depends
    far less on that share.  The result keeps every op, so each input counts
    as often as it ran.
    """
    best = {}
    for key, seconds in ops:
        best[key] = min(seconds, best.get(key, seconds))
    return sorted(best[key] for key, _ in ops)


def setup_times(args, deadline, count):
    """Set-up seconds of ``count`` set-up-only interpreters."""
    times = []
    for _ in range(count):
        start, res = start_worker(args, "setup", deadline)
        times.append(res["ready"] - start)
    return times


def end_to_end(args, deadline):
    # Half the set-ups run before the timed phase and half after it, so the
    # median spans two moments of a machine whose speed drifts.
    setups = setup_times(args, deadline, SETUP_REPEATS // 2)
    start, res = start_worker(args, "timed", deadline)
    setups.append(res["ready"] - start)
    setups += setup_times(args, deadline, SETUP_REPEATS - SETUP_REPEATS // 2)
    if not res["ops"]:
        raise WorkerFailed("no op returned a value")
    lat = fastest_repeats(res["ops"])
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": percentile(lat, 0.5) * 1e3,
        "latency_p90_ms": percentile(lat, 0.9) * 1e3,
        "peak_rss_mb": res["rss_mb"],
        "success_rate": len(lat) / res["attempted"],
    }
    keys = len({key for key, _ in res["ops"]})
    per_pass = f"{len(lat)} ops, {keys} distinct inputs, {len(res['walls'])} passes"
    samples = {
        "setup_s": f"median of {len(setups)} interpreters",
        "throughput_ops_s": per_pass,
        "latency_p50_ms": per_pass,
        "latency_p90_ms": per_pass,
        "peak_rss_mb": "1 interpreter",
        "success_rate": f"{res['attempted']} ops",
    }
    return res, values, samples


def per_layer(args, deadline):
    OUT.mkdir(exist_ok=True)
    trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    _, plain = start_worker(args, "fixed", deadline)
    _, res = start_worker(args, "traced", deadline, trace_out)
    if res["digest"] != plain["digest"]:
        res["wrong"].append("traced and untraced outputs differ")
    values = dict(res["layers"])
    values["trace.overhead_ratio"] = sum(res["walls"]) / sum(plain["walls"])
    samples = {"ops": res["attempted"], "trace_file": str(trace_out.relative_to(ROOT))}
    return res, values, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one ncsym benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--max-ops", type=int, default=0, help="stop each phase after this many ops (self-test)"
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "ncsym" / "__init__.py").is_file():
        print(f"no ncsym source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = spec()
    try:
        if args.trace:
            res, values, samples = per_layer(args, deadline)
            wanted = bench["per_layer"]
        else:
            res, values, samples = end_to_end(args, deadline)
            wanted = bench["end_to_end"]
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted
    }
    correct = not res["wrong"]
    env = environment()
    info = workloads.WORKLOADS[args.workload]
    print(f"# workload {args.workload} seed={args.seed} trace={args.trace}: {info['op']}")
    for field in ("loop", "pass", "limits", "stresses"):
        print(f"#   {field}: {info[field]}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    attempted, failed = res["attempted"], res["failed"]
    print(f"# ops attempted={attempted} failed={failed} error_rate={failed / attempted:.4f}")
    for msg, count in sorted(res["errors"].items()):
        print(f"#   refused x{count}: {msg}")
    for key in res["wrong"][:10]:
        print(f"# WRONG: {key}")
    if not args.trace:
        for name, m in metrics.items():
            print(f"# {name} = {m['value']:.6g} {m['unit']} (n = {samples[name]})")
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = dict(line, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, samples=samples, env=env, error_rate=failed / attempted)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

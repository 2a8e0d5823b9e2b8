#!/usr/bin/env python3
"""Build and run the Seesaw simulator benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload offline-tune|elastic-day|live-route \
        --seed N --seconds S --trace 0|1

The benchmark is the Rust package in this directory; it links the
simulator crates by path and builds into $CARGO_TARGET_DIR (default
`.bench_build`). Each call runs one fresh process of it on one worker
thread. With `--trace 0` the result carries the end-to-end metrics of
BENCHMARK.json, with `--trace 1` the per-layer ones; a traced run also
writes its spans and self times to `.bench_out/<workload>-seed<N>.json`.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170

# glibc malloc settings for the measured process: one arena, and freed
# memory kept rather than handed back to the kernel. Each repetition
# runs on a fresh thread; without these, every repetition would fault
# in its heap page by page again (about 3750 faults in live-route's
# set-up alone), and the cost of those faults swings with the host's
# memory state: the 16% run-to-run swing of a 12 ms set-up.
MALLOC_ENV = {
    "MALLOC_ARENA_MAX": "1",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 34),
    "MALLOC_MMAP_THRESHOLD_": str(1 << 25),
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"build failed with code {done.returncode}")
    binary = target_dir / "release" / "seesaw-perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")
    traced = args.trace == "1"

    target_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    binary = build(target_dir)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    trace_doc = None
    if traced:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_doc = out_dir / f"{args.workload}-seed{args.seed}.json"
        cmd += ["--trace-out", str(trace_doc)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **MALLOC_ENV),
                              capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run did not finish: {e}")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"run failed with code {done.returncode}")
    try:
        raw = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        fail(f"unreadable run output: {e}")

    checks = list(raw["checks"])
    failed = raw["failed"]
    declared = spec["per_layer" if traced else "end_to_end"]
    metrics = {}
    for m in declared:
        value = raw["metrics"].get(m["name"])
        if value is None and traced:
            # A layer this workload bypasses did no work: zero, as for
            # a cache that is never hit.
            value = 0.0
        if value is None or not math.isfinite(value):
            checks.append(f"metric {m['name']} has no finite value")
            failed += 1
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    req = raw["requests"]
    print(f"workload {raw['workload']}, seed {raw['seed']}, "
          f"{raw['repetitions']} repetitions, trace {args.trace}")
    print(f"requests per repetition: offered {req['offered']}, "
          f"succeeded {req['succeeded']}, failed {req['failed']}")
    better = {m["name"]: m.get("better", "") for m in declared}
    for name, v in metrics.items():
        hint = f" ({better[name]} is better)" if better[name] else ""
        print(f"  {name:28s} {v['value']:>16.6g} {v['unit']}{hint}")
    if trace_doc is not None:
        print(f"spans and self times: {trace_doc.relative_to(ROOT)}")
    for c in checks:
        print(f"CHECK FAILED: {c}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not checks,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

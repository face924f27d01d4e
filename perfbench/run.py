#!/usr/bin/env python3
"""Host-performance benchmark of the DRESAR simulator.

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
simulator from src/) into .bench_build/, runs one workload and prints every
metric with its unit, median, quartiles and sample count. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload fft-flit --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Exit status: 0 when every run passed its checks, 1 when a
run failed, 2 when the benchmark could not be built or run at all.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "dresar_perfbench"])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode
            except OSError as e:
                raise BenchError(f"cannot run {cmd[0]}: {e}") from e
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                raise BenchError(f"build failed: {' '.join(cmd)} (log: {log_path})")
    return os.path.join(out, "dresar_perfbench")


def source_digest():
    """sha256 over the simulator and benchmark sources (a checkout of the
    benchmark need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def summarize(xs):
    """(median, q1, q3, n) with the quartiles statistics.quantiles gives."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0], 1
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return med, q1, q3, len(xs)


def run_one(binary, spec, workload, seed, seconds, trace):
    """Runs one workload in one mode; prints the report and returns the
    result object for the last line."""
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", out_dir,
           "--spec", os.path.join(ROOT, "sweeps", "fig8.spec")]
    try:
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s") from e
    sys.stderr.write(res.stderr)
    if res.returncode not in (0, 1) or not res.stdout.strip():
        raise BenchError(f"{workload}: benchmark binary exited with status {res.returncode}")
    try:
        doc = json.loads(res.stdout)
    except ValueError as e:
        raise BenchError(f"{workload}: unreadable benchmark binary output: {e}") from e

    wanted = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(doc["samples"]) - known)
    if unknown:
        raise BenchError(f"{workload}: benchmark binary reported undeclared metrics {unknown}")

    prov = dict(doc["provenance"], seed=seed, git_commit=git_commit(),
                source_sha256=source_digest())
    print(f"== {workload}  seed={seed}  seconds={seconds}  "
          f"{'traced (per-layer)' if trace else 'untraced (end-to-end)'}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("fingerprint: " + json.dumps(doc["fingerprint"], sort_keys=True))
    if doc["notes"]:
        print("notes: " + json.dumps(
            {k: round(v, 3) for k, v in doc["notes"].items()}, sort_keys=True))
    print(f"{'metric':34} {'unit':10} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}")
    metrics = {}
    missing = []
    for m in wanted:
        xs = doc["samples"].get(m["name"])
        if not xs:
            if trace == 0:
                missing.append(m["name"])
                continue
            # A layer this workload never enters: a measured zero.
            print(f"{m['name']:34} {m['unit']:10} {'0 (not exercised)':>14}")
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
            continue
        med, q1, q3, n = summarize(xs)
        print(f"{m['name']:34} {m['unit']:10} {med:14.6g} {q1:14.6g} {q3:14.6g} {n:4d}")
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
    attempted, failed = doc["attempted"], doc["failed"]
    print(f"runs: attempted={attempted} failed={failed} "
          f"fail_ratio={failed / max(attempted, 1):.4g}")
    for err in doc["errors"]:
        print(f"FAILED: {err}")
    for name in missing:
        print(f"FAILED: no samples for {name}")
    correct = res.returncode == 0 and failed == 0 and not missing
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload; default: all, untraced then traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args()
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        binary = build()
        if args.workload is not None:
            result = run_one(binary, spec, args.workload, args.seed, seconds, args.trace or 0)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            modes = (0, 1) if args.trace is None else (args.trace,)
            for name in names:
                for trace in modes:
                    one = run_one(binary, spec, name, args.seed, seconds, trace)
                    print()
                    result["correct"] = result["correct"] and one["correct"]
                    result["attempted"] += one["attempted"]
                    result["failed"] += one["failed"]
                    for k, v in one["metrics"].items():
                        result["metrics"][f"{name}/{k}"] = v
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

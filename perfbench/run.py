#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload <evd_dense|tiny_flood|all> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The benchmark is compiled from the library sources in src/ into
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench) with the
repository's Release flags, then run with the thread budget pinned to
nproc. The last line of stdout is the JSON result. The exit code is nonzero
when the build fails, when the environment would change the program under
test (the binary refuses, see src/main.cc), when a correctness gate fails,
or when the reported metrics do not match BENCHMARK.json. `--workload all`
runs every workload in turn and ends with one combined JSON line whose
metric names carry the workload as a prefix.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("evd_dense", "tiny_flood")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    """Configure (once) and build; all tool output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return None
    out = build_dir()
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return out


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, workload, args, env):
    """Run one workload, echoing its stdout; returns (exit code, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    last = ""
    try:
        for line in proc.stdout:
            if last:
                print(last, flush=True)
            last = line.rstrip("\n")
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    try:
        result = json.loads(last)
    except ValueError:
        if last:
            print(last, flush=True)
        log(workload + ": no JSON result line")
        return (code or 1), None
    want = declared_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        print(last, flush=True)
        log("%s: metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            workload, sorted(want - set(result["metrics"])),
            sorted(set(result["metrics"]) - want)))
        return 1, None
    return code, result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark helpers' selftest")
    args = p.parse_args()

    if args.selftest:
        out = build(["perfbench_selftest"])
        if out is None:
            return 3
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    out = build(["perfbench"])
    if out is None:
        return 3

    env = dict(os.environ)
    threads = len(os.sched_getaffinity(0))
    env["TDG_THREADS"] = str(threads)  # pin the thread budget to nproc
    binary = os.path.join(out, "perfbench")

    if args.workload != "all":
        code, result = run_one(binary, args.workload, args, env)
        if result is not None:
            print(json.dumps(result), flush=True)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, result = run_one(binary, w, args, env)
        worst = worst or code
        if result is None:
            return code or 1
        print(json.dumps(result), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][w + "." + name] = m
    print(json.dumps(combined), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())

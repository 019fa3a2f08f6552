#!/usr/bin/env python3
"""Runs one benchmark workload: builds the harness from this checkout's
sources, runs it, checks the verdicts and prints the result.

    python3 swiftbench/run.py --workload swift-batch --seed 1 --seconds 35 \
        --trace 0

Run from the root of a checkout. The harness and the analysis libraries are
built with CMake into $CARGO_TARGET_DIR (default .bench_build) on the first
run; later runs reuse the build. With --trace 0 the last stdout line holds
the end-to-end metrics BENCHMARK.json names, with --trace 1 its per-layer
metrics of a traced run; every workload reports every one of them. Lines
before it record the run context, the traffic claims checked on this run,
the deterministic counters and the workload's other metrics. Exit status: 0
when every operation succeeded, 1 when any failed (mismatch, timeout,
degraded response, restart or fallback), 2 on a usage or build error or a
missing metric (no result line).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["swift-batch", "bu-batch", "serve-edits", "shard-bu"]
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def fail(msg):
    print("swiftbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir, env):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd, env)
    run_build_step(["cmake", "--build", build_dir, "-j", jobs], env)


def run_build_step(cmd, env):
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build step timed out: " + " ".join(cmd))
    if r.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def source_digest():
    """sha1 over the analysis sources the harness is built from."""
    h = hashlib.sha1()
    paths = []
    for sub in ("src", "tools"):
        for d, _, files in os.walk(os.path.join(ROOT, sub)):
            paths += [os.path.join(d, f) for f in files]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def manifest_metrics(trace):
    """(name, unit) of the metrics BENCHMARK.json asks a run to report."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    return [(m["name"], m["unit"])
            for m in manifest["per_layer" if trace else "end_to_end"]]


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs and a fixed amount of work "
                         "(the determinism self-check)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("analysis sources not found under " + os.path.join(ROOT, "src"))
    wanted = manifest_metrics(args.trace)
    load_at_start = os.getloadavg()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    env = dict(os.environ)
    # Compiler and harness temporaries stay inside the checkout.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    build(build_dir, env)

    work = os.path.join(build_dir, "work-%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(build_dir, "swift-perfbench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%r" % args.seconds, "--trace=%d" % args.trace,
           "--work-dir=" + work,
           "--worker-bin=" + os.path.join(build_dir, "swift-shard-worker"),
           "--expected=" + os.path.join(HERE, "expected_verdicts.json")]
    if args.tiny:
        cmd.append("--tiny")
    # Own process group: on a timeout the shard workers go down with the
    # harness, and every process is reaped before the directory goes.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("harness exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("harness exited with %d and no report" % proc.returncode)
    rep = json.loads(lines[-1])
    for name, unit in wanted:
        m = rep["metrics"].get(name)
        if m is None or m["unit"] != unit:
            fail("the harness reported no metric %s in %s" % (name, unit))

    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": [round(x, 2) for x in load_at_start],
        "build": rep["build"],
        "commit": commit(), "source_sha1": source_digest(),
    }
    print("swiftbench context " + json.dumps(context))
    for c in rep["claims"]:
        print("swiftbench claim %-18s %.4g in [%g, %g]: %s -- %s" % (
            c["name"], c["value"], c["lo"], c["hi"],
            "holds" if c["holds"] else "DOES NOT HOLD", c["statement"]))
    print("swiftbench counters " + json.dumps(rep["counters"],
                                               sort_keys=True))
    for name, v in rep["spans"].items():
        print("swiftbench span %-18s self %10.6f s  total %10.6f s  n=%d" % (
            name, v["self_s"], v["total_s"], v["count"]))
    for f in rep["failures"]:
        print("swiftbench FAILED " + f)
    for name, m in rep["metrics"].items():
        print("swiftbench metric %-26s %14.6g %-6s (%d samples)" % (
            name, m["value"], m["unit"], m["samples"]), file=sys.stderr)
    print(json.dumps({
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {name: {"value": rep["metrics"][name]["value"],
                           "unit": unit} for name, unit in wanted},
    }))
    sys.exit(0 if rep["failed"] == 0 and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()

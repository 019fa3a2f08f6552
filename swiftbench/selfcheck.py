#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 swiftbench/selfcheck.py

Runs every workload twice at the tiny size (small programs, a fixed amount
of work) and requires that both runs report zero failed operations and
exactly the same deterministic counters: solver steps, the td/bu/swift
counters, alloc.count, serve re-analyzed/reused/invalidated counts and
shard spool bytes. Exits 0 when all agree, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["swift-batch", "bu-batch", "serve-edits", "shard-bu"]


def run(workload, seed):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0", "--tiny"],
        capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    counters = None
    for line in lines:
        if line.startswith("swiftbench counters "):
            counters = json.loads(line[len("swiftbench counters "):])
    result = json.loads(lines[-1]) if lines else None
    if r.returncode != 0 or result is None or counters is None:
        sys.stderr.write(r.stderr[-2000:])
    return r.returncode, result, counters


def main():
    ok = True
    for w in WORKLOADS:
        runs = [run(w, seed=7) for _ in range(2)]
        for rc, result, _ in runs:
            if rc != 0 or not result or result["failed"] != 0:
                print("FAIL %s: exit %d, result %s" % (w, rc, result))
                ok = False
        (_, _, a), (_, _, b) = runs
        if a is None or b is None:
            continue
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        if not a:
            print("FAIL %s: no deterministic counters reported" % w)
            ok = False
        elif diff:
            print("FAIL %s: counters differ between runs: %s" % (w, ", ".join(
                "%s %s != %s" % (k, a.get(k), b.get(k)) for k in diff)))
            ok = False
        else:
            print("ok   %s: %d counters identical across two runs" % (
                w, len(a)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

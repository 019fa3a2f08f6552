#!/usr/bin/env python3
"""Validates a "swift-bench" v1 result file emitted by --json-out.

Schema checks (CI's perf-gate job runs this on fresh bench_table2,
bench_microops and bench_ablation results before handing bench_table2's
to swift-benchdiff; see
.github/workflows/ci.yml and src/obs/BenchResult.h):
  * the file parses as JSON with format "swift-bench" and version 1;
  * "bench" is a non-empty string; "context", when present, is an object
    of finite non-negative numbers;
  * "rows" is a non-empty array; every row has non-empty string
    "workload"/"config", a bool "timeout", and a non-empty "metrics"
    object of finite non-negative numbers;
  * (workload, config) row keys are unique.

Exit 0 with a one-line summary on success, exit 1 with a diagnostic on
the first violation.
"""

import json
import math
import sys


def fail(msg):
    print(f"check_bench: {msg}", file=sys.stderr)
    sys.exit(1)


def check_num_obj(obj, where, allow_empty):
    if not isinstance(obj, dict):
        fail(f"{where} is not an object")
    if not obj and not allow_empty:
        fail(f"{where} is empty")
    for key, val in obj.items():
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            fail(f"{where}.{key} is not a number")
        if not math.isfinite(val) or val < 0:
            fail(f"{where}.{key} is negative or non-finite")


def main():
    if len(sys.argv) != 2:
        fail("usage: check_bench.py <bench.json>")
    path = sys.argv[1]
    try:
        with open(path, "r", encoding="utf-8") as f:
            root = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")

    if not isinstance(root, dict):
        fail(f"{path}: top level is not an object")
    if root.get("format") != "swift-bench":
        fail(f"{path}: format is not \"swift-bench\"")
    if root.get("version") != 1:
        fail(f"{path}: unsupported version {root.get('version')!r}")
    bench = root.get("bench")
    if not isinstance(bench, str) or not bench:
        fail(f"{path}: missing or empty bench name")
    if "context" in root:
        check_num_obj(root["context"], f"{path}: context", allow_empty=True)

    rows = root.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: missing or empty rows array")

    seen = set()
    for i, row in enumerate(rows):
        where = f"{path}: rows[{i}]"
        if not isinstance(row, dict):
            fail(f"{where} is not an object")
        for key in ("workload", "config"):
            if not isinstance(row.get(key), str) or not row[key]:
                fail(f"{where}: missing or empty {key}")
        if not isinstance(row.get("timeout"), bool):
            fail(f"{where}: missing or non-bool timeout")
        check_num_obj(row.get("metrics"), f"{where}.metrics",
                      allow_empty=False)
        row_key = (row["workload"], row["config"])
        if row_key in seen:
            fail(f"{where}: duplicate row key {row_key!r}")
        seen.add(row_key)

    timeouts = sum(1 for r in rows if r["timeout"])
    print(f"check_bench: {path}: OK ({bench}; {len(rows)} rows, "
          f"{timeouts} timeout)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""A bench's --metrics-out snapshot carries the table's counters.

    python3 bench_metrics.py BENCH_TABLE2 WORKDIR

Runs bench_table2 on jpat-p with --metrics-out and requires the snapshot's
counters to hold the summed stats of the table's runs: EXPERIMENTS.md and
MANUAL section 9 join table rows and snapshots on these counter names.
Exits 0 when they are there, 1 otherwise.
"""

import json
import os
import subprocess
import sys


def main():
    bench, work = sys.argv[1], sys.argv[2]
    os.makedirs(work, exist_ok=True)
    path = os.path.join(work, "table2.metrics.json")
    if os.path.exists(path):
        os.remove(path)
    subprocess.run([bench, "--bench=jpat-p", "--metrics-out=" + path],
                   check=True, stdout=subprocess.DEVNULL)
    with open(path) as f:
        snap = json.load(f)
    counters = snap["counters"]
    missing = [n for n in ("budget.td_steps", "budget.sync_bu_steps",
                           "swift.bu_triggers", "td.summaries")
               if counters.get(n, 0) <= 0]
    if snap["format"] != "swift-metrics" or missing:
        print("FAIL: snapshot counters lack %s: %s" % (missing, counters))
        return 1
    print("ok: %d counters, budget.td_steps = %d" %
          (len(counters), counters["budget.td_steps"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

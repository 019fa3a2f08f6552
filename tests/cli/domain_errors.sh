#!/usr/bin/env bash
# Strict-CLI contract for the --mode/--domain flags of swift-analyze (and
# the --domain flag of swift-difftest):
#  * an unknown value exits 2 AND the error names every valid value, so
#    the failure is actionable without opening the manual;
#  * every registered client domain actually runs in every mode through
#    the real binary (exit 0 on a tiny corpus program);
#  * --mode=bu without a client domain is rejected with the domain list;
#  * client domains reject --mem-mb (no governor) and honor --failpoints,
#    --trace-out and --metrics-out like the typestate domain;
#  * a --mem-mb whose byte count would not fit in 64 bits exits 2 like any
#    malformed value, and the largest accepted one caps nothing;
#  * --threads, the pure-BU wavefront's worker count, is accepted only
#    with a client domain in --mode=bu; anywhere else it would do nothing,
#    so it exits 2 naming the flag.
#
# Usage: domain_errors.sh <swift-analyze> <swift-difftest> <corpus-dir>
set -u

analyze=$1
difftest=$2
corpus=$3
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
fails=0

check() { # check <desc> <expected-rc> <actual-rc>
  if [ "$3" -ne "$2" ]; then
    echo "FAIL: $1: expected exit $2, got $3" >&2
    fails=$((fails + 1))
  fi
}
expect_grep() { # expect_grep <desc> <pattern> <file>
  if ! grep -q "$2" "$3"; then
    echo "FAIL: $1: output lacks '$2'" >&2
    cat "$3" >&2
    fails=$((fails + 1))
  fi
}

prog="$corpus/clients/interval-guard.swiftir"

# --- unknown --mode lists the valid modes -------------------------------
"$analyze" --mode=bogus "$prog" >"$work/out" 2>&1
check "unknown --mode exits 2" 2 $?
expect_grep "unknown --mode names the value" "invalid --mode value 'bogus'" "$work/out"
expect_grep "unknown --mode lists valid values" "valid values: td, swift, bu" "$work/out"

# --- unknown --domain lists the registered domains ----------------------
"$analyze" --domain=bogus "$prog" >"$work/out" 2>&1
check "unknown --domain exits 2" 2 $?
expect_grep "unknown --domain names the value" "invalid --domain value 'bogus'" "$work/out"
expect_grep "unknown --domain lists valid values" \
  "valid values: typestate, taint, nullderef, reachdefs, interval" "$work/out"

# --- swift-difftest shares the contract ---------------------------------
"$difftest" --domain=bogus --seeds=1 >"$work/out" 2>&1
check "difftest unknown --domain exits 2" 2 $?
expect_grep "difftest lists valid values" \
  "valid values: typestate, taint, nullderef, reachdefs, interval" "$work/out"

# --- --mode=bu needs a client domain ------------------------------------
"$analyze" --mode=bu "$prog" >"$work/out" 2>&1
check "--mode=bu without client domain exits 2" 2 $?
expect_grep "bu rejection lists the client domains" \
  "valid domains: taint, nullderef, reachdefs, interval" "$work/out"

# --- checkpointing stays typestate-only ---------------------------------
"$analyze" --domain=taint --checkpoint-out="$work/ck" "$prog" >"$work/out" 2>&1
check "client domain + checkpoint exits 2" 2 $?
expect_grep "checkpoint rejection explains itself" \
  "checkpoint/resume supports only the typestate domain" "$work/out"

# --- client domains run without a governor ------------------------------
"$analyze" --domain=taint --mem-mb=1 "$prog" >"$work/out" 2>&1
check "client domain + --mem-mb exits 2" 2 $?
expect_grep "--mem-mb rejection explains itself" \
  "mem-mb supports only the typestate domain" "$work/out"

# --- --mem-mb is bounded so the cap in bytes cannot wrap ---------------
ts="$corpus/seed15.swiftir"
"$analyze" --mem-mb=17592186044416 "$ts" >"$work/out" 2>&1
check "--mem-mb=2^44 exits 2" 2 $?
expect_grep "--mem-mb=2^44 is reported" \
  "invalid --mem-mb value '17592186044416'" "$work/out"
"$analyze" "$ts" >"$work/plain" 2>&1
plain_rc=$?
"$analyze" --mem-mb=17592186044415 "$ts" >"$work/out" 2>&1
check "--mem-mb=2^44-1 runs like no cap" "$plain_rc" $?
expect_grep "--mem-mb=2^44-1 completes" ": complete in" "$work/out"

# --- --threads sets only pure BU's wavefront ---------------------------
for args in "--mode=swift" "--mode=td" "--domain=taint --mode=td" \
  "--domain=taint --mode=swift"; do
  # shellcheck disable=SC2086
  "$analyze" $args --threads=4 "$ts" >"$work/out" 2>&1
  check "$args --threads=4 exits 2" 2 $?
  expect_grep "$args --threads=4 names the flag" \
    "threads is valid only with a client --domain and --mode=bu" "$work/out"
done
"$analyze" --resume-from="$work/ck" --threads=2 >"$work/out" 2>&1
check "--resume-from with --threads exits 2" 2 $?
expect_grep "--resume-from with --threads names the flag" \
  "threads is valid only with a client --domain and --mode=bu" "$work/out"
"$analyze" --domain=taint --mode=bu --threads=2 "$prog" >"$work/out" 2>&1
check "taint/bu --threads=2 runs" 0 $?
expect_grep "taint/bu --threads=2 completes" "taint/bu: complete" "$work/out"

# --- failpoints, trace and metrics apply to client domains too ----------
"$analyze" --domain=taint --failpoints=bogus "$prog" >"$work/out" 2>&1
check "client domain + malformed --failpoints exits 2" 2 $?
expect_grep "malformed --failpoints is reported" \
  "malformed failpoint spec 'bogus'" "$work/out"
"$analyze" --domain=taint --mode=swift --trace-out="$work/t.json" \
  --metrics-out="$work/m.json" "$prog" >"$work/out" 2>&1
check "client domain with --trace-out/--metrics-out runs" 0 $?
for f in t.json m.json; do
  if [ ! -s "$work/$f" ]; then
    echo "FAIL: client domain did not write $f" >&2
    fails=$((fails + 1))
  fi
done
expect_grep "client metrics snapshot carries the run's counters" \
  '"td.path_edges"' "$work/m.json"

# --- every domain runs in every mode ------------------------------------
for domain in taint nullderef reachdefs interval; do
  for mode in td swift bu; do
    "$analyze" --domain=$domain --mode=$mode "$prog" >"$work/out" 2>&1
    check "$domain/$mode runs" 0 $?
    expect_grep "$domain/$mode reports completion" "$domain/$mode: complete" "$work/out"
  done
done

if [ "$fails" -ne 0 ]; then
  echo "$fails check(s) failed" >&2
  exit 1
fi
echo "all domain CLI checks passed"

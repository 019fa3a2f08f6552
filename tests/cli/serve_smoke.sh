#!/usr/bin/env bash
# swift-serve protocol smoke: a scripted stats/query/edit/query session
# over stdin must agree with batch swift-analyze on every error site, a
# self-edit through the protocol (the first proc block resubmitted
# verbatim) must be accepted and change no verdict, and a warm start
# from the auto-saved store must reuse every summary and still agree.
# Also covers the shutdown contract (shutdown response sent and
# --metrics-out/--trace-out flushed before exit 0, with one sample in each
# of the edit and query latency histograms) and graceful drain
# (SIGTERM finishes the in-flight request, emits the drain stats line,
# and exits 0).
#
# Usage: serve_smoke.sh <swift-serve> <swift-analyze> <program.swiftir>
set -u

serve=$1
analyze=$2
prog=$3
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
fails=0

fail() {
  echo "FAIL: $1" >&2
  fails=$((fails + 1))
}

# Batch reference: swift-analyze's error sites, one "@N" per line.
"$analyze" "$prog" > "$work/batch.out" 2>/dev/null ||
  fail "swift-analyze exited $?"
grep -o 'error @[0-9]*' "$work/batch.out" | grep -o '@[0-9]*' |
  sort > "$work/batch.sites"

# Build the scripted session: the edit body is the program's own first
# proc block, so the edit must be accepted and is semantically a no-op.
python3 - "$prog" > "$work/requests" <<'EOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
start = next(i for i, l in enumerate(lines) if l.startswith('proc '))
end = next(i for i in range(start, len(lines)) if lines[i] == '}')
name = lines[start].split()[1].split('(')[0]
body = '\n'.join(lines[start:end + 1]) + '\n'
print(json.dumps({"op": "stats"}))
print(json.dumps({"op": "query_all"}))
print(json.dumps({"op": "edit", "proc": name, "body": body}))
print(json.dumps({"op": "query_all"}))
print(json.dumps({"op": "query", "site": 0}))
print(json.dumps({"op": "shutdown"}))
EOF

"$serve" --store-out="$work/store" "$prog" < "$work/requests" \
  > "$work/session.out" 2> "$work/session.err"
rc=$?
[ "$rc" -eq 0 ] || { fail "serve session exited $rc"; cat "$work/session.err" >&2; }

# Validate the six responses and print the session's error sites.
python3 - "$work/session.out" > "$work/serve.sites" <<'EOF'
import json, sys
rs = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert len(rs) == 6, f"expected 6 responses, got {len(rs)}: {rs}"
stats, qa1, edit, qa2, q0, bye = rs
for r in rs:
    assert r.get("ok") is True, f"request failed: {r}"
assert stats["solved"] is True and stats["procs"] >= 1, stats
assert qa1["error_sites"] == qa2["error_sites"], \
    f"self-edit changed verdicts: {qa1} -> {qa2}"
v = q0["verdict"]
assert (0 in qa1["error_sites"]) == (v == "error"), (qa1, v)
for s in sorted(qa1["error_sites"]):
    print(f"@{s}")
EOF
[ $? -eq 0 ] || fail "session responses malformed (see above)"

diff "$work/batch.sites" "$work/serve.sites" ||
  fail "serve session error sites differ from batch swift-analyze"

# Protocol robustness: an oversized request line (> 64 KiB) gets a typed
# error response, and the valid query_all PIPELINED RIGHT BEHIND IT in
# the same write is answered correctly — the server resynchronizes on
# the line boundary, it does not swallow or garble the follow-up.
# Malformed JSON gets code "parse", and the session keeps serving.
python3 - > "$work/robust.requests" <<'EOF'
import json
print('{"op":"query","site":' + '9' * 70000 + '}')  # > 64 KiB, one line
print(json.dumps({"op": "query_all"}))  # pipelined behind the overflow
print('this is not json')
print(json.dumps({"op": "frobnicate"}))
print(json.dumps({"op": "stats"}))
print(json.dumps({"op": "shutdown"}))
EOF
"$serve" "$prog" < "$work/robust.requests" \
  > "$work/robust.out" 2> "$work/robust.err"
rc=$?
[ "$rc" -eq 0 ] || { fail "robustness session exited $rc"; cat "$work/robust.err" >&2; }
python3 - "$work/robust.out" > "$work/robust.sites" <<'EOF'
import json, sys
rs = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert len(rs) == 6, f"expected 6 responses, got {len(rs)}: {rs}"
over, qa, bad, unk, stats, bye = rs
assert over.get("ok") is False and over.get("code") == "oversized_line", over
assert qa.get("ok") is True and "error_sites" in qa, qa
assert bad.get("ok") is False and bad.get("code") == "parse", bad
assert unk.get("ok") is False and unk.get("code") == "unknown_op", unk
assert stats.get("ok") is True and stats.get("solved") is True, stats
assert bye.get("ok") is True, bye
for s in sorted(qa["error_sites"]):
    print(f"@{s}")
EOF
[ $? -eq 0 ] || fail "robustness responses malformed (see above)"
diff "$work/batch.sites" "$work/robust.sites" ||
  fail "query pipelined behind an oversized line got wrong content"

# Warm start from the auto-saved store: every summary reused, same sites.
test -s "$work/store" || fail "auto-saved store missing or empty"
printf '{"op":"query_all"}\n{"op":"shutdown"}\n' |
  "$serve" --store="$work/store" > "$work/warm.out" 2> "$work/warm.err" ||
  fail "warm-start session exited $?"
counts=$(sed -n 's/.* \([0-9]*\) summaries (\([0-9]*\) reused).*/\1 \2/p' \
  "$work/warm.err")
if [ -z "$counts" ]; then
  fail "warm-start ready line missing"
  cat "$work/warm.err" >&2
else
  set -- $counts
  [ "$1" = "$2" ] || fail "warm start reused only $2 of $1 summaries"
  [ "$1" -ge 1 ] || fail "warm start loaded no summaries"
fi
python3 - "$work/warm.out" > "$work/warm.sites" <<'EOF'
import json, sys
rs = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert len(rs) == 2 and all(r.get("ok") for r in rs), rs
for s in sorted(rs[0]["error_sites"]):
    print(f"@{s}")
EOF
[ $? -eq 0 ] || fail "warm-start responses malformed"
diff "$work/batch.sites" "$work/warm.sites" ||
  fail "warm-start error sites differ from batch swift-analyze"

# Shutdown contract: the shutdown response is sent AND the requested
# observability files are flushed, valid JSON before the process exits 0.
# The session's one edit (the self-edit above) and one query each land in
# their request-latency histogram.
{ printf '{"op":"stats"}\n'; sed -n 3p "$work/requests"
  printf '{"op":"query","site":0}\n{"op":"shutdown"}\n'; } |
  "$serve" --metrics-out="$work/shutdown.metrics.json" \
           --trace-out="$work/shutdown.trace.json" "$prog" \
  > "$work/shutdown.out" 2> "$work/shutdown.err"
rc=$?
[ "$rc" -eq 0 ] || { fail "shutdown session exited $rc"; cat "$work/shutdown.err" >&2; }
python3 - "$work/shutdown.out" "$work/shutdown.metrics.json" \
          "$work/shutdown.trace.json" <<'EOF'
import json, sys
rs = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert len(rs) == 4 and all(r.get("ok") for r in rs), rs
m = json.load(open(sys.argv[2]))
assert m.get("format") == "swift-metrics" and m.get("version") == 1, m
h = m["histograms"]
for name in ("serve.edit_latency_us", "serve.query_latency_us"):
    assert h.get(name, {}).get("count") == 1, (name, h.get(name))
json.load(open(sys.argv[3]))  # must at least parse
EOF
[ $? -eq 0 ] || fail "shutdown did not flush valid metrics/trace files"

# Graceful drain: SIGTERM mid-session finishes the in-flight request,
# emits the final drain stats line, flushes observability, and exits 0.
mkfifo "$work/drain.fifo"
"$serve" --metrics-out="$work/drain.metrics.json" "$prog" \
  < "$work/drain.fifo" > "$work/drain.out" 2> "$work/drain.err" &
pid=$!
exec 3> "$work/drain.fifo"
printf '{"op":"stats"}\n' >&3
for _ in $(seq 100); do
  grep -q '"procs"' "$work/drain.out" 2>/dev/null && break
  sleep 0.1
done
grep -q '"procs"' "$work/drain.out" || fail "drain session never responded"
kill -TERM "$pid"
for _ in $(seq 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$pid" 2>/dev/null; then
  kill -9 "$pid"
  fail "serve did not drain on SIGTERM"
fi
wait "$pid"
rc=$?
exec 3>&-
[ "$rc" -eq 0 ] || { fail "drained session exited $rc"; cat "$work/drain.err" >&2; }
grep -q '"drain":true' "$work/drain.out" || fail "drain stats line missing"
grep -q 'drained on signal' "$work/drain.err" ||
  fail "drain notice missing from stderr"
python3 -c 'import json,sys; json.load(open(sys.argv[1]))' \
  "$work/drain.metrics.json" || fail "drain did not flush metrics"

if [ "$fails" -ne 0 ]; then
  echo "$fails check(s) failed" >&2
  exit 1
fi
echo "all serve smoke checks passed"

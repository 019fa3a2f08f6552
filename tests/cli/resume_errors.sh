#!/usr/bin/env bash
# CLI contract for swift-analyze error reporting:
#  * usage errors (unknown flag, bad value, malformed --failpoints) exit 2
#    AND print the usage text;
#  * malformed checkpoint input (--resume-from a corrupt/truncated file)
#    also exits 2 but says "malformed checkpoint ..." and does NOT print
#    the usage text — the input is broken, not the invocation;
#  * a '!kill' failpoint mid-save dies with exit 85 leaving no torn file.
#
# Usage: resume_errors.sh <swift-analyze> <corpus-dir>
set -u

analyze=$1
corpus=$2
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
reject_grep() { # reject_grep <desc> <pattern> <file>
  if grep -q "$2" "$3"; then
    echo "FAIL: $1: output unexpectedly contains '$2'" >&2
    cat "$3" >&2
    fails=$((fails + 1))
  fi
}

prog=$(ls "$corpus"/*.swiftir | head -1)
[ -n "$prog" ] || { echo "no corpus program found" >&2; exit 1; }

# A real checkpoint to corrupt: exhaust the corpus program on a tiny
# budget (exit 3 = partial result, checkpoint written).
"$analyze" --steps=30 --checkpoint-out="$work/ck.swiftckpt" "$prog" \
  > /dev/null 2>&1
check "checkpoint-producing run" 3 $?
[ -s "$work/ck.swiftckpt" ] || { echo "no checkpoint written" >&2; exit 1; }

# 1. Usage error: unknown flag -> exit 2 WITH usage text.
"$analyze" --definitely-not-a-flag > /dev/null 2> "$work/usage.err"
check "unknown flag" 2 $?
expect_grep "unknown flag" "usage:" "$work/usage.err"

# 2. Usage error: malformed failpoint spec -> exit 2 WITH usage text.
"$analyze" --failpoints='oops' "$prog" > /dev/null 2> "$work/fp.err"
check "malformed failpoint spec" 2 $?
expect_grep "malformed failpoint spec" "usage:" "$work/fp.err"

# 3. Malformed input: bit-flipped checkpoint -> exit 2, a "malformed
#    checkpoint" diagnostic naming the file, and NO usage text.
old=$(dd if="$work/ck.swiftckpt" bs=1 skip=200 count=1 2>/dev/null)
rep=Z; [ "$old" = "Z" ] && rep=Y
{ head -c 200 "$work/ck.swiftckpt"; printf '%s' "$rep"
  tail -c +202 "$work/ck.swiftckpt"; } > "$work/flip.swiftckpt"
cmp -s "$work/ck.swiftckpt" "$work/flip.swiftckpt" && \
  { echo "corruption no-op; fix the test" >&2; exit 1; }
"$analyze" --resume-from="$work/flip.swiftckpt" > /dev/null \
  2> "$work/corrupt.err"
check "corrupt checkpoint" 2 $?
expect_grep "corrupt checkpoint" "malformed checkpoint" "$work/corrupt.err"
expect_grep "corrupt checkpoint" "flip.swiftckpt" "$work/corrupt.err"
reject_grep "corrupt checkpoint" "usage:" "$work/corrupt.err"

# 4. Malformed input: truncated checkpoint -> same contract.
head -c 100 "$work/ck.swiftckpt" > "$work/cut.swiftckpt"
"$analyze" --resume-from="$work/cut.swiftckpt" > /dev/null \
  2> "$work/cut.err"
check "truncated checkpoint" 2 $?
expect_grep "truncated checkpoint" "malformed checkpoint" "$work/cut.err"
reject_grep "truncated checkpoint" "usage:" "$work/cut.err"

# 5. Missing file -> malformed-input path too (typed IoError), not usage.
"$analyze" --resume-from="$work/nope.swiftckpt" > /dev/null \
  2> "$work/missing.err"
check "missing checkpoint" 2 $?
expect_grep "missing checkpoint" "malformed checkpoint" "$work/missing.err"
reject_grep "missing checkpoint" "usage:" "$work/missing.err"

# 5b. A field outside its grammar (a signed step count in an otherwise
#     valid legacy v1 checkpoint) -> the same malformed-input contract.
"$analyze" --resume-from="$corpus/badfield-signed-steps.swiftckpt" \
  > /dev/null 2> "$work/badfield.err"
check "signed checkpoint field" 2 $?
expect_grep "signed checkpoint field" "malformed checkpoint" \
  "$work/badfield.err"
reject_grep "signed checkpoint field" "usage:" "$work/badfield.err"

# 5c. CRC-valid checkpoints whose rows break what the solver asserts (an
#     observed state that is Lambda or not the error state, a summary or
#     work row leading a non-Lambda entry to the Lambda state, a path
#     both must and must-not) or whose theta is 0 -> rejected at load,
#     exit 2.
for bad in observed-lambda observed-nonerror summary-lambda-exit \
           work-lambda-state state-overlap theta-zero; do
  "$analyze" --resume-from="$corpus/badfield-$bad.swiftckpt" \
    > /dev/null 2> "$work/$bad.err"
  check "badfield-$bad" 2 $?
  expect_grep "badfield-$bad" "malformed checkpoint" "$work/$bad.err"
done

# 6. Kill failpoint mid-save: exit 85 (injected crash), and the target
#    checkpoint path must not exist — no torn file.
rm -f "$work/killed.swiftckpt"
"$analyze" --steps=30 --checkpoint-out="$work/killed.swiftckpt" \
  --failpoints='ckpt.save.write=nth(1)!kill' "$prog" > /dev/null 2>&1
check "kill mid-save" 85 $?
if [ -e "$work/killed.swiftckpt" ]; then
  echo "FAIL: kill mid-save left a file at the target path" >&2
  fails=$((fails + 1))
fi

# 7. The good checkpoint still resumes to completion (exit 0).
"$analyze" --resume-from="$work/ck.swiftckpt" > /dev/null 2>&1
check "clean resume" 0 $?

if [ "$fails" -ne 0 ]; then
  echo "$fails CLI contract check(s) failed" >&2
  exit 1
fi
echo "all CLI resume-error contract checks passed"

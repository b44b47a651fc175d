#!/bin/sh
# End-to-end CLI workflow test: build -> inspect/validate -> serve -> query.
# Usage: cli_test.sh <build-dir>
set -e
BUILD="$1"
WORK=$(mktemp -d)
trap 'kill $SERVE_PID 2>/dev/null || true; rm -rf "$WORK" || true' EXIT

# Every serve runs the publish worker's warm stage under a small budget.
SERVE_FLAGS="--warm-budget-mb 4"

# Parameters the accumulator cannot take are a usage error (exit 2):
# representatives must stay below |n|/2 - 2 bits.
set +e
"$BUILD/tools/vcsearch-build" --out "$WORK/bad" --synth 10 --modulus-bits 512 \
    --rep-bits 300 > "$WORK/bad.log" 2>&1
RC=$?
set -e
test "$RC" -eq 2 || { echo "build accepted rep_bits 300 at 512 bits (rc $RC)"; exit 1; }
grep -q "rep_bits" "$WORK/bad.log"
# A refused build leaves no output directory (and so no empty store) behind.
test ! -e "$WORK/bad" || { echo "refused build left $WORK/bad behind"; exit 1; }
# So does an update with no published epoch to extend (exit 2).
set +e
"$BUILD/tools/vcsearch-build" --out "$WORK/noupd" --update-synth 5 > "$WORK/noupd.log" 2>&1
RC=$?
set -e
test "$RC" -eq 2 || { echo "update without a store was not refused (rc $RC)"; exit 1; }
test ! -e "$WORK/noupd" || { echo "refused update left $WORK/noupd behind"; exit 1; }

"$BUILD/tools/vcsearch-build" --out "$WORK" --synth 60 --seed 9 \
    --modulus-bits 512 --rep-bits 64 --interval 8 > "$WORK/build.log"
grep -q "built verifiable index" "$WORK/build.log"
grep -q "store: published epoch 1" "$WORK/build.log"
test -f "$WORK/store/CURRENT"
test -f "$WORK/owner.key"
# The epoch store is the only on-disk form of the index: no *.vc artifact.
test -z "$(find "$WORK" -maxdepth 1 -name '*.vc')" || {
  echo "vcsearch-build wrote a builder artifact"; ls "$WORK"; exit 1; }

# Receipt check against the store before serving.
"$BUILD/tools/vcsearch-inspect" --dir "$WORK" --validate > "$WORK/inspect.log"
grep -q "validation       all" "$WORK/inspect.log"

# An unknown --scheme is a usage error (exit 2) that lists the accepted
# names, in serve and in loadgen, before either serves or sends anything.
for TOOL in serve loadgen; do
  set +e
  timeout 60 "$BUILD/tools/vcsearch-$TOOL" --dir "$WORK" --port 0 --scheme accumulater \
      > "$WORK/scheme-$TOOL.log" 2>&1
  RC=$?
  set -e
  test "$RC" -eq 2 || {
    echo "$TOOL accepted --scheme accumulater (rc $RC)"; cat "$WORK/scheme-$TOOL.log"; exit 1; }
  grep -q "accepted: hybrid, accumulator, bloom, interval" "$WORK/scheme-$TOOL.log"
  if grep -q "serving" "$WORK/scheme-$TOOL.log"; then
    echo "$TOOL served under an unknown scheme"; exit 1
  fi
done

"$BUILD/tools/vcsearch-serve" --dir "$WORK" --port 0 $SERVE_FLAGS > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!
tries=0
until grep -q "serving" "$WORK/serve.log" 2>/dev/null; do
  tries=$((tries + 1))
  test $tries -lt 100 || { echo "server never came up"; exit 1; }
  sleep 0.2
done
grep -q "warm-budget-mb=4" "$WORK/serve.log" || {
  echo "warm budget not applied"; cat "$WORK/serve.log"; exit 1; }
PORT=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/serve.log" | head -1)

# Two words guaranteed known: the top terms from the inspect output.  Two
# keywords force the multi-keyword path (hybrid prover + integrity choice).
WORDS=$("$BUILD/tools/vcsearch-inspect" --dir "$WORK" --top 2 | grep ' docs' | awk '{print $1}')
"$BUILD/tools/vcsearch-query" --dir "$WORK" --port "$PORT" --profile $WORDS > "$WORK/q1.log"
grep -q "VERIFIED" "$WORK/q1.log"
# --profile appends the client-side stage table (verify span must be there).
grep -q "client-side stage profile" "$WORK/q1.log"
grep -q "verify" "$WORK/q1.log"

"$BUILD/tools/vcsearch-query" --dir "$WORK" --port "$PORT" zzznotaword > "$WORK/q2.log"
grep -q "not in the indexed dictionary" "$WORK/q2.log"

# Traced query: the client mints a trace id, the server records a span tree
# under it, and both the JSON and Chrome trace_event exports serve it back.
"$BUILD/tools/vcsearch-query" --dir "$WORK" --port "$PORT" --trace-id auto $WORDS \
    > "$WORK/q3.log"
grep -q "VERIFIED" "$WORK/q3.log"
grep -q "^trace " "$WORK/q3.log"
TRACE_ID=$(sed -n 's/^trace \([0-9a-f]*\) .*/\1/p' "$WORK/q3.log")
test -n "$TRACE_ID"

# Scrape endpoints, after the two queries above so the series are non-zero.
# Use curl when present, the bundled --fetch client otherwise.
fetch() {
  if command -v curl >/dev/null 2>&1; then
    curl -fsS "http://127.0.0.1:$PORT$1"
  else
    "$BUILD/tools/vcsearch-query" --port "$PORT" --fetch "$1"
  fi
}

fetch /stats > "$WORK/stats.json"
# JSON shape: serving count plus the embedded registry snapshot.
grep -q '"queries_served"' "$WORK/stats.json"
grep -q '"uptime_seconds"' "$WORK/stats.json"
grep -q '"histograms"' "$WORK/stats.json"
if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); assert d["queries_served"] >= 2, d' "$WORK/stats.json"
fi

# Trace surface: the listing carries the traced query's id, the span tree
# has the engine's "query" span, and the Chrome export is valid trace_event
# JSON (phase-X complete events) that chrome://tracing / Perfetto loads.
fetch /traces > "$WORK/traces.json"
grep -q '"traces"' "$WORK/traces.json"
grep -q "$TRACE_ID" "$WORK/traces.json"
fetch "/traces/$TRACE_ID" > "$WORK/trace.json"
grep -q '"spans"' "$WORK/trace.json"
grep -q '"query"' "$WORK/trace.json"
fetch "/traces/$TRACE_ID/chrome" > "$WORK/trace_chrome.json"
grep -q '"traceEvents"' "$WORK/trace_chrome.json"
grep -q '"ph":"X"' "$WORK/trace_chrome.json"
if command -v python3 >/dev/null 2>&1; then
  python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
evs = d["traceEvents"]
assert evs, "no trace events"
for e in evs:
    assert e["ph"] == "X" and "ts" in e and "dur" in e and e["name"], e
assert any(e["name"] == "http_search" for e in evs), "missing root span"
' "$WORK/trace_chrome.json"
fi
# /stats surfaces the collector counters next to the serving stats.
fetch /stats > "$WORK/stats2.json"
if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); assert d["traces_seen"] >= 3, d' "$WORK/stats2.json"
fi
grep -q '"traces_kept"' "$WORK/stats2.json"

fetch /metrics > "$WORK/metrics.txt"
# Prometheus shape: typed families, per-stage latency histogram with
# cumulative buckets, per-scheme query counters.
grep -q '# TYPE vc_stage_seconds histogram' "$WORK/metrics.txt"
grep -q 'vc_stage_seconds_bucket{stage="prove",le="+Inf"}' "$WORK/metrics.txt"
grep -q 'vc_stage_seconds_count{stage="serialize"}' "$WORK/metrics.txt"
grep -q '# TYPE vc_cloud_queries_total counter' "$WORK/metrics.txt"
grep -q 'vc_cloud_queries_total{scheme="hybrid"} 3' "$WORK/metrics.txt"
grep -q 'vc_hybrid_choice_total' "$WORK/metrics.txt"
grep -q 'vc_http_requests_total{route="metrics"} 1' "$WORK/metrics.txt"
# Every response path funnels through the per-status counter family.
grep -q '# TYPE vc_http_responses_total counter' "$WORK/metrics.txt"
grep -q 'vc_http_responses_total{code="200"}' "$WORK/metrics.txt"

kill $SERVE_PID
wait $SERVE_PID 2>/dev/null || true

# Pooled dispatch: restart, fire 4 concurrent verified queries, and
# require the epoch metrics.
"$BUILD/tools/vcsearch-serve" --dir "$WORK" --port 0 $SERVE_FLAGS \
    > "$WORK/serve2.log" 2>&1 &
SERVE_PID=$!
tries=0
until grep -q "serving" "$WORK/serve2.log" 2>/dev/null; do
  tries=$((tries + 1))
  test $tries -lt 100 || { echo "restarted server never came up"; exit 1; }
  sleep 0.2
done
PORT=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/serve2.log" | head -1)

QPIDS=""
for i in 1 2 3 4; do
  "$BUILD/tools/vcsearch-query" --dir "$WORK" --port "$PORT" $WORDS \
      > "$WORK/cq$i.log" 2>&1 &
  QPIDS="$QPIDS $!"
done
for pid in $QPIDS; do
  wait "$pid" || { echo "concurrent query failed"; cat "$WORK"/cq*.log; exit 1; }
done
for i in 1 2 3 4; do
  grep -q "VERIFIED" "$WORK/cq$i.log" || { echo "query $i not verified"; cat "$WORK/cq$i.log"; exit 1; }
done

# Boolean query language + verifiable top-k (docs/QUERY_LANGUAGE.md),
# against the live server.  Three known words: the top terms.
BWORDS=$("$BUILD/tools/vcsearch-inspect" --dir "$WORK" --top 3 | grep ' docs' | awk '{print $1}')
B1=$(echo $BWORDS | awk '{print $1}')
B2=$(echo $BWORDS | awk '{print $2}')
B3=$(echo $BWORDS | awk '{print $3}')
"$BUILD/tools/vcsearch-query" --dir "$WORK" --port "$PORT" \
    "$B1 AND ($B2 OR NOT $B3)" --top-k 5 > "$WORK/q4.log"
grep -q "VERIFIED" "$WORK/q4.log"
grep -q "top-5 by summed tf" "$WORK/q4.log"

# Disjunction without a cutoff: the full verified satisfier listing.
"$BUILD/tools/vcsearch-query" --dir "$WORK" --port "$PORT" "$B1 OR $B2" > "$WORK/q5.log"
grep -q "documents satisfy" "$WORK/q5.log"
grep -q "VERIFIED" "$WORK/q5.log"

# Malformed syntax is rejected client-side with the usage exit code.
set +e
"$BUILD/tools/vcsearch-query" --dir "$WORK" --port "$PORT" "$B1 AND (" > "$WORK/q6.log" 2>&1
RC=$?
set -e
test "$RC" -eq 2 || { echo "malformed query: expected exit 2, got $RC"; cat "$WORK/q6.log"; exit 1; }
grep -q "malformed query" "$WORK/q6.log"

# A bare complement is not positive-guarded: the server refuses it (400)
# and the client reports the failure without crashing.
set +e
"$BUILD/tools/vcsearch-query" --dir "$WORK" --port "$PORT" "NOT $B1" > "$WORK/q7.log" 2>&1
RC=$?
set -e
test "$RC" -eq 1 || { echo "unguarded query: expected exit 1, got $RC"; cat "$WORK/q7.log"; exit 1; }
grep -q "query failed" "$WORK/q7.log"

fetch /metrics > "$WORK/metrics2.txt"
grep -q '^vc_epoch 1' "$WORK/metrics2.txt"
grep -q 'vc_snapshot_swaps_total' "$WORK/metrics2.txt"

kill $SERVE_PID
wait $SERVE_PID 2>/dev/null || true

# An owner update: --update-synth draws its documents over the --synth
# base corpus's vocabulary (params.txt records its seed and size), so it
# mostly touches terms the index already holds, and the delta epoch's
# attestations still validate.
"$BUILD/tools/vcsearch-build" --out "$WORK" --update-synth 5 > "$WORK/update.log"
grep -q "store: published delta epoch 2" "$WORK/update.log"
TOUCHED=$(sed -n 's/.* \([0-9]*\) touched terms (\([0-9]*\) new).*/\1/p' "$WORK/update.log")
NEW=$(sed -n 's/.* \([0-9]*\) touched terms (\([0-9]*\) new).*/\2/p' "$WORK/update.log")
test -n "$TOUCHED" && test "$NEW" -lt "$TOUCHED" || {
  echo "update touched no existing term"; cat "$WORK/update.log"; exit 1; }
"$BUILD/tools/vcsearch-inspect" --dir "$WORK" --validate > "$WORK/inspect2.log"
grep -q "validation       all" "$WORK/inspect2.log"

# A store in the previous on-disk format (magic VCEPOCH3: snapshots and
# deltas were two codecs with their own section ids) is refused with the
# typed store error: serve exits non-zero without serving, and inspect
# --store reports the error.
for f in $(find "$WORK/store" -name 'snapshot.vcs' -o -name 'delta.vcd'); do
  printf '3' | dd of="$f" bs=1 seek=7 conv=notrunc 2>/dev/null
done
set +e
timeout 60 "$BUILD/tools/vcsearch-serve" --dir "$WORK" --port 0 $SERVE_FLAGS \
    > "$WORK/serve3.log" 2>&1
RC=$?
"$BUILD/tools/vcsearch-inspect" --store "$WORK/store" > "$WORK/inspect3.log" 2>&1
IRC=$?
set -e
test "$RC" -ne 0 || { echo "serve accepted a VCEPOCH3 store"; cat "$WORK/serve3.log"; exit 1; }
if grep -q "serving" "$WORK/serve3.log"; then
  echo "serve came up on a VCEPOCH3 store"; cat "$WORK/serve3.log"; exit 1
fi
grep -q "corrupt epoch: bad magic" "$WORK/serve3.log" || {
  echo "serve did not report the store error"; cat "$WORK/serve3.log"; exit 1; }
test "$IRC" -ne 0 || { echo "inspect accepted a VCEPOCH3 store"; cat "$WORK/inspect3.log"; exit 1; }
grep -q "corrupt epoch: bad magic" "$WORK/inspect3.log" || {
  echo "inspect did not report the store error"; cat "$WORK/inspect3.log"; exit 1; }
echo "cli_test OK"

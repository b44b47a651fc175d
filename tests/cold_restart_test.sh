#!/bin/sh
# Cold-restart gate: a server SIGKILLed mid-flight must come back from the
# persistent epoch store and serve a proof byte-identical to the one
# captured before the crash.
# Usage: cold_restart_test.sh <build-dir>
# Set VC_COLD_RESTART_WORK to keep the work dir (CI uploads it on failure).
set -e
BUILD="$1"
if [ -n "$VC_COLD_RESTART_WORK" ]; then
  WORK="$VC_COLD_RESTART_WORK"
  mkdir -p "$WORK"
  trap 'kill -9 $SERVE_PID 2>/dev/null || true' EXIT
else
  WORK=$(mktemp -d)
  trap 'kill -9 $SERVE_PID 2>/dev/null || true; rm -rf "$WORK" || true' EXIT
fi

"$BUILD/tools/vcsearch-build" --out "$WORK" --synth 60 --seed 9 \
    --modulus-bits 512 --rep-bits 64 --interval 8 > "$WORK/build.log"
grep -q "built verifiable index" "$WORK/build.log"

# Every boot warms under a small budget (the serving core's warm stage runs
# on the boot epoch and on every published one) — the proof byte-identity
# assertions then also prove the warm stage never changes a proof byte.
SERVE_FLAGS="--warm-budget-mb 4"

wait_serving() {
  tries=0
  until grep -q "serving" "$1" 2>/dev/null; do
    tries=$((tries + 1))
    test $tries -lt 100 || { echo "server never came up"; cat "$1"; exit 1; }
    sleep 0.2
  done
}

# First boot: vcsearch-build published epoch 1 into the default store.
test -f "$WORK/store/CURRENT"
"$BUILD/tools/vcsearch-serve" --dir "$WORK" --store "$WORK/store" --port 0 $SERVE_FLAGS \
    > "$WORK/serve1.log" 2>&1 &
SERVE_PID=$!
wait_serving "$WORK/serve1.log"
grep -q "store: restored epoch 1" "$WORK/serve1.log"
PORT=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/serve1.log" | head -1)

WORDS=$("$BUILD/tools/vcsearch-inspect" --dir "$WORK" --top 2 | grep ' docs' | awk '{print $1}')
"$BUILD/tools/vcsearch-query" --dir "$WORK" --port "$PORT" \
    --dump "$WORK/proof1.bin" $WORDS > "$WORK/q1.log"
grep -q "VERIFIED" "$WORK/q1.log"
test -s "$WORK/proof1.bin"

# The crash: SIGKILL, no shutdown path runs.
kill -9 $SERVE_PID
wait $SERVE_PID 2>/dev/null || true

# The epoch on disk must pass structural validation (header + CRCs).
"$BUILD/tools/vcsearch-inspect" --store "$WORK/store" > "$WORK/inspect.log"
grep -q "CURRENT          epoch 1" "$WORK/inspect.log"
if grep -q "BAD" "$WORK/inspect.log"; then
  echo "CRC damage after restart"; exit 1
fi

# Second boot: cold start from the mapped epoch.
"$BUILD/tools/vcsearch-serve" --dir "$WORK" --store "$WORK/store" --port 0 $SERVE_FLAGS \
    > "$WORK/serve2.log" 2>&1 &
SERVE_PID=$!
wait_serving "$WORK/serve2.log"
grep -q "store: restored epoch 1" "$WORK/serve2.log"
grep -q "epoch=1" "$WORK/serve2.log"
PORT=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/serve2.log" | head -1)

"$BUILD/tools/vcsearch-query" --dir "$WORK" --port "$PORT" \
    --dump "$WORK/proof2.bin" $WORDS > "$WORK/q2.log"
grep -q "VERIFIED" "$WORK/q2.log"

# The headline assertion: the post-restart proof is byte-identical.
cmp "$WORK/proof1.bin" "$WORK/proof2.bin" || {
  echo "proofs differ across restart"; exit 1; }

# Unknown keywords still get dictionary gap proofs from the mapped epoch.
"$BUILD/tools/vcsearch-query" --dir "$WORK" --port "$PORT" zzznotaword > "$WORK/q3.log"
grep -q "not in the indexed dictionary" "$WORK/q3.log"

kill -9 $SERVE_PID
wait $SERVE_PID 2>/dev/null || true

# --- Tiered phase: a publish-time witness tier must survive the same crash. ---
# vcsearch-build publishes an epoch carrying the witness-tier sections
# (materialized witness tables); the server must restore the tier from the
# mapping (no witness recompute) and keep proofs byte-identical across a
# SIGKILL.  The persisted fixed-base table has the flat schemes' width, so
# only a flat-scheme server adopts it; Hybrid sizes its own table to one
# interval.
mkdir -p "$WORK/t"
"$BUILD/tools/vcsearch-build" --out "$WORK/t" --synth 60 --seed 9 \
    --modulus-bits 512 --rep-bits 64 --interval 8 \
    --store "$WORK/t/store" --tier-budget-mb 64 > "$WORK/t/build.log"
grep -q "terms tiered" "$WORK/t/build.log"
grep -q "store: published epoch 1" "$WORK/t/build.log"

# The tiered epoch passes structural validation: v2, tier sections, CRCs OK.
"$BUILD/tools/vcsearch-inspect" --store "$WORK/t/store" > "$WORK/t/inspect.log"
grep -q "format version 2" "$WORK/t/inspect.log"
grep -q "section witness-tier-dir" "$WORK/t/inspect.log"
grep -q "section witness-tables" "$WORK/t/inspect.log"
grep -q "section fixed-base" "$WORK/t/inspect.log"
grep -q "witness tier" "$WORK/t/inspect.log"
if grep -q "BAD" "$WORK/t/inspect.log"; then
  echo "tiered epoch CRC damage"; exit 1
fi

# First boot serves straight from the tiered store.
"$BUILD/tools/vcsearch-serve" --dir "$WORK/t" --store "$WORK/t/store" --port 0 $SERVE_FLAGS \
    > "$WORK/t/serve1.log" 2>&1 &
SERVE_PID=$!
wait_serving "$WORK/t/serve1.log"
grep -q "store: restored witness tier" "$WORK/t/serve1.log"
grep -q "no witness recompute" "$WORK/t/serve1.log"
if grep -q "store: adopted persisted fixed-base table" "$WORK/t/serve1.log"; then
  echo "hybrid server adopted the flat-width fixed-base table"; exit 1
fi
PORT=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/t/serve1.log" | head -1)

TWORDS=$("$BUILD/tools/vcsearch-inspect" --dir "$WORK/t" --top 2 | grep ' docs' | awk '{print $1}')
"$BUILD/tools/vcsearch-query" --dir "$WORK/t" --port "$PORT" \
    --dump "$WORK/t/proof1.bin" $TWORDS > "$WORK/t/q1.log"
grep -q "VERIFIED" "$WORK/t/q1.log"
test -s "$WORK/t/proof1.bin"

kill -9 $SERVE_PID
wait $SERVE_PID 2>/dev/null || true

# Restart: tier intact, flat table still not adopted, proof byte-identical.
"$BUILD/tools/vcsearch-serve" --dir "$WORK/t" --store "$WORK/t/store" --port 0 $SERVE_FLAGS \
    > "$WORK/t/serve2.log" 2>&1 &
SERVE_PID=$!
wait_serving "$WORK/t/serve2.log"
grep -q "store: restored witness tier" "$WORK/t/serve2.log"
if grep -q "store: adopted persisted fixed-base table" "$WORK/t/serve2.log"; then
  echo "hybrid server adopted the flat-width fixed-base table"; exit 1
fi
PORT=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/t/serve2.log" | head -1)

"$BUILD/tools/vcsearch-query" --dir "$WORK/t" --port "$PORT" \
    --dump "$WORK/t/proof2.bin" $TWORDS > "$WORK/t/q2.log"
grep -q "VERIFIED" "$WORK/t/q2.log"
cmp "$WORK/t/proof1.bin" "$WORK/t/proof2.bin" || {
  echo "tiered proofs differ across restart"; exit 1; }

kill -9 $SERVE_PID
wait $SERVE_PID 2>/dev/null || true

# A flat-scheme server adopts the persisted table on every boot and
# proves byte-identically across a SIGKILL.
for boot in 1 2; do
  "$BUILD/tools/vcsearch-serve" --dir "$WORK/t" --store "$WORK/t/store" --port 0 \
      --scheme accumulator $SERVE_FLAGS > "$WORK/t/serve-acc$boot.log" 2>&1 &
  SERVE_PID=$!
  wait_serving "$WORK/t/serve-acc$boot.log"
  grep -q "store: adopted persisted fixed-base table" "$WORK/t/serve-acc$boot.log"
  PORT=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/t/serve-acc$boot.log" | head -1)
  "$BUILD/tools/vcsearch-query" --dir "$WORK/t" --port "$PORT" \
      --dump "$WORK/t/proof-acc$boot.bin" $TWORDS > "$WORK/t/q-acc$boot.log"
  grep -q "VERIFIED" "$WORK/t/q-acc$boot.log"
  grep -q ", Accumulator scheme" "$WORK/t/q-acc$boot.log"
  kill -9 $SERVE_PID
  wait $SERVE_PID 2>/dev/null || true
done
test -s "$WORK/t/proof-acc1.bin"
cmp "$WORK/t/proof-acc1.bin" "$WORK/t/proof-acc2.bin" || {
  echo "accumulator proofs differ across restart"; exit 1; }

# A damaged tier never stops a boot: flip one byte inside witness-tables
# (offset and size from inspect) in a copy of the store; the server must
# come up untiered and serve the intact boot's proof byte for byte.
cp -r "$WORK/t/store" "$WORK/t/store-bad"
TABLES=$(grep "section witness-tables" "$WORK/t/inspect.log")
OFF=$(echo "$TABLES" | sed -n 's/.*offset=\([0-9]*\).*/\1/p')
SIZE=$(echo "$TABLES" | sed -n 's/.*size=\([0-9]*\).*/\1/p')
test -n "$OFF" && test "$SIZE" -gt 0
EPOCH_FILE=$(ls "$WORK/t/store-bad"/epoch-*/snapshot.vcs)
POS=$((OFF + SIZE / 2))
BYTE=$(od -An -tu1 -j "$POS" -N1 "$EPOCH_FILE" | tr -d ' ')
printf "$(printf '\\%03o' $(( (BYTE + 1) % 256 )))" |
    dd of="$EPOCH_FILE" bs=1 seek="$POS" count=1 conv=notrunc 2>/dev/null
"$BUILD/tools/vcsearch-inspect" --store "$WORK/t/store-bad" > "$WORK/t/inspect-bad.log" || true
grep -q "section witness-tables .*BAD" "$WORK/t/inspect-bad.log"
"$BUILD/tools/vcsearch-serve" --dir "$WORK/t" --store "$WORK/t/store-bad" --port 0 $SERVE_FLAGS \
    > "$WORK/t/serve-bad.log" 2>&1 &
SERVE_PID=$!
wait_serving "$WORK/t/serve-bad.log"
grep -q "serving untiered" "$WORK/t/serve-bad.log"
PORT=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/t/serve-bad.log" | head -1)
"$BUILD/tools/vcsearch-query" --dir "$WORK/t" --port "$PORT" \
    --dump "$WORK/t/proof-bad.bin" $TWORDS > "$WORK/t/q-bad.log"
grep -q "VERIFIED" "$WORK/t/q-bad.log"
cmp "$WORK/t/proof1.bin" "$WORK/t/proof-bad.bin" || {
  echo "untiered proofs differ from the intact tier's"; exit 1; }

kill -9 $SERVE_PID
wait $SERVE_PID 2>/dev/null || true

# --- Delta phase: log-structured delta publishes must be crash-safe too. ---
# VC_STORE_CRASH_POINT makes the store _exit(137) at a named point in the
# delta-publish / compaction protocol; after every crash the store must
# still serve the last durable epoch with byte-identical proofs.
mkdir -p "$WORK/d"
"$BUILD/tools/vcsearch-build" --out "$WORK/d" --synth 60 --seed 9 \
    --modulus-bits 512 --rep-bits 64 --interval 8 \
    --store "$WORK/d/store" > "$WORK/d/build.log"
grep -q "store: published epoch 1" "$WORK/d/build.log"
DWORDS=$("$BUILD/tools/vcsearch-inspect" --dir "$WORK/d" --top 2 | grep ' docs' | awk '{print $1}')

# Baseline proof from the full epoch.
"$BUILD/tools/vcsearch-serve" --dir "$WORK/d" --store "$WORK/d/store" --port 0 $SERVE_FLAGS \
    > "$WORK/d/serve1.log" 2>&1 &
SERVE_PID=$!
wait_serving "$WORK/d/serve1.log"
grep -q "store: restored epoch 1" "$WORK/d/serve1.log"
PORT=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/d/serve1.log" | head -1)
"$BUILD/tools/vcsearch-query" --dir "$WORK/d" --port "$PORT" \
    --dump "$WORK/d/proof1.bin" $DWORDS > "$WORK/d/q1.log"
grep -q "VERIFIED" "$WORK/d/q1.log"
kill -9 $SERVE_PID
wait $SERVE_PID 2>/dev/null || true

# Crash 1: mid-delta-publish, before the delta directory is linked in.
# Only a hidden temp directory exists; CURRENT must still name epoch 1.
set +e
VC_STORE_CRASH_POINT=delta-staged "$BUILD/tools/vcsearch-build" --out "$WORK/d" \
    --update-synth 10 --seed 9 --store "$WORK/d/store" > "$WORK/d/crash1.log" 2>&1
RC=$?
set -e
test $RC -eq 137 || { echo "delta-staged crash: expected exit 137, got $RC"; exit 1; }
"$BUILD/tools/vcsearch-inspect" --store "$WORK/d/store" > "$WORK/d/inspect1.log"
grep -q "CURRENT          epoch 1" "$WORK/d/inspect1.log"
if grep -q "BAD" "$WORK/d/inspect1.log"; then
  echo "CRC damage after delta-staged crash"; exit 1
fi

# Crash 2: the delta directory landed but CURRENT never advanced.  The
# durable pointer still names epoch 1; the orphan delta is harmless.
set +e
VC_STORE_CRASH_POINT=delta-current "$BUILD/tools/vcsearch-build" --out "$WORK/d" \
    --update-synth 10 --seed 9 --store "$WORK/d/store" > "$WORK/d/crash2.log" 2>&1
RC=$?
set -e
test $RC -eq 137 || { echo "delta-current crash: expected exit 137, got $RC"; exit 1; }
"$BUILD/tools/vcsearch-inspect" --store "$WORK/d/store" > "$WORK/d/inspect2.log"
grep -q "CURRENT          epoch 1" "$WORK/d/inspect2.log"

# After both crashes a restart serves the last durable epoch with the
# byte-identical proof.
"$BUILD/tools/vcsearch-serve" --dir "$WORK/d" --store "$WORK/d/store" --port 0 $SERVE_FLAGS \
    > "$WORK/d/serve2.log" 2>&1 &
SERVE_PID=$!
wait_serving "$WORK/d/serve2.log"
grep -q "store: restored epoch 1" "$WORK/d/serve2.log"
PORT=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/d/serve2.log" | head -1)
"$BUILD/tools/vcsearch-query" --dir "$WORK/d" --port "$PORT" \
    --dump "$WORK/d/proof1b.bin" $DWORDS > "$WORK/d/q2.log"
grep -q "VERIFIED" "$WORK/d/q2.log"
cmp "$WORK/d/proof1.bin" "$WORK/d/proof1b.bin" || {
  echo "proofs differ after crashed delta publishes"; exit 1; }
kill -9 $SERVE_PID
wait $SERVE_PID 2>/dev/null || true

# The retried update completes: delta epoch 2 chained on the full epoch 1.
"$BUILD/tools/vcsearch-build" --out "$WORK/d" --update-synth 10 --seed 9 \
    --store "$WORK/d/store" > "$WORK/d/update.log"
grep -q "store: published delta epoch 2" "$WORK/d/update.log"
"$BUILD/tools/vcsearch-inspect" --store "$WORK/d/store" > "$WORK/d/inspect3.log"
grep -q "CURRENT          epoch 2" "$WORK/d/inspect3.log"
grep -q "compaction pending" "$WORK/d/inspect3.log"
if grep -q "BAD" "$WORK/d/inspect3.log"; then
  echo "CRC damage after delta publish"; exit 1
fi

# Serve the chain head from the store and pin the overlay's proof bytes.
"$BUILD/tools/vcsearch-serve" --dir "$WORK/d" --store "$WORK/d/store" --port 0 $SERVE_FLAGS \
    > "$WORK/d/serve3.log" 2>&1 &
SERVE_PID=$!
wait_serving "$WORK/d/serve3.log"
grep -q "store: restored epoch 2" "$WORK/d/serve3.log"
grep -q "store: resolved delta chain (1 deltas on base epoch 1)" "$WORK/d/serve3.log"
PORT=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/d/serve3.log" | head -1)
"$BUILD/tools/vcsearch-query" --dir "$WORK/d" --port "$PORT" \
    --dump "$WORK/d/proof2.bin" $DWORDS > "$WORK/d/q3.log"
grep -q "VERIFIED" "$WORK/d/q3.log"
kill -9 $SERVE_PID
wait $SERVE_PID 2>/dev/null || true

# Crash 3: mid-compaction.  The staged snapshot never got renamed into
# place; the chain stays intact and keeps resolving.
set +e
VC_STORE_CRASH_POINT=compact-staged "$BUILD/tools/vcsearch-build" --compact-store \
    --store "$WORK/d/store" > "$WORK/d/crash3.log" 2>&1
RC=$?
set -e
test $RC -eq 137 || { echo "compact-staged crash: expected exit 137, got $RC"; exit 1; }
"$BUILD/tools/vcsearch-inspect" --store "$WORK/d/store" > "$WORK/d/inspect4.log"
grep -q "CURRENT          epoch 2" "$WORK/d/inspect4.log"
grep -q "compaction pending" "$WORK/d/inspect4.log"
"$BUILD/tools/vcsearch-serve" --dir "$WORK/d" --store "$WORK/d/store" --port 0 $SERVE_FLAGS \
    > "$WORK/d/serve4.log" 2>&1 &
SERVE_PID=$!
wait_serving "$WORK/d/serve4.log"
grep -q "store: resolved delta chain" "$WORK/d/serve4.log"
PORT=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/d/serve4.log" | head -1)
"$BUILD/tools/vcsearch-query" --dir "$WORK/d" --port "$PORT" \
    --dump "$WORK/d/proof2b.bin" $DWORDS > "$WORK/d/q4.log"
grep -q "VERIFIED" "$WORK/d/q4.log"
cmp "$WORK/d/proof2.bin" "$WORK/d/proof2b.bin" || {
  echo "proofs differ after crashed compaction"; exit 1; }
kill -9 $SERVE_PID
wait $SERVE_PID 2>/dev/null || true

# Compaction completes; the folded snapshot supersedes the chain and
# proves byte-identically to the overlay it replaced.
"$BUILD/tools/vcsearch-build" --compact-store --store "$WORK/d/store" \
    > "$WORK/d/compact.log"
grep -q "compacted chain into full snapshot at epoch 2" "$WORK/d/compact.log"
"$BUILD/tools/vcsearch-inspect" --store "$WORK/d/store" > "$WORK/d/inspect5.log"
grep -q "head compacted" "$WORK/d/inspect5.log"
if grep -q "BAD" "$WORK/d/inspect5.log"; then
  echo "CRC damage after compaction"; exit 1
fi
"$BUILD/tools/vcsearch-serve" --dir "$WORK/d" --store "$WORK/d/store" --port 0 $SERVE_FLAGS \
    > "$WORK/d/serve5.log" 2>&1 &
SERVE_PID=$!
wait_serving "$WORK/d/serve5.log"
grep -q "store: restored epoch 2" "$WORK/d/serve5.log"
if grep -q "resolved delta chain" "$WORK/d/serve5.log"; then
  echo "compacted head still resolves as a chain"; exit 1
fi
PORT=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/d/serve5.log" | head -1)
"$BUILD/tools/vcsearch-query" --dir "$WORK/d" --port "$PORT" \
    --dump "$WORK/d/proof2c.bin" $DWORDS > "$WORK/d/q5.log"
grep -q "VERIFIED" "$WORK/d/q5.log"
cmp "$WORK/d/proof2.bin" "$WORK/d/proof2c.bin" || {
  echo "proofs differ after compaction"; exit 1; }
kill -9 $SERVE_PID
wait $SERVE_PID 2>/dev/null || true
echo "cold_restart OK"

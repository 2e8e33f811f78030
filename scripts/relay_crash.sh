#!/usr/bin/env bash
# Relay-crash recovery check (the CI "relay-crash" step, runnable
# locally). Proves the durable relay identity contract end to end:
#
#  1. A reference combined p2bnode ingests a deterministic workload and
#     its converged tabular model is recorded.
#  2. The SAME workload flows through a fleet: a durable relay
#     (-data-dir -wal-sync 0) forwarding to an analyzer that stays up
#     throughout. Mid-stream the relay is SIGKILLed — some batches are
#     acked and forwarded, one POST may be torn in half.
#  3. The relay restarts from the same -data-dir: it restores its
#     persisted (epoch, seq) forwarding cursor and re-forwards its WAL
#     tail. Because the cursor survived, the retransmits carry the
#     pre-crash epoch and the analyzer's per-origin duplicate guard
#     drops them instead of double-counting.
#  4. Submission resumes exactly where the durable log ends (the relay's
#     recovered Received counter says how many tuples are acked, torn
#     tail excluded), and the remaining workload is delivered.
#  5. The analyzer's model must be byte-identical to the reference run:
#     kill -9 on the relay mid-ingest costs retransmits, never a lost or
#     double-counted report.
#
# Exactness conditions as in topology_equiv.sh: integral {0,1} rewards,
# uniform one-shuffler-batch submissions, and -wal-sync 0 on the relay so
# every acked batch is durable.
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

PORT_SINGLE="${PORT_SINGLE:-18121}"
PORT_ANALYZER="${PORT_ANALYZER:-18122}"
PORT_RELAY="${PORT_RELAY:-18123}"
URL_SINGLE="http://127.0.0.1:$PORT_SINGLE"
URL_ANALYZER="http://127.0.0.1:$PORT_ANALYZER"
URL_RELAY="http://127.0.0.1:$PORT_RELAY"
WORK="$(mktemp -d)"
PIDS=()
RELAY_PID=""

cleanup() {
  status=$?
  if [ -n "$RELAY_PID" ]; then kill -9 "$RELAY_PID" 2>/dev/null || true; fi
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  if [ "$status" -ne 0 ] && [ -n "${TOPO_ARTIFACTS:-}" ]; then
    mkdir -p "$TOPO_ARTIFACTS"
    cp "$WORK"/*.log "$WORK"/*.json "$TOPO_ARTIFACTS"/ 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

K=64; ARMS=8; D=10; THRESHOLD=4; BATCH=32; NBATCH=40
TOKEN="relay-crash-token"
NODE_FLAGS=(-k $K -arms $ARMS -d $D -threshold $THRESHOLD -batch $BATCH -seed 5)

echo "== building =="
go build -o "$WORK/bin/" ./cmd/p2bnode

# Same LCG workload generator as topology_equiv.sh: NBATCH uniform
# batches of BATCH tuples, each batch one (code, action) with {0,1}
# rewards, reproducible with no Go code on the driving side.
echo "== generating workload ($NBATCH batches x $BATCH tuples) =="
awk -v nbatch=$NBATCH -v batch=$BATCH -v k=$K -v arms=$ARMS -v dir="$WORK" '
BEGIN {
  s = 54321
  for (b = 0; b < nbatch; b++) {
    s = (s * 1103515245 + 12345) % 2147483648; code = s % k
    s = (s * 1103515245 + 12345) % 2147483648; action = s % arms
    for (i = 0; i < batch; i++) {
      s = (s * 1103515245 + 12345) % 2147483648; reward = s % 2
      printf "{\"meta\":{\"device_id\":\"gen-%d\"},\"tuple\":{\"code\":%d,\"action\":%d,\"reward\":%d}}\n", b, code, action, reward > sprintf("%s/batch_%03d.ndjson", dir, b)
    }
  }
}'
for ((b = 0; b < NBATCH; b++)); do
  f="$WORK/$(printf 'batch_%03d.ndjson' "$b")"
  if [ ! -s "$f" ]; then
    echo "FAIL: workload generation left $f missing or empty" >&2
    exit 1
  fi
done

wait_healthy() {
  local url=$1
  for _ in $(seq 1 100); do
    if curl -fsS "$url/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "endpoint at $url never became healthy" >&2
  return 1
}

post_batch() {
  local url=$1 b=$2
  curl -fsS -X POST -H "Content-Type: application/x-ndjson" \
    --data-binary @"$WORK/$(printf 'batch_%03d.ndjson' "$b")" \
    "$url/shuffler/reports" >/dev/null
}

echo "== reference run: one combined node sees everything =="
"$WORK/bin/p2bnode" -addr ":$PORT_SINGLE" "${NODE_FLAGS[@]}" >"$WORK/single.log" 2>&1 &
PIDS+=($!)
wait_healthy "$URL_SINGLE"
for ((b = 0; b < NBATCH; b++)); do post_batch "$URL_SINGLE" "$b"; done
curl -fsS -X POST "$URL_SINGLE/shuffler/flush" >/dev/null
curl -fsS "$URL_SINGLE/server/model?kind=tabular" >"$WORK/single_tabular.json"

echo "== fleet: analyzer (stays up) + durable relay =="
"$WORK/bin/p2bnode" -addr ":$PORT_ANALYZER" "${NODE_FLAGS[@]}" \
  -role analyzer -name analyzer-1 -advertise "$URL_ANALYZER" \
  -peer-token "$TOKEN" >"$WORK/analyzer.log" 2>&1 &
PIDS+=($!)
wait_healthy "$URL_ANALYZER"
"$WORK/bin/p2bnode" -addr ":$PORT_RELAY" "${NODE_FLAGS[@]}" \
  -role relay -name relay-1 -advertise "$URL_RELAY" \
  -downstream "$URL_ANALYZER" -peer-token "$TOKEN" \
  -data-dir "$WORK/relay-data" -wal-sync 0 >"$WORK/relay1.log" 2>&1 &
RELAY_PID=$!
wait_healthy "$URL_RELAY"

echo "== phase 1: acked batches, with a mid-phase checkpoint =="
for ((b = 0; b < 8; b++)); do post_batch "$URL_RELAY" "$b"; done
# A checkpoint mid-stream makes recovery compose checkpoint + WAL tail,
# the same shape crash_recovery.sh pins for a combined node.
curl -fsS -X POST "$URL_RELAY/admin/checkpoint"
for ((b = 8; b < 15; b++)); do post_batch "$URL_RELAY" "$b"; done

echo "== phase 2: SIGKILL the relay mid-stream =="
# The paced submitter keeps batches in flight while the kill lands; its
# first refused POST ends it (the relay is gone — that is the point).
(
  for ((b = 15; b < NBATCH; b++)); do
    post_batch "$URL_RELAY" "$b"
    sleep 0.1
  done
) >"$WORK/submitter.log" 2>&1 &
SUB_PID=$!
sleep 0.6
kill -9 "$RELAY_PID"
RELAY_PID=""
set +e
wait "$SUB_PID"
SUB_STATUS=$?
set -e
echo "   (submitter exited with status $SUB_STATUS after the kill — nonzero expected)"

echo "== restart: same data dir, cursor must be restored =="
"$WORK/bin/p2bnode" -addr ":$PORT_RELAY" "${NODE_FLAGS[@]}" \
  -role relay -name relay-1 -advertise "$URL_RELAY" \
  -downstream "$URL_ANALYZER" -peer-token "$TOKEN" \
  -data-dir "$WORK/relay-data" -wal-sync 0 >"$WORK/relay2.log" 2>&1 &
RELAY_PID=$!
wait_healthy "$URL_RELAY"
if ! grep -q "relay cursor epoch .* (restored: true)" "$WORK/relay2.log"; then
  echo "FAIL: restarted relay minted a fresh epoch instead of restoring its cursor" >&2
  cat "$WORK/relay2.log" >&2
  exit 1
fi
# The WAL-tail replay re-forwards batches the analyzer already counted;
# the duplicate-acks prove the same-epoch guard absorbed them.
curl -fsS "$URL_RELAY/healthz" >"$WORK/relay2_healthz.json"
if ! grep -oE '"duplicates":[0-9]+' "$WORK/relay2_healthz.json" | grep -qv ':0$'; then
  echo "FAIL: restart re-forwarded no duplicates — the crash-replay never happened" >&2
  cat "$WORK/relay2_healthz.json" >&2
  exit 1
fi

echo "== resume: pick up exactly where the durable log ends =="
curl -fsS "$URL_RELAY/shuffler/stats" >"$WORK/relay2_stats.json"
RECEIVED=$(grep -oE '"Received":[0-9]+' "$WORK/relay2_stats.json" | grep -oE '[0-9]+')
if [ -z "$RECEIVED" ] || [ "$RECEIVED" -lt $((15 * BATCH)) ]; then
  echo "FAIL: recovered relay lost acked phase-1 tuples (Received=$RECEIVED)" >&2
  exit 1
fi
if [ "$RECEIVED" -ge $((NBATCH * BATCH)) ]; then
  echo "FAIL: the kill landed after the whole workload — nothing was interrupted" >&2
  exit 1
fi
# Received counts every durable tuple, including a torn POST's prefix
# that was logged but never acked: resume at the tuple after it. The
# submission order is fixed, so tuple R+1 is line (R mod BATCH)+1 of
# batch floor(R / BATCH).
FULL=$((RECEIVED / BATCH))
LEFTOVER=$((RECEIVED % BATCH))
START=$FULL
if [ "$LEFTOVER" -gt 0 ]; then
  tail -n +"$((LEFTOVER + 1))" "$WORK/$(printf 'batch_%03d.ndjson' "$FULL")" |
    curl -fsS -X POST -H "Content-Type: application/x-ndjson" \
      --data-binary @- "$URL_RELAY/shuffler/reports" >/dev/null
  START=$((FULL + 1))
fi
echo "   (durable: $RECEIVED tuples = $FULL full batches + $LEFTOVER; resuming)"
for ((b = START; b < NBATCH; b++)); do post_batch "$URL_RELAY" "$b"; done
curl -fsS -X POST "$URL_RELAY/shuffler/flush" >/dev/null

echo "== compare: fleet model must be bit-identical to the reference =="
# Forwarding is synchronous in the ingest path, but give the analyzer a
# short settle window before declaring divergence.
converged=""
for _ in $(seq 1 50); do
  curl -fsS "$URL_ANALYZER/server/model?kind=tabular" >"$WORK/analyzer_tabular.json"
  if cmp -s "$WORK/single_tabular.json" "$WORK/analyzer_tabular.json"; then
    converged=yes
    break
  fi
  sleep 0.2
done
if [ -z "$converged" ]; then
  echo "FAIL: fleet model diverged from the uninterrupted reference run" >&2
  diff "$WORK/single_tabular.json" "$WORK/analyzer_tabular.json" >&2 || true
  exit 1
fi

echo "== non-vacuity: exactly-once accounting on the analyzer =="
curl -fsS "$URL_ANALYZER/metrics" | grep '^p2b_peer_relay_' >"$WORK/analyzer_relay_metrics.log" || true
if ! grep -qx "p2b_peer_relay_batches_total $NBATCH" "$WORK/analyzer_relay_metrics.log"; then
  echo "FAIL: analyzer did not apply exactly $NBATCH relay batches" >&2
  cat "$WORK/analyzer_relay_metrics.log" >&2
  exit 1
fi
if ! grep -qE '^p2b_peer_relay_duplicates_total [1-9][0-9]*$' "$WORK/analyzer_relay_metrics.log"; then
  echo "FAIL: analyzer saw no duplicate batches — the retransmit path went untested" >&2
  cat "$WORK/analyzer_relay_metrics.log" >&2
  exit 1
fi
if ! grep -o '"count":\[[^]]*\]' "$WORK/single_tabular.json" | grep -q '[1-9]'; then
  echo "FAIL: reference model is empty — the bit-identity check proved nothing" >&2
  exit 1
fi

echo "PASS: kill -9 on the relay mid-ingest, restart, resume — fleet model"
echo "      bit-identical to the uninterrupted run, duplicates absorbed by the guard"

#!/usr/bin/env bash
# Topology-equivalence check (the CI "topology" job, runnable locally).
# Proves the multi-node deployment computes EXACTLY the single-node model:
#
#  1. A reference combined p2bnode ingests a deterministic workload and its
#     converged tabular model is recorded.
#  2. The SAME workload, partitioned across a fleet — a p2bboard bulletin
#     board, two relays forwarding over /peer/ingest, two analyzers
#     anti-entropy-peered over /peer/merge — must converge every analyzer
#     to a BIT-IDENTICAL model.
#
# Why bit-exactness is possible at all: the workload ships integral {0,1}
# rewards (float64 addition over them is exact, hence associative, hence
# fold-order-free), every submitted batch is uniform in (code, action) and
# exactly one shuffler batch long (the crowd threshold keeps all of it on
# whichever node shuffles it), every node folds batches into one
# accumulator in arrival order, and analyzers fold peer contributions in
# sorted origin order. See DESIGN.md
# "Multi-node topology".
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

PORT_BOARD="${PORT_BOARD:-18110}"
PORT_SINGLE="${PORT_SINGLE:-18111}"
PORT_A1="${PORT_A1:-18112}"
PORT_A2="${PORT_A2:-18113}"
PORT_R1="${PORT_R1:-18114}"
PORT_R2="${PORT_R2:-18115}"
URL_BOARD="http://127.0.0.1:$PORT_BOARD"
URL_SINGLE="http://127.0.0.1:$PORT_SINGLE"
URL_A1="http://127.0.0.1:$PORT_A1"
URL_A2="http://127.0.0.1:$PORT_A2"
URL_R1="http://127.0.0.1:$PORT_R1"
URL_R2="http://127.0.0.1:$PORT_R2"
WORK="$(mktemp -d)"
PIDS=()

cleanup() {
  status=$?
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  if [ "$status" -ne 0 ] && [ -n "${TOPO_ARTIFACTS:-}" ]; then
    mkdir -p "$TOPO_ARTIFACTS"
    cp "$WORK"/*.log "$WORK"/*.json "$TOPO_ARTIFACTS"/ 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

K=64; ARMS=8; D=10; THRESHOLD=4; BATCH=32; NBATCH=40
TOKEN="topo-ci-token"
NODE_FLAGS=(-k $K -arms $ARMS -d $D -threshold $THRESHOLD -batch $BATCH -seed 5)

echo "== building =="
go build -o "$WORK/bin/" ./cmd/p2bnode ./cmd/p2bboard

# The workload: NBATCH uniform batches, one shuffler batch each. An LCG
# picks each batch's (code, action) and its per-tuple {0,1} rewards, so
# the stream is reproducible without any Go code on the driving side.
echo "== generating workload ($NBATCH batches x $BATCH tuples) =="
awk -v nbatch=$NBATCH -v batch=$BATCH -v k=$K -v arms=$ARMS -v dir="$WORK" '
BEGIN {
  s = 12345
  for (b = 0; b < nbatch; b++) {
    s = (s * 1103515245 + 12345) % 2147483648; code = s % k
    s = (s * 1103515245 + 12345) % 2147483648; action = s % arms
    for (i = 0; i < batch; i++) {
      s = (s * 1103515245 + 12345) % 2147483648; reward = s % 2
      printf "{\"meta\":{\"device_id\":\"gen-%d\"},\"tuple\":{\"code\":%d,\"action\":%d,\"reward\":%d}}\n", b, code, action, reward > sprintf("%s/batch_%03d.ndjson", dir, b)
    }
  }
}'
# A missing/empty workload file would make curl post an empty body (it
# only WARNS on an unreadable @file), silently proving nothing.
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

# submit_batches TARGET_URL first step: POST batches first, first+step,
# first+2*step, ... in index order, then flush. One POST per batch keeps
# submission aligned with the shuffler's size-triggered cuts.
submit_batches() {
  local url=$1 first=$2 step=$3 b
  for ((b = first; b < NBATCH; b += step)); do
    curl -fsS -X POST -H "Content-Type: application/x-ndjson" \
      --data-binary @"$WORK/$(printf 'batch_%03d.ndjson' "$b")" \
      "$url/shuffler/reports" >/dev/null
  done
  curl -fsS -X POST "$url/shuffler/flush" >/dev/null
}

echo "== reference run: one combined node sees everything =="
"$WORK/bin/p2bnode" -addr ":$PORT_SINGLE" "${NODE_FLAGS[@]}" >"$WORK/single.log" 2>&1 &
PIDS+=($!)
wait_healthy "$URL_SINGLE"
submit_batches "$URL_SINGLE" 0 1
curl -fsS "$URL_SINGLE/server/model?kind=tabular" >"$WORK/single_tabular.json"

echo "== fleet run: board + 2 relays + 2 peered analyzers, workload split =="
"$WORK/bin/p2bboard" -addr ":$PORT_BOARD" >"$WORK/board.log" 2>&1 &
PIDS+=($!)
wait_healthy "$URL_BOARD"
"$WORK/bin/p2bnode" -addr ":$PORT_A1" "${NODE_FLAGS[@]}" \
  -role analyzer -name analyzer-1 -advertise "$URL_A1" \
  -peers "$URL_A2" -peer-sync 200ms -peer-token "$TOKEN" \
  -registry "$URL_BOARD" >"$WORK/a1.log" 2>&1 &
PIDS+=($!)
"$WORK/bin/p2bnode" -addr ":$PORT_A2" "${NODE_FLAGS[@]}" \
  -role analyzer -name analyzer-2 -advertise "$URL_A2" \
  -peers "$URL_A1" -peer-sync 200ms -peer-token "$TOKEN" \
  -registry "$URL_BOARD" >"$WORK/a2.log" 2>&1 &
PIDS+=($!)
wait_healthy "$URL_A1"
wait_healthy "$URL_A2"
"$WORK/bin/p2bnode" -addr ":$PORT_R1" "${NODE_FLAGS[@]}" \
  -role relay -name relay-1 -advertise "$URL_R1" \
  -downstream "$URL_A1" -peer-token "$TOKEN" \
  -registry "$URL_BOARD" >"$WORK/r1.log" 2>&1 &
PIDS+=($!)
"$WORK/bin/p2bnode" -addr ":$PORT_R2" "${NODE_FLAGS[@]}" \
  -role relay -name relay-2 -advertise "$URL_R2" \
  -downstream "$URL_A2" -peer-token "$TOKEN" \
  -registry "$URL_BOARD" >"$WORK/r2.log" 2>&1 &
PIDS+=($!)
wait_healthy "$URL_R1"
wait_healthy "$URL_R2"

# Even-indexed batches through relay-1, odd through relay-2: a genuine
# partition, neither analyzer sees the whole stream locally.
submit_batches "$URL_R1" 0 2
submit_batches "$URL_R2" 1 2

echo "== waiting for anti-entropy convergence =="
converged=""
for _ in $(seq 1 100); do
  curl -fsS "$URL_A1/server/model?kind=tabular" >"$WORK/a1_tabular.json"
  curl -fsS "$URL_A2/server/model?kind=tabular" >"$WORK/a2_tabular.json"
  if cmp -s "$WORK/single_tabular.json" "$WORK/a1_tabular.json" &&
     cmp -s "$WORK/single_tabular.json" "$WORK/a2_tabular.json"; then
    converged=yes
    break
  fi
  sleep 0.2
done
if [ -z "$converged" ]; then
  echo "FAIL: fleet never converged to the single-node model" >&2
  echo "--- single vs analyzer-1 ---" >&2
  diff "$WORK/single_tabular.json" "$WORK/a1_tabular.json" >&2 || true
  echo "--- single vs analyzer-2 ---" >&2
  diff "$WORK/single_tabular.json" "$WORK/a2_tabular.json" >&2 || true
  exit 1
fi

echo "== the topology must have actually carried the data =="
curl -fsS "$URL_BOARD/topology" >"$WORK/board.json"
for name in relay-1 relay-2 analyzer-1 analyzer-2; do
  if ! grep -q "\"$name\"" "$WORK/board.json"; then
    echo "FAIL: $name never announced on the board" >&2
    cat "$WORK/board.json" >&2
    exit 1
  fi
done
curl -fsS "$URL_R1/healthz" >"$WORK/r1_healthz.json"
curl -fsS "$URL_A1/healthz" >"$WORK/a1_healthz.json"
if ! grep -q '"role":"relay"' "$WORK/r1_healthz.json"; then
  echo "FAIL: relay healthz does not name its role" >&2
  exit 1
fi
if ! grep -oE '"batches":[0-9]+' "$WORK/r1_healthz.json" | grep -qv ':0$'; then
  echo "FAIL: relay-1 forwarded nothing — the fleet run proved nothing" >&2
  cat "$WORK/r1_healthz.json" >&2
  exit 1
fi
if ! grep -oE '"merges_applied":[0-9]+' "$WORK/a1_healthz.json" | grep -qv ':0$'; then
  echo "FAIL: analyzer-1 merged no peer state — convergence was vacuous" >&2
  cat "$WORK/a1_healthz.json" >&2
  exit 1
fi
# Non-vacuity: the converged model must actually contain mass.
if ! grep -o '"count":\[[^]]*\]' "$WORK/single_tabular.json" | grep -q '[1-9]'; then
  echo "FAIL: reference model is empty — the bit-identity check proved nothing" >&2
  exit 1
fi

echo "PASS: partitioned 2-relay/2-analyzer fleet converged bit-identically"
echo "      to the single combined node over the same workload"

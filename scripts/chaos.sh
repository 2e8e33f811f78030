#!/usr/bin/env bash
# Chaos integration check (the CI "chaos" job, runnable locally). Proves
# the overload/fault contract end to end at the binary level:
#
#  1. A reference fleet (p2bagent, fixed seeds) runs against a clean
#     durable p2bnode; its converged tabular model is recorded.
#  2. The SAME fleet runs again, but every byte travels through p2bchaos
#     (seeded latency, connection resets, 503 bursts with Retry-After,
#     truncated model downloads) against a node with a WAL fsync fault
#     armed (-faults) under the degrade-to-memory policy.
#  3. The chaos fleet must exit 0 with zero dropped batches/reports
#     (p2bagent exits nonzero on any sticky delivery failure), the proxy
#     and the failpoint must have actually fired, and the chaos node's
#     converged model must be BIT-IDENTICAL to the clean run's.
#
# Why bit-exactness is possible at all: resets and synthesized 503s
# happen strictly before the proxy forwards (a retry is the node's FIRST
# sight of the batch), truncation applies only to GET bodies, the fleet
# runs -inflight 1 (retried batches still arrive in cut order) with
# -max-age well past the run (only deterministic size-triggered cuts),
# -model-refresh 0 pins every device to the one warm-start model fetch,
# and the node ingests into one accumulator from a fixed seed. Faults change
# WHEN things happen, never WHAT arrives.
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

PORT_NODE="${PORT_NODE:-18093}"
PORT_PROXY="${PORT_PROXY:-18094}"
URL_NODE="http://127.0.0.1:$PORT_NODE"
URL_PROXY="http://127.0.0.1:$PORT_PROXY"
WORK="$(mktemp -d)"
NODE_PID=""
PROXY_PID=""

cleanup() {
  status=$?
  if [ -n "$NODE_PID" ]; then kill -9 "$NODE_PID" 2>/dev/null || true; fi
  if [ -n "$PROXY_PID" ]; then kill -9 "$PROXY_PID" 2>/dev/null || true; fi
  # On failure, export the run's logs and state dumps for post-mortem
  # (CI uploads $CHAOS_ARTIFACTS as a workflow artifact).
  if [ "$status" -ne 0 ] && [ -n "${CHAOS_ARTIFACTS:-}" ]; then
    mkdir -p "$CHAOS_ARTIFACTS"
    cp "$WORK"/*.log "$WORK"/*.json "$CHAOS_ARTIFACTS"/ 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

MODEL_FLAGS=(-k 64 -arms 20 -d 10)
NODE_FLAGS=("${MODEL_FLAGS[@]}" -threshold 4 -batch 64 -seed 5)
# The determinism contract: serial delivery, size-triggered cuts only,
# one warm-start model fetch, deep retry budget for the fault stream.
AGENT_FLAGS=("${MODEL_FLAGS[@]}" -users 300 -T 8 -p 0.5 -seed 7 -report-every 0
  -inflight 1 -max-batch 32 -max-age 1h -model-refresh 0
  -retries 25 -retry-base 20ms)

echo "== building =="
go build -o "$WORK/bin/" ./cmd/p2bnode ./cmd/p2bchaos ./cmd/p2bagent

wait_healthy() {
  local url=$1
  for _ in $(seq 1 100); do
    if curl -fsS "$url/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "endpoint at $url never became healthy" >&2
  return 1
}

echo "== reference run: same fleet, clean network, healthy disk =="
"$WORK/bin/p2bnode" -addr ":$PORT_NODE" "${NODE_FLAGS[@]}" \
  -data-dir "$WORK/clean" -wal-sync 0 >"$WORK/node_clean.log" 2>&1 &
NODE_PID=$!
wait_healthy "$URL_NODE"
"$WORK/bin/p2bagent" -node "$URL_NODE" "${AGENT_FLAGS[@]}" | tee "$WORK/agent_clean.log"
curl -fsS "$URL_NODE/server/model?kind=tabular" >"$WORK/clean_tabular.json"
curl -fsS "$URL_NODE/shuffler/stats" >"$WORK/clean_stats.json"
kill -9 "$NODE_PID"
NODE_PID=""

echo "== chaos run: WAL fsync fault armed, all traffic through p2bchaos =="
"$WORK/bin/p2bnode" -addr ":$PORT_NODE" "${NODE_FLAGS[@]}" \
  -data-dir "$WORK/chaos" -wal-sync 0 \
  -wal-policy degrade -faults "wal/sync:after=3,count=1" \
  >"$WORK/node_chaos.log" 2>&1 &
NODE_PID=$!
wait_healthy "$URL_NODE"
"$WORK/bin/p2bchaos" -addr ":$PORT_PROXY" -upstream "$URL_NODE" -seed 42 \
  -latency-prob 0.3 -latency 5ms -reset-prob 0.15 \
  -error-prob 0.1 -error-burst 2 -retry-after 50ms \
  -truncate-prob 0.3 >"$WORK/proxy.log" 2>&1 &
PROXY_PID=$!
wait_healthy "$URL_PROXY"

# The fleet speaks only to the proxy. A sticky delivery failure or any
# dropped batch makes p2bagent exit nonzero, which fails the script here.
"$WORK/bin/p2bagent" -node "$URL_PROXY" "${AGENT_FLAGS[@]}" | tee "$WORK/agent_chaos.log"

# End-of-run measurement goes direct to the node, not through the proxy.
curl -fsS "$URL_NODE/server/model?kind=tabular" >"$WORK/chaos_tabular.json"
curl -fsS "$URL_NODE/shuffler/stats" >"$WORK/chaos_stats.json"
curl -fsS "$URL_NODE/healthz" >"$WORK/chaos_healthz.json"
curl -fsS "$URL_PROXY/chaosz" >"$WORK/chaosz.json"
kill -9 "$PROXY_PID"; PROXY_PID=""
kill -9 "$NODE_PID"; NODE_PID=""

echo "== the chaos must have actually happened =="
cat "$WORK/chaosz.json"; echo
for counter in resets errors delayed truncated; do
  if ! grep -oE "\"$counter\":[0-9]+" "$WORK/chaosz.json" | grep -qv ':0$'; then
    echo "FAIL: proxy injected no ${counter} — the run proved nothing" >&2
    exit 1
  fi
done
# The armed WAL fsync fault must have fired: under the degrade policy a
# refused append falls back to memory and bumps degraded_ops.
if ! grep -oE '"degraded_ops":[0-9]+' "$WORK/chaos_healthz.json" | grep -qv ':0$'; then
  echo "FAIL: WAL fsync failpoint never fired (no degraded_ops)" >&2
  cat "$WORK/chaos_healthz.json" >&2
  exit 1
fi

echo "== compare: chaos model must be bit-identical to the clean run =="
diff "$WORK/clean_tabular.json" "$WORK/chaos_tabular.json"
# Whole-stats diff would be vacuous noise: the chaos node legitimately
# reports overload counters the clean node does not have. Compare the
# pipeline counters that define zero-loss instead.
for counter in Received Batches Forwarded Dropped; do
  clean_val="$(grep -oE "\"$counter\":[0-9]+" "$WORK/clean_stats.json" | head -1)"
  chaos_val="$(grep -oE "\"$counter\":[0-9]+" "$WORK/chaos_stats.json" | head -1)"
  if [ -z "$clean_val" ] || [ "$clean_val" != "$chaos_val" ]; then
    echo "FAIL: shuffler $counter diverged: clean ${clean_val:-missing} vs chaos ${chaos_val:-missing}" >&2
    exit 1
  fi
done
# Non-vacuity: the converged model must actually contain mass.
if ! grep -o '"count":\[[^]]*\]' "$WORK/clean_tabular.json" | grep -q '[1-9]'; then
  echo "FAIL: reference model is empty — the bit-identity check proved nothing" >&2
  exit 1
fi

echo "PASS: chaos run (resets, 503 bursts, latency, truncation, WAL fsync fault)"
echo "      converged bit-identically to the clean run with zero dropped reports"

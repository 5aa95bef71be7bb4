#!/usr/bin/env bash
# Control-plane smoke test, two phases. Phase 1: boot pinsqld -serve over
# a 4-instance fleet split across 2 in-process shards, poll the
# aggregating HTTP endpoints while the fleet is running, then SIGTERM and
# assert a graceful parallel drain (exit 0). Phase 2: the same fleet in
# multi-process mode (-role coordinator, one worker process per shard) —
# assert the merged control plane, SIGKILL a worker and assert the
# supervisor respawns it, then SIGTERM and assert the drain also stops
# the workers. CI runs this on every push.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:19131
ADDR2=127.0.0.1:19132
DATA=$(mktemp -d)
DATA2=$(mktemp -d)
LOG=$(mktemp)
LOG2=$(mktemp)
trap 'kill "${PID:-}" "${PID2:-}" 2>/dev/null || true; rm -rf "$DATA" "$DATA2" "$LOG" "$LOG2" pinsqld-smoke' EXIT

# No check pipes into a reader that may exit early (grep -q, head): under
# pipefail the writer's SIGPIPE would fail a check that held. Checks read
# here-strings, and nonzero reads all of its input.

# nonzero METRIC: some series of METRIC in $METRICS has a value other than 0.
nonzero() { awk -v m="$1" 'index($0, m) == 1 && !/ 0$/ { f = 1 } END { exit !f }' <<<"$METRICS"; }

# 6 workers over 4 instances in 2 shards (3 workers each): sim tasks
# strictly outrank diagnosis drains (the simulator is never paused), so
# each shard's spare worker keeps its commit stream flowing while the sim
# slots stay saturated.
go build -o pinsqld-smoke ./cmd/pinsqld
./pinsqld-smoke -instances 4 -windows 200 -window 300 -workers 6 -shards 2 \
  -data-dir "$DATA" -serve "$ADDR" >"$LOG" 2>&1 &
PID=$!

# Wait for the control plane to come up.
for i in $(seq 1 50); do
  curl -sf "http://$ADDR/fleet" >/dev/null 2>&1 && break
  kill -0 "$PID" 2>/dev/null || { echo "pinsqld died early:"; cat "$LOG"; exit 1; }
  sleep 0.2
done

# Wait until the fleet has committed windows AND diagnosed anomalies
# (odd windows carry injections), then check every endpoint.
committed=0; anomalies=0
for i in $(seq 1 300); do
  fleet=$(curl -sf "http://$ADDR/fleet")
  committed=$(sed -n '/"committed": [0-9]*,/{s/.*"committed": \([0-9]*\),.*/\1/;p;q;}' <<<"$fleet")
  anomalies=$(sed -n '/"anomalies": [0-9]*,/{s/.*"anomalies": \([0-9]*\),.*/\1/;p;q;}' <<<"$fleet")
  [ "${committed:-0}" -gt 0 ] && [ "${anomalies:-0}" -gt 0 ] && break
  kill -0 "$PID" 2>/dev/null || { echo "pinsqld died mid-run:"; cat "$LOG"; exit 1; }
  sleep 0.2
done
[ "${committed:-0}" -gt 0 ] || { echo "fleet committed nothing"; cat "$LOG"; exit 1; }
[ "${anomalies:-0}" -gt 0 ] || { echo "fleet diagnosed no anomalies"; cat "$LOG"; exit 1; }
echo "fleet committed $committed windows, $anomalies anomalies"

FLEET=$(curl -sf "http://$ADDR/fleet")
grep -q '"id": "inst-00"' <<<"$FLEET" || { echo "/fleet missing inst-00: $FLEET"; exit 1; }
grep -q '"shards": 2' <<<"$FLEET" || { echo "/fleet missing shards=2: $FLEET"; exit 1; }
grep -q '"shard": ' <<<"$FLEET" || { echo "/fleet instances missing shard annotation: $FLEET"; exit 1; }
SHARDS=$(curl -sf "http://$ADDR/shards")
grep -q '"shard": 0' <<<"$SHARDS" || { echo "/shards missing shard 0: $SHARDS"; exit 1; }
grep -q '"shard": 1' <<<"$SHARDS" || { echo "/shards missing shard 1: $SHARDS"; exit 1; }
grep -q '"commit_batches"' <<<"$SHARDS" || { echo "/shards missing group-commit accounting: $SHARDS"; exit 1; }
grep -q '"window": 0' <<<"$(curl -sf "http://$ADDR/instances/inst-00/diagnoses")" \
  || { echo "/instances/inst-00/diagnoses missing window 0"; exit 1; }
[ "$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/instances/nope/diagnoses")" = 404 ] \
  || { echo "unknown instance did not 404"; exit 1; }

METRICS=$(curl -sf "http://$ADDR/metrics")
for metric in pinsql_fleet_windows_total pinsql_fleet_anomalies_total \
  pinsql_fleet_queue_depth pinsql_registry_raw_cache_misses_total \
  pinsql_ingest_records_total \
  pinsql_ingest_parse_errors_total pinsql_ingest_lag_seconds \
  pinsql_shard_instances pinsql_shard_windows_total \
  pinsql_shard_queue_depth pinsql_shard_shed_windows_total \
  pinsql_shard_commit_batches_total pinsql_shard_commit_batch_windows_total; do
  grep -q "^$metric" <<<"$METRICS" || { echo "/metrics missing $metric"; exit 1; }
done
# Both shards must be scraping distinct series, and each shard's journal
# must have group-committed at least one batch by now.
grep -q '^pinsql_shard_instances{shard="0"} 2$' <<<"$METRICS" \
  || { echo "shard 0 not reporting 2 instances"; exit 1; }
grep -q '^pinsql_shard_instances{shard="1"} 2$' <<<"$METRICS" \
  || { echo "shard 1 not reporting 2 instances"; exit 1; }
nonzero pinsql_shard_commit_batches_total \
  || { echo "no journal group commits recorded"; exit 1; }
# Every instance replays through the ingest seam (the simulator is just
# another Source), so its records counter must move with the fleet.
nonzero pinsql_ingest_records_total \
  || { echo "ingest records counter stuck at zero"; exit 1; }
# Every fleet series now carries the owning shard's label (inst-00 hashes
# to shard 0 at K=2; labels render sorted by key).
grep -q '^pinsql_ingest_parse_errors_total{instance="inst-00",shard="0"} 0$' <<<"$METRICS" \
  || { echo "simulator instance reported parse errors (or shard label missing)"; exit 1; }
# Window and anomaly counters must be live (non-zero) while the fleet runs.
nonzero pinsql_fleet_windows_total \
  || { echo "windows counter stuck at zero"; exit 1; }
nonzero pinsql_fleet_anomalies_total \
  || { echo "anomalies counter stuck at zero"; exit 1; }
curl -sf "http://$ADDR/debug/pprof/cmdline" >/dev/null || { echo "pprof not wired"; exit 1; }

# Graceful drain: SIGTERM must commit the queued windows and exit 0.
kill -TERM "$PID"
for i in $(seq 1 450); do kill -0 "$PID" 2>/dev/null || break; sleep 0.2; done
if kill -0 "$PID" 2>/dev/null; then echo "pinsqld ignored SIGTERM"; cat "$LOG"; exit 1; fi
wait "$PID" || { echo "pinsqld exited non-zero on SIGTERM:"; cat "$LOG"; exit 1; }
grep -q "draining fleet" "$LOG" || { echo "no drain message:"; cat "$LOG"; exit 1; }
grep -q "^instance inst-00:" "$LOG" || { echo "no final report:"; cat "$LOG"; exit 1; }
echo "smoke-serve OK: clean drain after $(grep -c 'window' "$LOG") log lines"

# ---- Phase 2: multi-process mode -------------------------------------
# Same fleet shape, but every shard is a supervised worker process behind
# the versioned worker API; the parent is a pure fan-out control plane.
./pinsqld-smoke -instances 4 -windows 200 -window 300 -workers 6 -shards 2 \
  -role coordinator -data-dir "$DATA2" -serve "$ADDR2" >"$LOG2" 2>&1 &
PID2=$!

for i in $(seq 1 150); do
  curl -sf "http://$ADDR2/fleet" >/dev/null 2>&1 && break
  kill -0 "$PID2" 2>/dev/null || { echo "coordinator died early:"; cat "$LOG2"; exit 1; }
  sleep 0.2
done

FLEET=$(curl -sf "http://$ADDR2/fleet")
grep -q '"shards": 2' <<<"$FLEET" || { echo "coordinator /fleet missing shards=2: $FLEET"; exit 1; }
grep -q '"id": "inst-00"' <<<"$FLEET" || { echo "coordinator /fleet missing inst-00: $FLEET"; exit 1; }
SHARDS=$(curl -sf "http://$ADDR2/shards")
grep -q '"up": true' <<<"$SHARDS" || { echo "/shards reports no live worker: $SHARDS"; exit 1; }

# The worker publishes host:port + pid next to the SHARDS file; that is
# the supervisor's (and our) handle on the process.
for i in $(seq 1 50); do
  [ -s "$DATA2/worker-0.addr" ] && [ -s "$DATA2/worker-1.addr" ] && break
  sleep 0.2
done
WPID0=$(sed -n 2p "$DATA2/worker-0.addr")
kill -0 "$WPID0" 2>/dev/null || { echo "worker 0 (pid $WPID0) not running"; exit 1; }

# The merged /metrics exposition must carry the coordinator's supervision
# gauges AND the worker-scraped fleet series under their shard labels.
METRICS=$(curl -sf "http://$ADDR2/metrics")
grep -q '^pinsql_shard_up{shard="0"} 1$' <<<"$METRICS" \
  || { echo "coordinator /metrics missing pinsql_shard_up for shard 0"; exit 1; }
grep -q '^pinsql_shard_up{shard="1"} 1$' <<<"$METRICS" \
  || { echo "coordinator /metrics missing pinsql_shard_up for shard 1"; exit 1; }
grep -q '^pinsql_fleet_windows_total{instance="inst-00",shard="0"}' <<<"$METRICS" \
  || { echo "worker fleet series not merged into coordinator /metrics"; exit 1; }
[ "$(grep -c '^# TYPE pinsql_fleet_windows_total ' <<<"$METRICS")" = 1 ] \
  || { echo "merged /metrics repeats the pinsql_fleet_windows_total header"; exit 1; }

# SIGKILL worker 0: the supervisor must relaunch it (new pid in the addr
# file) and the worker must resume from its shard journal — the control
# plane keeps answering throughout.
kill -KILL "$WPID0"
for i in $(seq 1 150); do
  NEWPID=$(sed -n 2p "$DATA2/worker-0.addr" 2>/dev/null || true)
  [ -n "${NEWPID:-}" ] && [ "$NEWPID" != "$WPID0" ] && kill -0 "$NEWPID" 2>/dev/null && break
  sleep 0.2
done
[ -n "${NEWPID:-}" ] && [ "$NEWPID" != "$WPID0" ] || { echo "worker 0 was not respawned after SIGKILL"; cat "$LOG2"; exit 1; }
grep -q '"id": "inst-00"' <<<"$(curl -sf "http://$ADDR2/fleet")" \
  || { echo "/fleet unavailable after worker respawn"; exit 1; }
for i in $(seq 1 150); do
  grep -q '"error"' <<<"$(curl -sf "http://$ADDR2/shards")" || break
  sleep 0.2
done
echo "worker 0 respawned as pid $NEWPID after SIGKILL"

# Graceful drain: SIGTERM must drain both workers, print the aggregated
# report, ask the workers to exit, and leave no processes behind.
WPID1=$(sed -n 2p "$DATA2/worker-1.addr")
kill -TERM "$PID2"
for i in $(seq 1 450); do kill -0 "$PID2" 2>/dev/null || break; sleep 0.2; done
if kill -0 "$PID2" 2>/dev/null; then echo "coordinator ignored SIGTERM"; cat "$LOG2"; exit 1; fi
wait "$PID2" || { echo "coordinator exited non-zero on SIGTERM:"; cat "$LOG2"; exit 1; }
grep -q "draining fleet" "$LOG2" || { echo "no coordinator drain message:"; cat "$LOG2"; exit 1; }
grep -q "^instance inst-00:" "$LOG2" || { echo "no coordinator final report:"; cat "$LOG2"; exit 1; }
for i in $(seq 1 50); do
  ! kill -0 "$NEWPID" 2>/dev/null && ! kill -0 "$WPID1" 2>/dev/null && break
  sleep 0.2
done
kill -0 "$NEWPID" 2>/dev/null && { echo "worker 0 (pid $NEWPID) survived coordinator shutdown"; exit 1; }
kill -0 "$WPID1" 2>/dev/null && { echo "worker 1 (pid $WPID1) survived coordinator shutdown"; exit 1; }
echo "smoke-serve OK: multi-process drain clean, workers exited"

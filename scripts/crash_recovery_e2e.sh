#!/usr/bin/env bash
# Crash-recovery end-to-end test for powderd's durability layer.
#
# 1. A baseline daemon optimizes the "spla" benchmark uninterrupted.
#    spla runs for over a second, so step 2 can see the job running and
#    kill the daemon before it finishes.
# 2. A second daemon (fresh store) gets the same submission and is
#    SIGKILLed while the job is running. Restarting it over the same
#    -store-dir must re-enqueue the interrupted job and produce a
#    result byte-identical to the baseline.
# 3. The cache path is asserted on the restarted daemon: powder
#    -server resubmitting the same circuit must be served from the
#    content-addressed cache (cache-hit metric, completed on arrival).
# 4. A corrupted journal tail must degrade to a logged truncation on
#    the next restart, never a startup failure, and the truncation must
#    keep every intact record: the recovered job still serves its
#    completed, byte-identical result from the journal alone. The
#    journal alone also re-warms the result cache: a duplicate is served
#    from it byte-identical, and no cache directory exists beside it.
#
# Usage: scripts/crash_recovery_e2e.sh [powderd-binary] [powder-binary]
# Run from the repository root (go run resolves the module).
set -euo pipefail

POWDERD=${1:-/tmp/powderd}
POWDER=${2:-/tmp/powder}
WORK=$(mktemp -d)
ADDR_A=127.0.0.1:18871
ADDR_B=127.0.0.1:18872
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

wait_healthy() {
  for _ in $(seq 1 50); do
    curl -fsS "http://$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "daemon at $1 never became healthy" >&2
  return 1
}

# job_field reads one top-level string field of powderd's pretty-printed
# job JSON. It uses sed, not python3: each python3 start costs tens of
# milliseconds, and step 2 must kill the daemon while spla is still
# running.
job_field() {
  sed -n "s/^  \"$1\": *\"\([^\"]*\)\".*/\1/p"
}

job_state() {
  curl -fsS "http://$1/v1/jobs/$2" | job_field state
}

submit_job() {
  curl -fsS -X POST --data-binary @"$WORK/$CIRCUIT.blif" "http://$1/v1/jobs" | job_field id
}

# The initial mapped BLIF of the benchmark: both daemons must see
# byte-identical submissions for the byte-identical-result assertion.
CIRCUIT=spla
go run scripts/emit_mapped.go "$CIRCUIT" > "$WORK/$CIRCUIT.blif"

# --- 1. uninterrupted baseline -------------------------------------
"$POWDERD" -addr "$ADDR_A" -workers 1 -store-dir "$WORK/storeA" &
PD_A=$!
wait_healthy "$ADDR_A"
JOB_A=$(submit_job "$ADDR_A")
for _ in $(seq 1 200); do
  [ "$(job_state "$ADDR_A" "$JOB_A")" = completed ] && break
  sleep 0.2
done
[ "$(job_state "$ADDR_A" "$JOB_A")" = completed ]
curl -fsS "http://$ADDR_A/v1/jobs/$JOB_A/result.blif" -o "$WORK/baseline.blif"
kill "$PD_A"; wait "$PD_A" 2>/dev/null || true
echo "baseline run completed ($JOB_A)"

# --- 2. kill -9 mid-job, restart, byte-identical result ------------
"$POWDERD" -addr "$ADDR_B" -workers 1 -store-dir "$WORK/storeB" &
PD_B=$!
wait_healthy "$ADDR_B"
JOB=$(submit_job "$ADDR_B")
for _ in $(seq 1 100); do
  STATE=$(job_state "$ADDR_B" "$JOB")
  [ "$STATE" = running ] && break
  sleep 0.05
done
[ "$STATE" = running ] || { echo "job never started" >&2; exit 1; }
kill -9 "$PD_B"; wait "$PD_B" 2>/dev/null || true
echo "killed powderd mid-job ($JOB running)"

"$POWDERD" -addr "$ADDR_B" -workers 1 -store-dir "$WORK/storeB" >"$WORK/restart.log" 2>&1 &
PD_B=$!
wait_healthy "$ADDR_B"
grep -q '1 interrupted jobs re-enqueued' "$WORK/restart.log"
for _ in $(seq 1 200); do
  STATE=$(job_state "$ADDR_B" "$JOB")
  [ "$STATE" = completed ] && break
  [ "$STATE" = failed ] && { curl -fsS "http://$ADDR_B/v1/jobs/$JOB" >&2; exit 1; }
  sleep 0.2
done
[ "$STATE" = completed ]
curl -fsS "http://$ADDR_B/v1/jobs/$JOB/result.blif" -o "$WORK/recovered.blif"
cmp "$WORK/baseline.blif" "$WORK/recovered.blif"
echo "recovered result is byte-identical to the uninterrupted run"

# --- 3. duplicate submission served from the cache -----------------
# powder -server compiles the same circuit to the same structure, so
# the CLI path must hit the cache the curl submission populated.
"$POWDER" -server "http://$ADDR_B" -circuit "$CIRCUIT" -out "$WORK/dup.blif" >"$WORK/dup.out" 2>&1
grep -q 'cached: result served' "$WORK/dup.out"
cmp "$WORK/baseline.blif" "$WORK/dup.blif"
curl -fsS "http://$ADDR_B/metrics" | grep '^powder_store_cache_hits_total' | grep -qv ' 0$'
echo "duplicate submission served from the content-addressed cache"
kill "$PD_B"; wait "$PD_B" 2>/dev/null || true

# --- 4. corrupted journal tail degrades gracefully -----------------
printf 'garbage-that-is-not-a-frame' >> "$WORK/storeB/journal.wal"
"$POWDERD" -addr "$ADDR_B" -workers 1 -store-dir "$WORK/storeB" >"$WORK/corrupt.log" 2>&1 &
PD_B=$!
wait_healthy "$ADDR_B"
curl -fsS "http://$ADDR_B/metrics" | grep '^powder_store_wal_truncations_total' | grep -qv ' 0$'
[ "$(cat "$WORK/storeB/journal.wal.corrupt")" = garbage-that-is-not-a-frame ]
curl -fsS "http://$ADDR_B/healthz" | python3 -c '
import json, sys
h = json.load(sys.stdin)
assert h["status"] == "ok" and h["store"] == "ok", h
'
[ "$(job_state "$ADDR_B" "$JOB")" = completed ]
curl -fsS "http://$ADDR_B/v1/jobs/$JOB/result.blif" -o "$WORK/truncated.blif"
cmp "$WORK/baseline.blif" "$WORK/truncated.blif"
echo "corrupted journal tail truncated on replay; daemon stayed up and kept $JOB"
curl -fsS "http://$ADDR_B/metrics" | awk '$1 == "powder_store_cache_entries" { n = $2 } END { exit !(n >= 1) }'
"$POWDER" -server "http://$ADDR_B" -circuit "$CIRCUIT" -out "$WORK/rewarmed.blif" >"$WORK/rewarmed.out" 2>&1
grep -q 'cached: result served' "$WORK/rewarmed.out"
cmp "$WORK/baseline.blif" "$WORK/rewarmed.blif"
[ ! -e "$WORK/storeB/cache" ]
kill "$PD_B"; wait "$PD_B" 2>/dev/null || true
echo "the journal alone re-warmed the result cache; no cache directory"
echo "crash-recovery e2e: PASS"

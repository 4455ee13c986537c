#!/bin/sh
# Demonstrates the powderd HTTP service end to end: start a daemon,
# submit two circuits concurrently, stream the lifecycle events of one,
# fetch both optimized netlists, and drain the server cleanly.
#
# Usage: ./examples/service/run.sh   (from the repository root)
set -eu

ADDR=127.0.0.1:8844
BASE=http://$ADDR
TMP=$(mktemp -d)
trap 'kill $DAEMON 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

echo "== building and starting powderd on $ADDR"
go build -o "$TMP/powderd" ./cmd/powderd
"$TMP/powderd" -addr "$ADDR" -workers 2 &
DAEMON=$!

# Wait for the daemon to come up.
for _ in $(seq 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null || { echo "powderd did not start" >&2; exit 1; }

echo "== submitting fig2.blif and maj3.blif concurrently"
J1=$(curl -sf -X POST --data-binary @examples/circuits/fig2.blif \
    "$BASE/v1/jobs?verify=true" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
J2=$(curl -sf -X POST --data-binary @examples/circuits/maj3.blif \
    "$BASE/v1/jobs?verify=true&delay-limit=0" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
echo "   fig2 -> $J1, maj3 -> $J2"

echo "== streaming events of $J1 (NDJSON)"
curl -sN --max-time 10 "$BASE/v1/jobs/$J1/events" | while read -r line; do
    echo "   $line"
    case $line in *job-finished*) break ;; esac
done

echo "== waiting for both jobs"
for J in "$J1" "$J2"; do
    for _ in $(seq 100); do
        S=$(curl -sf "$BASE/v1/jobs/$J" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
        case $S in completed|failed|cancelled) break ;; esac
        sleep 0.1
    done
    echo "   $J: $S"
done

echo "== job status of $J1"
curl -sf "$BASE/v1/jobs/$J1"; echo

echo "== optimized netlists"
curl -sf "$BASE/v1/jobs/$J1/result.blif" | tee "$TMP/fig2.opt.blif" | sed 's/^/   /'
curl -sf "$BASE/v1/jobs/$J2/result.blif" > "$TMP/maj3.opt.blif"
echo "   (maj3 written to $TMP/maj3.opt.blif)"

echo "== final metrics"
curl -sf "$BASE/metrics" | grep -E 'service\.' | sed 's/^/   /'

echo "== draining powderd (SIGTERM)"
kill -TERM $DAEMON
wait $DAEMON 2>/dev/null || true
echo "== done"

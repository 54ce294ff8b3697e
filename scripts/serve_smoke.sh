#!/bin/sh
# End-to-end smoke test of the depth serving layer, as run by CI.
#
# Boots asvserve on a random loopback port, drives ~50 requests through
# asvload at smoke sizing, asserts that latency percentiles were reported
# and that nothing failed server-side, checks /metrics for frame conservation
# (accepted == completed, empty queue), then drains the server with SIGTERM
# and requires a clean exit.
set -eu

workdir=$(mktemp -d)
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT
server_pid=""

go build -o "$workdir/asvserve" ./cmd/asvserve
go build -o "$workdir/asvload" ./cmd/asvload

"$workdir/asvserve" -addr 127.0.0.1:0 -portfile "$workdir/port" \
    -workers 2 -queue 32 -pw 4 >"$workdir/server.log" 2>&1 &
server_pid=$!

i=0
while [ ! -s "$workdir/port" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: server never wrote its portfile" >&2
        cat "$workdir/server.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$workdir/port")
echo "serve-smoke: server at $addr"

# 4 sessions x 13 frames = 52 requests at smoke-friendly frame sizes.
"$workdir/asvload" -addr "http://$addr" \
    -sessions 4 -frames 13 -w 64 -h 48 -pw 4 -qps 60 -json \
    >"$workdir/report.json"
cat "$workdir/report.json"

p99=$(jq -r '.p99_ms' "$workdir/report.json")
fail5xx=$(jq -r '.status_5xx' "$workdir/report.json")
transport=$(jq -r '.transport_errors' "$workdir/report.json")
requests=$(jq -r '.requests' "$workdir/report.json")

[ "$requests" = 52 ] || { echo "serve-smoke: expected 52 requests, got $requests" >&2; exit 1; }
[ "$fail5xx" = 0 ] || { echo "serve-smoke: $fail5xx server errors" >&2; exit 1; }
[ "$transport" = 0 ] || { echo "serve-smoke: $transport transport errors" >&2; exit 1; }
awk -v p="$p99" 'BEGIN{exit !(p + 0 > 0)}' || {
    echo "serve-smoke: p99 not reported (got $p99)" >&2
    exit 1
}

# Conservation: every reply is in, so every admitted frame must already count
# as completed and nothing may still sit in the scheduler.
curl -fsS "http://$addr/metrics" >"$workdir/metrics.json"
accepted=$(jq -r '.serve.frames_accepted' "$workdir/metrics.json")
completed=$(jq -r '.serve.frames_completed' "$workdir/metrics.json")
depth=$(jq -r '.serve.queue_depth' "$workdir/metrics.json")
[ "$accepted" = "$completed" ] && [ "$depth" = 0 ] || {
    echo "serve-smoke: accepted $accepted, completed $completed, queue depth $depth after the load" >&2
    exit 1
}

kill -TERM "$server_pid"
if ! wait "$server_pid"; then
    echo "serve-smoke: server exited non-zero after SIGTERM" >&2
    cat "$workdir/server.log" >&2
    exit 1
fi
server_pid=""
grep -q drained "$workdir/server.log" || {
    echo "serve-smoke: no drain confirmation in server log" >&2
    cat "$workdir/server.log" >&2
    exit 1
}
echo "serve-smoke: OK (p99 ${p99} ms, 0 server errors, $accepted accepted = $completed completed, clean drain)"

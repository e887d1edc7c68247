#!/bin/sh
# serve_smoke.sh: end-to-end service gate. Boots tm3270d on an
# ephemeral port, drives it with tm3270load (which asserts zero 5xx,
# zero failed requests, that every executed run's reply carries its
# block-cache translation counters, and — via -check-metrics — that
# /metrics serves well-formed histograms whose per-stage bucket sums
# equal the admitted-run count and a service.blockcache.translated
# total that covers every admitted run), then SIGTERMs the daemon and
# asserts the drain completed cleanly with every in-flight response
# delivered (admitted == completed in the final counter flush, and at
# least one block translated per admitted run). The observability
# plumbing is gated too: the exported span trace must hold real span
# events, and a request ID sampled from the trace must join to a
# structured log line in the daemon's stderr.
set -eu

GO="${GO:-go}"
PORT="${SMOKE_PORT:-18270}"
BASE="http://127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
trap 'kill "$DPID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "serve-smoke: building"
"$GO" build -o "$TMP/tm3270d" ./cmd/tm3270d
"$GO" build -o "$TMP/tm3270load" ./cmd/tm3270load

# A deliberately tiny worker pool and queue so the load test exercises
# live shedding, with a fast retry hint so the campaign stays quick.
"$TMP/tm3270d" -addr "127.0.0.1:${PORT}" -workers 2 -queue 2 \
    -retry-after 50ms -drain-deadline 20s \
    -trace "$TMP/trace.json" 2> "$TMP/daemon.log" &
DPID=$!

echo "serve-smoke: driving load at $BASE"
"$TMP/tm3270load" -base "$BASE" -sessions 24 -runs 6 -workload mpeg2_a \
    -timeout 3m -check-metrics

echo "serve-smoke: draining daemon (SIGTERM)"
kill -TERM "$DPID"
i=0
while kill -0 "$DPID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "serve-smoke: FAIL — daemon did not exit within 30s of SIGTERM" >&2
        cat "$TMP/daemon.log" >&2
        exit 1
    fi
    sleep 0.1
done

if ! grep -q "drained cleanly" "$TMP/daemon.log"; then
    echo "serve-smoke: FAIL — daemon log missing clean-drain marker" >&2
    cat "$TMP/daemon.log" >&2
    exit 1
fi
admitted=$(sed -n 's/.*"service\.runs\.admitted": *\([0-9]*\).*/\1/p' "$TMP/daemon.log" | tail -1)
completed=$(sed -n 's/.*"service\.runs\.completed": *\([0-9]*\).*/\1/p' "$TMP/daemon.log" | tail -1)
translated=$(sed -n 's/.*"service\.blockcache\.translated": *\([0-9]*\).*/\1/p' "$TMP/daemon.log" | tail -1)
if [ -z "$admitted" ] || [ "$admitted" != "$completed" ]; then
    echo "serve-smoke: FAIL — admitted=${admitted:-?} completed=${completed:-?}; runs were dropped" >&2
    cat "$TMP/daemon.log" >&2
    exit 1
fi
if [ -z "$translated" ] || [ "$translated" -lt "$admitted" ]; then
    echo "serve-smoke: FAIL — blockcache translated=${translated:-?} < admitted=$admitted" >&2
    exit 1
fi

# The exported serving-window trace must be a real span trace: complete
# ("X") events carrying request IDs, written at drain.
if [ ! -s "$TMP/trace.json" ]; then
    echo "serve-smoke: FAIL — daemon wrote no span trace" >&2
    exit 1
fi
if ! grep -q '"ph": *"X"' "$TMP/trace.json"; then
    echo "serve-smoke: FAIL — span trace has no complete events" >&2
    head -c 400 "$TMP/trace.json" >&2
    exit 1
fi
if ! grep -q '"request_id"' "$TMP/trace.json"; then
    echo "serve-smoke: FAIL — span trace events carry no request IDs" >&2
    exit 1
fi

# Logs, spans and metrics must join on the request ID: sample one ID
# out of the trace and find its structured log line.
reqid=$(sed -n 's/.*"request_id": *"\(req-[0-9]*\)".*/\1/p' "$TMP/trace.json" | head -1)
if [ -z "$reqid" ]; then
    echo "serve-smoke: FAIL — no server-minted request ID in the span trace" >&2
    exit 1
fi
if ! grep -q "\"request_id\":\"$reqid\"" "$TMP/daemon.log"; then
    echo "serve-smoke: FAIL — request $reqid traced but never logged" >&2
    grep -c '"request_id"' "$TMP/daemon.log" >&2 || true
    exit 1
fi
logged=$(grep -c '"msg":"request"' "$TMP/daemon.log" || true)

echo "serve-smoke: PASS — zero 5xx, clean drain, admitted=$admitted completed=$completed, $logged requests logged+traced (sample $reqid)"

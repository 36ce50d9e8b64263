#!/bin/sh
# metrics-smoke: prove the live telemetry path end to end. Launches the
# quickstart real-TCP swarm with -debug-addr, waits for /healthz, then
# uses `splicetrace scrape` to validate the Prometheus exposition and
# require the key QoE/transport series the paper's figures summarize.
# Both binaries are built into $ARTIFACTS/bin.
set -eu

ADDR="${METRICS_SMOKE_ADDR:-127.0.0.1:16060}"
GO="${GO:-go}"
BIN="${ARTIFACTS:-artifacts}/bin"
mkdir -p "$BIN"

"$GO" build -o "$BIN/metrics-smoke-quickstart" ./examples/quickstart
"$GO" build -o "$BIN/metrics-smoke-splicetrace" ./cmd/splicetrace

"$BIN/metrics-smoke-quickstart" -debug-addr "$ADDR" -linger 60s &
QS_PID=$!
trap 'kill "$QS_PID" 2>/dev/null || true' EXIT INT TERM

# Wait for the debug endpoint (the swarm itself streams in ~2s).
i=0
until "$BIN/metrics-smoke-splicetrace" scrape "http://$ADDR" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 60 ]; then
        echo "metrics-smoke: debug endpoint never came up on $ADDR" >&2
        exit 1
    fi
    sleep 1
done

# Give the stream a moment to complete so the QoE histograms are filled.
sleep 5

"$BIN/metrics-smoke-splicetrace" scrape "http://$ADDR" \
    -series p2p_startup_seconds_count \
    -series 'p2p_segment_download_seconds_count{scheme="2s"}' \
    -series 'p2p_segment_bytes_count{scheme="2s"}' \
    -series p2p_pool_size_k_count \
    -series p2p_announce_rtt_seconds_count \
    -series tracker_announces_total \
    -series tracker_swarms \
    -series segments_done

echo "metrics-smoke: exposition valid, all required series present"

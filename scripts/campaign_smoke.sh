#!/bin/sh
# campaign_smoke.sh: end-to-end proof of the campaign engine's
# durability contract. Runs a sharded cosim campaign into a shared
# store, SIGKILLs one shard mid-run, resumes it, merges via a final
# 1/1 pass (which must be a pure cache read), and asserts the merged
# aggregate is byte-identical to an unsharded run of the same matrix.
# A second, short leg runs the same shard/merge/compare flow (without
# the kill) on a small mutant matrix.
set -eu

GO="${GO:-go}"
SEEDS="${CAMPAIGN_SMOKE_SEEDS:-40}"
TMP="$(mktemp -d)"
trap 'kill -9 "$SPID" 2>/dev/null || true; rm -rf "$TMP"' EXIT
SPID=""

echo "campaign-smoke: building"
"$GO" build -o "$TMP/tm3270campaign" ./cmd/tm3270campaign
BIN="$TMP/tm3270campaign"
STORE="$TMP/sharded"

echo "campaign-smoke: shard 2/2 to completion"
"$BIN" -kind cosim -seeds "$SEEDS" -store "$STORE" -shards 2/2 > "$TMP/shard2.out"

echo "campaign-smoke: shard 1/2 started, will be SIGKILLed mid-run"
"$BIN" -kind cosim -seeds "$SEEDS" -store "$STORE" -shards 1/2 -resume \
    > "$TMP/shard1a.out" 2>&1 &
SPID=$!
REC="$STORE/records-1of2.jsonl"
i=0
while :; do
    n=$(grep -c '' "$REC" 2>/dev/null || true)
    [ "${n:-0}" -ge 5 ] && break
    if ! kill -0 "$SPID" 2>/dev/null; then
        echo "campaign-smoke: FAIL — shard 1/2 finished before the kill landed; raise CAMPAIGN_SMOKE_SEEDS" >&2
        exit 1
    fi
    i=$((i + 1))
    if [ "$i" -gt 600 ]; then
        echo "campaign-smoke: FAIL — shard 1/2 wrote <5 records in 30s" >&2
        exit 1
    fi
    sleep 0.05
done
kill -9 "$SPID"
wait "$SPID" 2>/dev/null || true
SPID=""
survived=$(grep -c '' "$REC" 2>/dev/null || true)
echo "campaign-smoke: killed shard 1/2 with ~$survived records durable"

echo "campaign-smoke: resuming shard 1/2"
"$BIN" -kind cosim -seeds "$SEEDS" -store "$STORE" -shards 1/2 -resume > "$TMP/shard1b.out"
cached=$(sed -n 's|^shard 1/2: .* \([0-9]*\) cached$|\1|p' "$TMP/shard1b.out")
if [ -z "$cached" ] || [ "$cached" -lt 1 ]; then
    echo "campaign-smoke: FAIL — resumed shard reused no records (cached=${cached:-?})" >&2
    cat "$TMP/shard1b.out" >&2
    exit 1
fi

echo "campaign-smoke: merging via final 1/1 pass (must be a pure cache read)"
"$BIN" -kind cosim -seeds "$SEEDS" -store "$STORE" -shards 1/1 -resume \
    -json "$TMP/sharded.json" > "$TMP/merge.out"
if ! grep -q "^shard 1/1: .* 0 executed" "$TMP/merge.out"; then
    echo "campaign-smoke: FAIL — merge pass executed units instead of reading the store" >&2
    cat "$TMP/merge.out" >&2
    exit 1
fi

echo "campaign-smoke: unsharded reference run"
"$BIN" -kind cosim -seeds "$SEEDS" -store "$TMP/unsharded" \
    -json "$TMP/unsharded.json" > "$TMP/ref.out"

if ! cmp -s "$TMP/sharded.json" "$TMP/unsharded.json"; then
    echo "campaign-smoke: FAIL — merged sharded aggregate differs from unsharded run" >&2
    diff "$TMP/sharded.json" "$TMP/unsharded.json" >&2 || true
    exit 1
fi

units=$(sed -n 's|^shard 1/1: \([0-9]*\) units.*|\1|p' "$TMP/merge.out")
echo "campaign-smoke: cosim — $units units; kill/resume reused $cached records; sharded+merged aggregate byte-identical to unsharded"

MUT="-kind mutants -mutants 4 -mseeds 2"
MSTORE="$TMP/mut-sharded"
echo "campaign-smoke: mutant matrix shards 2/2 and 1/2"
"$BIN" $MUT -store "$MSTORE" -shards 2/2 > "$TMP/mshard2.out"
"$BIN" $MUT -store "$MSTORE" -shards 1/2 -resume > "$TMP/mshard1.out"
echo "campaign-smoke: mutant matrix merge via 1/1 pass"
"$BIN" $MUT -store "$MSTORE" -shards 1/1 -resume -json "$TMP/mut-sharded.json" > "$TMP/mmerge.out"
if ! grep -q "^shard 1/1: .* 0 executed" "$TMP/mmerge.out"; then
    echo "campaign-smoke: FAIL — mutant merge pass executed units instead of reading the store" >&2
    cat "$TMP/mmerge.out" >&2
    exit 1
fi
"$BIN" $MUT -store "$TMP/mut-unsharded" -json "$TMP/mut-unsharded.json" > "$TMP/mref.out"
if ! cmp -s "$TMP/mut-sharded.json" "$TMP/mut-unsharded.json"; then
    echo "campaign-smoke: FAIL — merged sharded mutant aggregate differs from unsharded run" >&2
    diff "$TMP/mut-sharded.json" "$TMP/mut-unsharded.json" >&2 || true
    exit 1
fi
munits=$(sed -n 's|^shard 1/1: \([0-9]*\) units.*|\1|p' "$TMP/mmerge.out")
echo "campaign-smoke: mutants — $munits units; sharded+merged aggregate byte-identical to unsharded"
echo "campaign-smoke: PASS"

#!/bin/sh
# Trace smoke: end-to-end proof of the bring-your-own-workload service
# (DESIGN.md §17). Boots a solo reference node and a 3-node fleet, all with
# trace stores, then:
#
#   1. phastload uploads a generated trace to ONE fleet member and runs the
#      same duplicate-heavy mix over "trace:<digest>" round-robined across
#      ALL members — every per-seed result digest must be byte-identical to
#      the solo reference node's, proving an uploaded trace is runnable by
#      digest from any node, not just its ingestion point.
#   2. A two-tenant fairness group saturates the solo node: a heavy tenant
#      (12 closed-loop workers) and a light tenant (2 workers) load it
#      concurrently with equal scheduler weights. The light tenant must land
#      within 2x of its fair share (>= 1/4 of completed work) — the property
#      the old single FIFO lacked.
#   3. curl checks the typed error taxonomy against a quota-capped node:
#      413 too_large, 429 quota_exceeded, 400 bad_request (garbage payload,
#      bad tenant, bad digest), 404 not-found — and the per-tenant
#      /v1/results log pages back the solo scenario's rows.
#
# Invoked by `make trace-smoke` (part of `make check`); needs go + awk + curl.
set -eu

. "$(dirname "$0")/smoke_lib.sh"
smoke_setup phast-trace-smoke "trace smoke" phastd phastload

SOLO=19390
P1=19391
P2=19392
P3=19393
QUOTA=19394
PEERS="$BASE:$P1,$BASE:$P2,$BASE:$P3"

command -v curl >/dev/null 2>&1 || fail "curl is required"

FLEETFLAGS="-probe-interval 150ms -probe-timeout 100ms -probe-down-after 2 -probe-up-after 1"

# The solo node doubles as the fairness testbed: 2 workers make the WFQ pool
# the bottleneck, a roomy admitter keeps whole-server backpressure out of
# the fairness measurement, and -results-dir records rows for the /v1/results
# check. The fairness scenarios use long simulations (120k instructions,
# ~100ms+ each) deliberately: on a 1-2 core CI box, CPU-bound workers starve
# the goroutines that resubmit the light tenant's next request, and with
# short jobs the light queue runs dry at exactly the moments the scheduler
# would have preferred it — service time must dominate that scheduling noise
# for the completed-work split to reflect the WFQ policy.
start_node "$SOLO" -trace-dir "$SMOKEDIR/traces-$SOLO" -workers 2 -max-inflight 16 -queue 256 -results-dir "$SMOKEDIR/results-$SOLO"
# shellcheck disable=SC2086
start_node "$P1" -trace-dir "$SMOKEDIR/traces-$P1" -self "$BASE:$P1" -peers "$PEERS" $FLEETFLAGS
# shellcheck disable=SC2086
start_node "$P2" -trace-dir "$SMOKEDIR/traces-$P2" -self "$BASE:$P2" -peers "$PEERS" $FLEETFLAGS
# shellcheck disable=SC2086
start_node "$P3" -trace-dir "$SMOKEDIR/traces-$P3" -self "$BASE:$P3" -peers "$PEERS" $FLEETFLAGS

# The same upload spec on both scenarios generates byte-identical canonical
# traces, so both mint the same digest; the same mix seed then produces the
# same per-seed run set, and the digest artifact must agree row for row.
# The fleet scenario uploads to member 1 only — members 2 and 3 resolve the
# digest over the peer trace tier when the run mix lands on them.
cat >"$SMOKEDIR/scenario.json" <<EOF
{"scenarios": [
  {"name": "solo-trace", "targets": ["$BASE:$SOLO"], "tenant": "acme",
   "upload": {"app": "519.lbm", "insts": 12000, "seed": 7, "target": 0},
   "mode": "closed", "concurrency": 4, "requests": 120, "duration_ms": 120000,
   "dup": 0.6, "pool": 5,
   "config": {"App": "trace:@upload", "Predictor": "phast", "Instructions": 8000},
   "seed": 33},
  {"name": "fleet-trace", "targets": ["$BASE:$P1", "$BASE:$P2", "$BASE:$P3"], "tenant": "acme",
   "upload": {"app": "519.lbm", "insts": 12000, "seed": 7, "target": 0},
   "mode": "closed", "concurrency": 4, "requests": 120, "duration_ms": 120000,
   "dup": 0.6, "pool": 5,
   "config": {"App": "trace:@upload", "Predictor": "phast", "Instructions": 8000},
   "seed": 33},
  {"name": "heavy", "group": "fair", "targets": ["$BASE:$SOLO"], "tenant": "megacorp",
   "mode": "closed", "concurrency": 12, "duration_ms": 10000,
   "dup": 0,
   "config": {"App": "511.povray", "Predictor": "phast", "Instructions": 120000},
   "seed": 41},
  {"name": "light", "group": "fair", "targets": ["$BASE:$SOLO"], "tenant": "startup",
   "mode": "closed", "concurrency": 2, "duration_ms": 10000,
   "dup": 0,
   "config": {"App": "511.povray", "Predictor": "phast", "Instructions": 120000},
   "seed": 43}
]}
EOF

"$SMOKEDIR/phastload" -scenario "$SMOKEDIR/scenario.json" \
    -out "$SMOKEDIR/results.csv" -digests "$SMOKEDIR/digests.csv" \
    -wait 15s >"$SMOKEDIR/phastload.txt"

# --- 1. any-node run-by-digest, byte-identical to the solo reference ------

awk -F, '
NR == 1 { for (i = 1; i <= NF; i++) col[$i] = i; next }
$col["target"] != "all" { next }
{
    name = $col["scenario"]
    seen[name] = 1
    ok[name] = $col["ok"]
    if ($col["failed"] != 0)     fail(name " had " $col["failed"] " failed requests")
    if ($col["mismatched"] != 0) fail(name " had " $col["mismatched"] " digest mismatches")
    if (name == "solo-trace" || name == "fleet-trace") {
        if ($col["rejected"] != 0)          fail(name " had " $col["rejected"] " rejected requests")
        if ($col["ok"] != $col["requests"]) fail(name ": ok " $col["ok"] " != requests " $col["requests"])
        if ($col["server_trace_uploads"] != 1)
            fail(name ": trace uploads delta " $col["server_trace_uploads"] ", want 1")
    }
    printf "trace smoke: %-12s tenant=%-9s %s requests, %s ok, %s unique, rps %s\n", \
        name, $col["tenant"], $col["requests"], ok[name], $col["unique"], $col["rps"]
}
END {
    if (!seen["solo-trace"] || !seen["fleet-trace"] || !seen["heavy"] || !seen["light"])
        fail("results.csv is missing a scenario row")
    # Two-tenant fairness: equal weights, so the light tenant'\''s fair share
    # of the saturated node is half the completed work; within 2x means at
    # least a quarter. A single FIFO would have given it ~1/7 (2 of 14
    # closed-loop workers).
    total = ok["heavy"] + ok["light"]
    if (total == 0)               fail("fairness group completed no work")
    if (4 * ok["light"] < total)
        fail("light tenant got " ok["light"] " of " total " completed runs, below half its fair share")
    printf "trace smoke: fairness     light %d / total %d completed (fair share %.2f, floor 0.25)\n", \
        ok["light"], total, ok["light"] / total
}
function fail(msg) { print "trace smoke FAIL: " msg > "/dev/stderr"; exit 1 }
' "$SMOKEDIR/results.csv"

awk -F, '$1 == "solo-trace"  { print $2 "," $3 }' "$SMOKEDIR/digests.csv" | sort >"$SMOKEDIR/solo.digests"
awk -F, '$1 == "fleet-trace" { print $2 "," $3 }' "$SMOKEDIR/digests.csv" | sort >"$SMOKEDIR/fleet.digests"
[ -s "$SMOKEDIR/solo.digests" ] || fail "no digests recorded"
if ! cmp -s "$SMOKEDIR/solo.digests" "$SMOKEDIR/fleet.digests"; then
    echo "trace smoke FAIL: fleet run-by-digest rows diverge from solo reference" >&2
    diff "$SMOKEDIR/solo.digests" "$SMOKEDIR/fleet.digests" | head -10 >&2
    exit 1
fi

# --- 2. typed error taxonomy over the wire --------------------------------

DIGEST=$(sed -n 's/.*as trace:\([0-9a-f]\{64\}\).*/\1/p' "$SMOKEDIR/phastload.txt" | head -1)
[ -n "$DIGEST" ] || fail "could not recover the uploaded trace digest from phastload output"

# Pull the canonical bytes back from the solo node; the size calibrates the
# quota node's caps so one node exercises both 413 (size cap, checked before
# decode) and 429 (tenant quota, checked after).
curl -sf "$BASE:$SOLO/v1/traces/$DIGEST" -o "$SMOKEDIR/trace.mdpt" \
    || fail "GET /v1/traces/$DIGEST from the solo node failed"
SIZE=$(wc -c <"$SMOKEDIR/trace.mdpt")
[ "$SIZE" -gt 64 ] || fail "fetched trace is implausibly small ($SIZE bytes)"

start_node "$QUOTA" -trace-dir "$SMOKEDIR/traces-$QUOTA" -trace-max-bytes $((SIZE + 256)) -tenant-quota-bytes $((SIZE - 1))
wait_healthy "$QUOTA"

expect() { # name want_status want_kind curl-args...
    name=$1 want=$2 kind=$3
    shift 3
    status=$(curl -s -o "$SMOKEDIR/resp.json" -w '%{http_code}' "$@")
    [ "$status" = "$want" ] || fail "$name: status $status, want $want ($(cat "$SMOKEDIR/resp.json"))"
    if [ -n "$kind" ] && ! grep -q "\"kind\": *\"$kind\"" "$SMOKEDIR/resp.json"; then
        fail "$name: body lacks kind \"$kind\": $(cat "$SMOKEDIR/resp.json")"
    fi
    echo "trace smoke: $name -> $status $kind"
}

head -c $((SIZE + 1024)) /dev/zero >"$SMOKEDIR/oversized.bin"
expect "oversized upload   " 413 too_large \
    -X POST --data-binary @"$SMOKEDIR/oversized.bin" "$BASE:$QUOTA/v1/traces"
expect "quota-busting upload" 429 quota_exceeded \
    -X POST --data-binary @"$SMOKEDIR/trace.mdpt" "$BASE:$QUOTA/v1/traces"
expect "garbage upload     " 400 bad_request \
    -X POST --data-binary "not a trace" "$BASE:$QUOTA/v1/traces"
expect "bad tenant         " 400 bad_request \
    -X POST -H "X-Phast-Tenant: ../etc" --data-binary @"$SMOKEDIR/trace.mdpt" "$BASE:$QUOTA/v1/traces"
expect "unknown digest     " 404 not_found \
    "$BASE:$QUOTA/v1/traces/$(printf 'a%.0s' $(seq 1 64))"
expect "malformed digest   " 400 bad_request \
    "$BASE:$QUOTA/v1/traces/zz"

# --- 3. per-tenant results log --------------------------------------------

curl -sf "$BASE:$SOLO/v1/results?tenant=acme&limit=500" -o "$SMOKEDIR/results-acme.json" \
    || fail "GET /v1/results?tenant=acme failed"
ROWS=$(grep -o '"seq":' "$SMOKEDIR/results-acme.json" | wc -l)
[ "$ROWS" -ge 1 ] || fail "acme results log is empty after the solo-trace scenario"
if ! grep -q "trace:$DIGEST" "$SMOKEDIR/results-acme.json"; then
    fail "acme results log does not mention the uploaded trace config"
fi
echo "trace smoke: results log   $ROWS acme rows recorded, uploaded-trace config present"

echo "trace smoke ok: upload-once/run-anywhere bit-identical, light tenant within 2x fair share, typed 400/404/413/429 (artifacts: $SMOKEDIR)"

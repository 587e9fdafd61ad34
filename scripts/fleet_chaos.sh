#!/bin/sh
# Fleet chaos: boot a solo reference node and a 3-node self-healing fleet on
# loopback, drive the SAME workload mix at both, and kill -9 one fleet
# member mid-run (restarting it seconds later). The fleet must ride through
# the outage with zero client-visible failures: each survivor's failure
# detector, fed by its health probes and by its own failed peer hops, marks
# the dead member Down and remaps its ring segments (probes readmit it after
# the restart), failed proxies retry and then degrade to local execution,
# the client's one-pass failover covers requests that were in flight to the
# dead node, and every result row must be byte-identical to the solo reference
# (per-seed sha256 digests). Cluster-wide work stays bounded: at most 2x
# unique configs simulated (the remapped owner may redo work the dead node's
# reset counters no longer admit to).
#
# Invoked by `make fleet-chaos` (part of `make check`); needs only go + awk.
set -eu

. "$(dirname "$0")/smoke_lib.sh"
smoke_setup phast-fleet-chaos "fleet chaos" phastd phastload

SOLO_PORT=19290
P1=19291
P2=19292
P3=19293
PEERS="$BASE:$P1,$BASE:$P2,$BASE:$P3"

FLEETFLAGS="-probe-interval 150ms -probe-timeout 100ms -probe-down-after 2 -probe-up-after 1
            -proxy-retries 3 -retry-backoff 25ms"

# start_node leaves a launcher per node ($SMOKEDIR/run-<port>.sh), so the
# chaos event below restarts node 2 with the exact same flags and cache dir.
start_node "$SOLO_PORT" -max-inflight 4 -queue 64
# shellcheck disable=SC2086
start_node "$P1" -max-inflight 4 -queue 64 -self "$BASE:$P1" -peers "$PEERS" $FLEETFLAGS
# shellcheck disable=SC2086
start_node "$P2" -max-inflight 4 -queue 64 -self "$BASE:$P2" -peers "$PEERS" $FLEETFLAGS
# shellcheck disable=SC2086
start_node "$P3" -max-inflight 4 -queue 64 -self "$BASE:$P3" -peers "$PEERS" $FLEETFLAGS

# One chaos event: kill node 2 outright, leave it dead for 1.5s (long enough
# for probes at 150ms x down-after 2 to remap it), restart it from the same
# launcher, then give the survivors' probers a second to observe the
# recovery so the up-transition lands inside this scenario's counter delta.
CHAOS="kill -9 \$(cat $SMOKEDIR/pid-$P2); sleep 1.5; $SMOKEDIR/run-$P2.sh; sleep 1"

# The same duplicate-heavy mix (seed 23) hits the solo reference and then
# the fleet under chaos; think_ms paces the fleet run so the outage window
# lands mid-load. failover lets the client walk the surviving targets when
# an attempt dies with the node.
cat >"$SMOKEDIR/scenario.json" <<EOF
{"scenarios": [
  {"name": "solo-ref", "targets": ["$BASE:$SOLO_PORT"],
   "mode": "closed", "concurrency": 8, "requests": 600, "duration_ms": 120000,
   "dup": 0.5, "pool": 6, "zipf_s": 1.3,
   "config": {"App": "511.povray", "Predictor": "phast", "Instructions": 8000},
   "seed": 23},
  {"name": "chaos-fleet", "targets": ["$BASE:$P1", "$BASE:$P2", "$BASE:$P3"],
   "mode": "closed", "concurrency": 8, "requests": 600, "duration_ms": 120000,
   "dup": 0.5, "pool": 6, "zipf_s": 1.3, "think_ms": 25, "failover": true,
   "chaos": [{"after_requests": 60, "exec": "$CHAOS"}],
   "config": {"App": "511.povray", "Predictor": "phast", "Instructions": 8000},
   "seed": 23}
]}
EOF

"$SMOKEDIR/phastload" -scenario "$SMOKEDIR/scenario.json" \
    -out "$SMOKEDIR/results.csv" -digests "$SMOKEDIR/digests.csv" \
    -wait 15s >"$SMOKEDIR/phastload.txt"

# Assertions over the fleet-aggregate CSV rows (columns by header name).
awk -F, '
NR == 1 { for (i = 1; i <= NF; i++) col[$i] = i; next }
$col["target"] != "all" { next }
{
    name      = $col["scenario"]
    requests  = $col["requests"]
    ok        = $col["ok"]
    unique    = $col["unique"]
    simulated = $col["runs_simulated"]
    seen[name] = 1
    if ($col["failed"] != 0)     fail(name " had " $col["failed"] " failed requests")
    if ($col["rejected"] != 0)   fail(name " had " $col["rejected"] " rejected requests")
    if ($col["mismatched"] != 0) fail(name " had " $col["mismatched"] " digest mismatches")
    if (ok != requests)          fail(name ": ok " ok " != requests " requests)
    if (name == "solo-ref" && simulated != unique)
        fail("solo-ref executed " simulated " simulations for " unique " unique configs")
    if (name == "chaos-fleet") {
        if (simulated > 2 * unique)
            fail("chaos-fleet executed " simulated " simulations for " unique " unique configs (> 2x)")
        if ($col["failovers"] < 1)
            fail("chaos-fleet saw no client failovers: did the kill land mid-load?")
        if ($col["cluster_transitions_down"] < 1 || $col["cluster_transitions_up"] < 1)
            fail("chaos-fleet: no down/up transition recorded (down=" \
                 $col["cluster_transitions_down"] " up=" $col["cluster_transitions_up"] ")")
    }
    printf "fleet chaos: %-12s %s requests, %s ok, %s unique, %s simulated, %s failovers, down/up %s/%s, proxy fallbacks %s\n", \
        name, requests, ok, unique, simulated, $col["failovers"], \
        $col["cluster_transitions_down"], $col["cluster_transitions_up"], $col["server_proxy_errors"]
}
function fail(msg) { print "fleet chaos FAIL: " msg > "/dev/stderr"; exit 1 }
END {
    if (!seen["solo-ref"] || !seen["chaos-fleet"])
        fail("results.csv is missing a scenario row")
}
' "$SMOKEDIR/results.csv"

# Bit-exactness: the chaos fleet must have produced byte-identical result
# rows to the solo reference for every seed in the mix.
awk -F, '$1 == "solo-ref"    { print $2 "," $3 }' "$SMOKEDIR/digests.csv" | sort >"$SMOKEDIR/solo.digests"
awk -F, '$1 == "chaos-fleet" { print $2 "," $3 }' "$SMOKEDIR/digests.csv" | sort >"$SMOKEDIR/fleet.digests"
if ! cmp -s "$SMOKEDIR/solo.digests" "$SMOKEDIR/fleet.digests"; then
    echo "fleet chaos FAIL: chaos-fleet digests diverge from solo reference" >&2
    diff "$SMOKEDIR/solo.digests" "$SMOKEDIR/fleet.digests" | head -10 >&2
    exit 1
fi
if ! [ -s "$SMOKEDIR/solo.digests" ]; then
    echo "fleet chaos FAIL: no digests recorded" >&2
    exit 1
fi

# Post-mortem fleet view: every member should report the whole fleet live
# again (best-effort when an HTTP client is available; the counter
# assertions above are the authoritative check).
if command -v curl >/dev/null 2>&1; then
    for port in $P1 $P2 $P3; do
        curl -s "$BASE:$port/v1/cluster" >"$SMOKEDIR/cluster-$port.json" || true
        if grep -q '"state":"down"' "$SMOKEDIR/cluster-$port.json"; then
            echo "fleet chaos FAIL: member $port still reports a down peer after recovery" >&2
            exit 1
        fi
    done
fi

echo "fleet chaos ok: one node killed and restarted mid-run, zero client-visible failures, bit-identical results (artifacts: $SMOKEDIR)"

#!/bin/sh
# Fleet smoke: boot a 1-node baseline and a 3-node consistent-hash fleet on
# loopback, drive a duplicate-heavy zipfian phastload scenario at each, and
# assert the fleet's defining property — cluster-wide coalescing: the total
# number of simulations executed across all three members equals the number
# of unique configs in the workload, no matter which member each request
# landed on. The side artifact is results.csv, the 1-node-vs-3-node
# comparison table (kept under $SMOKEDIR for inspection).
#
# Invoked by `make fleet-smoke` (part of `make check`); needs only go + awk.
set -eu

. "$(dirname "$0")/smoke_lib.sh"
smoke_setup phast-fleet-smoke "fleet smoke" phastd phastload

SOLO_PORT=19190
P1=19191
P2=19192
P3=19193
PEERS="$BASE:$P1,$BASE:$P2,$BASE:$P3"

start_node "$SOLO_PORT" -max-inflight 4 -queue 64
start_node "$P1" -max-inflight 4 -queue 64 -self "$BASE:$P1" -peers "$PEERS"
start_node "$P2" -max-inflight 4 -queue 64 -self "$BASE:$P2" -peers "$PEERS"
start_node "$P3" -max-inflight 4 -queue 64 -self "$BASE:$P3" -peers "$PEERS"

# Duplicate-heavy zipfian mix: 80 requests, ~60% re-ask one of 6 pool
# configs (skewed so a couple go viral), the rest are unique seeds. The
# same mix (seed 11) hits the solo node and then the fleet.
cat >"$SMOKEDIR/scenario.json" <<EOF
{"scenarios": [
  {"name": "solo-1n", "targets": ["$BASE:$SOLO_PORT"],
   "mode": "closed", "concurrency": 8, "requests": 80, "duration_ms": 60000,
   "dup": 0.6, "pool": 6, "zipf_s": 1.3,
   "config": {"App": "511.povray", "Predictor": "phast", "Instructions": 8000},
   "seed": 11},
  {"name": "fleet-3n", "targets": ["$BASE:$P1", "$BASE:$P2", "$BASE:$P3"],
   "mode": "closed", "concurrency": 8, "requests": 80, "duration_ms": 60000,
   "dup": 0.6, "pool": 6, "zipf_s": 1.3,
   "config": {"App": "511.povray", "Predictor": "phast", "Instructions": 8000},
   "seed": 11}
]}
EOF

"$SMOKEDIR/phastload" -scenario "$SMOKEDIR/scenario.json" \
    -out "$SMOKEDIR/results.csv" -wait 15s >"$SMOKEDIR/phastload.txt"

# Assertions over the CSV (columns located by header name, not position).
# Only the target="all" fleet-aggregate rows carry client-side outcomes;
# per-member rows are server-side deltas only.
awk -F, '
NR == 1 { for (i = 1; i <= NF; i++) col[$i] = i; next }
$col["target"] != "all" { next }
{
    name      = $col["scenario"]
    requests  = $col["requests"]
    ok        = $col["ok"]
    rejected  = $col["rejected"]
    failed    = $col["failed"]
    unique    = $col["unique"]
    simulated = $col["runs_simulated"]
    seen[name] = 1
    if (failed != 0)       fail(name " had " failed " failed requests")
    if (rejected != 0)     fail(name " had " rejected " rejected requests")
    if (ok != requests)    fail(name ": ok " ok " != requests " requests)
    if (simulated != unique)
        fail(name ": executed " simulated " simulations for " unique " unique configs")
    printf "fleet smoke: %-8s %s requests, %s unique, %s simulated\n", name, requests, unique, simulated
}
function fail(msg) { print "fleet smoke FAIL: " msg > "/dev/stderr"; exit 1 }
END {
    if (!seen["solo-1n"] || !seen["fleet-3n"])
        fail("results.csv is missing a scenario row")
}
' "$SMOKEDIR/results.csv"

echo "fleet smoke ok: cluster-wide coalescing held (table: $SMOKEDIR/results.csv)"

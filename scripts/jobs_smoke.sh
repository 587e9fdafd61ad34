#!/bin/sh
# Jobs smoke: end-to-end proof of the design-space autotuner (DESIGN.md §18).
# Boots a 3-node fleet whose first member runs the job controller
# (-jobs-dir), then:
#
#   1. curl submits a successive-halving job over 12 candidates
#      (3 predictors + 3 set counts + 3 table counts + 3 confidence caps,
#      eta 2, 3 rungs: 12@10k -> 6@20k -> 3@40k instructions over 2 apps =
#      42 unique simulations), waits for rung 0 to checkpoint, and
#      kill -9s the member mid-search.
#   2. The member restarts on the same -cache/-jobs-dir and resumes the job
#      from its checkpoint unprompted. Zero repeat simulations: the two
#      lives together simulate at most the 42 unique configs, and the
#      resumed life stays within the post-rung-0 remainder (18) — rung 0
#      came back from the persistent run cache, not the simulator.
#   3. phastload resubmits the same spec as a job-only scenario: the digest
#      is the job's identity, so the finished job answers idempotently with
#      cluster-wide runs_simulated unchanged (the CSV delta row must say 0),
#      and the winner's table and config land as artifacts.
#   4. paperfigs -config replays the winner's config against a fresh cache
#      (the solo reference) — its table must be byte-identical to the
#      winner table the job reported.
#   5. DELETE /v1/jobs/{id} cancels a second mid-flight job.
#
# Invoked by `make jobs-smoke` (part of `make check`); needs go + awk + curl.
set -eu

. "$(dirname "$0")/smoke_lib.sh"
smoke_setup phast-jobs-smoke "jobs smoke" phastd phastload paperfigs

P1=19490
P2=19491
P3=19492
PEERS="$BASE:$P1,$BASE:$P2,$BASE:$P3"
APPS="511.povray,519.lbm"

command -v curl >/dev/null 2>&1 || fail "curl is required"

FLEETFLAGS="-probe-interval 150ms -probe-timeout 100ms -probe-down-after 2 -probe-up-after 1"

fleet_node() { # port [extra args...]
    port=$1
    shift
    # shellcheck disable=SC2086
    start_node "$port" -self "$BASE:$port" -peers "$PEERS" $FLEETFLAGS "$@"
}

# Only member 1 runs the controller; 2 workers keep the search slow enough
# to kill mid-flight deterministically.
fleet_node "$P1" -jobs-dir "$SMOKEDIR/jobs" -workers 2
fleet_node "$P2"
fleet_node "$P3"
wait_healthy "$P1"
wait_healthy "$P2"
wait_healthy "$P3"

# jq-free field readers for the tab-indented one-field-per-line JSON the
# daemon writes.
jfield() { # file key -> value (string fields unquoted, no trailing comma)
    sed -n 's/^\t*"'"$2"'": "\{0,1\}\([^",]*\)"\{0,1\},\{0,1\}$/\1/p' "$1" | head -1
}
simulated() { # port -> cluster member's runs.simulated counter
    curl -sf "$BASE:$1/metrics" | awk '$1 == "runs.simulated" { print $2 }'
}

cat >"$SMOKEDIR/spec.json" <<EOF
{
  "space": {
    "predictors": ["storesets", "nosq", "phast:128"],
    "phast_sets": [64, 256, 1024],
    "phast_tables": [1, 2, 4],
    "phast_conf": [3, 7, 15]
  },
  "strategy": "halving",
  "halving": {"eta": 2, "rungs": 3},
  "apps": ["511.povray", "519.lbm"],
  "instructions": 40000
}
EOF

# --- 1. submit, wait for the rung-0 checkpoint, kill -9 -------------------

curl -sf -X POST -H "X-Phast-Tenant: acme" --data-binary @"$SMOKEDIR/spec.json" \
    "$BASE:$P1/v1/jobs" -o "$SMOKEDIR/submit.json" || fail "POST /v1/jobs failed"
JOB=$(jfield "$SMOKEDIR/submit.json" id)
[ -n "$JOB" ] || fail "submission returned no job id: $(cat "$SMOKEDIR/submit.json")"
PLANNED=$(jfield "$SMOKEDIR/submit.json" planned_trials)
[ "$PLANNED" = "21" ] || fail "planned trials $PLANNED, want 21 (12+6+3)"
echo "jobs smoke: submitted job ${JOB%"${JOB#????????????}"} (21 trials over 12 candidates planned)"

STATE=running
RUNG=0
for i in $(seq 1 400); do
    curl -sf "$BASE:$P1/v1/jobs/$JOB" -o "$SMOKEDIR/poll.json" || fail "GET job status failed"
    STATE=$(jfield "$SMOKEDIR/poll.json" state)
    RUNG=$(jfield "$SMOKEDIR/poll.json" next_rung)
    RUNG=${RUNG:-0}
    [ "$STATE" = "running" ] || break
    [ "$RUNG" -ge 1 ] && break
    sleep 0.025
done
[ "$STATE" = "running" ] || fail "job reached $STATE before the kill — raise the spec's instructions"
[ "$RUNG" -ge 1 ] || fail "rung 0 never completed"

S1=$(simulated "$P1")
kill -9 "$(cat "$SMOKEDIR/pid-$P1")"
rm -f "$SMOKEDIR/pid-$P1"
echo "jobs smoke: killed member 1 after rung $((RUNG - 1)) ($S1 simulations in life 1)"
[ "$S1" -ge 24 ] || fail "life 1 simulated $S1 runs, want >= 24 (rung 0 = 12 candidates x 2 apps)"
[ "$S1" -lt 42 ] || fail "life 1 already simulated all $S1 runs — the kill landed too late"

# --- 2. restart, auto-resume, zero repeat simulations ---------------------

fleet_node "$P1" -jobs-dir "$SMOKEDIR/jobs" -workers 2
wait_healthy "$P1"
grep -q "resumed 1 checkpointed job" "$SMOKEDIR/phastd-$P1.log" \
    || fail "restarted member did not resume the job"

for i in $(seq 1 1200); do
    curl -sf "$BASE:$P1/v1/jobs/$JOB" -o "$SMOKEDIR/poll.json" || fail "GET job status failed"
    STATE=$(jfield "$SMOKEDIR/poll.json" state)
    [ "$STATE" = "running" ] || break
    sleep 0.05
done
[ "$STATE" = "done" ] || fail "resumed job ended $STATE: $(cat "$SMOKEDIR/poll.json")"
DIGEST=$(jfield "$SMOKEDIR/poll.json" result_digest)
[ -n "$DIGEST" ] || fail "finished job carries no result digest"

S2=$(simulated "$P1")
echo "jobs smoke: resumed job done ($S2 simulations in life 2, digest ${DIGEST%"${DIGEST#????????????}"})"
[ $((S1 + S2)) -le 42 ] || fail "lives simulated $S1 + $S2 > 42 unique configs — the resume repeated cached work"
[ "$S2" -le 18 ] || fail "life 2 simulated $S2 runs, want <= 18 — rung 0 should have come from the cache"

# --- 3. idempotent resubmission via phastload: runs_simulated unchanged ---

SPEC=$(cat "$SMOKEDIR/spec.json")
cat >"$SMOKEDIR/scenario.json" <<EOF
{"scenarios": [
  {"name": "job-rerun", "targets": ["$BASE:$P1", "$BASE:$P2", "$BASE:$P3"],
   "tenant": "acme",
   "job": {"spec": $SPEC, "target": 0,
           "table_out": "$SMOKEDIR/winner.txt", "config_out": "$SMOKEDIR/winner.json"}}
]}
EOF
"$SMOKEDIR/phastload" -scenario "$SMOKEDIR/scenario.json" \
    -out "$SMOKEDIR/results.csv" -wait 15s >"$SMOKEDIR/phastload.txt"
grep -q "job ${JOB%"${JOB#????????????}"}" "$SMOKEDIR/phastload.txt" \
    || fail "phastload resubmission minted a different job id (spec digest unstable)"

awk -F, '
NR == 1 { for (i = 1; i <= NF; i++) col[$i] = i; next }
$col["target"] != "all" { next }
{
    if ($col["job_state"] != "done")
        fail("resubmitted job state " $col["job_state"] ", want done")
    if ($col["job_trials"] != 21)
        fail("resubmitted job reports " $col["job_trials"] " trials, want 21")
    if ($col["runs_simulated"] != 0)
        fail("idempotent resubmission simulated " $col["runs_simulated"] " runs cluster-wide, want 0")
    found = 1
}
END { if (!found) fail("results.csv has no cluster-wide job-rerun row") }
function fail(msg) { print "jobs smoke FAIL: " msg > "/dev/stderr"; exit 1 }
' "$SMOKEDIR/results.csv"
echo "jobs smoke: idempotent resubmission joined the finished job, cluster-wide runs_simulated unchanged"

# --- 4. winner table byte-identical to a solo paperfigs reference ---------

[ -s "$SMOKEDIR/winner.txt" ] || fail "phastload wrote no winner table"
[ -s "$SMOKEDIR/winner.json" ] || fail "phastload wrote no winner config"
"$SMOKEDIR/paperfigs" -config "$(cat "$SMOKEDIR/winner.json")" -apps "$APPS" \
    -cache "$SMOKEDIR/cache-ref" >"$SMOKEDIR/reference.txt" 2>"$SMOKEDIR/reference.err" \
    || fail "paperfigs -config replay failed: $(cat "$SMOKEDIR/reference.err")"
if ! cmp -s "$SMOKEDIR/winner.txt" "$SMOKEDIR/reference.txt"; then
    echo "jobs smoke FAIL: winner table diverges from the solo paperfigs reference" >&2
    diff "$SMOKEDIR/winner.txt" "$SMOKEDIR/reference.txt" | head -10 >&2
    exit 1
fi
echo "jobs smoke: winner table byte-identical to solo paperfigs -config replay"

# --- 5. DELETE cancels a mid-flight job -----------------------------------

# A different fidelity is a different spec (new digest) whose configs are
# all cache misses — the search has real work in flight to cancel.
sed 's/"instructions": 40000/"instructions": 48000/' \
    "$SMOKEDIR/spec.json" >"$SMOKEDIR/spec2.json"
curl -sf -X POST -H "X-Phast-Tenant: acme" --data-binary @"$SMOKEDIR/spec2.json" \
    "$BASE:$P1/v1/jobs" -o "$SMOKEDIR/submit2.json" || fail "second POST /v1/jobs failed"
JOB2=$(jfield "$SMOKEDIR/submit2.json" id)
[ "$JOB2" != "$JOB" ] || fail "a different fidelity reused the first job's digest"
curl -sf -X DELETE "$BASE:$P1/v1/jobs/$JOB2" -o "$SMOKEDIR/cancel.json" \
    || fail "DELETE /v1/jobs/$JOB2 failed"
CSTATE=$(jfield "$SMOKEDIR/cancel.json" state)
[ "$CSTATE" = "cancelled" ] || fail "DELETE left the job $CSTATE, want cancelled"
echo "jobs smoke: DELETE cancelled the second job mid-flight"

echo "jobs smoke ok: kill -9 resume with zero repeat simulations, idempotent resubmit, winner table reproducible via paperfigs (artifacts: $SMOKEDIR)"

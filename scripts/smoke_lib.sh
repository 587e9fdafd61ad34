# Shared set-up and teardown for the loopback fleet smokes (fleet_smoke.sh,
# fleet_chaos.sh, trace_smoke.sh, jobs_smoke.sh). Sourced, not run:
#
#   . "$(dirname "$0")/smoke_lib.sh"
#   smoke_setup phast-fleet-smoke "fleet smoke" phastd phastload
#   start_node 19191 -max-inflight 4
#
# POSIX sh; needs go, plus curl for wait_healthy.

BASE="http://127.0.0.1"

# smoke_setup dir label cmd...: reset $SMOKEDIR (dir under $TMPDIR or /tmp),
# build each named ./cmd/<cmd> into it, and stop every node on exit. label
# prefixes fail's messages.
smoke_setup() {
    SMOKEDIR="${TMPDIR:-/tmp}/$1"
    SMOKE_LABEL=$2
    shift 2
    rm -rf "$SMOKEDIR"
    mkdir -p "$SMOKEDIR"
    for cmd in "$@"; do
        go build -o "$SMOKEDIR/$cmd" "./cmd/$cmd"
    done
    trap cleanup EXIT INT TERM
}

fail() {
    echo "$SMOKE_LABEL FAIL: $*" >&2
    exit 1
}

# cleanup stops every node recorded in a pid file and waits for the ones
# this shell started.
cleanup() {
    for f in "$SMOKEDIR"/pid-*; do
        [ -f "$f" ] && kill "$(cat "$f")" 2>/dev/null || true
    done
    wait 2>/dev/null || true
}

# start_node port [phastd args...]: write $SMOKEDIR/run-<port>.sh, a launcher
# that starts phastd on port with the given flags, its own cache directory
# and an appended log, and records its pid in $SMOKEDIR/pid-<port>; then
# launch it. Running the launcher again (a chaos event, say) restarts the
# node with the same flags and the same cache, which must survive a crash.
start_node() {
    port=$1
    shift
    {
        echo '#!/bin/sh'
        printf "'%s' -addr 127.0.0.1:%s -cache '%s' -metrics=false" \
            "$SMOKEDIR/phastd" "$port" "$SMOKEDIR/cache-$port"
        for arg in "$@"; do printf " '%s'" "$arg"; done
        printf " >>'%s' 2>&1 &\n" "$SMOKEDIR/phastd-$port.log"
        printf "echo \$! >'%s'\n" "$SMOKEDIR/pid-$port"
    } >"$SMOKEDIR/run-$port.sh"
    chmod +x "$SMOKEDIR/run-$port.sh"
    # Sourced, so the first life is this shell's child and cleanup waits
    # for it.
    . "$SMOKEDIR/run-$port.sh"
}

# wait_healthy port: poll the node's /healthz for up to 10 s.
wait_healthy() {
    for i in $(seq 1 50); do
        curl -sf "$BASE:$1/healthz" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    fail "node $1 never became healthy"
}

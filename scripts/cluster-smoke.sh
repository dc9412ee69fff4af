#!/usr/bin/env bash
# End-to-end smoke test for the xbard cluster layer (`make
# cluster-smoke`, CI's cluster-smoke job): build xbard, start a 3-node
# cluster on loopback ports, and check the sharded-cache contract:
#
#   1. every node answers the same request with identical measures,
#      all served by the key's ring owner (X-Xbar-Node), and the fleet
#      fills the lattice exactly once (fleet cache_misses == 1 in the
#      /v1/cluster rollup);
#   2. killing the owner degrades to local compute on the survivors
#      (HTTP 200, same blocking value, failovers counted) — never a
#      client-facing error — and a survivor fills the lost key once,
#      answering the next request for it from its own cache;
#   3. the /v1/cluster rollup keeps answering with the dead member
#      marked unreachable; the final rollup is written to
#      $CLUSTER_ROLLUP (default cluster-rollup.json) for CI artifacts;
#   4. once the owner restarts on its port and the survivor's backoff
#      gate has passed, the survivor forwards to it again: the answer
#      is served by the owner with the same blocking value.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_PORT="${XBARD_CLUSTER_PORT:-8483}"
ROLLUP="${CLUSTER_ROLLUP:-cluster-rollup.json}"
WORK="$(mktemp -d)"
PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do
        kill -TERM "$pid" 2>/dev/null || true
    done
    for pid in "${PIDS[@]}"; do
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "cluster-smoke: building xbard"
go build -o "$WORK/xbard" ./cmd/xbard

IDS=(n1 n2 n3)
PEERS=""
for i in 0 1 2; do
    PEERS="${PEERS:+$PEERS,}${IDS[$i]}=http://127.0.0.1:$((BASE_PORT + i))"
done
for i in 0 1 2; do
    "$WORK/xbard" -addr "127.0.0.1:$((BASE_PORT + i))" -drain 10s \
        -node-id "${IDS[$i]}" -peers "$PEERS" \
        2>"$WORK/xbard-${IDS[$i]}.log" &
    PIDS+=($!)
done

url() { echo "http://127.0.0.1:$((BASE_PORT + $1))"; }

# Readiness gate on every node, bounded by a deadline.
DEADLINE=$(( $(date +%s) + 20 ))
for i in 0 1 2; do
    ok=
    while [ "$(date +%s)" -lt "$DEADLINE" ]; do
        if curl -fsS "$(url $i)/readyz" >/dev/null 2>&1; then
            ok=1
            break
        fi
        sleep 0.1
    done
    if [ -z "$ok" ]; then
        echo "cluster-smoke: ${IDS[$i]} not ready; log:" >&2
        cat "$WORK/xbard-${IDS[$i]}.log" >&2
        exit 1
    fi
done
echo "cluster-smoke: 3 nodes ready"

BODY='{"n1":16,"n2":16,"classes":[{"name":"smooth","a":1,"alpha":0.0024,"mu":1}]}'
served_by() { grep -i '^x-xbar-node:' "$1" | tr -d '\r' | awk '{print $2}'; }
# Cached flips false->true after the owner's first fill; strip it so
# the measure bytes can be compared directly.
norm() { sed 's/"cached":true/"cached":false/' "$1"; }

# The same request through every node: one owner serves all three,
# byte-identical measures, one fleet-wide fill.
for i in 0 1 2; do
    curl -fsS -D "$WORK/hdr$i.txt" -X POST -d "$BODY" \
        "$(url $i)/v1/blocking" >"$WORK/resp$i.json"
done
OWNER="$(served_by "$WORK/hdr0.txt")"
case " ${IDS[*]} " in
    *" $OWNER "*) ;;
    *) echo "cluster-smoke: X-Xbar-Node header '$OWNER' names no member" >&2; exit 1 ;;
esac
for i in 1 2; do
    SB="$(served_by "$WORK/hdr$i.txt")"
    if [ "$SB" != "$OWNER" ]; then
        echo "cluster-smoke: node ${IDS[$i]} request served by '$SB', want owner '$OWNER'" >&2
        exit 1
    fi
    if [ "$(norm "$WORK/resp$i.json")" != "$(norm "$WORK/resp0.json")" ]; then
        echo "cluster-smoke: node ${IDS[$i]} response differs from node ${IDS[0]}" >&2
        exit 1
    fi
done
echo "cluster-smoke: all 3 nodes served by owner $OWNER, responses identical"

curl -fsS "$(url 0)/v1/cluster" >"$WORK/rollup1.json"
grep -q '"cache_misses":1' "$WORK/rollup1.json" || {
    echo "cluster-smoke: fleet cache_misses != 1; rollup:" >&2
    cat "$WORK/rollup1.json" >&2
    exit 1
}
echo "cluster-smoke: fleet-wide cache_misses == 1"

# Kill the owner; a survivor must fail over to local compute with the
# same answer.
for i in 0 1 2; do
    if [ "${IDS[$i]}" = "$OWNER" ]; then
        OWNER_IDX=$i
    fi
done
SURVIVOR_IDX=$(( (OWNER_IDX + 1) % 3 ))
kill -TERM "${PIDS[$OWNER_IDX]}"
wait "${PIDS[$OWNER_IDX]}" || {
    echo "cluster-smoke: owner exited non-zero; log:" >&2
    cat "$WORK/xbard-$OWNER.log" >&2
    exit 1
}
echo "cluster-smoke: owner $OWNER drained cleanly"

curl -fsS -D "$WORK/hdr-failover.txt" -X POST -d "$BODY" \
    "$(url $SURVIVOR_IDX)/v1/blocking" >"$WORK/resp-failover.json"
SB="$(served_by "$WORK/hdr-failover.txt")"
if [ "$SB" != "${IDS[$SURVIVOR_IDX]}" ]; then
    echo "cluster-smoke: failover served by '$SB', want local ${IDS[$SURVIVOR_IDX]}" >&2
    exit 1
fi
B0="$(grep -o '"blocking":[0-9.eE+-]*' "$WORK/resp0.json" | head -1)"
BF="$(grep -o '"blocking":[0-9.eE+-]*' "$WORK/resp-failover.json" | head -1)"
if [ "$B0" != "$BF" ]; then
    echo "cluster-smoke: failover blocking $BF differs from owner's $B0" >&2
    exit 1
fi
curl -fsS "$(url $SURVIVOR_IDX)/metrics" >"$WORK/metrics-failover.json"
grep -q '"failovers":1' "$WORK/metrics-failover.json" || {
    echo "cluster-smoke: survivor counted no failover; metrics:" >&2
    cat "$WORK/metrics-failover.json" >&2
    exit 1
}
echo "cluster-smoke: failover to local compute ok (bit-identical blocking)"

# The survivor filled the lost key once: the same request again is a
# hit in its own cache, with no second fill.
curl -fsS -X POST -d "$BODY" "$(url $SURVIVOR_IDX)/v1/blocking" >"$WORK/resp-refill.json"
grep -q '"cached":true' "$WORK/resp-refill.json" || {
    echo "cluster-smoke: second post-kill request not cached on the survivor:" >&2
    cat "$WORK/resp-refill.json" >&2
    exit 1
}
curl -fsS "$(url $SURVIVOR_IDX)/metrics" >"$WORK/metrics-refill.json"
grep -q '"cache":{"hits":[0-9]*,"misses":1,' "$WORK/metrics-refill.json" || {
    echo "cluster-smoke: survivor solver-cache misses != 1; metrics:" >&2
    cat "$WORK/metrics-refill.json" >&2
    exit 1
}
echo "cluster-smoke: survivor filled the lost key once and serves it cached"

# The rollup survives the dead member and is kept as the CI artifact.
curl -fsS "$(url $SURVIVOR_IDX)/v1/cluster" >"$ROLLUP"
grep -q '"reachable":2' "$ROLLUP" || {
    echo "cluster-smoke: rollup does not report 2 reachable members:" >&2
    cat "$ROLLUP" >&2
    exit 1
}
echo "cluster-smoke: rollup written to $ROLLUP"

# Restart the owner on its port. The survivor's forwards to it failed
# twice, so its backoff gate is 500 ms (1 s had the rollup probed it
# again); past that, the next request is the reconnect probe and must
# be served by the restarted owner with the same measures.
"$WORK/xbard" -addr "127.0.0.1:$((BASE_PORT + OWNER_IDX))" -drain 10s \
    -node-id "$OWNER" -peers "$PEERS" \
    2>"$WORK/xbard-$OWNER-restart.log" &
PIDS[$OWNER_IDX]=$!
DEADLINE=$(( $(date +%s) + 20 ))
until curl -fsS "$(url $OWNER_IDX)/readyz" >/dev/null 2>&1; do
    if [ "$(date +%s)" -ge "$DEADLINE" ]; then
        echo "cluster-smoke: restarted owner $OWNER not ready; log:" >&2
        cat "$WORK/xbard-$OWNER-restart.log" >&2
        exit 1
    fi
    sleep 0.1
done
sleep 1.2
curl -fsS -D "$WORK/hdr-restart.txt" -X POST -d "$BODY" \
    "$(url $SURVIVOR_IDX)/v1/blocking" >"$WORK/resp-restart.json"
SB="$(served_by "$WORK/hdr-restart.txt")"
if [ "$SB" != "$OWNER" ]; then
    echo "cluster-smoke: after the owner's restart, served by '$SB', want owner $OWNER" >&2
    exit 1
fi
BR="$(grep -o '"blocking":[0-9.eE+-]*' "$WORK/resp-restart.json" | head -1)"
if [ "$B0" != "$BR" ]; then
    echo "cluster-smoke: restarted owner's blocking $BR differs from $B0" >&2
    exit 1
fi
echo "cluster-smoke: survivor reconnected to the restarted owner $OWNER (bit-identical blocking)"

# Clean drain for every running node.
for i in 0 1 2; do
    kill -TERM "${PIDS[$i]}"
    wait "${PIDS[$i]}" || {
        echo "cluster-smoke: ${IDS[$i]} exited non-zero; log:" >&2
        cat "$WORK/xbard-${IDS[$i]}.log" >&2
        exit 1
    }
    log="$WORK/xbard-${IDS[$i]}.log"
    [ "$i" -eq "$OWNER_IDX" ] && log="$WORK/xbard-$OWNER-restart.log"
    grep -q "drained cleanly" "$log"
done
PIDS=()
echo "cluster-smoke: clean drain on all nodes, all checks passed"

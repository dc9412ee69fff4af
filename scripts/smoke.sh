#!/usr/bin/env bash
# End-to-end smoke test for the xbard daemon (`make smoke`, CI's smoke
# job): build it, start it, wait for readiness on /readyz (bounded by
# a deadline), hit /healthz, check /v1/blocking against the committed
# results/figure1.csv value to 1e-9, run scenario specs through
# /v1/scenario (a retrial and an overflow spec twice each, plus its 422
# contract), scrape /metrics, send requests that net/http serves in the
# serve loop's place (Expect, chunked, HTTP/1.0) and a probe and a solve
# on one connection, then SIGTERM and require a clean drain with exit
# code 0.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${XBARD_PORT:-8482}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "smoke: building xbard"
go build -o "$WORK/xbard" ./cmd/xbard

"$WORK/xbard" -addr "127.0.0.1:$PORT" -drain 10s 2>"$WORK/xbard.log" &
PID=$!
# A failed check exits early: stop the daemon too, or it outlives the
# script and holds its output open.
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

# Readiness gate: poll /readyz (not /healthz — a live node may not be
# ready yet) under a hard deadline.
READY_DEADLINE_S="${XBARD_READY_DEADLINE_S:-15}"
DEADLINE=$(( $(date +%s) + READY_DEADLINE_S ))
ok=
while [ "$(date +%s)" -lt "$DEADLINE" ]; do
    if curl -fsS "$BASE/readyz" >"$WORK/readyz.json" 2>/dev/null; then
        ok=1
        break
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "smoke: xbard exited before serving; log:" >&2
        cat "$WORK/xbard.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$ok" ]; then
    echo "smoke: xbard not ready on /readyz within ${READY_DEADLINE_S}s; log:" >&2
    cat "$WORK/xbard.log" >&2
    exit 1
fi
grep -q '"status":"ready"' "$WORK/readyz.json"
echo "smoke: /readyz ready"

curl -fsS "$BASE/healthz" >"$WORK/healthz.json"
grep -q '"status":"ok"' "$WORK/healthz.json"
echo "smoke: /healthz ok"

# Figure 1 operating point at N=16: single Bernoulli class, a=1,
# alpha~=.0024, mu=1. The served blocking must match the committed
# results/figure1.csv beta~=0 column to 1e-9.
GOLDEN="$(awk -F, '$1 == 16 { print $2; exit }' results/figure1.csv)"
curl -fsS -X POST -d '{"n1":16,"n2":16,"classes":[{"name":"smooth","a":1,"alpha":0.0024,"mu":1}]}' \
    "$BASE/v1/blocking" >"$WORK/blocking.json"
GOT="$(grep -o '"blocking":[0-9.eE+-]*' "$WORK/blocking.json" | head -1 | cut -d: -f2)"
awk -v got="$GOT" -v want="$GOLDEN" 'BEGIN {
    d = got - want; if (d < 0) d = -d
    printf "smoke: /v1/blocking = %s, results/figure1.csv = %s, |diff| = %.3g\n", got, want, d
    exit !(d <= 1e-9)
}'

# The asymptotic dispatch tier: a 4096-port switch no lattice fill
# could serve, answered from the saddle-point expansion. The answer
# must carry the tier and a positive error bound, and arrive fast —
# the tier is O(R), so 100ms wall clock (including curl) is generous.
START_NS="$(date +%s%N)"
curl -fsS -X POST -d '{"n1":4096,"n2":4096,"dispatch":"auto","classes":[{"name":"bulk","a":1,"alpha":1.12,"mu":1}]}' \
    "$BASE/v1/blocking" >"$WORK/asym.json"
ELAPSED_MS=$(( ($(date +%s%N) - START_NS) / 1000000 ))
grep -q '"tier":"asymptotic"' "$WORK/asym.json"
grep -qo '"error_bound":[0-9.eE+-]*' "$WORK/asym.json"
if [ "$ELAPSED_MS" -ge 100 ]; then
    echo "smoke: asymptotic /v1/blocking took ${ELAPSED_MS}ms, want < 100ms" >&2
    exit 1
fi
echo "smoke: asymptotic dispatch at 4096 ok (${ELAPSED_MS}ms)"

# The unified scenario endpoint: one analytic slotted spec and one
# analytic WDM spec through POST /v1/scenario (docs/SCENARIOS.md). The
# slotted repeat must come back from the result cache.
curl -fsS -X POST -d '{"discipline":"slotted","topology":{"n1":16,"n2":16},"params":{"load":0.8}}' \
    "$BASE/v1/scenario" >"$WORK/scenario1.json"
grep -q '"discipline":"slotted"' "$WORK/scenario1.json"
grep -q '"name":"throughput"' "$WORK/scenario1.json"
grep -q '"cached":false' "$WORK/scenario1.json"
curl -fsS -X POST -d '{"discipline":"slotted","topology":{"n1":16,"n2":16},"params":{"load":0.8}}' \
    "$BASE/v1/scenario" >"$WORK/scenario2.json"
grep -q '"cached":true' "$WORK/scenario2.json"
curl -fsS -X POST -d '{"discipline":"wdm","topology":{"l":3,"w":8},"params":{"rate":4,"cross_rate":1,"mu":1}}' \
    "$BASE/v1/scenario" >"$WORK/scenario3.json"
grep -q '"name":"conversion_gain"' "$WORK/scenario3.json"
# The product-form path: the retrial cleared anchor and the overflow
# Wilkinson fits each run a lattice solve. Each repeat must come back
# from the result cache with byte-identical measures.
RETRIAL='{"discipline":"retrial","topology":{"n1":16,"n2":16},"params":{"lambda":12,"mu":1,"retry_rate":3,"max_attempts":2},"sim":{"seed":17,"warmup":10,"horizon":150}}'
OVERFLOW='{"discipline":"overflow","topology":{"n1":6},"params":{"lambda":6,"mu":1,"secondary_n":16},"sim":{"seed":16,"warmup":2,"horizon":100}}'
# cached_twice NAME SPEC MEASURE posts SPEC twice: a miss that carries
# MEASURE, then a hit whose body differs only in its cached flag.
cached_twice() {
    curl -fsS -X POST -d "$2" "$BASE/v1/scenario" >"$WORK/$1-miss.json"
    grep -q '"cached":false' "$WORK/$1-miss.json"
    grep -q "\"name\":\"$3\"" "$WORK/$1-miss.json"
    curl -fsS -X POST -d "$2" "$BASE/v1/scenario" >"$WORK/$1-hit.json"
    grep -q '"cached":true' "$WORK/$1-hit.json"
    sed 's/"cached":false/"cached":true/' "$WORK/$1-miss.json" | cmp - "$WORK/$1-hit.json"
}
cached_twice retrial "$RETRIAL" cleared_blocking
cached_twice overflow "$OVERFLOW" bpp_secondary_blocking
# The error contract: an unknown discipline is a 422, never a 200.
CODE="$(curl -sS -o "$WORK/scenario4.json" -w '%{http_code}' -X POST -d '{"discipline":"quantum"}' "$BASE/v1/scenario")"
if [ "$CODE" != "422" ]; then
    echo "smoke: unknown discipline returned HTTP $CODE, want 422" >&2
    exit 1
fi
echo "smoke: /v1/scenario ok"

curl -fsS "$BASE/metrics" >"$WORK/metrics.json"
grep -q '"misses":1' "$WORK/metrics.json"
grep -q '"requests":2' "$WORK/metrics.json"
grep -q '"scenario_cache":{"hits":3,"misses":4' "$WORK/metrics.json"
echo "smoke: /metrics ok"

# Requests outside the serve loop's HTTP/1.1 subset are handed to
# net/http with their bytes replayed (docs/SERVER.md): each must get the
# same status and body as the plain request. The reference is a warm
# hit, so every answer below is one too.
BODY='{"n1":16,"n2":16,"classes":[{"name":"smooth","a":1,"alpha":0.0024,"mu":1}]}'
curl -fsS -X POST -d "$BODY" "$BASE/v1/blocking" >"$WORK/hit.json"
grep -q '"cached":true' "$WORK/hit.json"
curl -fsS -X POST -H 'Expect: 100-continue' -d "$BODY" "$BASE/v1/blocking" >"$WORK/expect.json"
cmp "$WORK/hit.json" "$WORK/expect.json"
curl -fsS -X POST -H 'Transfer-Encoding: chunked' -d "$BODY" "$BASE/v1/blocking" >"$WORK/chunked.json"
cmp "$WORK/hit.json" "$WORK/chunked.json"
curl -fsS --http1.0 -X POST -d "$BODY" "$BASE/v1/blocking" >"$WORK/http10.json"
cmp "$WORK/hit.json" "$WORK/http10.json"
curl -fsS --http1.0 "$BASE/readyz" >"$WORK/readyz10.json"
cmp "$WORK/readyz.json" "$WORK/readyz10.json"
# A readiness probe then a solve on one connection, as a load
# generator's pooled connection carries them.
curl -fsS -v "$BASE/readyz" -o "$WORK/reuse-readyz.json" \
    --next -X POST -d "$BODY" "$BASE/v1/blocking" -o "$WORK/reuse-hit.json" 2>"$WORK/reuse.log"
grep -qi 're-using existing connection' "$WORK/reuse.log"
cmp "$WORK/readyz.json" "$WORK/reuse-readyz.json"
cmp "$WORK/hit.json" "$WORK/reuse-hit.json"
echo "smoke: Expect, chunked, HTTP/1.0 and connection reuse ok"

kill -TERM "$PID"
rc=0
wait "$PID" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "smoke: xbard exited $rc after SIGTERM; log:" >&2
    cat "$WORK/xbard.log" >&2
    exit 1
fi
grep -q "drained cleanly" "$WORK/xbard.log"
echo "smoke: clean drain, exit 0"

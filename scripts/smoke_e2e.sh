#!/usr/bin/env bash
# smoke_e2e.sh — end-to-end smoke of the real-TCP deployment, two parts:
#
# Part 1 (legacy flags): a permanent store and a cache daemon (two
# processes), round-trip a put at the server and a read-your-writes get at
# the cache via globectl.
#
# Part 2 (name-server topology): globens + two manifest-driven multi-object
# daemons. globectl reaches every object purely through name resolution (no
# -store), the resolve subcommand prints the record, and a replica added at
# runtime through the control RPC becomes resolvable and serves reads.
#
# Part 3 (durability): a durable daemon (-data-dir, -fsync always) is
# SIGKILLed in the middle of a globectl append stream and restarted from
# disk; every append that was acknowledged before the kill must still be
# readable, and ctl stats must report the recovery.
#
# Part 4 (self-healing): a three-daemon tree (permanent ← mirror ← cache)
# behind a leasing name server. The mirror is SIGKILLed and never restarted:
# the cache must re-parent onto the permanent store (ctl stats ReparentsDone),
# the dead contact must drop out of resolution within one lease TTL, and
# writes through resolution must keep working against the healed tree.
#
# Part 5 (observability): a three-daemon tree with -metrics-addr on every
# daemon and a durable root. After a write stream, /metrics at the root must
# show non-empty WAL series, /metrics at the cache must show a non-empty
# propagation-lag histogram, and globectl's daemon-wide ctl metrics /
# ctl trace ops must return the same series and the write lifecycle.
#
# Every check greps captured output or a here-string, never a pipe: grep -q
# exits at its first match, the writer then dies of SIGPIPE, and under
# pipefail that fails a check that passed.
set -Eeuo pipefail
cd "$(dirname "$0")/.."

PORT_A="${PORT_A:-7401}"
PORT_B="${PORT_B:-7402}"
PORT_NS="${PORT_NS:-7410}"
PORT_C="${PORT_C:-7411}"
PORT_D="${PORT_D:-7412}"
PORT_D2="${PORT_D2:-7413}"
PORT_CTL="${PORT_CTL:-7414}"
OBJ=smoke-doc
BIN="$(mktemp -d)"
trap 'echo "smoke_e2e: FAIL: line $LINENO: $BASH_COMMAND" >&2' ERR
# Wait for the daemons before removing their binaries, so a re-run does not
# find their ports still bound.
trap 'kill $(jobs -p) 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$BIN"' EXIT

go build -o "$BIN/globed" ./cmd/globed
go build -o "$BIN/globectl" ./cmd/globectl
go build -o "$BIN/globens" ./cmd/globens

wait_port() {
    for _ in $(seq 1 50); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; then exec 3>&- || true; return 0; fi
        sleep 0.1
    done
    echo "smoke_e2e: port $1 never came up" >&2
    return 1
}

"$BIN/globed" -listen "127.0.0.1:$PORT_A" -object $OBJ -role permanent \
    -strategy conference -id 1 &
"$BIN/globed" -listen "127.0.0.1:$PORT_B" -object $OBJ -role cache \
    -parent "127.0.0.1:$PORT_A" -strategy conference -session ryw -id 2 &

# Wait for both daemons to accept connections.
wait_port "$PORT_A"
wait_port "$PORT_B"

WANT='<h1>smoke over TCP</h1>'
"$BIN/globectl" -store "127.0.0.1:$PORT_A" -object $OBJ -client 101 \
    put index.html "$WANT"

# The cache converges via the object's own replication protocol; a reader
# at the cache must see the page.
GOT=""
for _ in $(seq 1 50); do
    GOT="$("$BIN/globectl" -store "127.0.0.1:$PORT_B" -object $OBJ -client 102 \
        get index.html 2>/dev/null || true)"
    [ "$GOT" = "$WANT" ] && break
    sleep 0.1
done
if [ "$GOT" != "$WANT" ]; then
    echo "smoke_e2e: FAIL: cache read $(printf %q "$GOT"), want $(printf %q "$WANT")" >&2
    exit 1
fi

# Page listing works at the cache too.
PAGES="$("$BIN/globectl" -store "127.0.0.1:$PORT_B" -object $OBJ pages)"
grep -qx index.html <<<"$PAGES"

echo "smoke_e2e: part 1 OK (put at 127.0.0.1:$PORT_A, replicated get at 127.0.0.1:$PORT_B)"

# ---- Part 2: name-server topology --------------------------------------------
NS="127.0.0.1:$PORT_NS"
"$BIN/globens" -listen "$NS" &
wait_port "$PORT_NS"

# Daemon C: one permanent store publishing TWO objects (a document and a KV
# map) — the multi-object manifest form.
cat > "$BIN/manifest_c.json" <<EOF
{
  "nameserver": "$NS",
  "digest": "50ms",
  "stores": [
    {"listen": "127.0.0.1:$PORT_C", "role": "permanent", "objects": [
      {"object": "ns-doc", "publish": true, "semantics": "webdoc",
       "strategy": "conference", "session": "ryw"},
      {"object": "ns-kv", "publish": true, "semantics": "kv",
       "strategy": "forum"}
    ]}
  ]
}
EOF
"$BIN/globed" -manifest "$BIN/manifest_c.json" &
wait_port "$PORT_C"

# Daemon D: two stores — a cache replicating ns-doc purely from the record
# (no parent, no semantics, no strategy in the manifest), and a mirror left
# empty for the runtime control test. Store IDs are leased from globens.
cat > "$BIN/manifest_d.json" <<EOF
{
  "nameserver": "$NS",
  "control": "127.0.0.1:$PORT_CTL",
  "digest": "50ms",
  "stores": [
    {"name": "cacheD", "listen": "127.0.0.1:$PORT_D", "role": "cache", "objects": [
      {"object": "ns-doc", "session": "ryw"}
    ]},
    {"name": "mirrorD", "listen": "127.0.0.1:$PORT_D2", "role": "mirror", "objects": []}
  ]
}
EOF
"$BIN/globed" -manifest "$BIN/manifest_d.json" &
wait_port "$PORT_D"
wait_port "$PORT_CTL"

# Write and read through pure name resolution: no -store anywhere. The put
# resolves to the cache (lowest layer) and forwards up; the get must see it.
WANT2='<h1>resolved over the name service</h1>'
"$BIN/globectl" -nameserver "$NS" -object ns-doc -client 201 -session ryw \
    put welcome.html "$WANT2"
GOT2=""
for _ in $(seq 1 50); do
    GOT2="$("$BIN/globectl" -nameserver "$NS" -object ns-doc -client 202 \
        get welcome.html 2>/dev/null || true)"
    [ "$GOT2" = "$WANT2" ] && break
    sleep 0.1
done
if [ "$GOT2" != "$WANT2" ]; then
    echo "smoke_e2e: FAIL: resolved read $(printf %q "$GOT2"), want $(printf %q "$WANT2")" >&2
    exit 1
fi

# The KV object co-hosted by daemon C works through resolution too, with
# the record supplying its semantics for the bind-time type check.
"$BIN/globectl" -nameserver "$NS" -object ns-kv -semantics kv -client 203 put knuth 'TAOCP'
# No -client here: the ID is leased from globens (the globally-unique path).
KV="$("$BIN/globectl" -nameserver "$NS" -object ns-kv -semantics kv get knuth)"
grep -qx 'TAOCP' <<<"$KV"

# The resolve subcommand prints the record: both replicas of ns-doc and the
# published metadata.
RES="$("$BIN/globectl" -nameserver "$NS" -object ns-doc resolve)"
grep -q "semantics webdoc" <<<"$RES"
grep -q "127.0.0.1:$PORT_C" <<<"$RES"
grep -q "127.0.0.1:$PORT_D" <<<"$RES"

# Runtime replica: the control RPC hosts ns-kv on daemon D's empty mirror
# store; it must register itself and serve reads.
"$BIN/globectl" -ctl "127.0.0.1:$PORT_CTL" -object ns-kv -ctl-store mirrorD ctl host
for _ in $(seq 1 50); do
    RES="$("$BIN/globectl" -nameserver "$NS" -object ns-kv resolve 2>/dev/null || true)"
    if grep -q "127.0.0.1:$PORT_D2" <<<"$RES"; then break; fi
    sleep 0.1
done
grep -q "127.0.0.1:$PORT_D2" <<<"$RES"
GOTKV=""
for _ in $(seq 1 50); do
    GOTKV="$("$BIN/globectl" -store "127.0.0.1:$PORT_D2" -object ns-kv -semantics kv -client 205 \
        get knuth 2>/dev/null || true)"
    [ "$GOTKV" = "TAOCP" ] && break
    sleep 0.1
done
if [ "$GOTKV" != "TAOCP" ]; then
    echo "smoke_e2e: FAIL: runtime replica read $(printf %q "$GOTKV"), want TAOCP" >&2
    exit 1
fi

echo "smoke_e2e: part 2 OK (globens at $NS, multi-object daemons, runtime replica via control RPC)"

# ---- Part 3: durability — SIGKILL mid-append-stream, restart from disk -------
PORT_E="${PORT_E:-7415}"
PORT_ECTL="${PORT_ECTL:-7416}"
DATA="$BIN/data"
DUR=dur-doc

start_durable() {
    "$BIN/globed" -listen "127.0.0.1:$PORT_E" -control "127.0.0.1:$PORT_ECTL" \
        -object $DUR -role permanent -strategy conference -id 9 \
        -data-dir "$DATA" -fsync always &
    DUR_PID=$!
    wait_port "$PORT_E"
}
start_durable

# Warm-up: a synchronously acked prefix (every ack is fsynced before it is
# sent, so all of these must survive the kill).
for i in $(seq 1 10); do
    "$BIN/globectl" -store "127.0.0.1:$PORT_E" -object $DUR -client 301 \
        append log.html "L$i;" >/dev/null
done

# Mid-stream kill: a background writer keeps appending (same pinned client,
# so each invocation resumes the identity's write sequence from the bind
# reply) and records exactly which appends were acknowledged; the daemon is
# SIGKILLed under it.
: > "$BIN/acked.txt"
(
    for i in $(seq 11 200); do
        if "$BIN/globectl" -store "127.0.0.1:$PORT_E" -object $DUR -client 301 \
            append log.html "L$i;" >/dev/null 2>&1; then
            echo "$i" >> "$BIN/acked.txt"
        else
            exit 0 # daemon is gone — the stream ends mid-flight
        fi
    done
) &
WRITER=$!
sleep 0.7
kill -9 "$DUR_PID"
wait "$WRITER" 2>/dev/null || true

# Restart from disk alone and read the page back.
start_durable
GOT3=""
for _ in $(seq 1 50); do
    GOT3="$("$BIN/globectl" -store "127.0.0.1:$PORT_E" -object $DUR -client 302 \
        get log.html 2>/dev/null || true)"
    [ -n "$GOT3" ] && break
    sleep 0.1
done
for i in $(seq 1 10) $(cat "$BIN/acked.txt"); do
    if ! grep -q "L$i;" <<<"$GOT3"; then
        echo "smoke_e2e: FAIL: acked append L$i; lost across SIGKILL (content $(printf %q "$GOT3"))" >&2
        exit 1
    fi
done

# The control RPC reports the durable state and the replay that just ran.
STATS="$("$BIN/globectl" -ctl "127.0.0.1:$PORT_ECTL" -object $DUR ctl stats)"
grep -q '"durable": true' <<<"$STATS"
grep -Eq '"WALReplayed": [1-9]' <<<"$STATS"

N_ACKED=$(wc -l < "$BIN/acked.txt")
echo "smoke_e2e: part 3 OK (SIGKILL after $((10 + N_ACKED)) acked appends; all survived restart)"

# ---- Part 4: self-healing — SIGKILL the mirror, cache re-parents -------------
PORT_NS2="${PORT_NS2:-7420}"
PORT_P="${PORT_P:-7421}"
PORT_M="${PORT_M:-7422}"
PORT_K="${PORT_K:-7423}"
PORT_KCTL="${PORT_KCTL:-7424}"
NS2="127.0.0.1:$PORT_NS2"
HEAL=heal-doc
TTL=2s

"$BIN/globens" -listen "$NS2" -lease-ttl "$TTL" &
wait_port "$PORT_NS2"

# The tree: permanent publishes; the mirror replicates from the record; the
# cache is explicitly parented UNDER the mirror so the kill orphans it. All
# three heartbeat their contact leases; only the cache re-parents.
"$BIN/globed" -listen "127.0.0.1:$PORT_P" -nameserver "$NS2" -object $HEAL \
    -role permanent -strategy conference -session ryw -digest 100ms -lease-renew 500ms &
wait_port "$PORT_P"
"$BIN/globed" -listen "127.0.0.1:$PORT_M" -nameserver "$NS2" -object $HEAL \
    -role mirror -session ryw -digest 100ms -lease-renew 500ms &
MIR_PID=$!
wait_port "$PORT_M"
"$BIN/globed" -listen "127.0.0.1:$PORT_K" -control "127.0.0.1:$PORT_KCTL" \
    -nameserver "$NS2" -object $HEAL -role cache -parent "127.0.0.1:$PORT_M" \
    -strategy conference -session ryw -digest 100ms -reparent-after 3 -lease-renew 500ms &
wait_port "$PORT_K"
wait_port "$PORT_KCTL"

# Sanity before the kill: a put through resolution replicates down the tree.
WANT4='<h1>before the kill</h1>'
"$BIN/globectl" -nameserver "$NS2" -object $HEAL -client 401 -session ryw \
    put index.html "$WANT4"
GOT4=""
for _ in $(seq 1 50); do
    GOT4="$("$BIN/globectl" -store "127.0.0.1:$PORT_K" -object $HEAL -client 402 \
        get index.html 2>/dev/null || true)"
    [ "$GOT4" = "$WANT4" ] && break
    sleep 0.1
done
if [ "$GOT4" != "$WANT4" ]; then
    echo "smoke_e2e: FAIL: pre-kill cache read $(printf %q "$GOT4"), want $(printf %q "$WANT4")" >&2
    exit 1
fi

kill -9 "$MIR_PID"

# The orphaned cache must notice the silence and re-parent (3 missed 100ms
# digests, then the re-subscribe handshake at the permanent store).
REPARENTED=0
for _ in $(seq 1 100); do
    KSTATS="$("$BIN/globectl" -ctl "127.0.0.1:$PORT_KCTL" -object $HEAL ctl stats 2>/dev/null || true)"
    if grep -Eq '"ReparentsDone": [1-9]' <<<"$KSTATS"; then
        REPARENTED=1; break
    fi
    sleep 0.1
done
if [ "$REPARENTED" != 1 ]; then
    echo "smoke_e2e: FAIL: cache never re-parented after the mirror SIGKILL" >&2
    exit 1
fi

# The dead mirror must expire out of resolution within one lease TTL (plus
# sweep jitter): poll for twice the TTL, then assert it is gone. A record
# is only trusted when it still lists the (live) permanent store — an empty
# or failed resolve must not read as "expired".
GONE=0
for _ in $(seq 1 40); do
    REC="$("$BIN/globectl" -nameserver "$NS2" -object $HEAL resolve 2>/dev/null || true)"
    if grep -q "127.0.0.1:$PORT_P" <<<"$REC" \
        && ! grep -q "127.0.0.1:$PORT_M" <<<"$REC"; then
        GONE=1; break
    fi
    sleep 0.1
done
if [ "$GONE" != 1 ]; then
    echo "smoke_e2e: FAIL: dead mirror still resolvable after 2x lease TTL" >&2
    "$BIN/globectl" -nameserver "$NS2" -object $HEAL resolve >&2 || true
    exit 1
fi

# The healed tree keeps serving: a fresh put through resolution (which now
# picks the cache, forwarding up its NEW parent) must be readable everywhere.
# Same client identity — the conference strategy is single-writer.
WANT5='<h1>after the heal</h1>'
"$BIN/globectl" -nameserver "$NS2" -object $HEAL -client 401 -session ryw \
    put healed.html "$WANT5"
GOT5=""
for _ in $(seq 1 50); do
    GOT5="$("$BIN/globectl" -store "127.0.0.1:$PORT_P" -object $HEAL -client 404 \
        get healed.html 2>/dev/null || true)"
    [ "$GOT5" = "$WANT5" ] && break
    sleep 0.1
done
if [ "$GOT5" != "$WANT5" ]; then
    echo "smoke_e2e: FAIL: post-heal read at the permanent store $(printf %q "$GOT5"), want $(printf %q "$WANT5")" >&2
    exit 1
fi

# The daemon's naming counters prove the lease heartbeat actually ran.
KSTATS="$("$BIN/globectl" -ctl "127.0.0.1:$PORT_KCTL" -object $HEAL ctl stats)"
grep -Eq '"lease_renewals_sent": [1-9]' <<<"$KSTATS"

echo "smoke_e2e: part 4 OK (mirror SIGKILLed; cache re-parented, lease expired, writes kept flowing)"

# ---- Part 5: observability — /metrics, propagation lag, ctl metrics/trace ----
PORT_R="${PORT_R:-7430}"
PORT_RM="${PORT_RM:-7431}"
PORT_S="${PORT_S:-7432}"
PORT_T="${PORT_T:-7433}"
PORT_TM="${PORT_TM:-7434}"
PORT_TCTL="${PORT_TCTL:-7435}"
DATA2="$BIN/data_obs"
OBS=obs-doc

# The root is durable (so the WAL series have samples) and scrapable; the
# cache is scrapable, traced, and carries a control port for the daemon-wide
# ops. The mirror in the middle just relays.
"$BIN/globed" -listen "127.0.0.1:$PORT_R" -object $OBS -role permanent \
    -strategy conference -session ryw -id 21 -digest 100ms \
    -data-dir "$DATA2" -fsync always -metrics-addr "127.0.0.1:$PORT_RM" &
wait_port "$PORT_R"
"$BIN/globed" -listen "127.0.0.1:$PORT_S" -object $OBS -role mirror \
    -parent "127.0.0.1:$PORT_R" -strategy conference -session ryw -id 22 -digest 100ms &
wait_port "$PORT_S"
"$BIN/globed" -listen "127.0.0.1:$PORT_T" -control "127.0.0.1:$PORT_TCTL" \
    -object $OBS -role cache -parent "127.0.0.1:$PORT_S" \
    -strategy conference -session ryw -id 23 -digest 100ms \
    -metrics-addr "127.0.0.1:$PORT_TM" -trace-events 256 &
wait_port "$PORT_T"
wait_port "$PORT_TCTL"

for i in $(seq 1 15); do
    "$BIN/globectl" -store "127.0.0.1:$PORT_R" -object $OBS -client 501 \
        append feed.html "F$i;" >/dev/null
done
# Wait until the write stream has propagated down to the cache…
GOT6=""
for _ in $(seq 1 50); do
    GOT6="$("$BIN/globectl" -store "127.0.0.1:$PORT_T" -object $OBS -client 502 \
        get feed.html 2>/dev/null || true)"
    grep -q "F15;" <<<"$GOT6" && break
    sleep 0.1
done
if ! grep -q "F15;" <<<"$GOT6"; then
    echo "smoke_e2e: FAIL: cache never converged for the metrics scrape" >&2
    exit 1
fi

# …then the scrapes are deterministic. Root: WAL series must be non-empty
# (15 appends, each behind an fsync barrier).
ROOT_METRICS="$(curl -sf "http://127.0.0.1:$PORT_RM/metrics")"
grep -Eq '^globe_wal_appends_total\{[^}]*\} [1-9]' <<<"$ROOT_METRICS"
grep -Eq '^globe_wal_sync_seconds_count\{[^}]*\} [1-9]' <<<"$ROOT_METRICS"
grep -q '^globe_propagation_lag_seconds_bucket' <<<"$ROOT_METRICS"

# Cache: the per-replica propagation-lag histogram must have recorded every
# applied update, and the transport counters must show real TCP traffic.
CACHE_METRICS="$(curl -sf "http://127.0.0.1:$PORT_TM/metrics")"
grep -Eq '^globe_propagation_lag_seconds_count\{[^}]*object="obs-doc"[^}]*\} [1-9]' <<<"$CACHE_METRICS"
grep -Eq '^globe_transport_frames_recv_total\{[^}]*fabric="tcpnet"[^}]*\} [1-9]' <<<"$CACHE_METRICS"

# The daemon-wide control ops return the same registry and the lifecycle
# trace (no -object needed).
CTL_METRICS="$("$BIN/globectl" -ctl "127.0.0.1:$PORT_TCTL" ctl metrics)"
grep -q '"globe_propagation_lag_seconds"' <<<"$CTL_METRICS"
TRACE="$("$BIN/globectl" -ctl "127.0.0.1:$PORT_TCTL" ctl trace)"
grep -q 'update_applied' <<<"$TRACE"

echo "smoke_e2e: part 5 OK (non-empty WAL and propagation-lag series over /metrics; ctl metrics/trace)"

echo "smoke_e2e: OK (legacy pair + name-server topology + SIGKILL durability + self-healing tree + observability)"

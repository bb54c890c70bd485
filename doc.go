// Package repro is a from-scratch Go reproduction of "A Framework for
// Consistent, Replicated Web Objects" (Kermarrec, Kuz, van Steen,
// Tanenbaum; ICDCS 1998) — the Globe project's per-document pluggable
// replication and coherence architecture for the Web.
//
// The public API lives in package webobj; the framework internals are under
// internal/ (coherence models, Table 1 strategies, replication objects,
// store hierarchy, transports, semantics objects, naming, and the
// networked name service nameserv); cmd/ holds the store daemon (globed),
// client (globectl), name server (globens), and experiment runner
// (globebench); examples/ holds five runnable scenarios. bench_test.go in
// this package regenerates every figure and table of the paper as Go
// benchmarks. See README.md.
//
// # One surface from simulation to real TCP
//
// A webobj.System deploys over a pluggable network fabric
// (transport.Fabric): memnet — the in-process simulated network — and
// tcpnet — real TCP — implement the same interface, so identical
// deployment code runs as a single-process simulation or as a
// multi-process production system. Stores in other processes join by
// address (System.AttachServer / AttachObject), which is how the globed
// cache daemon replicates from a permanent-store daemon. Objects carry a
// semantics type (webdoc, kvstore, applog) selected at Publish and checked
// at bind time; clients access them through typed handles (Document, Map,
// Log) sharing one binding core.
//
// # The naming/location subsystem
//
// The paper's binding model (§2) requires a system-wide location service:
// "in order for a process to invoke an object's method, it must first bind
// to that object by contacting it at one of the object's contact points".
// webobj resolves every bind, replica installation, and identifier
// allocation through a Resolver seam. The default is the in-process
// naming.Service (simulations, single-process deployments); the networked
// implementation is internal/nameserv, reached with
// webobj.WithNameServer(addrs...) and served by cmd/globens or an embedded
// webobj.NewNameServer.
//
// A name record carries the object's contact points (addr, store ID, store
// layer) AND its metadata — semantics type name, full replication strategy
// (strategy.Marshal text), and session-model set — so a process binds and
// replicates objects it was never configured for: Replicate fetches the
// record when the object is unknown locally, the typed Open calls
// type-check against the record's semantics before dialling (the wire Sem
// field at the store remains the authority), and AttachObject's manual
// sem/strat mirroring becomes an override rather than a requirement.
// Records are cached client-side with a TTL; a bind that fails at a
// resolved contact point invalidates, re-resolves, and retries once at the
// next replica.
//
// The directory is itself a Web object, and internal/nameserv is its naming
// front end. Every name server holds one replica of it: a
// replication.Object under the mirrored-site strategy (§3.1's leaderless
// mirrors, eventual model) over an unmodified kvstore, gossiping with the
// configured peers. Each edit — a registration, deregistration, expiry,
// renewal, floor report or lease-cursor step — is an ordinary write on the
// server's own client identity, so peers converge by per-key
// last-writer-wins, a deletion's stamp keeps a removed contact point
// removed, and a gossip the retained log cannot answer gets the whole
// object, as a demand does. That whole state carries each key's winning
// stamp, and the receiver merges it key by key under last-writer-wins, so
// servers split for longer than the log reaches lose no edit. Keys: e/<object>/<addr> (an entry),
// m/<object> (metadata), l/<origin>/<kind> (a lease cursor, written only by
// its origin) and f/<client>/<origin> (a floor as reported at one server;
// the floor is the max over origins, since last-writer-wins on one shared
// key could let an older, larger report lose). Identifier allocation is
// leased: daemons draw client/store ID ranges (NextClient/NextStore)
// striped across the peer group, so identities are globally unique with no
// coordination on the allocation path. A restarting peer answers
// StatusRetry (clients fail over and retry) until a peer's gossip shows
// nothing it lacks or a grace period elapses, so it recovers its lease
// cursors before allocating, and its writes continue above its old stream.
// The per-client write-sequence floor is reported when a pinned-identity
// session closes; binds seed the session's write counter from max(bound
// store's applied vector, floor), closing the covered-write-ID reissue a
// reused identity hit when binding a lagging replica.
//
// Daemons are multi-object: globed loads a manifest (stores × objects) or
// accepts the control RPC (KindCtrlRequest served by System.ServeControl,
// driven by globectl's ctl subcommands or webobj.NewControl) to host and
// drop replicas at runtime. A dropped replica unsubscribes from its parent
// (KindUnsubscribe) and deregisters its contact point.
//
// # Wire format
//
// Messages travel as version-prefixed binary frames (internal/msg). Wire
// version 5 (this revision) added the name-service kinds — KindNameRegister,
// KindNameDeregister, KindNameResolve, KindNameLease, KindNameReply, and two
// directory-sync kinds since retired (their numbers stay unassigned, and a
// frame carrying one fails to decode; the register and resolve items in
// their payloads lost their 20-byte stamp at the same time, and an item
// that names no object, or an entry no address, fails to decode, so an
// older payload is refused, not registered) — and the daemon-control kinds
// (KindCtrlRequest/KindCtrlReply). Version 4 added the KindDigest kind —
// the anti-entropy heartbeat frame, carrying a store's applied vector in
// VVec (see the anti-entropy section below). Version 3 appended the Sem
// field — the
// semantics type name a bind request declares so stores can reject
// mismatched typed handles at bind time. Version 2 made three changes over
// version 1:
//
//   - A new frame kind, KindUpdateBatch, carries N aggregated operation
//     updates in one frame. Lazy flushes, demand replays, and gossip deltas
//     use it; the receiver fans each entry through the same ordering path a
//     standalone KindUpdate takes. A trailing batch section (u16 count +
//     entries) was appended to the frame layout for this.
//   - Encoding is exact-size and poolable: wireSize computes the frame
//     length up front, Encode allocates once, and EncodePooled/Release give
//     transports a zero-allocation steady state. Multicast on both memnet
//     and tcpnet encodes a frame exactly once per fan-out.
//   - DecodeAlias offers a zero-copy decode that aliases the frame for
//     Args/Payload — and, via unsafe.String over the immutable frame, for
//     every string field, so a small-vector frame decodes with a single
//     allocation (the Message itself). Receivers treat Args/Payload as
//     immutable; code that retains a decoded string for the lifetime of a
//     replica (e.g. subscriber addresses) clones it.
//
// A received frame is leased, not allocated. memnet encodes each frame into
// a pooled, reference-counted msg.WireBuf, and both transports decode into a
// pooled Message (msg.DecodeLeased) that aliases the frame: memnet's buffer,
// one reference per delivery (a multicast's receivers and a duplicated
// delivery share it), or tcpnet's pooled receive chunk (msg.LeaseChunk), one
// reference per frame carved from it and one for the reader filling it. The consumer calls Release when done: replication.Object.Handle
// once it has answered (in the request's own struct) or, for a parked
// request, when it leaves the queue; the store loop for what it answers
// itself; the client proxy once the typed handle has decoded the reply
// (core.Proxy.Call). The buffer returns with its last reference. A consumer
// that never releases — the name and control servers, tests — leaves both to
// the collector, so releasing is opt-in and only the code that clones what it
// keeps takes part. aliasretain flags a use after Release, and the
// leasecheck build tag poisons released messages and frames instead of
// reusing them; CI runs the chaos harness and the lease tests under it.
// Message.Deps is a *Vec, nil when empty, which keeps the struct at 464 bytes
// (TestMessageSize).
//
// Version-1 frames are rejected with ErrBadVersion. Both ends of every
// deployment ship from this tree, so no cross-version compatibility shim is
// kept; bump wireVersion again on any layout change.
//
// msg.Vec is the one version vector, in frames and out of them: a frame's
// VVec and Deps (and each batch entry's Deps; a Deps is nil when empty), an
// engine's applied vector, a session's read vector, a replica's fetch, page
// and forwarded vectors, a WAL snapshot's vector, and the vector
// Store.Applied and the stats control reply report. Up to VecInline entries
// live in a sorted inline array, so a vector moves and decodes without
// allocating; larger vectors spill to a map. A copy of a spilled vector
// shares that map, so whoever keeps a vector it goes on changing hands out
// Clone()s. A write's coherence.Update holds Deps as a *msg.Vec, nil when
// the write has none.
// The wire layout is unchanged: Vec is an in-memory representation.
//
// # Transport concurrency model
//
// Both transports are built so that N concurrent senders share no exclusive
// lock on the steady-state path.
//
// memnet (simulated network): topology — the endpoint table, link profiles,
// and partitions — sits behind a read-write mutex that sends only
// read-lock. Randomness for loss/jitter/duplication comes from per-endpoint
// RNGs, each seeded deterministically from the network seed and the
// endpoint address, so runs stay reproducible without a shared RNG lock.
// Scheduled deliveries are sharded: each destination endpoint is pinned
// (by address hash) to one of numShards delivery heaps with its own mutex
// and FIFO tiebreak sequence, so senders contend only when targeting the
// same shard. A single scheduler goroutine (the clock driver) sleeps until
// the earliest delivery across shards is due, then drains every due
// delivery; (time, seq) order within a shard preserves FIFO per
// destination, and cross-destination ordering is — as on a real network —
// unspecified. A frame with no delay to wait out never meets the schedule:
// its sender decodes it and places it in the destination inbox before Send
// returns, unless the inbox is full or an earlier frame for that
// destination is still scheduled (per sender-destination FIFO holds across
// both paths). A request over an instant link therefore wakes one
// goroutine per hop, the receiver's.
//
// tcpnet (real TCP): each cached outbound connection carries its own write
// locks, so an endpoint with K peer connections admits K concurrent
// writers. A frame's 4-byte length header and body travel as one gathered
// write (net.Buffers → writev), one syscall per frame instead of two.
// Concurrent writers to the same connection group-commit: every writer
// appends its header+body to the connection's open batch, the first to
// acquire the write lock flushes the whole batch with a single writev, and
// the rest inherit the flush result — back-to-back frames share syscalls
// without a background flusher goroutine, and writeFrame still returns only
// after the caller's bytes are on the socket.
//
// The inbound path mirrors this: each connection's reader fills a pooled
// 64 KiB receive chunk with one read of whatever the socket has ready, and
// hands every whole frame in it to msg.DecodeLeased without copying. The
// reader never rewrites bytes a frame was carved from: when the next frame
// does not fit, it copies the part already read into a fresh chunk and drops
// its reference to the old one, which goes back to the pool with the last
// Release of a message carved from it. A frame sent, received and released
// allocates nothing in steady state (TestTCPFrameRoundTripAllocs). Frames
// larger than a chunk get a dedicated buffer. Because a received address
// aliases its chunk, the outbound connection cache keys a copy of it.
//
// Inbound frames are budgeted per peer: a connection announcing a frame
// larger than the endpoint's budget (tcpnet.ListenLimit /
// webobj.WithMaxInboundFrame / globed -max-frame; absolute cap 16 MiB) is
// dropped once its 4-byte header is read, before any allocation sized by the
// announcement — the non-loopback hardening ROADMAP called for. A buffered
// read may already have pulled some of the body into the pooled chunk.
//
// # Relay re-batching invariant
//
// Aggregated KindUpdateBatch frames survive the full root→leaf path: when a
// mid-hierarchy store fans a batch arrival into its ordering engine, every
// update the batch releases — including previously buffered updates it
// unblocks — is collected and relayed to that store's children as one
// KindUpdateBatch frame (one coherence transfer per hop), never as one
// frame per released update. Demands are retried after a bounded delay
// while a gap persists, so a lost batch frame on a quiet object re-requests
// instead of stranding until the next arrival.
//
// # The client-outdate reaction, and what answers a demand
//
// A read whose session requirement the replica does not cover parks, and
// under "demand" (§3.2.2, §4) the replica asks its parent at once — except
// for writes this replica itself forwarded upstream under immediate push
// (Initiative Push, Instant Immediate, updates not invalidations,
// subscription acknowledged). Their update is already on its way down — the
// writer's ack is one hop, the push two, so the writer's next read usually
// arrives first — and the read just waits for it, with the demand kept as
// the DemandRetry fallback for a lost forward or push: if the read is still
// unserved when the timer fires it is demanded then, whatever else the parent
// sent meanwhile (no timer, no wait: with DemandRetry disabled the read
// demands at once). Lazy push, pull, invalidation and a requirement naming a
// write that went up some other way demand immediately, as the paper has it.
//
// A demand is answered from the retained update log — the last 4096 applied
// updates and a per-client index of what it still holds: O(writers) to
// judge, O(updates missing) to replay, whatever the log's length — or with
// full state when the requester predates it. replication.updateLog's
// comment is the retention contract.
//
// # Anti-entropy: digest heartbeats
//
// The paper's UDP configuration (§4.2) recovers lost updates through the
// coherence model: a later arrival exposes the per-client sequence gap and
// the store demands the missing writes. That leaves one window open —
// silent tail loss. If every remaining push for an object is dropped (the
// last flush of a burst, or a partition swallowing everything), no later
// arrival exists, and a replica that nobody reads stays stale indefinitely.
//
// Digest heartbeats close that window. When enabled
// (replication.Tuning.DigestInterval: webobj.WithDigestInterval, globed
// -digest), every store periodically multicasts its subscribed children one
// KindDigest frame per hosted object carrying its applied version vector —
// a few dozen bytes. A child whose own applied vector does not cover the
// digest has provably missed updates and requests them through the
// existing demand path; a digest arriving while a demand is already
// outstanding is ignored, so heartbeats and the demand-retry timer never
// issue duplicate requests for one gap. A replica behind a healed
// partition therefore converges within about one heartbeat (worst case
// 1.25 intervals: the period is jittered by up to a quarter interval so
// store fleets do not tick in lockstep) with zero foreground traffic.
//
// Heartbeats are off by default: a digest only ever helps liveness, so
// lossless deployments and benchmarks pay nothing. The digest snapshot is
// cached on the store's event loop and invalidated by applies and state
// transfers, so an idle heartbeat re-sends cached bytes rather than
// re-materialising the applied vector.
//
// Subscription is reliable too: the bootstrap KindSubscribeAck doubles as
// the subscribe's acknowledgement; until it arrives the child re-sends on
// a bounded timer (demandRetry cadence), and a digest heard from the
// parent while still unacked triggers an immediate re-subscribe — a lossy
// link can no longer strand a replica outside the children set. Snapshot
// installs (subscribe acks, state replies, full-state updates) discard
// stale payloads and re-apply the update log's tail beyond the snapshot's
// vector, so a reordered or retried snapshot can never roll locally
// applied content back.
//
// The guarantee is proven, not assumed: internal/chaos is a fault-schedule
// convergence harness that runs seeded randomized workloads over a lossy,
// duplicating, partitioned memnet, heals, and asserts every replica
// converges (byte-identical under the sequential model, identical token
// sets under PRAM) and that no session guarantee — RYW, MR, MW, WFR — was
// violated at any point any client observed. The harness is the scenario
// backbone for future fault work; internal/store's digest tests pin the
// acceptance bound (convergence within 2× DigestInterval on memnet and
// tcpnet, demonstrable stall with heartbeats off), and tcpnet gained
// Pause/Resume/AbortConns fault hooks plus a one-shot redial retry so the
// first frame after a reconnect is not burned on a stale connection.
//
// # Durable stores: WAL, snapshot compaction, crash recovery
//
// A permanent store given a data directory (store Config.DataDir;
// webobj.WithDataDir + WithDurability; globed -data-dir/-fsync) makes every
// hosted object durable. The write-ahead log (internal/wal) IS the stamped
// update log: before a write is acknowledged, its stamped update record is
// appended, then its admission-watermark record — strictly in that order.
// The order is load-bearing: a crash between the two leaves an update whose
// admission is re-derived on replay (every durable update implies its own
// admission), whereas the reverse order could ack a retry whose content was
// lost and permanently stall that client's stream under the ordered models.
// Every record is CRC-framed; recovery truncates the log at the first torn
// record (counted in Stats.WALTornTail) rather than refusing to start.
// Each SnapshotEvery records the log is compacted: full semantics state,
// applied vector, admission watermarks, next global sequence, and the
// children set are written to a temp file, fsynced, renamed over the old
// snapshot, and the WAL truncated — crash-safe at every step because
// replaying an already-snapshotted tail is absorbed by engine dedup.
//
// Restart replays snapshot + WAL, then runs recover-then-serve: if the log
// recorded subscribed children, the store demands their update tails and
// answers binds, reads, and writes with StatusRetry until every child
// answers or RecoveryGrace expires — closing the fsync-policy loss window
// from whichever replicas outlived the crash before accepting new work.
// The fsync policy (off / interval / always) trades ack latency against
// the crash-loss window; only "always" makes kill -9 lossless for
// acknowledged writes, and at-most-once admission plus the replicated
// write-sequence floor keep reused client identities exact across the
// restart. The whole cycle is proven over real TCP by the kill -9 chaos
// harness (internal/chaos RunCrash: crash the durable store mid-stream,
// restart from disk on the same address, assert zero acked-write loss,
// convergence, all four session guarantees, and the reused-identity
// floor) and by scripts/smoke_e2e.sh part 3 at the daemon level; the
// control RPC ("globectl ctl stats") exposes WAL size, snapshot vector,
// recovery state, and replay counters at runtime.
//
// # Self-healing: contact leases, re-parenting, client failover
//
// Crash recovery handles the store that comes back; three mechanisms, one
// per layer, handle the one that never does.
//
// At the naming layer, registrations become renewable leases when the name
// server runs with a TTL (nameserv Config.LeaseTTL; globens -lease-ttl).
// Daemons heartbeat their contact points (webobj.WithLeaseRenewal; globed
// -lease-renew, at most a third of the TTL) through a sub-operation of the
// KindNameLease frame; a silent entry is expired into the same tombstone a
// deregistration produces and replicates to naming peers through the
// ordinary two-part-stamp anti-entropy, so a dead contact point drops out
// of resolution everywhere within one lease period. A renewal answering
// zero entries tells the daemon its record lapsed while it was silent (GC
// pause, partition); the System replays its registrations automatically.
//
// At the replica layer, a store whose parent falls permanently silent
// re-parents (replication Config.ResolveParent + ReparentAfter;
// webobj.WithReparenting; globed -reparent-after). The digest heartbeat
// doubles as the parent failure detector: a replica that sees
// ReparentAfter consecutive silent watch periods (1.5x the digest
// interval each) — or exhausts its subscribe retries — re-resolves the
// object through the Resolver seam, picks a live candidate at a strictly
// closer-to-the-root layer (which makes adoption cycle-free by
// construction), runs the ordinary subscribe handshake there, and lets
// the existing snapshot-install + demand path anti-entropy the gap.
// Completed repairs and missed watch periods surface as
// Stats.ReparentsDone and Stats.ParentMissedDigests via the control RPC.
//
// At the binding layer, typed-handle invocations and Open retry with
// jittered exponential backoff (webobj.WithFailover) bounded by attempts
// and a deadline: StatusRetry answers (a recovering store) retry in
// place, transport errors and vanished replicas trigger invalidate,
// re-resolve, and rebind at the next live contact point, and application
// errors never retry. Handles pinned with At() retry in place but never
// migrate. The composed behaviour is proven by the mirror-kill chaos
// schedule (internal/chaos RunReparent: kill the mirror permanently
// mid-stream, assert its cache child re-parents onto the permanent store,
// zero acked-write loss, convergence, all four session guarantees, and a
// negative control that demonstrably stalls with re-parenting off) and by
// scripts/smoke_e2e.sh part 4 over real TCP processes.
//
// # The replication object: five jobs, one place each
//
// internal/replication is Figure 1's replication sub-object, one per replica,
// a deterministic state machine on its store's event loop. It does five
// jobs and each protocol decision lives in exactly one function, so a rule
// cannot hold on one path and be missing on its copy (the two consistency
// bugs the chaos suite and the benchmark found were both a missing copy):
//
//   - read / park (read.go): serveRead answers a read from local semantics or
//     parks it — for its session requirement vector, or for state when the
//     page is not current or missing — and park holds every waiting request,
//     a child's held state request included, under one ReadTimeout deadline.
//     A page is current when K(page), the replica's applied vector merged
//     with the vector of the last transfer of that page, covers the writes
//     its invalid marks name; each invalidation or notification merges its
//     write into the mark, and nothing else ever touches it.
//   - admit / forward (write.go): admit is at-most-once admission (stamp a
//     client's write once, witness a forwarded stamp); forward passes a write
//     one hop towards the permanent store.
//   - disseminate (disseminate.go): applied updates go to children at once,
//     lazily aggregated, or re-batched hop by hop, as operations, snapshots,
//     invalidations or notifications; relayDown passes a parent's frame on.
//   - install / serve (transfer.go): install is the only place another
//     replica's state replaces content here, and takes a transfer only when
//     K(page) does not already cover its vector; serveState is the only place
//     state leaves, hands out a page only while it is current (holding the
//     request behind this replica's own fetch otherwise), and stamps a page
//     reply with K(page). Stale guard and marks ask the same question of the
//     same vector (knows), so a late transfer can neither roll a page back
//     nor pass for a write it predates.
//   - subscribe / reparent (subscribe.go, reparent.go, digest.go): the
//     retried subscribe handshake, digest heartbeats, and adoption of a new
//     parent when the old one goes silent.
//
// Every outgoing frame starts from one constructor (frame), every timer is
// one oneShot value that Close stops in a loop, and the retained update log
// is one type (updateLog, updatelog.go) — the only code that walks it.
//
// A hop allocates only the bytes it ships. frame returns a value built on
// the handler's stack. A reply (a read reply, a refusal, a write or demand
// ack, a state reply, a gossip reply) is written into the request it answers
// (answer): Handle owns its message, and every transport hands each frame
// over as a struct of its own. Every other frame leaves from one envelope per
// replica (send, multicast), which the Env encodes before returning and does
// not retain. A write ack parked for a group commit is kept by value with its
// own copy of the address, so it pins nothing of the request's frame. A read
// result is shared: webdoc encodes each page version once, on the first
// GetPage or SnapshotElement after a write, and every later read returns that
// slice until the next write; the transport copies it into the reply frame.
// At the client, DecodePage makes two allocations: the page, which holds a
// short content type as well, and the content. A received update is one
// allocation: newUpdate copies its page name and arguments into one block
// (cloneInv) and takes its struct from a per-replica slab of 32. A page
// transfer allocates only the page the receiver keeps. An invalidation, a
// state request and a state reply name one page, and a decoded message keeps
// that name in a slot of its own, so it costs no list; a frame the replica
// builds lists its pages in a per-replica scratch list that send and
// multicast clear. The install copies the page's encoding once and rewrites
// the page's record in place; a parked request's entry is reused once it
// leaves the queue. A frame's names alias the frame, and the rule for them is:
// copy a name only where a map first keeps it, and never assign an aliased
// name to a key that exists, since Go's map assignment then makes the key
// alias the frame. pageVec, the invalid marks and webdoc's pages clone on
// insertion only. With the parked read's expiry timer and the client's
// DecodePage, an invalidated page's Put and Get cost 8 allocations
// (webobj's TestAllocationBudgets). BenchmarkMicro_ServeRead pins a 4 KiB
// read at a replica at 0 allocations.
//
// Its knobs are one struct, replication.Tuning (ReadTimeout, DemandRetry,
// DigestInterval, ReparentAfter, Durability), whose withDefaults is the only
// place a default is spelled; webobj.System fills one from its options and
// hands it by value to store.Config, which hands it to every replica's
// replication.Config. The README's Tuning table maps each field to its
// option, flag and manifest key.
//
// # Observability
//
// Each protocol event is counted by one statement into one field of
// replication.Stats. ctl stats prints that struct; with webobj.WithMetrics
// every Stats field is also a {store, object} series in the internal/obs
// registry — named by the field's obs tag, globe_*_total for counters — that
// reads the same word at scrape time, so the two cannot disagree, and a
// replica dropped and hosted again takes its series with it. Beside the
// counters there are three histograms (globe_propagation_lag_seconds,
// globe_wal_sync_seconds, globe_wal_group_commit_size) and an optional trace
// ring of write-lifecycle events (webobj.WithTrace); both cost a nil check
// when off.
//
// # Invariants and static analysis
//
// The protocol rests on invariants that no test exercises directly:
// zero-copy decoded fields must be cloned before outliving their handler
// (PR 1/3's alias contract), replication handlers must never block the
// store's single event-loop goroutine, every wire kind must appear in
// encode, decode, size accounting, and dispatch in lockstep (PR 1's
// exact-size codec), deterministic packages must draw time from the
// injected clock seam (PRs 2-6's simulation and fault harnesses), and a
// WAL admission record must never precede its update record (PR 6's
// crash-ordering rule). internal/lint holds five analyzers — aliasretain,
// looponly, wiresym, clockdet, walorder — that enforce these mechanically;
// cmd/globelint drives them (CI-blocking, `make lint` locally, -fix for
// the mechanical rewrites), and each analyzer's package doc states its
// invariant, its directive grammar, and the PR that introduced the rule.
package repro

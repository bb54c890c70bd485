package replication

import (
	"cmp"
	"errors"
	"slices"
	"strconv"
	"sync/atomic"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/wal"
)

// This file is the durability side of the replication object: WAL append
// hooks on the admission/ordering path, snapshot compaction, and
// crash-restart recovery with the recover-then-serve gate (the pattern
// nameserv peers proved: replay local state, anti-entropy the tail from
// the stores that outlived the crash, answer StatusRetry meanwhile).

// DurabilityInfo is a thread-unsafe snapshot of the durable-store state,
// exported through store accessors and the control RPC.
type DurabilityInfo struct {
	// Durable reports whether this replica has a WAL at all.
	Durable bool `json:"durable"`
	// WALBytes / WALRecords measure the log tail since the last snapshot.
	WALBytes   int64  `json:"wal_bytes"`
	WALRecords uint64 `json:"wal_records"`
	// LastSnapshot is the applied vector at the last compaction point (nil
	// before the first snapshot).
	LastSnapshot *msg.Vec `json:"last_snapshot,omitempty"`
	// Recovering reports whether the recover-then-serve gate is closed.
	Recovering bool `json:"recovering"`
	// RecoveryNanos is how long the last restart took from replay start to
	// gate open (0 if never recovered).
	RecoveryNanos uint64 `json:"recovery_nanos"`
	// TornTail counts corrupt WAL tails truncated on recovery.
	TornTail uint64 `json:"torn_tail"`
}

// Durability reports the durable-store state (event-loop only; stores wrap
// it in a posted accessor).
func (o *Object) Durability() DurabilityInfo {
	info := DurabilityInfo{
		Durable:       o.wal != nil,
		Recovering:    o.recovering,
		RecoveryNanos: o.stats.RecoveryNanos,
		TornTail:      o.stats.WALTornTail,
	}
	if o.wal != nil {
		info.WALBytes = o.wal.Size()
		info.WALRecords = o.wal.Appends()
	}
	if o.lastSnapVec != nil {
		v := o.lastSnapVec.Clone()
		info.LastSnapshot = &v
	}
	return info
}

// Recovering reports whether the recover-then-serve gate is still closed.
func (o *Object) Recovering() bool { return o.recovering }

// --- append hooks ------------------------------------------------------------

// submitLogged is engine.Submit for durable replicas: the stamped update is
// appended to the WAL before it meets the engine, because the write ack goes
// out even when the engine only buffers the update — logging at apply time
// would lose acknowledged-but-buffered writes across a crash. Updates the
// engine already covers are not re-logged (the engines deduplicate them
// anyway), which keeps demand replays and link duplicates out of the log.
//
// applied() is marked stale unconditionally: a Submit can advance the engine
// without releasing anything (an eventual-model write losing the LWW race),
// and replies and digests must advertise that component or children would
// demand it forever.
func (o *Object) submitLogged(u *coherence.Update) []*coherence.Update {
	if o.wal != nil && !o.walReplaying && !o.engine.Covers(u.Write) {
		if err := o.wal.AppendUpdate(u); err == nil {
			o.walAfterAppend()
		}
	}
	o.markAppliedStale()
	released := o.engine.Submit(u)
	if len(released) == 0 && o.engine.Pending() > 0 {
		inc(&o.stats.UpdatesBuffered)
	}
	return released
}

// walAppendAdmit logs one admission decision (watermark/holes transition),
// so a replayed request that was admitted-but-unacked before the crash is
// recognised as a replay after it. Ordering invariant: callers append the
// admission AFTER the stamped update record it admitted. A crash between
// the two then leaves update-without-admit — recoverable, because recovery
// seeds the watermark from update records too — never admit-without-update,
// which would make a restarted store ack a retry whose content it lost and
// stall the client's stream under the ordered models.
func (o *Object) walAppendAdmit(c ids.ClientID, seq uint64) {
	if o.wal == nil || o.walReplaying {
		return
	}
	if err := o.wal.AppendAdmit(c, seq); err == nil {
		o.walAfterAppend()
	}
}

// walAppendChild logs a children-set change, so a restarted store knows whom
// to anti-entropy from (and push to) before any new subscribe arrives.
func (o *Object) walAppendChild(addr string, remove bool) {
	if o.wal == nil || o.walReplaying {
		return
	}
	if err := o.wal.AppendChild(addr, remove); err == nil {
		o.walAfterAppend()
	}
}

// walAfterAppend is the common post-append accounting: stats and the
// interval-fsync timer.
func (o *Object) walAfterAppend() {
	inc(&o.stats.WALAppends)
	if o.tune.Durability.Fsync == wal.SyncInterval {
		o.arm(o.walSyncTimer, o.tune.Durability.SyncInterval)
	}
}

// walSync is the interval policy's periodic flush.
func (o *Object) walSync() {
	if o.wal != nil {
		_ = o.wal.Sync()
	}
}

// walBarrier makes every appended record stable before the parked acks
// leave. Acks park only under the always policy (deferBarrier), so the sync
// is unconditional.
func (o *Object) walBarrier() {
	if o.obsv.walSync == nil {
		_ = o.wal.Sync()
		return
	}
	start := o.env.Now()
	_ = o.wal.Sync()
	o.obsv.walSync.Record(o.env.Now().Sub(start))
}

// --- group commit ------------------------------------------------------------

// deferBarrier reports whether acks park for a batched barrier instead of
// going out inline. Only the always policy has a barrier to coalesce; the
// owning loop calls FlushAcks after every event and every drained batch, and
// so does whoever drives Handle directly.
func (o *Object) deferBarrier() bool {
	return o.wal != nil && o.tune.Durability.Fsync == wal.SyncAlways
}

// FlushAcks syncs the log once and releases every parked write ack — the
// group commit. Safe to call unconditionally; a no-op when nothing parked.
func (o *Object) FlushAcks() {
	if len(o.ackPending) == 0 {
		return
	}
	o.walBarrier()
	o.obsv.commitSize.Observe(int64(len(o.ackPending)))
	if len(o.ackPending) > 1 {
		inc(&o.stats.GroupCommits)
	}
	pend := o.ackPending
	for i := range pend {
		o.send(pend[i].To, &pend[i])
	}
	clear(pend)
	o.ackPending = pend[:0]
}

// --- snapshot compaction -----------------------------------------------------

// maybeCompact snapshots when the log tail has grown past the threshold and
// nothing is buffered (a buffered update's only durable copy is the log, so
// truncating under it would lose it). After a failed snapshot it waits for
// another SnapshotEvery appends before it tries again (compactAt).
func (o *Object) maybeCompact() {
	every := o.tune.Durability.SnapshotEvery
	if o.wal == nil || o.walReplaying || every <= 0 {
		return
	}
	if o.wal.Appends() < max(uint64(every), o.compactAt) || o.engine.Pending() > 0 {
		return
	}
	if o.compact() != nil {
		inc(&o.stats.WALSnapshotFailures)
		o.compactAt = o.wal.Appends() + uint64(every)
	}
}

// Compact forces a snapshot compaction now (tests, control surfaces).
func (o *Object) Compact() error {
	if o.wal == nil {
		return errors.New("replication: replica is not durable")
	}
	if o.engine.Pending() > 0 {
		return errors.New("replication: updates still buffered; their only durable copy is the log")
	}
	return o.compact()
}

func (o *Object) compact() error {
	st, state, err := o.wholeState(o.snapBuf[:0])
	if err != nil {
		return err
	}
	o.snapBuf = state
	snap := &wal.Snapshot{
		State:    state,
		Lamport:  o.lamport.Now(),
		Stamped:  make([]wal.ClientAdmission, 0, len(o.stamped)),
		Children: slices.Clone(o.children),
	}
	for _, a := range o.stamped {
		snap.Stamped = append(snap.Stamped, *a)
	}
	// Clients in ascending order, as holes already are: the same replica
	// state writes the same snapshot file.
	slices.SortFunc(snap.Stamped, func(x, y wal.ClientAdmission) int { return cmp.Compare(x.Client, y.Client) })
	if err := o.wal.WriteSnapshot(snap); err != nil {
		return err
	}
	o.lastSnapVec = &st.Applied
	o.compactAt = 0
	inc(&o.stats.WALSnapshots)
	return nil
}

// --- recovery ----------------------------------------------------------------

// recover replays snapshot + WAL tail through the normal machinery (New
// calls it on the owning event loop, before any message is dispatched):
// the snapshot seeds semantics state, the engine, the sequencer, the Lamport
// clock, the admission map, and the children set; the log tail then re-runs
// through the engine exactly as live traffic would, skipping semantics
// re-apply for writes whose content the snapshot already contains (the
// reapplyBeyond rule). If children outlived the crash, the gate closes until
// they answer one anti-entropy round or the grace period expires.
func (o *Object) recover(rec *wal.Recovery) {
	start := o.env.Now()
	o.walReplaying = true
	if s := rec.Snapshot; s != nil {
		// A snapshot whose engine state does not decode counts as torn, and
		// the log alone recovers.
		if st, state, err := coherence.SplitState(s.State); err != nil {
			inc(&o.stats.WALTornTail)
		} else {
			_ = o.env.ApplyFull(state)
			o.seed(st)
			o.lastSnapVec = &st.Applied
		}
		o.lamport.Witness(s.Lamport)
		for _, a := range s.Stamped {
			slices.Sort(a.Holes) // a GSNP1 file lists them in map order
			o.stamped[a.Client] = &a
		}
		for _, c := range s.Children {
			o.addChild(c)
		}
	}
	for _, r := range rec.Records {
		switch {
		case r.Update != nil:
			u := r.Update
			// The decoded record aliases the whole log file's image; the
			// replica must own what it applies and retains (see Env.ApplyOp).
			u.Inv = cloneInv(u.Inv)
			// Every durable update implies its own admission (the separate
			// admit record may have missed the crash), so the watermark
			// classifies post-restart retries of it as replays.
			o.admitSeq(u.Write.Client, u.Write.Seq)
			o.lamport.Witness(u.Stamp.Time)
			if u.GlobalSeq >= o.nextGlobal {
				o.nextGlobal = u.GlobalSeq + 1
			}
			for _, ru := range o.engine.Submit(u) {
				o.apply(ru, o.coveredByState(ru))
			}
			inc(&o.stats.WALReplayed)
		case r.Admit != nil:
			// Re-run the original admission so the watermark/holes state —
			// including the not-yet-logged-as-update case (crash between
			// admission and submit) — matches the pre-crash store.
			o.admitSeq(r.Admit.Client, r.Admit.Seq)
		case r.Child != nil:
			if r.Child.Remove {
				o.removeChild(r.Child.Addr)
			} else {
				o.addChild(r.Child.Addr)
			}
		}
	}
	add(&o.stats.WALTornTail, rec.TornTail)
	o.markAppliedStale()
	o.walReplaying = false
	o.recoverStart = start
	atomic.StoreUint64(&o.stats.RecoveryNanos, uint64(o.env.Now().Sub(start)))
	inc(&o.stats.Recoveries)
	if o.traceOn() {
		o.emit("recovered", "replayed="+strconv.FormatUint(o.stats.WALReplayed, 10)+
			" torn_tail="+strconv.FormatUint(o.stats.WALTornTail, 10)+
			" children="+strconv.Itoa(len(o.children)))
	}
	if len(o.children) == 0 {
		return // nobody outlived us who could know more; serve immediately
	}
	// Recover-then-serve: disk holds everything acknowledged (fsync policy
	// permitting), but the children may have seen writes we acked and lost
	// (fsync off/interval) or state we disseminated right before the crash.
	// Demand the tail from every known child behind a StatusRetry gate.
	o.recovering = true
	o.recoverPending = make(map[string]bool, len(o.children))
	for _, c := range o.children {
		o.recoverPending[c] = true
	}
	o.sendRecoveryDemands()
	o.armRecoveryRetry()
	// Children unreachable (maybe they crashed too): finishRecovery then
	// serves what disk had rather than blocking forever.
	o.arm(o.recoverGraceTimer, o.tune.Durability.RecoveryGrace)
}

// sendRecoveryDemands asks every still-pending child for updates beyond our
// recovered applied vector, through the ordinary demand path.
func (o *Object) sendRecoveryDemands() {
	for c := range o.recoverPending {
		o.sendDemand(c)
	}
}

// armRecoveryRetry re-demands from unanswered children on the demand-retry
// cadence, bounded like any demand cycle.
func (o *Object) armRecoveryRetry() {
	d := o.tune.DemandRetry
	if d <= 0 {
		d = defaultDemandRetry
	}
	o.arm(o.recoverRetryTimer, d)
}

func (o *Object) retryRecovery() {
	if !o.recovering {
		return
	}
	o.recoverRetries++
	if o.recoverRetries > maxDemandRetries {
		o.finishRecovery()
		return
	}
	o.sendRecoveryDemands()
	o.armRecoveryRetry()
}

// gateRecovering intercepts traffic while the gate is closed: client reads
// and writes bounce with StatusRetry (their proxies retry), and a coherence
// response from a pending child marks it answered — the last one opens the
// gate. It reports whether the message was fully consumed.
func (o *Object) gateRecovering(m *msg.Message) bool {
	switch m.Kind {
	case msg.KindReadRequest, msg.KindWriteRequest:
		o.refuse(m, msg.StatusRetry, "store recovering from restart")
		return true
	case msg.KindUpdate, msg.KindUpdateBatch, msg.KindUpdateAck, msg.KindStateReply:
		if o.recoverPending[m.From] {
			delete(o.recoverPending, m.From)
			if len(o.recoverPending) == 0 {
				// Single-threaded: the answer itself is processed right
				// after this returns, before any other message can slip
				// through the opened gate.
				o.finishRecovery()
			}
		}
	}
	return false
}

// finishRecovery opens the gate and stamps the recovery duration.
func (o *Object) finishRecovery() {
	if !o.recovering {
		return
	}
	o.recovering = false
	o.recoverPending = nil
	o.recoverGraceTimer.stop()
	o.recoverRetryTimer.stop()
	atomic.StoreUint64(&o.stats.RecoveryNanos, uint64(o.env.Now().Sub(o.recoverStart)))
	o.reconsiderParked()
}

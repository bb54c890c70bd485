package replication

import (
	"time"

	"repro/internal/wal"
)

// Tuning is every per-replica knob that is not part of the object's strategy.
// It is declared here and nowhere else: a deployment fills one value (globed
// flags and manifest, or the webobj options) and it travels whole, by value,
// webobj.System → store.Config → Config → Object. The zero value is the
// default deployment; withDefaults is the one place the defaults are spelled.
type Tuning struct {
	// ReadTimeout bounds how long a read may stay parked before it is
	// answered with StatusRetry (default 5s).
	ReadTimeout time.Duration
	// DemandRetry is the delay after which an unanswered demand-update or
	// subscribe is re-sent (default 50ms; negative disables retries). Keep it
	// well below DigestInterval: the retry chases a request whose frame or
	// reply was lost, the heartbeat exposes gaps nobody knows about.
	DemandRetry time.Duration
	// DigestInterval enables digest heartbeats: every interval (plus a
	// deterministic jitter of up to a quarter interval) the replica sends its
	// subscribed children a KindDigest frame carrying its applied vector, so
	// a child behind silent tail-loss or a healed partition demands the gap
	// instead of waiting for new traffic. Zero or negative disables
	// heartbeats (the default — lossless deployments pay nothing).
	DigestInterval time.Duration
	// ReparentAfter declares the parent dead after this many consecutive
	// digest periods with no parent traffic (requires DigestInterval > 0).
	// Zero disables the liveness watch (the default); subscribe-retry
	// exhaustion still triggers re-parenting regardless. Choose at least 2 so
	// one jittered or lost heartbeat does not re-parent.
	ReparentAfter int
	// Durability tunes the write-ahead log of a replica that has one.
	Durability Durability
}

// Durability tunes a durable replica's write-ahead log. The zero value means
// no fsync during operation, a 100ms flush cadence if the interval policy is
// chosen, a snapshot every 1024 records and a 2s recovery grace.
type Durability struct {
	// Fsync is when appends reach stable storage (wal.SyncOff, the default,
	// wal.SyncInterval or wal.SyncAlways).
	Fsync wal.Policy
	// SyncInterval is the flush cadence under wal.SyncInterval (default
	// 100ms).
	SyncInterval time.Duration
	// SnapshotEvery is the log record count between snapshot compactions
	// (default 1024; negative disables compaction).
	SnapshotEvery int
	// RecoveryGrace bounds how long a restarted replica waits for its
	// children's anti-entropy answers before serving anyway (default 2s).
	RecoveryGrace time.Duration
}

// defaultDemandRetry also paces the recovery gate's re-demands when a
// deployment disabled ordinary demand retries.
const defaultDemandRetry = 50 * time.Millisecond

// withDefaults resolves the zero values. A negative DemandRetry becomes zero,
// which every user of it reads as "no retries".
func (t Tuning) withDefaults() Tuning {
	if t.ReadTimeout <= 0 {
		t.ReadTimeout = 5 * time.Second
	}
	if t.DemandRetry == 0 {
		t.DemandRetry = defaultDemandRetry
	}
	if t.DemandRetry < 0 {
		t.DemandRetry = 0
	}
	if t.Durability.SyncInterval <= 0 {
		t.Durability.SyncInterval = 100 * time.Millisecond
	}
	if t.Durability.SnapshotEvery == 0 {
		t.Durability.SnapshotEvery = 1024
	}
	if t.Durability.RecoveryGrace <= 0 {
		t.Durability.RecoveryGrace = 2 * time.Second
	}
	return t
}

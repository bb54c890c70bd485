package replication

import (
	"strconv"

	"repro/internal/ids"
	"repro/internal/obs"
)

// repObs holds the observability instruments one replication object feeds.
// Every instrument is nil when observability is disabled — the obs types
// no-op on nil receivers — so the handlers increment unconditionally and
// the disabled hot path pays one predictable branch per event and zero
// allocations (pinned by webobj/allocs_test.go). Trace emission is the exception:
// Detail strings cost real formatting, so call sites gate on traceOn().
type repObs struct {
	store string // store ID label value, also the trace Store field
	obj   string

	admitted     *obs.Counter
	sequenced    *obs.Counter
	forwarded    *obs.Counter
	acked        *obs.Counter
	disseminated *obs.Counter
	applied      *obs.Counter
	demands      *obs.Counter
	digestGaps   *obs.Counter
	reparents    *obs.Counter
	recoveries   *obs.Counter
	lag          *obs.Hist
	walAppends   *obs.Counter
	walSync      *obs.Hist
	commitSize   *obs.Hist
	tr           *obs.Trace
}

// newRepObs registers (or re-fetches, on re-host) this replica's series.
// All series carry {store, object} labels so one daemon hosting many
// objects exposes one line per replica — the per-replica propagation-lag
// view the paper's consistency/latency tradeoff needs.
func newRepObs(ob *obs.Observer, self ids.StoreID, object ids.ObjectID) repObs {
	r := repObs{
		store: strconv.FormatUint(uint64(self), 10),
		obj:   string(object),
		tr:    ob.Tracer(),
	}
	reg := ob.Registry()
	if reg == nil {
		return r
	}
	ls := []obs.Label{obs.L("store", r.store), obs.L("object", r.obj)}
	r.admitted = reg.Counter("globe_writes_admitted_total",
		"client writes admitted (stamped) at this replica", ls...)
	r.sequenced = reg.Counter("globe_writes_sequenced_total",
		"writes assigned a global sequence by this sequencer", ls...)
	r.forwarded = reg.Counter("globe_writes_forwarded_total",
		"write requests forwarded towards the permanent store", ls...)
	r.acked = reg.Counter("globe_writes_acked_total",
		"write acknowledgements issued to clients", ls...)
	r.disseminated = reg.Counter("globe_updates_disseminated_total",
		"coherence transfers shipped to subscribed children (updates, invalidations, notifications)", ls...)
	r.applied = reg.Counter("globe_updates_applied_total",
		"ordered updates applied to local semantics", ls...)
	r.demands = reg.Counter("globe_demands_sent_total",
		"demand-update and state requests issued upstream", ls...)
	r.digestGaps = reg.Counter("globe_digest_gap_demands_total",
		"demands triggered by a digest heartbeat gap", ls...)
	r.reparents = reg.Counter("globe_reparents_total",
		"completed re-parent handshakes (new parent acked)", ls...)
	r.recoveries = reg.Counter("globe_recoveries_total",
		"WAL recoveries performed at startup", ls...)
	r.lag = reg.HistDuration("globe_propagation_lag_seconds",
		"age of an update at local apply, measured from its origin wall-clock stamp", ls...)
	r.walAppends = reg.Counter("globe_wal_appends_total",
		"records appended to the write-ahead log", ls...)
	r.walSync = reg.HistDuration("globe_wal_sync_seconds",
		"write-ahead log fsync barrier latency", ls...)
	r.commitSize = reg.Hist("globe_wal_group_commit_size",
		"write acks retired per group-commit barrier", ls...)
	return r
}

// traceOn gates trace emission so Detail formatting is skipped entirely
// when tracing is off.
func (o *Object) traceOn() bool { return o.obsv.tr.Enabled() }

// emit records one trace event stamped with the injected clock.
func (o *Object) emit(typ, detail string) {
	o.obsv.tr.Emit(obs.Event{
		Nanos:  o.env.Now().UnixNano(),
		Store:  o.obsv.store,
		Object: o.obsv.obj,
		Type:   typ,
		Detail: detail,
	})
}

package replication

import (
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
)

// inc and add are the only writers of Stats fields: one call per protocol
// event. The add is atomic because a metrics scrape reads the same word from
// another goroutine; on the owning event loop, the one writer, Stats() may
// copy the struct plainly.
func inc(field *uint64) { atomic.AddUint64(field, 1) }

func add(field *uint64, n uint64) { atomic.AddUint64(field, n) }

// repObs holds what observability adds beyond the counters in Stats: three
// histograms and the trace ring. Each is nil when observability is off — the
// obs types no-op on nil receivers — so the disabled hot path pays one
// predictable branch per event and zero allocations (pinned by
// webobj/allocs_test.go). Trace emission is the exception: Detail strings
// cost real formatting, so call sites gate on traceOn().
type repObs struct {
	store string // store ID label value, also the trace Store field
	obj   string

	lag        *obs.Hist
	walSync    *obs.Hist
	commitSize *obs.Hist
	tr         *obs.Trace
}

// newRepObs registers this replica's series. All carry {store, object} labels
// so one daemon hosting many objects exposes one line per replica — the
// per-replica propagation-lag view the paper's consistency/latency tradeoff
// needs.
func (o *Object) newRepObs(ob *obs.Observer) repObs {
	r := repObs{
		store: strconv.FormatUint(uint64(o.self), 10),
		obj:   string(o.object),
		tr:    ob.Tracer(),
	}
	reg := ob.Registry()
	if reg == nil {
		return r
	}
	ls := []obs.Label{obs.L("store", r.store), obs.L("object", r.obj)}
	o.registerStats(reg, ls)
	r.lag = reg.HistDuration("globe_propagation_lag_seconds",
		"age of an update at local apply, or of the newest write in an installed state, measured from its origin wall-clock stamp", ls...)
	r.walSync = reg.HistDuration("globe_wal_sync_seconds",
		"write-ahead log fsync barrier latency", ls...)
	r.commitSize = reg.Hist("globe_wal_group_commit_size",
		"write acks retired per group-commit barrier", ls...)
	return r
}

// registerStats exposes every Stats field as the series its obs tag names,
// read at scrape time from the word inc/add write. Registering again under
// the same labels — the object dropped and hosted again — points the series
// at the new replica's Stats, so they restart from zero together.
func (o *Object) registerStats(reg *obs.Registry, ls []obs.Label) {
	v := reflect.ValueOf(o.stats).Elem()
	for i := 0; i < v.NumField(); i++ {
		tag := v.Type().Field(i).Tag
		word := v.Field(i).Addr().Interface().(*uint64)
		read := func() float64 { return float64(atomic.LoadUint64(word)) }
		if name := tag.Get("obs"); strings.HasSuffix(name, "_total") {
			reg.CounterFunc(name, tag.Get("help"), read, ls...)
		} else {
			reg.GaugeFunc(name, tag.Get("help"), read, ls...)
		}
	}
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

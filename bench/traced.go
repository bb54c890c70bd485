package main

import (
	"fmt"
	"strconv"

	"repro/internal/replication"
	"repro/webobj"
)

// perLayer names the traced run's metrics, in BENCHMARK.json's order: the
// four ungated end-to-end metrics, the ladder's four numbers per rung, then
// the single calls, then the counts.
var perLayer = func() []metricDef {
	defs := append([]metricDef(nil), tails...)
	for _, r := range rungNames {
		defs = append(defs,
			metricDef{r + ".read_ns", "ns"}, metricDef{r + ".write_ns", "ns"},
			metricDef{r + ".read_allocs", "count"}, metricDef{r + ".write_allocs", "count"})
	}
	return append(defs,
		metricDef{"replication.msgs_out_per_write", "count"},
		metricDef{"msg.encode_ns", "ns"},
		metricDef{"msg.decode_ns", "ns"},
		metricDef{"msg.frame_bytes", "B"},
		metricDef{"memnet.rtt_ns", "ns"},
		metricDef{"tcpnet.rtt_ns", "ns"},
		metricDef{"wal.append_ns", "ns"},
		metricDef{"wal.sync_ns", "ns"},
		metricDef{"nameserv.resolve_ns", "ns"},
		metricDef{"transport.frames_per_op", "count"},
		metricDef{"transport.wire_bytes_per_op", "B"},
		metricDef{"replication.updates_per_batch", "count"},
		metricDef{"replication.park_share", "share"},
		metricDef{"replication.demands_per_write", "count"},
		metricDef{"replication.forward_share", "share"},
		metricDef{"replication.propagation_lag_p50_us", "us"},
		metricDef{"coherence.buffered_share", "share"},
		metricDef{"wal.appends_per_write", "count"},
		metricDef{"runtime.gc_cycles_per_s", "1/s"},
		metricDef{"runtime.gc_cpu_share", "share"},
		metricDef{"bench.trace_overhead_share", "share"},
		metricDef{"bench.paced_read_p99_us", "us"},
		metricDef{"bench.paced_write_p99_us", "us"},
		metricDef{"bench.gen_late_p99_us", "us"},
	)
}()

// traceRing is the size of the write-lifecycle trace ring the counted run
// turns on; its contents are not read, only its cost is measured.
const traceRing = 4096

// ratio is a/b, and 0 when there is nothing to divide by: a layer that did
// no work on this workload reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is the traced run. Part 1 is the ladder. Part 2 runs the closed
// loop twice, first plain and then with the program's own metrics and trace
// ring on, and reads counts off public surfaces only: Store.Stats, the
// fabric's StatsMap, System.MetricsSnapshot. The plain deployment also runs
// the paced phase, whose latencies from due time are per-layer metrics
// because they did not repeat well enough to gate.
func runTraced(sp *spec, cfg config) (*result, error) {
	res := &result{sp: sp, gated: perLayer}
	in := genInputs(sp, cfg.seed, cfg.pl.opsPerClient)
	dataDir, err := scratchDir(cfg.scratch)
	if err != nil {
		return nil, err
	}
	lad, err := runLadder(sp, in, cfg.pl, cfg.scratch)
	if err != nil {
		return nil, fmt.Errorf("%s: ladder: %w", sp.name, err)
	}
	vals := map[string]float64{"replication.msgs_out_per_write": lad.msgsOut}
	notes := map[string]string{}
	for _, name := range rungNames {
		r := lad.rungs[name]
		vals[name+".read_ns"], vals[name+".write_ns"] = lad.self(name, false), lad.self(name, true)
		vals[name+".read_allocs"], vals[name+".write_allocs"] = r.readAllocs, r.writeAllocs
		notes[name+".read_ns"] = fmt.Sprintf("self time; median span %.0f ns over %d reads", r.readNs, r.reads)
		notes[name+".write_ns"] = fmt.Sprintf("self time; median span %.0f ns over %d writes", r.writeNs, r.writes)
		notes[name+".read_allocs"] = "whole rung, mean"
		notes[name+".write_allocs"] = "whole rung, mean"
	}
	for k, v := range lad.single {
		vals[k] = v
	}

	half := cfg.pl.closed / 2
	plain, st, err := deploy(sp, in, deployOpts{seed: cfg.seed, dataDir: dataDir, opens: cfg.pl.opens})
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
	}
	plainClosed := plain.closed(half, cfg.pl.window)
	plain.settle()
	lags := plain.visible(cfg.pl.visible, cfg.pl.window)
	res.addTails(st.opens, &plainClosed, lags)
	plain.settle()
	pc := plain.paced(cfg.pl.paced)
	vals["bench.paced_read_p99_us"] = p99us(&pc.read)
	vals["bench.paced_write_p99_us"] = p99us(&pc.write)
	vals["bench.gen_late_p99_us"] = p99us(&pc.genLate)
	res.bad = plain.check()
	res.tally(plain)
	plain.close()

	d, _, err := deploy(sp, in, deployOpts{seed: cfg.seed, dataDir: dataDir, opens: cfg.pl.opens,
		extra: []webobj.SystemOption{webobj.WithMetrics(), webobj.WithTrace(traceRing)}})
	if err != nil {
		return nil, fmt.Errorf("%s: traced set-up: %w", sp.name, err)
	}
	defer d.close()
	net0, st0 := d.netStats(), d.storeStats()
	cl := d.closed(half, cfg.pl.window)
	d.settle()
	net1, st1 := d.netStats(), d.storeStats()

	ops := float64(cl.ops)
	net := func(keys ...string) float64 {
		for _, k := range keys {
			if v, ok := net1[k]; ok {
				return float64(v - net0[k])
			}
		}
		return 0
	}
	vals["transport.frames_per_op"] = net("frames_sent") / ops
	vals["transport.wire_bytes_per_op"] = net("bytes_delivered", "bytes_sent") / ops
	diff := func(f func(replication.Stats) uint64) float64 {
		var n float64
		for i := range st1 {
			n += float64(f(st1[i]) - f(st0[i]))
		}
		return n
	}
	writes := diff(func(s replication.Stats) uint64 { return s.WritesAccepted })
	forwards := diff(func(s replication.Stats) uint64 { return s.WritesForwarded })
	served := diff(func(s replication.Stats) uint64 { return s.ReadsServed })
	parked := diff(func(s replication.Stats) uint64 { return s.ReadsParked })
	vals["replication.updates_per_batch"] = ratio(diff(func(s replication.Stats) uint64 { return s.BatchedUpdates }),
		diff(func(s replication.Stats) uint64 { return s.BatchesSent }))
	vals["replication.park_share"] = ratio(parked, served+parked)
	vals["replication.demands_per_write"] = ratio(diff(func(s replication.Stats) uint64 { return s.DemandsSent }), writes)
	vals["replication.forward_share"] = ratio(forwards, forwards+writes)
	vals["coherence.buffered_share"] = ratio(diff(func(s replication.Stats) uint64 { return s.UpdatesBuffered }),
		diff(func(s replication.Stats) uint64 { return s.UpdatesApplied }))
	vals["wal.appends_per_write"] = ratio(diff(func(s replication.Stats) uint64 { return s.WALAppends }), writes)

	// The program's own propagation-lag histogram at the far replica, found
	// by its store label: the cross-check for visible_p50_us.
	farID, err := d.farStoreID()
	if err != nil {
		return nil, err
	}
	for _, p := range d.sys.MetricsSnapshot() {
		if p.Name == "globe_propagation_lag_seconds" && p.Labels["store"] == farID && p.Hist != nil {
			vals["replication.propagation_lag_p50_us"] = p.Hist.P50 * 1e6
		}
	}
	vals["runtime.gc_cycles_per_s"] = cl.sum(func(w *window) float64 { return float64(w.used.numGC) }) /
		cl.sum(func(w *window) float64 { return w.elapsed.Seconds() })
	vals["runtime.gc_cpu_share"] = ratio(cl.sum(func(w *window) float64 { return w.used.gcCPU }),
		cl.sum(func(w *window) float64 { return w.used.allCPU }))
	traced, untraced := cl.capacity().value, plainClosed.capacity().value
	vals["bench.trace_overhead_share"] = 1 - ratio(traced, untraced)
	notes["bench.trace_overhead_share"] = fmt.Sprintf("closed loop %.0f ops/s with metrics and trace on, %.0f ops/s off", traced, untraced)

	res.bad = append(res.bad, d.check()...)
	res.tally(d)
	for _, def := range perLayer[len(tails):] { // the tails are in already
		res.add(def.name, vals[def.name], notes[def.name]) // a layer that did no work here reports 0
	}
	return res, nil
}

// tally adds a deployment's op counts and first errors to the result.
func (r *result) tally(d *deployment) {
	for _, c := range d.clients {
		r.attempted += c.tally.attempted
		r.failed += c.tally.failed
		if c.tally.firstErr != nil {
			r.warnings = append(r.warnings, fmt.Sprintf("first failed op: %v", c.tally.firstErr))
		}
	}
}

// storeStats reads every store's replication counters, www first.
func (d *deployment) storeStats() []replication.Stats {
	out := make([]replication.Stats, len(d.stores))
	for i, st := range d.stores {
		out[i], _ = st.Stats(object) // every store here is local and hosts the object
	}
	return out
}

// farStoreID finds the metric label value of the far replica: the program
// labels its series with store identifiers, which the name record maps to
// addresses.
func (d *deployment) farStoreID() (string, error) {
	rec, err := d.sys.ResolveName(object)
	if err != nil {
		return "", err
	}
	for _, e := range rec.Entries {
		if e.Addr == d.far.Addr() {
			return strconv.FormatUint(uint64(e.Store), 10), nil
		}
	}
	return "", fmt.Errorf("%s is not in the name record of %s", d.far.Name(), object)
}

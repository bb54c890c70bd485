package webobj

import (
	"net/http"
	"sort"

	"repro/internal/nameserv"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/memnet"
	"repro/internal/transport/tcpnet"
)

// MetricsRegistry is the metrics registry behind WithMetrics: atomic
// counters, gauges, and HDR histograms, exposed as Prometheus text
// (System.MetricsHandler), JSON snapshots (System.MetricsSnapshot, globectl
// ctl metrics), or direct reads in tests.
type MetricsRegistry = obs.Registry

// MetricPoint is one series in a metrics snapshot.
type MetricPoint = obs.Point

// TraceEvent is one entry of the write-lifecycle trace ring (WithTrace).
type TraceEvent = obs.Event

// WithMetrics turns on the metrics registry for this system: every store it
// creates registers each replica's Stats fields and its WAL and
// propagation-lag histograms, and the fabric's and name-service client's
// traffic counters are bridged in at scrape time. Off by default — the
// histograms then cost one nil check and nothing allocates per event.
func WithMetrics() SystemOption {
	return func(s *System) { s.metricsOn = true }
}

// WithTrace turns on the write-lifecycle event trace: a fixed-size
// lock-free ring holding the last n events (admitted, sequenced, shipped,
// applied, acked, demands, reparents, recoveries) across every store this
// system creates. Independent of WithMetrics. n is clamped to at least 16.
func WithTrace(n int) SystemOption {
	return func(s *System) { s.traceN = n }
}

// initObs builds the system's Observer after options, fabric, and resolver
// are settled, and bridges the pre-existing transport and name-service
// counters into the registry as scrape-time funcs.
func (s *System) initObs() {
	if !s.metricsOn && s.traceN <= 0 {
		return
	}
	s.obsv = &obs.Observer{}
	if s.traceN > 0 {
		s.obsv.Trace = obs.NewTrace(s.traceN)
	}
	if !s.metricsOn {
		return
	}
	reg := obs.NewRegistry()
	s.obsv.Reg = reg
	if src, ok := s.fabric.(transport.StatsSource); ok {
		name := fabricName(s.fabric)
		keys := make([]string, 0, 8)
		for k := range src.StatsMap() {
			keys = append(keys, k)
		}
		sort.Strings(keys) // registration order is exposition order
		for _, k := range keys {
			k := k
			reg.CounterFunc("globe_transport_"+k+"_total",
				"transport traffic counter ("+k+")",
				func() float64 { return float64(src.StatsMap()[k]) },
				obs.L("fabric", name))
		}
	}
	if ns, ok := s.res.(*nameserv.Client); ok {
		reg.CounterFunc("globe_nameserv_resolve_hits_total",
			"name resolves answered from the client cache",
			func() float64 { return float64(ns.Stats().ResolveHits) })
		reg.CounterFunc("globe_nameserv_resolve_misses_total",
			"name resolves that cost a server round trip",
			func() float64 { return float64(ns.Stats().ResolveMisses) })
		reg.CounterFunc("globe_nameserv_lease_renewals_total",
			"successful contact-lease renewal round trips",
			func() float64 { return float64(ns.Stats().LeaseRenewalsSent) })
		reg.CounterFunc("globe_nameserv_records_expired_total",
			"directory entries the answering server has expired (lifetime)",
			func() float64 { return float64(ns.Stats().RecordsExpired) })
	}
}

// fabricName labels bridged transport series by substrate.
func fabricName(f Fabric) string {
	switch f.(type) {
	case *memnet.Network:
		return "memnet"
	case *tcpnet.Fabric:
		return "tcpnet"
	}
	return "custom"
}

// Metrics returns the system's registry, or nil without WithMetrics. The
// registry is safe for concurrent use; tests can Find series directly.
func (s *System) Metrics() *MetricsRegistry { return s.obsv.Registry() }

// MetricsSnapshot returns every registered series with its current value
// (the payload of globectl ctl metrics). Nil without WithMetrics.
func (s *System) MetricsSnapshot() []MetricPoint { return s.obsv.Registry().Snapshot() }

// MetricsHandler returns an http.Handler serving the registry in Prometheus
// text exposition format (globed mounts it at /metrics when -metrics-addr
// is set). Without WithMetrics the handler serves an empty exposition.
func (s *System) MetricsHandler() http.Handler {
	if reg := s.obsv.Registry(); reg != nil {
		return reg.Handler()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	})
}

// TraceEvents returns the trace ring's current contents, oldest first.
// Empty without WithTrace.
func (s *System) TraceEvents() []TraceEvent { return s.obsv.Tracer().Events() }

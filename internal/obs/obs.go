// Package obs is the repo's zero-dependency observability layer: a metrics
// registry of atomic counters, gauges, and HDR log-linear histograms, plus
// an opt-in fixed-size event trace ring (trace.go) and a Prometheus
// text-format writer (prometheus.go).
//
// Everything is built around one invariant: when observability is off, the
// instrumented hot paths must cost nothing measurable. All instrument
// methods (Counter.Inc, Gauge.Set, Hist.Observe, Trace.Emit) are no-ops on
// a nil receiver, and a nil *Registry returns nil instruments from every
// constructor — so code holds plain fields, never branches on a config
// flag, and pays a single predictable nil check per event.
// webobj/allocs_test.go and BENCHMARK.json's allocs_per_op, both measured
// with observability off, pin this at zero allocations.
//
// Metric names are validated at registration: snake_case
// ([a-z][a-z0-9_]*), and a (name, label-set) pair resolves to exactly one
// series — re-registering the same pair returns the existing instrument, or
// for a func-backed series replaces the func (so after re-hosting an object
// its series read the new replica), while reusing a name with a different
// kind panics.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension on a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter. Nil-safe.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. Nil-safe.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHist
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered series: a name, a label set, and exactly one
// backing instrument (or a read-at-scrape func for bridged stats).
type metric struct {
	name    string
	help    string
	kind    kind
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Hist
	scale   float64 // hist exposition scale: 1e-9 for ns→seconds, 1 for raw values
	// fn backs a func-backed counter/gauge, read at scrape time. Atomic:
	// re-registration swaps it while a scrape may be reading.
	fn atomic.Pointer[func() float64]
}

// Registry holds registered metrics in registration order. All methods are
// safe for concurrent use and safe on a nil receiver: a nil registry hands
// out nil instruments, which no-op. The registry never unregisters — series
// live for the process (matching Prometheus scrape semantics); dropped
// objects simply stop moving.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	index   map[string]*metric // name + canonical label key
	kinds   map[string]kind    // name-level kind consistency
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		index: make(map[string]*metric),
		kinds: make(map[string]kind),
	}
}

// validName enforces snake_case: lowercase letters, digits, underscores,
// starting with a letter.
func validName(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

// seriesKey canonicalises name+labels (labels sorted by key) so lookup is
// order-independent.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('{')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte('}')
	}
	return b.String()
}

// register is the single gate every constructor funnels through. It
// validates the name, enforces name-level kind consistency, and returns the
// existing metric when the exact (name, labels) series is already present.
func (r *Registry) register(name, help string, k kind, labels []Label) (*metric, bool) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (want snake_case)", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label key %q on metric %q", l.Key, name))
		}
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	key := seriesKey(name, sorted)
	if prev, ok := r.kinds[name]; ok && prev != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, k, prev))
	}
	if m, ok := r.index[key]; ok {
		return m, false
	}
	m := &metric{name: name, help: help, kind: k, labels: sorted, scale: 1}
	r.metrics = append(r.metrics, m)
	r.index[key] = m
	r.kinds[name] = k
	return m, true
}

// Counter registers (or fetches) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, fresh := r.register(name, help, kindCounter, labels)
	if fresh {
		m.counter = &Counter{}
	}
	return m.counter
}

// CounterFunc registers a counter whose value is read by fn at scrape time
// — the bridge for counters that live elsewhere (replication.Stats,
// transports, nameserv) without double accounting. fn must be safe to call
// from any goroutine. Registering the series again replaces fn: the series
// follows its latest source.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, kindCounter, fn, labels)
}

func (r *Registry) registerFunc(name, help string, k kind, fn func() float64, labels []Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, _ := r.register(name, help, k, labels)
	m.fn.Store(&fn)
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, fresh := r.register(name, help, kindGauge, labels)
	if fresh {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// GaugeFunc registers a gauge read by fn at scrape time; see CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, kindGauge, fn, labels)
}

// Hist registers (or fetches) a histogram over raw int64 values (sizes,
// version lags). Exposed with power-of-four bucket bounds from 1 to 2^20.
func (r *Registry) Hist(name, help string, labels ...Label) *Hist {
	return r.histogram(name, help, 1, labels)
}

// HistDuration registers (or fetches) a histogram recorded in nanoseconds
// and exposed in seconds (Prometheus base unit), with power-of-four bucket
// bounds from 256ns to ~17s.
func (r *Registry) HistDuration(name, help string, labels ...Label) *Hist {
	return r.histogram(name, help, 1e-9, labels)
}

func (r *Registry) histogram(name, help string, scale float64, labels []Label) *Hist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, fresh := r.register(name, help, kindHist, labels)
	if fresh {
		m.hist = &Hist{}
		m.scale = scale
	}
	return m.hist
}

// Point is one series in a registry snapshot, JSON-friendly for control-RPC
// exposition (globectl ctl metrics / ctl stats).
type Point struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Value  float64           `json:"value"`
	Hist   *HistSnapshot     `json:"hist,omitempty"`
}

// Snapshot returns every series with its current value, in registration
// order. Histograms carry a quantile summary scaled to the exposition unit.
func (r *Registry) Snapshot() []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	pts := make([]Point, 0, len(metrics))
	for _, m := range metrics {
		p := Point{Name: m.name, Kind: m.kind.String()}
		if len(m.labels) > 0 {
			p.Labels = make(map[string]string, len(m.labels))
			for _, l := range m.labels {
				p.Labels[l.Key] = l.Value
			}
		}
		switch fn := m.fn.Load(); {
		case fn != nil:
			p.Value = (*fn)()
		case m.counter != nil:
			p.Value = float64(m.counter.Value())
		case m.gauge != nil:
			p.Value = float64(m.gauge.Value())
		case m.hist != nil:
			s := m.hist.snapshot(m.scale)
			p.Hist = &s
			p.Value = float64(s.Count)
		}
		pts = append(pts, p)
	}
	return pts
}

// Find returns the first registered series with the given name whose labels
// all match want (want may be a subset). Intended for tests and the chaos
// harness, not hot paths.
func (r *Registry) Find(name string, want ...Label) *Point {
	for _, p := range r.Snapshot() {
		if p.Name != name {
			continue
		}
		ok := true
		for _, l := range want {
			if p.Labels[l.Key] != l.Value {
				ok = false
				break
			}
		}
		if ok {
			return &p
		}
	}
	return nil
}

// Observer bundles the two observability facilities a component may be
// handed: a metrics registry and an optional event trace. A nil *Observer
// (or nil fields) disables everything downstream — constructors below are
// nil-safe so wiring code never branches.
type Observer struct {
	Reg   *Registry
	Trace *Trace
}

// Registry returns the registry, or nil when the observer is nil/disabled.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}

// Tracer returns the trace ring, or nil when the observer is nil/disabled.
func (o *Observer) Tracer() *Trace {
	if o == nil {
		return nil
	}
	return o.Trace
}

package obs

import (
	"strings"
	"sync"
	"testing"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

// Metric names are validated at registration: snake_case only, and a name
// keeps one kind for the life of the registry.
func TestRegistrationValidation(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, "uppercase name", func() { r.Counter("BadName", "") })
	mustPanic(t, "dash in name", func() { r.Counter("bad-name", "") })
	mustPanic(t, "leading digit", func() { r.Counter("9lives", "") })
	mustPanic(t, "empty name", func() { r.Counter("", "") })
	mustPanic(t, "bad label key", func() { r.Counter("ok_name", "", L("Bad-Key", "v")) })

	r.Counter("requests_total", "")
	mustPanic(t, "kind change", func() { r.Gauge("requests_total", "") })
	mustPanic(t, "kind change to hist", func() { r.Hist("requests_total", "") })
}

// The same (name, labels) series resolves to the same instrument — re-hosting
// an object must not double-register — while distinct label values get
// distinct series. Label order must not matter.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("writes_total", "", L("store", "1"), L("object", "doc"))
	b := r.Counter("writes_total", "", L("object", "doc"), L("store", "1"))
	if a != b {
		t.Fatal("same series must return the same counter")
	}
	c := r.Counter("writes_total", "", L("store", "2"), L("object", "doc"))
	if a == c {
		t.Fatal("distinct label values must be distinct series")
	}
	a.Inc()
	a.Inc()
	c.Inc()
	if p := r.Find("writes_total", L("store", "1")); p == nil || p.Value != 2 {
		t.Fatalf("snapshot store=1: got %+v, want value 2", p)
	}
	if p := r.Find("writes_total", L("store", "2")); p == nil || p.Value != 1 {
		t.Fatalf("snapshot store=2: got %+v, want value 1", p)
	}
}

// A nil registry hands out nil instruments and every operation no-ops —
// the disabled-observability contract the hot paths rely on.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.HistDuration("x_seconds", "")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must return nil instruments")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	r.CounterFunc("f_total", "", func() float64 { return 1 })
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if sb.Len() != 0 {
		t.Fatal("nil registry must write nothing")
	}
	var tr *Trace
	tr.Emit(Event{Type: "x"})
	if tr.Enabled() || tr.Events() != nil {
		t.Fatal("nil trace must be disabled and empty")
	}
}

// Func-backed series read their value at scrape time.
func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	v := 7.0
	r.CounterFunc("bridged_total", "bridged", func() float64 { return v }, L("fabric", "memnet"))
	r.GaugeFunc("bridged_depth", "", func() float64 { return -v })
	if p := r.Find("bridged_total"); p == nil || p.Value != 7 {
		t.Fatalf("got %+v, want 7", p)
	}
	v = 9
	if p := r.Find("bridged_total"); p.Value != 9 {
		t.Fatalf("got %v, want 9 (read at scrape)", p.Value)
	}
	if p := r.Find("bridged_depth"); p == nil || p.Value != -9 {
		t.Fatalf("gauge: got %+v, want -9", p)
	}
	// Registering the series again replaces its source (a re-hosted replica)
	// without adding a second line.
	r.CounterFunc("bridged_total", "bridged", func() float64 { return 1 }, L("fabric", "memnet"))
	if p := r.Find("bridged_total"); p.Value != 1 || len(r.Snapshot()) != 2 {
		t.Fatalf("re-registered: got %v in %d series, want 1 in 2", p.Value, len(r.Snapshot()))
	}
}

// Concurrent register / observe / scrape must be clean under -race: this is
// exactly what a live daemon does when a scrape lands while objects are
// being hosted and writes applied.
func TestConcurrentRegisterObserveScrape(t *testing.T) {
	r := NewRegistry()
	tr := NewTrace(64)
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := string(rune('a' + w))
			for i := 0; i < iters; i++ {
				c := r.Counter("conc_writes_total", "", L("store", id))
				c.Inc()
				r.Gauge("conc_depth", "", L("store", id)).Set(int64(i))
				r.HistDuration("conc_lag_seconds", "", L("store", id)).Observe(int64(i) * 1000)
				r.Hist("conc_batch", "").Observe(int64(i % 7))
				tr.Emit(Event{Nanos: int64(i), Store: id, Type: "tick"})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		var sb strings.Builder
		r.WritePrometheus(&sb)
		r.Snapshot()
		tr.Events()
		select {
		case <-done:
			for w := 0; w < workers; w++ {
				id := string(rune('a' + w))
				if p := r.Find("conc_writes_total", L("store", id)); p == nil || p.Value != iters {
					t.Fatalf("store %s: got %+v, want %d", id, p, iters)
				}
			}
			if got := len(tr.Events()); got != 64 {
				t.Fatalf("trace ring: %d events buffered, want full ring of 64", got)
			}
			return
		default:
		}
	}
}

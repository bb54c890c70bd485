package webobj_test

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/webobj"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func findPoint(pts []webobj.MetricPoint, name, object string) *webobj.MetricPoint {
	for i := range pts {
		if pts[i].Name == name && pts[i].Labels["object"] == object {
			return &pts[i]
		}
	}
	return nil
}

func TestObservabilityEndToEnd(t *testing.T) {
	sys := webobj.NewSystem(webobj.WithMetrics(), webobj.WithTrace(256))
	t.Cleanup(func() { _ = sys.Close() })

	server, err := sys.NewServer("www")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(server, "obs-doc", webobj.WebDoc(), webobj.ConferenceStrategy(5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	cache, err := sys.NewCache("proxy", server)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Replicate(cache, "obs-doc", webobj.ReadYourWrites); err != nil {
		t.Fatal(err)
	}

	d, err := sys.Open("obs-doc")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 5; i++ {
		if err := d.Put("p", []byte("v"), "text/plain"); err != nil {
			t.Fatal(err)
		}
	}
	// The cache applies the disseminated updates asynchronously; the
	// propagation-lag histogram fills as they land.
	waitFor(t, func() bool {
		lag := findPoint(sys.MetricsSnapshot(), "globe_propagation_lag_seconds", "obs-doc")
		return lag != nil && lag.Hist != nil && lag.Hist.Count >= 5
	}, "propagation-lag samples at the replicas")

	pts := sys.MetricsSnapshot()
	acked := findPoint(pts, "globe_writes_acked_total", "obs-doc")
	if acked == nil || acked.Value < 5 {
		t.Fatalf("globe_writes_acked_total = %+v, want >= 5", acked)
	}
	applied := findPoint(pts, "globe_updates_applied_total", "obs-doc")
	if applied == nil || applied.Value < 5 {
		t.Fatalf("globe_updates_applied_total = %+v, want >= 5", applied)
	}

	// The Prometheus handler serves the same registry as text.
	rr := httptest.NewRecorder()
	sys.MetricsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, want := range []string{
		"# TYPE globe_propagation_lag_seconds histogram",
		"globe_propagation_lag_seconds_bucket",
		"globe_writes_acked_total",
		"globe_transport_frames_sent_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The trace ring holds the write lifecycle.
	types := make(map[string]bool)
	for _, e := range sys.TraceEvents() {
		types[e.Type] = true
	}
	for _, want := range []string{"write_admitted", "write_acked", "update_applied"} {
		if !types[want] {
			t.Errorf("trace missing %q events (have %v)", want, types)
		}
	}
}

func TestObservabilityDisabled(t *testing.T) {
	sys := newSys(t)
	server, err := sys.NewServer("www")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(server, "doc", webobj.WebDoc(), webobj.ConferenceStrategy(time.Hour)); err != nil {
		t.Fatal(err)
	}
	d, err := sys.Open("doc")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put("p", []byte("v"), "text/plain"); err != nil {
		t.Fatal(err)
	}

	if sys.Metrics() != nil {
		t.Fatalf("Metrics() non-nil without WithMetrics")
	}
	if pts := sys.MetricsSnapshot(); pts != nil {
		t.Fatalf("MetricsSnapshot = %v without WithMetrics", pts)
	}
	if evs := sys.TraceEvents(); len(evs) != 0 {
		t.Fatalf("TraceEvents = %v without WithTrace", evs)
	}
	// The handler still answers, with an empty exposition.
	rr := httptest.NewRecorder()
	sys.MetricsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Body.Len() != 0 {
		t.Fatalf("disabled exposition body = %q", rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("disabled exposition Content-Type = %q", ct)
	}
}

// TestRehostedReplicaSeriesFollowLiveObject: after Drop and a second
// Replicate of the same object at the same store, the {store, object} series
// must read the new replica — not keep the dropped one's totals — so every
// one of them equals the matching Stats field.
func TestRehostedReplicaSeriesFollowLiveObject(t *testing.T) {
	sys := webobj.NewSystem(webobj.WithMetrics())
	t.Cleanup(func() { _ = sys.Close() })
	const obj = "rehost-doc"
	server, err := sys.NewServer("www")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(server, obj, webobj.WebDoc(), webobj.ConferenceStrategy(5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	cache, err := sys.NewCache("proxy", server, webobj.WithStoreID(42))
	if err != nil {
		t.Fatal(err)
	}
	d, err := sys.Open(obj, webobj.At(server))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	hostAndWrite := func(writes int, wantApplied uint64) {
		t.Helper()
		if err := sys.Replicate(cache, obj); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < writes; i++ {
			if err := d.Append("p", []byte("v;")); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, func() bool {
			s, err := cache.Stats(obj)
			return err == nil && s.UpdatesApplied == wantApplied
		}, "pushed updates applied at the cache")
	}
	hostAndWrite(3, 3)
	if err := sys.Drop(cache, obj); err != nil {
		t.Fatal(err)
	}
	// The bootstrap snapshot carries the first three writes; only the new one
	// is applied as an update, and the counters restart with the replica.
	hostAndWrite(1, 1)

	waitFor(t, func() bool {
		before, _ := cache.Stats(obj)
		pts := sys.MetricsSnapshot()
		after, _ := cache.Stats(obj)
		if before != after {
			return false // a timer moved a counter mid-comparison; look again
		}
		stats := reflect.ValueOf(after)
		for i := 0; i < stats.NumField(); i++ {
			name := stats.Type().Field(i).Tag.Get("obs")
			var got *webobj.MetricPoint
			for j := range pts {
				if pts[j].Name == name && pts[j].Labels["object"] == obj && pts[j].Labels["store"] == "42" {
					got = &pts[j]
				}
			}
			if got == nil || uint64(got.Value) != stats.Field(i).Uint() {
				t.Fatalf("%s = %+v, Stats.%s = %d", name, got, stats.Type().Field(i).Name, stats.Field(i).Uint())
			}
		}
		return true
	}, "a quiet moment to compare the two views")
}

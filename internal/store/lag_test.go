package store_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/semantics/webdoc"
	"repro/internal/store"
	"repro/internal/strategy"
)

// TestTransferOnlyReplicaRecordsLag: a cache under invalidation applies no
// update; it catches up only by fetching each invalidated page. Each state it
// installs must still record one propagation-lag sample, the age of the
// newest write the state carries, or such a replica reports no staleness at
// all.
func TestTransferOnlyReplicaRecordsLag(t *testing.T) {
	r := newRig(t)
	const obj = ids.ObjectID("lag-page")
	st := strategy.PopularEventPage()
	st.Scope = strategy.ScopeAll

	perm := r.store("perm", replication.RolePermanent)
	if err := perm.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}
	ep, err := r.net.Endpoint("cache")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cache := store.New(store.Config{
		ID:       r.ns.NextStore(),
		Role:     replication.RoleClientInitiated,
		Endpoint: ep,
		Tuning:   replication.Tuning{ReadTimeout: 2 * time.Second},
		Obs:      &obs.Observer{Reg: reg},
	})
	t.Cleanup(func() { _ = cache.Close() })
	if err := cache.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st, Parent: "perm", Subscribe: true}); err != nil {
		t.Fatal(err)
	}

	owner := r.bind("owner", "perm", obj)
	reader := r.bind("reader", "cache", obj)
	const versions = 3
	for i := 1; i <= versions; i++ {
		want := fmt.Sprintf("v%d", i)
		putPage(t, owner, "news", want)
		eventually(t, 3*time.Second, func() bool {
			got, err := getPage(t, reader, "news")
			return err == nil && got == want
		}, want+" reaches the cache")
	}

	cs, err := cache.Stats(obj)
	if err != nil {
		t.Fatal(err)
	}
	if cs.UpdatesApplied != 0 {
		t.Fatalf("the cache applied %d updates; the test needs one that catches up by transfer alone", cs.UpdatesApplied)
	}
	// Each version is installed once, by the one fetch its invalidation
	// sends; the read that parks on the page waits for that fetch.
	lag := reg.Find("globe_propagation_lag_seconds", obs.L("object", string(obj)))
	if lag == nil || lag.Hist == nil {
		t.Fatal("the cache registered no propagation-lag histogram")
	}
	if lag.Hist.Count != versions {
		t.Fatalf("propagation lag recorded %d samples for %d installed states", lag.Hist.Count, versions)
	}
}

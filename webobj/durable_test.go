package webobj_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/webobj"
)

// A full public-API round trip through durability: a system publishes over
// a data dir, writes, reports durable state through the control RPC, shuts
// down, and a second system over the same data dir recovers everything —
// including the reused client identity's write-sequence floor, so the same
// client keeps writing without colliding with its own recovered WiDs.
func TestSystemRestartRecoversFromDataDir(t *testing.T) {
	dir := t.TempDir()
	mf := webobj.NewMemFabric()
	sys1 := webobj.NewSystem(
		webobj.WithFabric(mf),
		webobj.WithDataDir(dir),
		webobj.WithDurability(webobj.Durability{Fsync: webobj.FsyncAlways}),
	)
	server, err := sys1.NewServer("www", webobj.WithStoreID(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys1.Publish(server, "doc", webobj.WebDoc(), webobj.ConferenceStrategy(time.Hour)); err != nil {
		t.Fatal(err)
	}
	d1, err := sys1.Open("doc", webobj.AsClient(77))
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Append("p", []byte("first.")); err != nil {
		t.Fatal(err)
	}
	if err := d1.Append("p", []byte("second.")); err != nil {
		t.Fatal(err)
	}

	// Durability state is visible through the daemon control RPC.
	ctlAddr, err := sys1.ServeControl("ctl1")
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := webobj.NewControl(mf, ctlAddr)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ctl.Stats("", "doc")
	if err != nil {
		t.Fatal(err)
	}
	_ = ctl.Close()
	if !stats.Durability.Durable || stats.Durability.WALRecords == 0 {
		t.Fatalf("control stats report no durability: %+v", stats.Durability)
	}
	if stats.Stats.WALAppends == 0 || stats.Applied.Get(77) != 2 {
		t.Fatalf("control stats: %+v", stats)
	}
	d1.Close()
	if err := sys1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh system over the same data dir with the same store
	// identity recovers the object from snapshot + WAL.
	sys2 := webobj.NewSystem(
		webobj.WithDataDir(dir),
		webobj.WithDurability(webobj.Durability{Fsync: webobj.FsyncAlways}),
	)
	defer sys2.Close()
	server2, err := sys2.NewServer("www", webobj.WithStoreID(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys2.Publish(server2, "doc", webobj.WebDoc(), webobj.ConferenceStrategy(time.Hour)); err != nil {
		t.Fatal(err)
	}
	d2, err := sys2.Open("doc", webobj.AsClient(77))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	pg, err := d2.Get("p")
	if err != nil {
		t.Fatal(err)
	}
	if string(pg.Content) != "first.second." {
		t.Fatalf("recovered content = %q", pg.Content)
	}
	// The reused identity's write sequence is floored past the recovered
	// writes: if it restarted at 1, this write would classify as a replay
	// of WiD (77,1) and silently never apply.
	if err := d2.Append("p", []byte("third.")); err != nil {
		t.Fatal(err)
	}
	pg, err = d2.Get("p")
	if err != nil {
		t.Fatal(err)
	}
	if string(pg.Content) != "first.second.third." {
		t.Fatalf("post-restart write lost: content = %q", pg.Content)
	}
}

// Durability knobs stay out of memory-only systems: without WithDataDir the
// control RPC reports non-durable replicas.
func TestStatsReportsMemoryOnlyWithoutDataDir(t *testing.T) {
	mf := webobj.NewMemFabric()
	sys := webobj.NewSystem(webobj.WithFabric(mf))
	defer sys.Close()
	server, err := sys.NewServer("www")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(server, "doc", webobj.WebDoc(), webobj.ConferenceStrategy(time.Hour)); err != nil {
		t.Fatal(err)
	}
	ctlAddr, err := sys.ServeControl("ctl")
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := webobj.NewControl(mf, ctlAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	stats, err := ctl.Stats("", "doc")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Durability.Durable {
		t.Fatalf("memory-only store claims durability: %+v", stats.Durability)
	}
	// Unknown objects answer an error, not a panic or empty payload.
	if _, err := ctl.Stats("", "nope"); err == nil || !strings.Contains(err.Error(), "not hosted") {
		t.Fatalf("stats for unhosted object: %v", err)
	}
}

// A durable system still deploys mirrors and caches: the data dir is scoped
// to the permanent stores that can honour it (store.Host rejects a DataDir
// on other roles), so replication trees of a durable deployment come up
// memory-only at the edges instead of failing.
func TestDurableSystemStillCreatesMirrorsAndCaches(t *testing.T) {
	dir := t.TempDir()
	sys := webobj.NewSystem(
		webobj.WithFabric(webobj.NewMemFabric()),
		webobj.WithDataDir(dir),
		webobj.WithDurability(webobj.Durability{Fsync: webobj.FsyncAlways}),
	)
	defer sys.Close()
	server, err := sys.NewServer("www")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(server, "doc", webobj.WebDoc(), webobj.ConferenceStrategy(time.Hour)); err != nil {
		t.Fatal(err)
	}
	mirror, err := sys.NewMirror("mirror", server)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Replicate(mirror, "doc"); err != nil {
		t.Fatalf("mirror of a durable system must host memory-only, got: %v", err)
	}
	cache, err := sys.NewCache("cache", mirror)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Replicate(cache, "doc"); err != nil {
		t.Fatalf("cache of a durable system must host memory-only, got: %v", err)
	}
	d, err := sys.Open("doc", webobj.AsClient(3), webobj.At(cache))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Append("p", []byte("durable root, volatile edge")); err != nil {
		t.Fatal(err)
	}
}

// The stats control reply carries vectors in the JSON shape of a map from
// client to sequence: "applied" and "durability"."last_snapshot" are
// {"<client>": seq} objects, and last_snapshot is left out until the first
// snapshot is written.
func TestControlStatsVectorJSONShape(t *testing.T) {
	for _, snapshotEvery := range []int{1 << 20, 2} {
		mf := webobj.NewMemFabric()
		sys := webobj.NewSystem(
			webobj.WithFabric(mf),
			webobj.WithDataDir(t.TempDir()),
			webobj.WithDurability(webobj.Durability{Fsync: webobj.FsyncAlways, SnapshotEvery: snapshotEvery}),
		)
		server, err := sys.NewServer("www")
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Publish(server, "doc", webobj.WebDoc(), webobj.ConferenceStrategy(time.Hour)); err != nil {
			t.Fatal(err)
		}
		d, err := sys.Open("doc", webobj.AsClient(77))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []string{"a.", "b.", "c."} {
			if err := d.Append("p", []byte(s)); err != nil {
				t.Fatal(err)
			}
		}
		ctlAddr, err := sys.ServeControl("ctl")
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := webobj.NewControl(mf, ctlAddr)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := ctl.CallPayload(webobj.ControlRequest{Op: "stats", Object: "doc"})
		_ = ctl.Close()
		if err != nil {
			t.Fatal(err)
		}
		var reply struct {
			Applied    map[string]uint64 `json:"applied"`
			Durability map[string]json.RawMessage
		}
		if err := json.Unmarshal(payload, &reply); err != nil {
			t.Fatalf("stats reply %s: %v", payload, err)
		}
		if len(reply.Applied) != 1 || reply.Applied["77"] != 3 {
			t.Fatalf("applied = %v in %s, want {\"77\": 3}", reply.Applied, payload)
		}
		raw, ok := reply.Durability["last_snapshot"]
		if snapshotEvery > 3 {
			if ok {
				t.Fatalf("last_snapshot %s present before any snapshot", raw)
			}
		} else {
			var snap map[string]uint64
			if err := json.Unmarshal(raw, &snap); err != nil || snap["77"] == 0 {
				t.Fatalf("last_snapshot = %s (%v), want a {\"77\": seq} object", raw, err)
			}
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

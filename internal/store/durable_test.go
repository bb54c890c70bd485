package store_test

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/replication"
	"repro/internal/semantics/webdoc"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/transport"
	"repro/internal/wal"
)

// durableStore builds a permanent store with a WAL at dir on an existing
// endpoint — restarts reuse the crashed store's endpoint, whose receive
// loop died with it. Close is registered for cleanup (a no-op after Crash).
func (r *rig) durableStore(ep transport.Endpoint, dir string, id ids.StoreID, d replication.Durability) *store.Store {
	r.t.Helper()
	s := store.New(store.Config{
		ID: id, Role: replication.RolePermanent, Endpoint: ep,
		Tuning:  replication.Tuning{ReadTimeout: 2 * time.Second, Durability: d},
		DataDir: dir,
	})
	r.t.Cleanup(func() { _ = s.Close() })
	return s
}

func (r *rig) endpoint(addr string) transport.Endpoint {
	r.t.Helper()
	ep, err := r.net.Endpoint(addr)
	if err != nil {
		r.t.Fatal(err)
	}
	return ep
}

// Crash a durable store mid-life and restart it from disk on the same
// endpoint: everything acknowledged must still be there, and the restarted
// replica must recognise the session's writes (no re-apply, sequence
// continues).
func TestStoreCrashRestartServesRecoveredState(t *testing.T) {
	r := newRig(t)
	const obj = ids.ObjectID("doc")
	dir := t.TempDir()
	st := strategy.Conference(50 * time.Millisecond)

	permEp := r.endpoint("perm")
	s1 := r.durableStore(permEp, dir, 7, replication.Durability{Fsync: wal.SyncAlways})
	if err := s1.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}
	p1 := r.bind("c1", "perm", obj)
	appendPage(t, p1, "p", "one.")
	appendPage(t, p1, "p", "two.")
	appendPage(t, p1, "p", "three.")
	info, err := s1.Durability(obj)
	if err != nil {
		t.Fatal(err)
	}
	// Three stamped updates + three admissions.
	if !info.Durable || info.WALRecords != 6 || info.WALBytes <= 0 {
		t.Fatalf("durability before crash: %+v", info)
	}
	p1.Close()
	s1.Crash() // kill -9: no flush beyond the per-ack barrier, no WAL close

	s2 := r.durableStore(permEp, dir, 7, replication.Durability{Fsync: wal.SyncAlways})
	if err := s2.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}
	stats, err := s2.Stats(obj)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WALReplayed != 3 || stats.UpdatesApplied != 3 {
		t.Fatalf("replay stats: %+v", stats)
	}
	p2 := r.bind("c2", "perm", obj)
	got, err := getPage(t, p2, "p")
	if err != nil {
		t.Fatal(err)
	}
	if got != "one.two.three." {
		t.Fatalf("recovered content = %q, want %q", got, "one.two.three.")
	}
	// The restarted store keeps accepting writes where the old one stopped.
	appendPage(t, p2, "p", "four.")
	if got, _ = getPage(t, p2, "p"); got != "one.two.three.four." {
		t.Fatalf("post-recovery content = %q", got)
	}
}

// Forced compaction folds the log into the snapshot; a crash right after
// still recovers the full state (from the snapshot) plus the post-snapshot
// tail (from the log).
func TestStoreCompactionThenCrash(t *testing.T) {
	r := newRig(t)
	const obj = ids.ObjectID("doc")
	dir := t.TempDir()
	st := strategy.Conference(50 * time.Millisecond)

	permEp := r.endpoint("perm")
	s1 := r.durableStore(permEp, dir, 3, replication.Durability{Fsync: wal.SyncAlways})
	if err := s1.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}
	p1 := r.bind("c1", "perm", obj)
	appendPage(t, p1, "p", "pre.")
	if err := s1.Compact(obj); err != nil {
		t.Fatal(err)
	}
	info, _ := s1.Durability(obj)
	if info.WALRecords != 0 || info.LastSnapshot == nil {
		t.Fatalf("durability after compaction: %+v", info)
	}
	appendPage(t, p1, "p", "post.")
	p1.Close()
	s1.Crash()

	s2 := r.durableStore(permEp, dir, 3, replication.Durability{Fsync: wal.SyncAlways})
	if err := s2.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st}); err != nil {
		t.Fatal(err)
	}
	stats, _ := s2.Stats(obj)
	if stats.WALReplayed != 1 {
		t.Fatalf("want only the post-snapshot tail replayed, got %+v", stats)
	}
	p2 := r.bind("c2", "perm", obj)
	if got, _ := getPage(t, p2, "p"); got != "pre.post." {
		t.Fatalf("recovered content = %q, want %q", got, "pre.post.")
	}
}

// While the restart gate is closed (children recorded in the WAL, none
// answering yet) new binds are told to retry; the grace timer eventually
// opens the gate even with every child unreachable.
func TestStoreBindRetriesWhileRecovering(t *testing.T) {
	r := newRig(t)
	const obj = ids.ObjectID("doc")
	dir := t.TempDir()

	// Fabricate the crashed store's WAL: one child that no longer exists.
	wlog, _, err := wal.Open(filepath.Join(dir, "store-7", "doc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := wlog.AppendChild("store/ghost", false); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	s := r.durableStore(r.endpoint("perm"), dir, 7, replication.Durability{
		Fsync: wal.SyncAlways, RecoveryGrace: 250 * time.Millisecond,
	})
	if err := s.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(),
		Strat: strategy.Conference(50 * time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	info, err := s.Durability(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Recovering {
		t.Fatalf("store with a recovered child should gate: %+v", info)
	}

	// A raw bind during the gate bounces with StatusRetry.
	probe, err := r.net.Endpoint("probe")
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Send("perm", &msg.Message{
		Kind: msg.KindBindRequest, Object: obj, From: "probe", Client: 5,
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case reply := <-probe.Recv():
		if reply.Kind != msg.KindBindReply || reply.Status != msg.StatusRetry ||
			!strings.Contains(reply.Err, "recovering") {
			t.Fatalf("gated bind reply: %+v", reply)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no bind reply while recovering")
	}

	// The ghost child never answers; the grace timer must open the gate.
	eventually(t, 3*time.Second, func() bool {
		info, err := s.Durability(obj)
		return err == nil && !info.Recovering
	}, "recovery grace opens the gate")
	p := r.bind("c1", "perm", obj)
	appendPage(t, p, "p", "alive")
	if got, _ := getPage(t, p, "p"); got != "alive" {
		t.Fatalf("content after gate opened = %q", got)
	}
}

// A DataDir on a non-permanent role must fail fast at Host: only the
// permanent role persists, and silently dropping durability would let a
// deployment believe its mirror data is safe.
func TestHostRejectsDataDirOnNonPermanentRole(t *testing.T) {
	r := newRig(t)
	for _, role := range []replication.Role{replication.RoleObjectInitiated, replication.RoleClientInitiated} {
		s := store.New(store.Config{
			ID: 21, Role: role, Endpoint: r.endpoint("nd-" + role.String()),
			DataDir: t.TempDir(),
		})
		err := s.Host(store.HostConfig{Object: "doc", Semantics: webdoc.New(), Strat: strategy.Conference(time.Hour)})
		_ = s.Close()
		if err == nil {
			t.Fatalf("%v role accepted a DataDir", role)
		}
		if !strings.Contains(err.Error(), "only permanent stores are durable") {
			t.Fatalf("error should explain the durability rule, got: %v", err)
		}
	}
}

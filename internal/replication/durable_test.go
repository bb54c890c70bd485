package replication

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/semantics/webdoc"
	"repro/internal/strategy"
	"repro/internal/vclock"
	"repro/internal/wal"
)

// openDurable builds a durable permanent replica backed by the WAL in dir,
// replaying whatever a previous incarnation left there. Abandoning the
// returned object without Close simulates kill -9: the event loop is gone
// but every synced record is on disk.
func openDurable(t *testing.T, env Env, dir string, grace time.Duration) *Object {
	t.Helper()
	wlog, rec, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(Config{
		Env: env, Object: "obj", Self: 1, Addr: "self", Role: RolePermanent,
		Strat: strategy.Conference(time.Hour), WAL: wlog, Recovered: rec,
		Tuning: Tuning{
			ReadTimeout: time.Second,
			Durability:  Durability{Fsync: wal.SyncAlways, RecoveryGrace: grace},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func pageContent(t *testing.T, env *fakeEnv, page string) []byte {
	t.Helper()
	b, err := env.ctrl.ServeRead(msg.Invocation{Method: webdoc.MethodGetPage, Page: page})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The restart identity hazard: a recovered store must not re-stamp or
// re-sequence a write it already acknowledged before the crash — the retry
// must be re-acked from the recovered admission state without a second
// apply, and genuinely new writes must continue the sequence.
func TestDurableRestartReplayNoDuplicateApply(t *testing.T) {
	dir := t.TempDir()
	env1 := newFakeEnv()
	o1 := openDurable(t, env1, dir, time.Hour)
	o1.Handle(writeMsg(1, 1, "p", "hello"))
	o1.Handle(writeMsg(1, 2, "p", "world"))
	o1.FlushAcks() // the store loop's per-batch barrier
	if acks := env1.takeSent(msg.KindWriteReply); len(acks) != 2 || acks[0].Status != msg.StatusOK {
		t.Fatalf("acks before crash: %+v", acks)
	}
	// kill -9: no Close, no final flush beyond that barrier.

	env2 := newFakeEnv()
	o2 := openDurable(t, env2, dir, time.Hour)
	defer o2.Close()
	if o2.Recovering() {
		t.Fatal("no children were recorded; the gate must not close")
	}
	st := o2.Stats()
	if st.WALReplayed != 2 || st.UpdatesApplied != 2 {
		t.Fatalf("replay stats: %+v", st)
	}
	if applied := o2.Applied(); !applied.CoversWrite(ids.WiD{Client: 1, Seq: 2}) {
		t.Fatalf("recovered applied vector %v misses the acked writes", o2.Applied())
	}

	// The client retries the acked-but-maybe-lost write: re-ack, no re-apply.
	o2.Handle(writeMsg(1, 1, "p", "hello"))
	o2.FlushAcks()
	if acks := env2.takeSent(msg.KindWriteReply); len(acks) != 1 || acks[0].Status != msg.StatusOK {
		t.Fatalf("replay ack: %+v", acks)
	}
	if got := o2.Stats().UpdatesApplied; got != 2 {
		t.Fatalf("replayed retry re-applied: UpdatesApplied = %d, want 2", got)
	}
	// A genuinely new write continues the recovered sequence.
	o2.Handle(writeMsg(1, 3, "p", "again"))
	if got := o2.Stats().UpdatesApplied; got != 3 {
		t.Fatalf("fresh write after recovery: UpdatesApplied = %d, want 3", got)
	}
	content := pageContent(t, env2, "p")
	for _, w := range []string{"hello", "world", "again"} {
		if bytes.Count(content, []byte(w)) != 1 {
			t.Fatalf("%q appears %d times in %q, want exactly once",
				w, bytes.Count(content, []byte(w)), content)
		}
	}
}

// Replayed updates are the replica's own, like live ones (Env.ApplyOp): the
// page keeps a window of their args, so they must not alias the log file's
// image the records were decoded from.
func TestDurableReplayOwnsItsUpdates(t *testing.T) {
	dir := t.TempDir()
	o1 := openDurable(t, newFakeEnv(), dir, time.Hour)
	put := writeMsg(1, 1, "p", "hello")
	put.Inv.Method = webdoc.MethodPutPage
	o1.Handle(put)
	o1.FlushAcks()

	wlog, rec, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var image [][]byte
	for _, r := range rec.Records {
		if r.Update != nil {
			image = append(image, r.Update.Inv.Args)
		}
	}
	env := newFakeEnv()
	o2, err := New(Config{
		Env: env, Object: "obj", Self: 1, Addr: "self", Role: RolePermanent,
		Strat: strategy.Conference(time.Hour), WAL: wlog, Recovered: rec,
		Tuning: Tuning{ReadTimeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	if len(image) != 1 {
		t.Fatalf("%d update records, want 1", len(image))
	}
	clear(image[0])
	if got := pageContent(t, env, "p"); !bytes.Contains(got, []byte("hello")) {
		t.Fatalf("page content follows the log file's image: %q", got)
	}
}

// Crash between sequencing a write (its stamped update record hit the log)
// and logging its admission record: recovery must seed the admission
// watermark from the update itself, so the client's retry — the ack never
// left — is re-acked as a replay instead of being stamped a second time
// and double-applied.
func TestDurableUpdateWithoutAdmitIsReplayAfterRestart(t *testing.T) {
	dir := t.TempDir()
	wlog, _, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ghost := writeMsg(9, 1, "p", "ghost")
	if err := wlog.AppendUpdate(&coherence.Update{
		Write: ghost.Write,
		Stamp: vclock.Stamp{Time: 7, Client: 9},
		Inv:   ghost.Inv,
	}); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	env := newFakeEnv()
	o := openDurable(t, env, dir, time.Hour)
	defer o.Close()
	if got := o.Stats().UpdatesApplied; got != 1 {
		t.Fatalf("durable update not replayed: UpdatesApplied = %d", got)
	}
	o.Handle(writeMsg(9, 1, "p", "ghost"))
	o.FlushAcks()
	if acks := env.takeSent(msg.KindWriteReply); len(acks) != 1 || acks[0].Status != msg.StatusOK {
		t.Fatalf("retry of sequenced-but-unacked write not re-acked: %+v", acks)
	}
	if got := o.Stats().UpdatesApplied; got != 1 {
		t.Fatalf("retry re-applied: UpdatesApplied = %d, want 1", got)
	}
	// The next sequence from the same client is new work.
	o.Handle(writeMsg(9, 2, "p", "real"))
	if got := o.Stats().UpdatesApplied; got != 2 {
		t.Fatalf("fresh write after replay: UpdatesApplied = %d, want 2", got)
	}
	content := pageContent(t, env, "p")
	if bytes.Count(content, []byte("ghost")) != 1 || bytes.Count(content, []byte("real")) != 1 {
		t.Fatalf("content mismatch: %q", content)
	}
}

// Snapshot compaction racing live writes: records appended after the
// snapshot's applied vector form the WAL tail, and recovery re-applies
// exactly that tail on top of the snapshot state — nothing twice, nothing
// dropped.
func TestDurableSnapshotRacingLiveWrites(t *testing.T) {
	dir := t.TempDir()
	env1 := newFakeEnv()
	o1 := openDurable(t, env1, dir, time.Hour)
	for seq := uint64(1); seq <= 3; seq++ {
		o1.Handle(writeMsg(1, seq, "p", "pre-"+string(rune('0'+seq))))
	}
	if err := o1.Compact(); err != nil {
		t.Fatal(err)
	}
	info := o1.Durability()
	if !info.Durable || info.WALRecords != 0 || info.LastSnapshot == nil {
		t.Fatalf("durability after compaction: %+v", info)
	}
	// Live writes land after the snapshot point.
	for seq := uint64(4); seq <= 5; seq++ {
		o1.Handle(writeMsg(1, seq, "p", "post-"+string(rune('0'+seq))))
	}
	env1.takeSent(msg.KindWriteReply)
	// kill -9.

	env2 := newFakeEnv()
	o2 := openDurable(t, env2, dir, time.Hour)
	defer o2.Close()
	st := o2.Stats()
	if st.WALReplayed != 2 || st.UpdatesApplied != 2 {
		t.Fatalf("only the post-snapshot tail should re-apply: %+v", st)
	}
	if applied := o2.Applied(); !applied.CoversWrite(ids.WiD{Client: 1, Seq: 5}) {
		t.Fatalf("recovered applied vector %v misses the tail", o2.Applied())
	}
	content := pageContent(t, env2, "p")
	for seq := uint64(1); seq <= 5; seq++ {
		prefix := "pre-"
		if seq > 3 {
			prefix = "post-"
		}
		w := prefix + string(rune('0'+seq))
		if bytes.Count(content, []byte(w)) != 1 {
			t.Fatalf("%q appears %d times, want exactly once", w, bytes.Count(content, []byte(w)))
		}
	}
	// A retry of a write the snapshot already contains is still a replay.
	o2.Handle(writeMsg(1, 2, "p", "pre-2"))
	if got := o2.Stats().UpdatesApplied; got != 2 {
		t.Fatalf("snapshot-covered retry re-applied: %d", got)
	}
}

// The recover-then-serve gate: a restarted store with recorded children
// bounces reads and writes with StatusRetry while it anti-entropies the
// tail, and the first coherence answer from every pending child opens it.
func TestDurableRecoveryGate(t *testing.T) {
	dir := t.TempDir()
	wlog, _, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := wlog.AppendChild("store/kid", false); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	env := newFakeEnv()
	o := openDurable(t, env, dir, time.Hour)
	defer o.Close()
	if !o.Recovering() || !o.Durability().Recovering {
		t.Fatal("store with recovered children must gate behind recovery")
	}
	demands := env.takeSent(msg.KindDemandUpdate)
	if len(demands) != 1 || demands[0].To != "store/kid" {
		t.Fatalf("recovery demands: %+v", demands)
	}

	o.Handle(writeMsg(2, 1, "p", "early"))
	if acks := env.takeSent(msg.KindWriteReply); len(acks) != 1 || acks[0].Status != msg.StatusRetry {
		t.Fatalf("gated write: %+v", acks)
	}
	o.Handle(&msg.Message{
		Kind: msg.KindReadRequest, Object: "obj", From: "reader-ep", Client: 2,
		Inv: msg.Invocation{Method: webdoc.MethodGetPage, Page: "p"},
	})
	if replies := env.takeSent(msg.KindReadReply); len(replies) != 1 || replies[0].Status != msg.StatusRetry {
		t.Fatalf("gated read: %+v", replies)
	}

	// The child answers the anti-entropy demand (an empty ack is enough —
	// it proves the child has nothing beyond our applied vector).
	env.clk.Advance(time.Millisecond)
	o.Handle(&msg.Message{Kind: msg.KindUpdateAck, Object: "obj", From: "store/kid"})
	if o.Recovering() {
		t.Fatal("gate still closed after every pending child answered")
	}
	o.Handle(writeMsg(2, 1, "p", "after"))
	o.FlushAcks()
	if acks := env.takeSent(msg.KindWriteReply); len(acks) != 1 || acks[0].Status != msg.StatusOK {
		t.Fatalf("write after gate opened: %+v", acks)
	}
	if o.Stats().RecoveryNanos == 0 {
		t.Fatal("recovery duration not stamped")
	}
}

// An unreachable child must not wedge the gate forever: the grace timer
// force-opens it.
func TestDurableRecoveryGraceExpires(t *testing.T) {
	dir := t.TempDir()
	wlog, _, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := wlog.AppendChild("store/gone", false); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	env := newFakeEnv()
	o := openDurable(t, env, dir, 80*time.Millisecond)
	defer o.Close()
	if !o.Recovering() {
		t.Fatal("gate must start closed")
	}
	env.clk.Advance(100 * time.Millisecond)
	if o.Recovering() {
		t.Fatal("grace expiry did not open the gate")
	}
}

// wireEnv is a fakeEnv that records each frame as a transport puts it on the
// wire — encoded before Send returns — beside the address it was sent to.
type wireEnv struct {
	*fakeEnv
	dests  []string
	frames []*msg.Message
}

func (e *wireEnv) Send(to string, m *msg.Message) error {
	f, err := msg.Decode(msg.Encode(m))
	if err != nil {
		return err
	}
	e.dests, e.frames = append(e.dests, to), append(e.frames, f)
	return nil
}

func (e *wireEnv) Multicast(tos []string, m *msg.Message) error {
	for _, to := range tos {
		if err := e.Send(to, m); err != nil {
			return err
		}
	}
	return nil
}

// An ack parked for the group commit outlives its request's frame, whose
// buffer the transport may reuse before FlushAcks: the parked reply must own
// its address, on the wire as well as in the Send call.
func TestParkedAckOwnsItsAddress(t *testing.T) {
	env := &wireEnv{fakeEnv: newFakeEnv()}
	o := openDurable(t, env, t.TempDir(), time.Hour)
	defer o.Close()
	wire := msg.Encode(writeMsg(1, 1, "p", "x"))
	req, err := msg.DecodeAlias(wire) // From aliases wire, as a transport delivers it
	if err != nil {
		t.Fatal(err)
	}
	o.Handle(req)
	if len(env.frames) != 0 {
		t.Fatalf("ack left before the barrier: %+v", env.frames)
	}
	for i := range wire {
		wire[i] = 'X' // the transport reuses the frame's buffer
	}
	o.FlushAcks()
	if len(env.frames) != 1 || env.frames[0].Kind != msg.KindWriteReply {
		t.Fatalf("frames after FlushAcks: %+v", env.frames)
	}
	if env.dests[0] != "client-ep" || env.frames[0].To != "client-ep" {
		t.Fatalf("parked ack sent to %q addressed %q, want client-ep", env.dests[0], env.frames[0].To)
	}
}

// A compaction that fails (its snapshot's temp path is taken by a directory,
// as a full disk would fail it) keeps the whole log, and the replica waits for
// another SnapshotEvery appends before it tries again instead of re-encoding
// its state on every apply. A fresh write appends two records (its update and
// its admission), so 3×SnapshotEvery writes append 6×SnapshotEvery records
// and may fail at most 6 times. Every write is acked and recovers.
func TestFailedCompactionBacksOff(t *testing.T) {
	const every, writes = 8, 3 * 8
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "snapshot.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	open := func(env Env) *Object {
		wlog, rec, err := wal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		o, err := New(Config{
			Env: env, Object: "obj", Self: 1, Addr: "self", Role: RolePermanent,
			Strat: strategy.Conference(time.Hour), WAL: wlog, Recovered: rec,
			Tuning: Tuning{ReadTimeout: time.Second, Durability: Durability{Fsync: wal.SyncAlways, SnapshotEvery: every}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	env1 := newFakeEnv()
	o1 := open(env1)
	for seq := uint64(1); seq <= writes; seq++ {
		o1.Handle(writeMsg(1, seq, "p", fmt.Sprintf("<%d>", seq)))
		o1.FlushAcks()
	}
	acks := env1.takeSent(msg.KindWriteReply)
	if len(acks) != writes {
		t.Fatalf("%d of %d writes acked", len(acks), writes)
	}
	for _, a := range acks {
		if a.Status != msg.StatusOK {
			t.Fatalf("write acked with %v: %s", a.Status, a.Err)
		}
	}
	st := o1.Stats()
	if st.WALSnapshots != 0 || st.WALSnapshotFailures == 0 || st.WALSnapshotFailures > 2*writes/every {
		t.Fatalf("compactions: %d written, %d failed; want none written and 1 to %d failed",
			st.WALSnapshots, st.WALSnapshotFailures, 2*writes/every)
	}
	// kill -9.

	env2 := newFakeEnv()
	o2 := open(env2)
	defer o2.Close()
	if got := o2.Stats().UpdatesApplied; got != writes {
		t.Fatalf("recovered %d updates, want %d", got, writes)
	}
	content := pageContent(t, env2, "p")
	for seq := 1; seq <= writes; seq++ {
		if w := fmt.Sprintf("<%d>", seq); bytes.Count(content, []byte(w)) != 1 {
			t.Fatalf("%q appears %d times in %q, want once", w, bytes.Count(content, []byte(w)), content)
		}
	}
}

// TestSnapshotBytesAreCanonical: two durable replicas that admit the same
// writes, from 8 clients in different orders, write byte-identical snapshot
// files. Each client skips two sequence numbers, so every admission record
// holds holes. Compaction used to list the records, and each record's holes,
// in map order.
func TestSnapshotBytesAreCanonical(t *testing.T) {
	st := strategy.Conference(time.Hour)
	st.Model, st.Writers = coherence.Sequential, strategy.MultipleWriters
	var files [2][]byte
	for i := range files {
		dir := t.TempDir()
		wlog, rec, err := wal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		o, err := New(Config{
			Env: newFakeEnv(), Object: "obj", Self: 1, Addr: "self", Role: RolePermanent,
			Strat: st, WAL: wlog, Recovered: rec,
			Tuning: Tuning{ReadTimeout: time.Second, Durability: Durability{Fsync: wal.SyncAlways}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range []uint64{1, 3, 5} {
			for c := 1; c <= 8; c++ {
				if i == 1 {
					c = 9 - c
				}
				o.Handle(writeMsg(ids.ClientID(c), seq, fmt.Sprintf("p%d", c), "x"))
				if i == 1 {
					c = 9 - c
				}
			}
		}
		o.FlushAcks()
		if err := o.Compact(); err != nil {
			t.Fatal(err)
		}
		o.Close()
		if files[i], err = os.ReadFile(filepath.Join(dir, "snapshot")); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("the same replica state wrote two snapshot files:\n%x\n%x", files[0], files[1])
	}
}

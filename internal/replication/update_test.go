package replication

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/semantics"
	"repro/internal/semantics/webdoc"
	"repro/internal/strategy"
)

// pushedWrite is client 1's write seq as a whiteboard parent pushes it.
func pushedWrite(seq uint64, inv msg.Invocation) msg.Message {
	return msg.Message{
		Kind: msg.KindUpdate, Object: "obj", From: "www",
		Write: ids.WiD{Client: 1, Seq: seq}, GlobalSeq: seq, Inv: inv,
	}
}

// putInv is a PutPage of content to page.
func putInv(page, content string) msg.Invocation {
	return msg.Invocation{Method: webdoc.MethodPutPage, Page: page,
		Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: []byte(content)})}
}

// mallocsPerOp is testing.AllocsPerRun without its rounding down: the mean
// count of heap allocations over n calls of f, after one warm-up call.
func mallocsPerOp(n int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestReceivedUpdateAllocs: in steady state a received update costs one
// allocation, the block its page name and arguments are copied into, plus a
// thirty-second of a slab for its struct; pushed alone or in a batch. Once
// the log is full, appending to it allocates nothing.
func TestReceivedUpdateAllocs(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleObjectInitiated, strategy.Whiteboard(), "www")
	inv := putInv("p", "content")
	seq := uint64(0)
	var m msg.Message
	push := func() {
		seq++
		m = pushedWrite(seq, inv)
		o.Handle(&m)
	}
	for range logLimit {
		push()
	}
	single := mallocsPerOp(2000, push)
	if single > 1.1 {
		t.Errorf("pushed KindUpdate: %.3f allocations per update, want ≤ 1.1", single)
	}

	batch := make([]msg.BatchUpdate, 8)
	pushBatch := func() {
		for i := range batch {
			seq++
			batch[i] = msg.BatchUpdate{Write: ids.WiD{Client: 1, Seq: seq}, GlobalSeq: seq, Inv: inv}
		}
		m = msg.Message{Kind: msg.KindUpdateBatch, Object: "obj", From: "www", Batch: batch}
		o.Handle(&m)
	}
	batched := mallocsPerOp(250, pushBatch) / float64(len(batch))
	if batched > 1.1 {
		t.Errorf("KindUpdateBatch: %.3f allocations per entry, want ≤ 1.1", batched)
	}
	if got := o.Stats().UpdatesApplied; got != seq {
		t.Fatalf("%d updates applied, want %d", got, seq)
	}
	if len(env.sent) != 0 {
		t.Fatalf("an in-order push sent %d frames", len(env.sent))
	}

	// A run is logLimit appends, one slide through the arena: a log that
	// reallocated would show several allocations in every run, and a stray
	// one from another goroutine rounds away.
	var l updateLog
	const runs = 4
	ups := make([]coherence.Update, (runs+2)*logLimit)
	for i := range ups {
		ups[i].Write = ids.WiD{Client: 1, Seq: uint64(i + 1)}
	}
	next := 0
	appendRun := func() {
		for range logLimit {
			l.append(&ups[next])
			next++
		}
	}
	appendRun()
	if got := testing.AllocsPerRun(runs, appendRun); got != 0 {
		t.Errorf("append to a full log: %.0f allocations per %d updates, want 0", got, logLimit)
	}
	t.Logf("allocations per update: pushed %.3f, batched %.3f", single, batched)
}

// TestUpdateBlockOwnsItsBytes: a received update's page name and arguments
// are one block of its own, so neither the frame's release (poisoned under
// leasecheck) nor a later write to the same page changes what the log holds.
func TestUpdateBlockOwnsItsBytes(t *testing.T) {
	env := newFakeEnv()
	o := newObj(t, env, RoleObjectInitiated, strategy.Whiteboard(), "www")
	put := putInv("page", "first")
	more := msg.Invocation{Method: webdoc.MethodAppendPage, Page: "page",
		Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: []byte("+second")})}
	seal := msg.Invocation{Method: semantics.MethodNoop}
	for i, inv := range []msg.Invocation{put, more, seal} {
		m := pushedWrite(uint64(i+1), inv)
		o.Handle(leased(t, &m))
	}
	if got := string(pageOf(t, env, "page").Content); got != "first+second" {
		t.Fatalf("page content %q, want %q", got, "first+second")
	}
	if len(o.log.entries) != 3 {
		t.Fatalf("log holds %d updates, want 3", len(o.log.entries))
	}
	for i, want := range []msg.Invocation{put, more} {
		u := o.log.entries[i]
		if u.Inv.Page != want.Page || string(u.Inv.Args) != string(want.Args) {
			t.Errorf("logged update %d: page %q args %q, want %q %q", i, u.Inv.Page, u.Inv.Args, want.Page, want.Args)
		}
		ownsOneBlock(t, u)
	}
	if u := o.log.entries[2]; u.Inv.Page != "" || u.Inv.Args != nil {
		t.Errorf("logged seal write: page %q args %#v, want none", u.Inv.Page, u.Inv.Args)
	}

	// A WAL-replayed update is the replica's own in the same way.
	dir := t.TempDir()
	d := openDurable(t, newFakeEnv(), dir, time.Hour)
	d.Handle(writeMsg(1, 1, "page", "durable"))
	d.FlushAcks()
	r := openDurable(t, newFakeEnv(), dir, time.Hour)
	defer r.Close()
	if len(r.log.entries) != 1 {
		t.Fatalf("replayed log holds %d updates, want 1", len(r.log.entries))
	}
	ownsOneBlock(t, r.log.entries[0])
}

// ownsOneBlock fails unless u's arguments start where its page name ends and
// end at their capacity: the one block cloneInv copied both into.
func ownsOneBlock(t *testing.T, u *coherence.Update) {
	t.Helper()
	a := u.Inv.Args
	if unsafe.Add(unsafe.Pointer(unsafe.StringData(u.Inv.Page)), len(u.Inv.Page)) != unsafe.Pointer(&a[0]) || cap(a) != len(a) {
		t.Errorf("update %v: page name and arguments are not one block", u.Write)
	}
}

// pageOf reads a page back through the replica's semantics object.
func pageOf(t *testing.T, env *fakeEnv, page string) *webdoc.Page {
	t.Helper()
	p, err := webdoc.DecodePage(pageContent(t, env, page))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

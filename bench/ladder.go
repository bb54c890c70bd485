package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/clock"
	"repro/internal/coherence"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/replication"
	"repro/internal/semantics/webdoc"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/webobj"
)

// The ladder replays the workload's own ops at successive depths of the
// program, calling each layer's public functions from here and timing each
// call from outside. A rung's span covers the layers below it, so a layer's
// self time is its span minus its children's. The rungs are separate runs
// of the same op list, not one nested call: spans of the same op on
// different rungs share the op's index as their identifier.

// rungNames lists the rungs bottom-up; rungParent is the rung that calls
// each one in the assembled program.
var rungNames = []string{"semantics", "control", "coherence", "replication", "store", "core", "webobj"}

var rungParent = map[string]string{
	"semantics": "control", "control": "replication", "coherence": "replication",
	"replication": "store", "store": "core", "core": "webobj",
}

// rung is one depth: how to do a read and a write there, and how to tear
// its fixture down.
type rung struct {
	name  string
	read  func(page int) error
	write func(page, k int) error
	close func()
}

// span is one timed call into one layer.
type span struct {
	rung       uint8
	write      bool
	op         uint32
	start, end int64 // ns since the ladder started
}

// rungResult is one rung's medians and mean allocations per op.
type rungResult struct {
	readNs, writeNs         float64 // median span, timer overhead removed
	readAllocs, writeAllocs float64
	reads, writes           int
}

type ladder struct {
	sp    *spec
	in    *inputs
	ops   []op
	args  [][]byte // encoded Put arguments, one per content variant
	t0    time.Time
	spans []span
	dir   string
	calls int // repetitions of each single timed call
}

// rungTotals accumulates one rung's spans and allocations over the chunks.
type rungTotals struct {
	lat    [2][]float64 // span lengths in ns: reads, writes
	allocs [2]uint64
}

// ladderChunk is how many ops one rung replays before the next rung takes
// its turn on the same ops. Every rung then sees the same stretch of the
// box's weather, so the difference of two rungs' medians is the layer and
// not the minute they happened to run in.
const ladderChunk = 1000

// measureChunk replays ops[lo:hi] on one rung: the reads, then the writes.
// Allocations are the whole process's, so the store loop's and the
// transport's count too; ReadMemStats is exact but stops the world, which
// is why it brackets a pass and not an op.
func (l *ladder) measureChunk(idx int, r *rung, tot *rungTotals, lo, hi int) error {
	for kind, write := range []bool{false, true} {
		before := readResources().mallocs
		for i := lo; i < hi; i++ {
			o := l.ops[i]
			if o.write != write {
				continue
			}
			var err error
			start := time.Now()
			if write {
				err = r.write(int(o.page), i)
			} else {
				err = r.read(int(o.page))
			}
			end := time.Now()
			if err != nil {
				return fmt.Errorf("%s rung, op %d: %w", r.name, i, err)
			}
			tot.lat[kind] = append(tot.lat[kind], float64(end.Sub(start)))
			l.spans = append(l.spans, span{rung: uint8(idx), write: write, op: uint32(i),
				start: int64(start.Sub(l.t0)), end: int64(end.Sub(l.t0))})
		}
		tot.allocs[kind] += readResources().mallocs - before
	}
	return nil
}

func (t *rungTotals) result(overhead float64) rungResult {
	perOp := func(kind int) float64 { return ratio(float64(t.allocs[kind]), float64(len(t.lat[kind]))) }
	return rungResult{
		readNs: max(median(t.lat[0])-overhead, 0), writeNs: max(median(t.lat[1])-overhead, 0),
		readAllocs: perOp(0), writeAllocs: perOp(1),
		reads: len(t.lat[0]), writes: len(t.lat[1]),
	}
}

func (l *ladder) getInv(page int) msg.Invocation {
	return msg.Invocation{Method: webdoc.MethodGetPage, Page: l.in.names[page]}
}

func (l *ladder) putInv(page, k int) msg.Invocation {
	return msg.Invocation{Method: webdoc.MethodPutPage, Page: l.in.names[page], Args: l.args[k%contentVariants]}
}

// loadedDoc is a webdoc holding every page once, like www after set-up.
func (l *ladder) loadedDoc() *webdoc.Document {
	doc := webdoc.New()
	for i, name := range l.in.names {
		doc.Put(name, l.in.contents[i%contentVariants], "text/html", 1)
	}
	return doc
}

func (l *ladder) semanticsRung() *rung {
	doc := l.loadedDoc()
	return &rung{
		read:  func(p int) error { _, err := doc.Invoke(l.getInv(p)); return err },
		write: func(p, k int) error { _, err := doc.Invoke(l.putInv(p, k)); return err },
	}
}

const ladderClient = ids.ClientID(7)

func (l *ladder) controlRung() *rung {
	ctrl := control.New(l.loadedDoc())
	var seq uint64
	return &rung{
		read: func(p int) error { _, err := ctrl.ServeRead(l.getInv(p)); return err },
		write: func(p, k int) error {
			seq++
			return ctrl.ApplyOp(&coherence.Update{Write: ids.WiD{Client: ladderClient, Seq: seq}, Inv: l.putInv(p, k)})
		},
	}
}

// coherenceRung is the ordering work alone: on the client the session's
// requirement and bookkeeping, at the store the engine of the workload's
// model. It touches no page.
func (l *ladder) coherenceRung() (*rung, error) {
	eng, err := coherence.NewEngine(l.sp.strat.Model)
	if err != nil {
		return nil, err
	}
	sess := coherence.NewSession(ladderClient, l.sp.session...)
	var global uint64
	return &rung{
		read: func(int) error {
			req, _ := sess.ReadRequirement()
			applied := eng.Applied()
			if v := msg.VecFrom(req); !v.CoveredBy(applied) {
				return fmt.Errorf("requirement %v not covered by %v", req, applied)
			}
			sess.ReadDone(applied)
			return nil
		},
		write: func(int, int) error {
			w, deps := sess.NextWrite()
			global++
			if out := eng.Submit(&coherence.Update{Write: w, Deps: deps, GlobalSeq: global}); len(out) != 1 {
				return fmt.Errorf("engine released %d updates for %v, want 1", len(out), w)
			}
			sess.WriteDone(w, 1)
			return nil
		},
	}, nil
}

// rootChildren is how many stores subscribe directly to www.
func (sp *spec) rootChildren() int {
	if sp.flat {
		return 3
	}
	return 1
}

// stubEnv is a replication.Env over a real control object and no network:
// sends are counted and dropped, timers fire when the rung says so.
type stubEnv struct {
	ctrl   *control.Control
	sent   int
	timers []func()
}

func (e *stubEnv) Send(string, *msg.Message) error { e.sent++; return nil }
func (e *stubEnv) Multicast(tos []string, _ *msg.Message) error {
	e.sent += len(tos)
	return nil
}
func (e *stubEnv) ApplyOp(u *coherence.Update) error        { return e.ctrl.ApplyOp(u) }
func (e *stubEnv) ApplyFull(s []byte) error                 { return e.ctrl.ApplyFull(s) }
func (e *stubEnv) ApplyElement(n string, d []byte) error    { return e.ctrl.ApplyElement(n, d) }
func (e *stubEnv) Snapshot() ([]byte, error)                { return e.ctrl.Snapshot() }
func (e *stubEnv) SnapshotElement(n string) ([]byte, error) { return e.ctrl.SnapshotElement(n) }
func (e *stubEnv) ServeRead(inv msg.Invocation) ([]byte, error) {
	return e.ctrl.ServeRead(inv)
}
func (e *stubEnv) Now() time.Time { return time.Now() }
func (e *stubEnv) AfterFunc(_ time.Duration, f func()) clock.Timer {
	e.timers = append(e.timers, f)
	return stubTimer{}
}

type stubTimer struct{}

func (stubTimer) Stop() bool { return false }

// lazyEvery is how many writes pass between firings of the stub timers: a
// lazy flush then ships a batch of about the size the real workload's does.
const lazyEvery = 16

func (l *ladder) readReq(page int, from string) *msg.Message {
	return &msg.Message{Kind: msg.KindReadRequest, Object: object, From: from, Client: ladderClient, Inv: l.getInv(page)}
}

func (l *ladder) writeReq(page, k int, seq uint64, from string) *msg.Message {
	return &msg.Message{
		Kind: msg.KindWriteRequest, Object: object, From: from, Client: ladderClient,
		Write: ids.WiD{Client: ladderClient, Seq: seq}, Inv: l.putInv(page, k), WallNanos: 1,
	}
}

func subscribeMsg(child int) *msg.Message {
	return &msg.Message{Kind: msg.KindSubscribe, Object: object, From: fmt.Sprintf("child-%d", child)}
}

// replicationRung drives Object.Handle at a permanent-role object with the
// workload's child count. msgsOut reports what the stub saw leave per write.
func (l *ladder) replicationRung() (r *rung, msgsOut func() float64, err error) {
	env := &stubEnv{ctrl: control.New(l.loadedDoc())}
	obj, err := replication.New(replication.Config{
		Env: env, Object: object, Self: 1, Addr: "www", Role: replication.RolePermanent,
		Strat: l.sp.strat, Session: l.sp.session,
	})
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < l.sp.rootChildren(); i++ {
		obj.Handle(subscribeMsg(i))
	}
	env.sent = 0
	var seq uint64
	var readsSent int
	r = &rung{
		read: func(p int) error {
			before := env.sent
			obj.Handle(l.readReq(p, "client"))
			readsSent += env.sent - before
			if env.sent == before {
				return fmt.Errorf("read got no reply")
			}
			return nil
		},
		write: func(p, k int) error {
			seq++
			before := env.sent
			obj.Handle(l.writeReq(p, k, seq, "client"))
			if env.sent == before {
				return fmt.Errorf("write got no reply")
			}
			if seq%lazyEvery == 0 {
				timers := env.timers
				env.timers = nil
				for _, f := range timers {
					f()
				}
			}
			return nil
		},
		close: obj.Close,
	}
	return r, func() float64 { return float64(env.sent-readsSent) / float64(max(seq, 1)) }, nil
}

// stubEndpoint is a transport.Endpoint with no transport: requests are put
// on the inbox as structs, replies to the client address come back on a
// channel, everything else the store sends is dropped.
type stubEndpoint struct {
	inbox   chan *msg.Message
	replies chan *msg.Message
}

const stubClient = "client"

func (e *stubEndpoint) Addr() string { return "www" }
func (e *stubEndpoint) Send(to string, m *msg.Message) error {
	if to == stubClient {
		e.replies <- m
	}
	return nil
}
func (e *stubEndpoint) Multicast(tos []string, m *msg.Message) error {
	for _, to := range tos {
		_ = e.Send(to, m) // the stub's Send cannot fail
	}
	return nil
}
func (e *stubEndpoint) Recv() <-chan *msg.Message { return e.inbox }
func (e *stubEndpoint) Close() error              { return nil }

var _ transport.Endpoint = (*stubEndpoint)(nil)

// storeRung sends a request struct into a real store's event loop and waits
// for the reply struct: the loop, its queueing and two goroutine hand-offs,
// without codec or transport.
func (l *ladder) storeRung() (*rung, error) {
	// The inbox holds one request at a time; the reply channel needs room
	// for the one reply in flight so the store loop never blocks on it.
	ep := &stubEndpoint{inbox: make(chan *msg.Message, 1), replies: make(chan *msg.Message, 1)}
	st := store.New(store.Config{ID: 1, Role: replication.RolePermanent, Endpoint: ep})
	err := st.Host(store.HostConfig{
		Object: object, Semantics: l.loadedDoc(), SemName: "webdoc", Strat: l.sp.strat, Session: l.sp.session,
	})
	if err != nil {
		_ = st.Close()
		return nil, err
	}
	for i := 0; i < l.sp.rootChildren(); i++ {
		ep.inbox <- subscribeMsg(i)
	}
	call := func(m *msg.Message) error {
		ep.inbox <- m
		select {
		case r := <-ep.replies:
			if r.Status != msg.StatusOK {
				return fmt.Errorf("store replied %v: %s", r.Status, r.Err)
			}
			return nil
		case <-time.After(opTimeout):
			return fmt.Errorf("no reply from the store within %v", opTimeout)
		}
	}
	var seq uint64
	return &rung{
		read:  func(p int) error { return call(l.readReq(p, stubClient)) },
		write: func(p, k int) error { seq++; return call(l.writeReq(p, k, seq, stubClient)) },
		close: func() { _ = st.Close() },
	}, nil
}

// oneStore is the deployment the top two rungs run against: www alone on the
// workload's fabric, no children, no WAL, so what they measure is the path
// of one request and nothing concurrent with it.
type oneStore struct {
	sys *webobj.System
	www *webobj.Store
	fab webobj.Fabric
}

func (l *ladder) newOneStore() (*oneStore, error) {
	var fab webobj.Fabric = webobj.NewMemFabric()
	if l.sp.tcp {
		fab = webobj.NewTCPFabric("")
	}
	sys := webobj.NewSystem(webobj.WithFabric(fab), webobj.WithFailover(webobj.FailoverConfig{Attempts: 1}))
	www, err := sys.NewServer("www")
	if err == nil {
		err = sys.Publish(www, object, webobj.WebDoc(), l.sp.strat, l.sp.session...)
	}
	if err != nil {
		_ = sys.Close()
		return nil, err
	}
	return &oneStore{sys: sys, www: www, fab: fab}, nil
}

// Each of the top two rungs loads the pages through the handle it then
// measures: a single-writer object belongs to its first writer.

func (l *ladder) coreRung() (*rung, error) {
	dep, err := l.newOneStore()
	if err != nil {
		return nil, err
	}
	ep, err := dep.fab.Endpoint("client/ladder")
	if err != nil {
		_ = dep.sys.Close()
		return nil, err
	}
	p, err := core.Bind(core.BindConfig{
		Object: object, Endpoint: ep, StoreAddr: dep.www.Addr(), Client: ladderClient,
		Session: l.sp.session, Prototype: webdoc.New(), Semantics: "webdoc", Timeout: opTimeout,
	})
	if err != nil {
		_ = dep.sys.Close()
		return nil, err
	}
	r := &rung{
		read:  func(pg int) error { _, err := p.Invoke(l.getInv(pg)); return err },
		write: func(pg, k int) error { _, err := p.Invoke(l.putInv(pg, k)); return err },
		close: func() { p.Close(); _ = dep.sys.Close() },
	}
	for i := range l.in.names {
		if err := r.write(i, i); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (l *ladder) webobjRung() (*rung, *oneStore, error) {
	dep, err := l.newOneStore()
	if err != nil {
		return nil, nil, err
	}
	doc, err := dep.sys.Open(object, webobj.At(dep.www), webobj.WithSession(l.sp.session...), webobj.WithTimeout(opTimeout))
	if err != nil {
		_ = dep.sys.Close()
		return nil, nil, err
	}
	r := &rung{
		read: func(pg int) error { _, err := doc.Get(l.in.names[pg]); return err },
		write: func(pg, k int) error {
			return doc.Put(l.in.names[pg], l.in.contents[k%contentVariants], "text/html")
		},
		close: func() { doc.Close(); _ = dep.sys.Close() },
	}
	for i := range l.in.names {
		if err := r.write(i, i); err != nil {
			r.close()
			return nil, nil, err
		}
	}
	return r, dep, nil
}

// ladderResult is everything part 1 of the traced run measured.
type ladderResult struct {
	rungs   map[string]rungResult
	msgsOut float64
	single  map[string]float64
}

// self is a layer's own time: its span less the spans of the rungs it calls.
func (lr *ladderResult) self(name string, write bool) float64 {
	pick := func(r rungResult) float64 {
		if write {
			return r.writeNs
		}
		return r.readNs
	}
	v := pick(lr.rungs[name])
	for child, parent := range rungParent {
		if parent == name {
			v -= pick(lr.rungs[child])
		}
	}
	return v
}

// timeCalls is the median duration in ns of f over n calls, less overhead:
// the median length of an empty span, which is what the two clock reads
// around every call cost.
func timeCalls(n int, overhead float64, f func() error) (float64, error) {
	d := make([]float64, n)
	for i := range d {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d[i] = float64(time.Since(t))
	}
	return max(median(d)-overhead, 0), nil
}

// runLadder is part 1 of the traced run.
func runLadder(sp *spec, in *inputs, pl plan, scratch string) (*ladderResult, error) {
	n := pl.ladderOps
	l := &ladder{sp: sp, in: in, t0: time.Now(), dir: scratch, calls: pl.calls}
	for i := 0; i < n; i++ {
		l.ops = append(l.ops, in.ops[i%numClients][i/numClients%len(in.ops[0])])
	}
	for _, c := range in.contents {
		l.args = append(l.args, webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: c, ContentType: "text/html", ModifiedNanos: 1}))
	}
	l.spans = make([]span, 0, len(rungNames)*n)
	overhead, _ := timeCalls(pl.calls, 0, func() error { return nil }) // the empty call cannot fail
	res := &ladderResult{rungs: map[string]rungResult{}, single: map[string]float64{}}

	rungs := make([]*rung, len(rungNames))
	defer func() {
		for _, r := range rungs {
			if r != nil && r.close != nil {
				r.close()
			}
		}
	}()
	var top *oneStore
	var msgsOut func() float64
	for idx, name := range rungNames {
		var r *rung
		var err error
		switch name {
		case "semantics":
			r = l.semanticsRung()
		case "control":
			r = l.controlRung()
		case "coherence":
			r, err = l.coherenceRung()
		case "replication":
			r, msgsOut, err = l.replicationRung()
		case "store":
			r, err = l.storeRung()
		case "core":
			r, err = l.coreRung()
		case "webobj":
			r, top, err = l.webobjRung()
		}
		if err != nil {
			return nil, fmt.Errorf("%s rung: %w", name, err)
		}
		r.name = name
		rungs[idx] = r
	}
	totals := make([]rungTotals, len(rungs))
	for lo := 0; lo < n; lo += ladderChunk {
		for idx, r := range rungs {
			if err := l.measureChunk(idx, r, &totals[idx], lo, min(lo+ladderChunk, n)); err != nil {
				return nil, err
			}
		}
	}
	for idx, name := range rungNames {
		res.rungs[name] = totals[idx].result(overhead)
	}
	res.msgsOut = msgsOut()
	var err error
	res.single["nameserv.resolve_ns"], err = timeCalls(l.calls, overhead, func() error {
		_, err := top.sys.ResolveName(object)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := l.singleCalls(res, overhead); err != nil {
		return nil, err
	}
	return res, l.writeSpans()
}

// singleCalls times the calls that are not rungs: the codec on the
// workload's two payload frames, an echo over the workload's transport, and
// the WAL's append and sync where the workload has a WAL.
func (l *ladder) singleCalls(res *ladderResult, overhead float64) error {
	sp := l.sp
	page := &webobj.Page{Content: l.in.contents[0], ContentType: "text/html", Version: 7, ModifiedNanos: 1}
	vec := msg.VecFrom(ids.VersionVec{1: 100, 2: 100})
	frames := []struct {
		m      *msg.Message
		weight float64
	}{
		{&msg.Message{Kind: msg.KindReadReply, Object: object, From: "store/cache-a", To: "client/1", NetSeq: 9,
			Client: 1, Store: 3, Status: msg.StatusOK, VVec: vec, Payload: webdoc.EncodePage(page)}, 1 - sp.putShare},
		{l.writeReq(0, 0, 9, "client/1"), sp.putShare},
	}
	for _, f := range frames {
		enc, err := timeCalls(l.calls, overhead, func() error {
			w := msg.EncodePooled(f.m)
			w.Release()
			return nil
		})
		if err != nil {
			return err
		}
		wire := msg.Encode(f.m)
		dec, err := timeCalls(l.calls, overhead, func() error {
			_, err := msg.DecodeAlias(wire)
			return err
		})
		if err != nil {
			return err
		}
		res.single["msg.encode_ns"] += f.weight * enc
		res.single["msg.decode_ns"] += f.weight * dec
		res.single["msg.frame_bytes"] += f.weight * float64(len(wire))
	}

	rtt, err := l.echoRTT(overhead)
	if err != nil {
		return err
	}
	if sp.tcp {
		res.single["tcpnet.rtt_ns"] = rtt
	} else {
		res.single["memnet.rtt_ns"] = rtt
	}

	if sp.tcp {
		dir, err := os.MkdirTemp(l.dir, "ladder-wal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		log, _, err := wal.Open(dir)
		if err != nil {
			return err
		}
		defer log.Close()
		var seq uint64
		app := make([]float64, l.calls)
		syn := make([]float64, l.calls)
		for i := range app {
			seq++
			u := &coherence.Update{Write: ids.WiD{Client: ladderClient, Seq: seq}, GlobalSeq: seq, Inv: l.putInv(0, i), WallNanos: 1}
			t0 := time.Now()
			if err := log.AppendUpdate(u); err != nil {
				return err
			}
			t1 := time.Now()
			if err := log.Sync(); err != nil {
				return err
			}
			app[i], syn[i] = float64(t1.Sub(t0)), float64(time.Since(t1))
		}
		res.single["wal.append_ns"] = max(median(app)-overhead, 0)
		res.single["wal.sync_ns"] = max(median(syn)-overhead, 0)
	}
	return nil
}

// echoRTT is a Demux.Call round trip to an endpoint that answers at once:
// the transport and the codec, nothing of the store.
func (l *ladder) echoRTT(overhead float64) (float64, error) {
	var fab webobj.Fabric = webobj.NewMemFabric()
	if l.sp.tcp {
		fab = webobj.NewTCPFabric("")
	}
	a, err := fab.Endpoint("echo/a")
	if err != nil {
		_ = fab.Close()
		return 0, err
	}
	b, err := fab.Endpoint("echo/b")
	if err != nil {
		_ = fab.Close()
		return 0, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for m := range b.Recv() {
			_ = b.Send(m.From, m.Reply(msg.KindReadReply)) // a lost echo shows as a timed-out Call
		}
	}()
	dx := transport.NewDemux(a)
	rtt, err := timeCalls(l.calls, overhead, func() error {
		_, err := dx.Call(b.Addr(), &msg.Message{Kind: msg.KindReadRequest, Object: object}, opTimeout)
		return err
	})
	_ = dx.Close()
	_ = fab.Close() // closes b's inbox, which ends the echo goroutine
	<-done
	return rtt, err
}

// writeSpans writes every recorded span, one JSON object per line.
func (l *ladder) writeSpans() error {
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(l.dir, "spans-"+l.sp.name+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range l.spans {
		kind := "read"
		if s.write {
			kind = "write"
		}
		name := rungNames[s.rung]
		fmt.Fprintf(w, `{"layer":%q,"parent":%q,"op":%d,"kind":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			name, rungParent[name], s.op, kind, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

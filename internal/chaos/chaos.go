// Package chaos is the fault-schedule convergence harness: it runs a seeded
// randomized write/read workload while a fault hits the deployment, ends the
// fault, and then asserts that (a) every replica converges to the same state,
// and (b) no session guarantee — Read Your Writes, Monotonic Reads, Monotonic
// Writes, Writes Follow Reads — was violated at any point a client observed,
// fault or no fault.
//
// One runner serves every fault: a Scenario picks the fault, the coherence
// model, loss rate and heartbeat interval, and run returns a Result whose
// Violations list is empty exactly when the framework kept its promises. The
// topology is the paper's three-layer hierarchy — a permanent store, an
// object-initiated mirror, and two client-initiated caches (one under the
// permanent store, one under the mirror) — so faults hit both single-hop and
// multi-hop dissemination. The faults are Partitions (loss, duplication,
// jitter and partition windows), MirrorKill (the mirror dies for good; its
// cache must re-parent, reparent.go), both over memnet, and CrashRestart (the
// durable permanent store is killed -9 and restarted from disk, crash.go)
// over loopback tcpnet. The runner needs of a fabric only Endpoint, so the
// memnet faults also run inside a synctest bubble, in virtual time.
//
// Fault model: loss, duplication, jitter, and partitions are injected only
// on store↔store links. Client links stay clean, which keeps the workload's
// bookkeeping exact (a client write either acked or never happened, so a
// timed-out write can be retried under the same write identifier) while the
// replication protocol absorbs every dropped coherence frame — the UDP
// configuration of §4.2, which is precisely what digest heartbeats exist
// for.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/semantics"
	"repro/internal/semantics/webdoc"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/transport"
	"repro/internal/transport/memnet"
)

// Fault is what a Scenario does to the deployment while its workload runs.
type Fault int

const (
	// Partitions injects seeded partition windows on the memnet store↔store
	// links, on top of their loss and duplication, and heals every link
	// before the convergence wait.
	Partitions Fault = iota
	// MirrorKill kills the mirror for good a third of the way into the
	// write stream (memnet); its cache must re-parent at the permanent store.
	MirrorKill
	// CrashRestart kills the durable permanent store -9 and restarts it
	// from disk while the write stream is in flight (loopback tcpnet).
	CrashRestart
)

// Scenario parameterises one chaos run. A zero field takes its fault's
// default.
type Scenario struct {
	Fault Fault
	// Seed drives the fault schedule and workload choices. Equal seeds give
	// equal schedules (delivery timing still depends on the scheduler).
	Seed int64
	// Strategy is the object's replication strategy at every store; the zero
	// value is the PRAM conference preset (pramConference). Its Model decides
	// what converged means: byte-identical pages under the sequential model,
	// identical token sets otherwise (PRAM permits different interleavings of
	// different clients' writes).
	Strategy strategy.Strategy
	// Loss and Dup are the per-frame drop and duplication probabilities on
	// memnet store↔store links.
	Loss, Dup float64
	// OpsPerWriter is how many appends each writing client performs
	// (default 30, 60 under CrashRestart).
	OpsPerWriter int
	// DigestInterval is the anti-entropy heartbeat period: off by default
	// under Partitions, 25ms under MirrorKill (the parent liveness signal),
	// 75ms under CrashRestart (what re-converges children after a restart).
	DigestInterval time.Duration
	// ReparentAfter is the missed-digest threshold handed to every store.
	// Zero disables re-parenting: MirrorKill's negative control, in which
	// the orphaned cache must demonstrably stall.
	ReparentAfter int
	// Crashes is how many kill -9 → restart cycles CrashRestart runs
	// (default 2; a cycle is skipped if the writers finish first, so assert
	// Result.Crashes for non-vacuity).
	Crashes int
	// DataDir is the permanent store's durable directory (CrashRestart
	// requires it).
	DataDir string
	// ConvergeWithin bounds the convergence wait (default 5s, 10s under
	// CrashRestart).
	ConvergeWithin time.Duration
}

// defaults fills the zero fields from f, the Scenario's fault.
func (s *Scenario) defaults(f *faultSpec) {
	if s.Strategy.Model == 0 {
		s.Strategy = pramConference()
	}
	if s.OpsPerWriter == 0 {
		s.OpsPerWriter = f.ops
	}
	if s.DigestInterval == 0 {
		s.DigestInterval = f.digest
	}
	if s.ConvergeWithin == 0 {
		s.ConvergeWithin = f.within
	}
}

// Result reports what a run did and every guarantee violation it caught.
type Result struct {
	// Violations is empty iff every convergence, durability and
	// session-guarantee check held. Each entry is a self-contained
	// description.
	Violations []string
	// Converged reports whether all live replicas reached the same state
	// within ConvergeWithin after the fault ended; ConvergeIn is how long it
	// took.
	Converged  bool
	ConvergeIn time.Duration
	// Workload and fault accounting.
	WritesAcked   int
	WriteRetries  int
	ReadsOK       int
	ReadsFailed   int
	Partitions    int
	DigestsSent   uint64
	DigestDemands uint64
	// FramesDropped/FramesDuplicated are the memnet totals actually injected.
	FramesDropped    uint64
	FramesDuplicated uint64
	// ReparentsDone / ParentMissedDigests aggregate the survivors' repair
	// counters (the proof the orphan actually re-subscribed, not merely
	// that traffic found another path). OrphanConverged reports whether
	// cache2 — MirrorKill's orphan — specifically reached the permanent
	// store's state.
	ReparentsDone       uint64
	ParentMissedDigests uint64
	OrphanConverged     bool
	// Crashes is how many kill -9 cycles actually ran; Recoveries how many
	// restarts completed their recovery gate. WALReplayed totals the update
	// records replayed from disk across all restarts, TornTails the corrupt
	// WAL tails truncated, and LastRecovery is the final restart's
	// replay-to-serve duration.
	Crashes      int
	Recoveries   int
	WALReplayed  uint64
	TornTails    uint64
	LastRecovery time.Duration
	// TraceDump holds the trailing write-lifecycle trace events per store,
	// populated only when Violations is non-empty (see trace.go).
	TraceDump []string
}

const (
	obj = ids.ObjectID("chaos-doc")
	// recoveryGrace bounds a restarted store's recover-then-serve gate.
	recoveryGrace = time.Second
)

// Every replica offers every session guarantee; each client asks for its own.
var session = []coherence.ClientModel{
	coherence.ReadYourWrites, coherence.MonotonicReads,
	coherence.MonotonicWrites, coherence.WritesFollowReads,
}

// tree is the store hierarchy, parents first; a store's ID is its position
// plus one.
var tree = []struct {
	name, parent string
	role         replication.Role
}{
	{"perm", "", replication.RolePermanent},
	{"mirror", "perm", replication.RoleObjectInitiated},
	{"cache1", "perm", replication.RoleClientInitiated},
	{"cache2", "mirror", replication.RoleClientInitiated},
}

// cast is the client cast: two plain writers at the permanent store, a
// Read-Your-Writes writer-reader at cache1, a Writes-Follow-Reads
// read-then-write client at cache2, and Monotonic-Reads observers at both
// caches. A client's ID is pinned to its position plus one (CrashRestart
// re-binds identity 1 after the crashes).
var cast = []struct {
	name, at string
	models   []coherence.ClientModel
}{
	{"w1", "perm", nil},
	{"w2", "perm", nil},
	{"ryw", "cache1", []coherence.ClientModel{coherence.ReadYourWrites, coherence.MonotonicWrites}},
	{"wfr", "cache2", []coherence.ClientModel{coherence.WritesFollowReads}},
	{"mr1", "cache1", []coherence.ClientModel{coherence.MonotonicReads}},
	{"mr2", "cache2", []coherence.ClientModel{coherence.MonotonicReads}},
}

// The partitionable store↔store pairs, and the pages the workload touches.
var (
	storePairs = [][2]string{{"perm", "mirror"}, {"perm", "cache1"}, {"mirror", "cache2"}}
	pages      = []string{"pg0", "pg1", "ryw"}
)

// faultSpec is everything one fault adds to the shared run.
type faultSpec struct {
	// ops, digest and within are the defaults of OpsPerWriter,
	// DigestInterval and ConvergeWithin.
	ops            int
	digest, within time.Duration
	// attempts is a write's retry budget (a dead parent or a restarting
	// store is a much longer outage than a dropped frame); stall is the
	// workload watchdog's base (awaitWriters).
	attempts int
	stall    time.Duration
	// extend lets the convergence wait extend while the replicas visibly
	// progress (converge); without it the wait is a flat ConvergeWithin.
	extend bool
	// strands marks a fault that leaves cache2 without a live parent: with
	// re-parenting off, its writes would hang against the corpse until the
	// retry budget drained, so its writer sits out and the stranded cache is
	// exercised by its reader only.
	strands bool
	// setup builds the fabric, and whatever else the fault needs, before the
	// tree is deployed; host adjusts tree[i]'s store config (nil: nothing).
	setup func(*runner) error
	host  func(r *runner, i int, cfg *store.Config)
	// inject runs the fault alongside the workload, and settle ends it before
	// the convergence wait; converged is a condition of the fault's own for
	// that wait, and check a check of its own after it (nil: none).
	inject, settle func(*runner)
	converged      func(*runner) string
	check          func(*runner)
}

var faults = [...]faultSpec{
	Partitions: {
		ops: 30, within: 5 * time.Second, attempts: 40, stall: 60 * time.Second, extend: true,
		setup: (*runner).lossyNet, inject: (*runner).partition, settle: (*runner).heal,
	},
	MirrorKill: {
		ops: 30, digest: 25 * time.Millisecond, within: 5 * time.Second, attempts: 120, stall: 90 * time.Second,
		strands: true, setup: (*runner).directoryNet, host: (*runner).resolveThroughDirectory,
		inject: (*runner).killMirror, settle: (*runner).retireMirror,
		converged: (*runner).reparented, check: (*runner).checkOrphan,
	},
	CrashRestart: {
		ops: 60, digest: 75 * time.Millisecond, within: 10 * time.Second, attempts: 400, stall: 90 * time.Second,
		setup: (*runner).loopback, host: (*runner).durablePerm,
		inject: (*runner).crashCycles, settle: (*runner).floorProbe,
	},
}

// runner is one run's state, shared by its phases and its fault's hooks.
type runner struct {
	Scenario
	f      *faultSpec
	res    Result
	rec    *recorder
	ob     *obs.Observer
	rng    *rand.Rand
	fabric transport.Fabric
	net    *memnet.Network // the fabric under Partitions and MirrorKill
	ns     *naming.Service // MirrorKill's directory: what re-parenting resolves
	stores map[string]*store.Store
	// permEp is the permanent store's endpoint; CrashRestart re-listens on
	// its address after each kill.
	permEp             transport.Endpoint
	clients            []*core.Proxy
	counts             *opCounts
	writersDone, abort atomic.Bool
}

// run executes one chaos scenario; see the package comment for its shape.
func run(s Scenario) (*Result, error) {
	f := &faults[s.Fault]
	s.defaults(f)
	r := &runner{
		Scenario: s, f: f, rec: newRecorder(), ob: newRunObserver(),
		rng:    rand.New(rand.NewSource(s.Seed)),
		stores: make(map[string]*store.Store, len(tree)),
	}
	r.counts = &opCounts{abort: &r.abort, attempts: f.attempts}
	if err := f.setup(r); err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.deploy(); err != nil {
		return nil, err
	}
	r.workload()
	f.settle(r)
	r.converge()
	r.rec.checkObservations()
	if f.check != nil {
		f.check(r)
	}
	r.account()
	return &r.res, nil
}

// pramConference is the default strategy: the conference preset opened to
// every writer, with aggregated lazy partial pushes (batch frames to lose)
// and a demand reaction to the gaps their loss leaves.
func pramConference() strategy.Strategy {
	st := strategy.Conference(10 * time.Millisecond)
	st.Writers = strategy.MultipleWriters
	st.ObjectOutdate = strategy.Demand
	return st
}

// lossyNet is the memnet faults' fabric. Its store↔store links are lossy
// from the very first frame: the subscribe/bootstrap handshake itself runs
// under loss (its ack + retry and the digest-triggered re-subscribe are part
// of what this harness proves). Client links stay clean (see the package
// comment's fault model).
func (r *runner) lossyNet() error {
	r.net = memnet.New(memnet.WithSeed(r.Seed))
	r.fabric = r.net
	prof := memnet.LinkProfile{
		Latency: 200 * time.Microsecond,
		Jitter:  500 * time.Microsecond,
		Loss:    r.Loss,
		Dup:     r.Dup,
	}
	for _, p := range storePairs {
		r.net.SetLinkBoth(p[0], p[1], prof)
	}
	// MirrorKill's re-parented subscription runs over this link.
	r.net.SetLinkBoth("perm", "cache2", prof)
	return nil
}

// deploy starts the store tree and binds the cast.
func (r *runner) deploy() error {
	for i, n := range tree {
		ep, err := r.fabric.Endpoint(n.name)
		if err == nil {
			if i == 0 {
				r.permEp = ep
			}
			err = r.startStore(i, ep)
		}
		if err != nil {
			return fmt.Errorf("chaos: start %s: %w", n.name, err)
		}
	}
	for i, c := range cast {
		if _, err := r.bind(c.name, r.stores[c.at].Addr(), ids.ClientID(i+1), c.models); err != nil {
			return fmt.Errorf("chaos: bind %s: %w", c.name, err)
		}
	}
	return nil
}

// startStore starts tree[i] on ep and hosts the object there, with the
// fault's adjustments (faultSpec.host).
func (r *runner) startStore(i int, ep transport.Endpoint) error {
	n := tree[i]
	cfg := store.Config{
		ID: ids.StoreID(i + 1), Role: n.role, Endpoint: ep, Obs: r.ob,
		Tuning: replication.Tuning{
			ReadTimeout:    300 * time.Millisecond,
			DigestInterval: r.DigestInterval,
			ReparentAfter:  r.ReparentAfter,
		},
	}
	hc := store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: r.Strategy, Session: session}
	if n.parent != "" {
		hc.Parent, hc.Subscribe = r.stores[n.parent].Addr(), true
	}
	if r.f.host != nil {
		r.f.host(r, i, &cfg)
	}
	s := store.New(cfg)
	r.stores[n.name] = s
	if r.ns != nil {
		r.ns.Register(obj, naming.Entry{Addr: s.Addr(), Store: s.ID(), Role: n.role})
	}
	return s.Host(hc)
}

// bind opens a client handle with a pinned identity at the store at addr.
func (r *runner) bind(name, addr string, client ids.ClientID, models []coherence.ClientModel) (*core.Proxy, error) {
	ep, err := r.fabric.Endpoint("client/" + name)
	if err != nil {
		return nil, err
	}
	p, err := core.Bind(core.BindConfig{
		Object: obj, Endpoint: ep, StoreAddr: addr,
		Client: client, Session: models,
		Prototype: webdoc.New(), Timeout: 500 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	r.clients = append(r.clients, p)
	return p, nil
}

// close ends the run: clients, then stores, then the fabric.
func (r *runner) close() {
	for _, p := range r.clients {
		p.Close()
	}
	for _, s := range r.stores {
		_ = s.Close()
	}
	_ = r.fabric.Close()
}

// workload is the faulted phase: the fault's inject runs while the cast runs.
// The MR readers and inject run until the writing clients finish, or the
// watchdog aborts them — abort is checked per op and per retry, so a hung
// phase winds down instead of racing the convergence checks. The watchdog's
// deadline extends while the op counters advance (see awaitWriters), so CPU
// overcommit stretching every round trip does not starve a healthy workload
// into a false violation.
func (r *runner) workload() {
	c := r.clients
	ops, counts, rec := r.OpsPerWriter, r.counts, r.rec
	var writerWG, readerWG sync.WaitGroup
	runW := func(f func()) { writerWG.Add(1); go func() { defer writerWG.Done(); f() }() }
	runW(func() { runWriter(c[0], 1, "pg0", ops, counts, rec) })
	runW(func() { runWriter(c[1], 2, "pg1", ops, counts, rec) })
	runW(func() { runRYWWriter(c[2], 3, "ryw", ops, counts, rec) })
	if !r.f.strands || r.ReparentAfter > 0 {
		runW(func() { runWFRClient(c[3], 4, "pg0", ops/2, counts, rec) })
	}
	readerWG.Add(3)
	go func() { defer readerWG.Done(); runMRReader(c[4], "mr1@cache1", "cache1", &r.writersDone, counts, rec) }()
	go func() { defer readerWG.Done(); runMRReader(c[5], "mr2@cache2", "cache2", &r.writersDone, counts, rec) }()
	go func() { defer readerWG.Done(); r.f.inject(r) }()

	writersFinished := make(chan struct{})
	go func() { writerWG.Wait(); close(writersFinished) }()
	if !awaitWriters(writersFinished, counts, r.f.stall) {
		rec.violatef("workload phase stalled: no client progress for %v (hard cap %v)", r.f.stall, 4*r.f.stall)
		r.abort.Store(true)
		<-writersFinished
	}
	r.writersDone.Store(true)
	readerWG.Wait()
}

// partition is Partitions' coordinator: seeded partition windows on the
// store links until the writers finish.
func (r *runner) partition() {
	for !r.writersDone.Load() {
		time.Sleep(time.Duration(10+r.rng.Intn(40)) * time.Millisecond)
		pair := storePairs[r.rng.Intn(len(storePairs))]
		r.net.Partition(pair[0], pair[1])
		r.res.Partitions++
		time.Sleep(time.Duration(20+r.rng.Intn(60)) * time.Millisecond)
		r.net.Heal(pair[0], pair[1])
	}
}

// heal ends Partitions: from here on every store link is clean and there is
// zero foreground traffic — only the coherence protocol (demand retries,
// digest heartbeats) runs.
func (r *runner) heal() {
	for _, p := range storePairs {
		r.net.Heal(p[0], p[1])
		r.net.SetLinkBoth(p[0], p[1], memnet.LinkProfile{})
	}
}

// converge polls replica state directly (ReadLocal bypasses the client path)
// until every live store agrees and the fault's own condition holds, then
// runs the global checks. Under a fault that extends it (faultSpec.extend)
// the deadline is progress-extending: each time the disagreement diag
// changes (anti-entropy is visibly advancing — a loaded box stretches every
// digest round-trip, but catch-up never stalls), the replicas get another
// ConvergeWithin, up to a hard cap of 4x. A genuinely stuck replica still
// fails in ConvergeWithin flat; only demonstrable progress buys time.
func (r *runner) converge() {
	start := time.Now()
	deadline := start.Add(r.ConvergeWithin)
	hardCap := deadline
	if r.f.extend {
		hardCap = start.Add(4 * r.ConvergeWithin)
	}
	lastDiag := ""
	for {
		diag := convergedState(r.stores, r.Strategy.Model, r.rec)
		if diag == "" && r.f.converged != nil {
			diag = r.f.converged(r)
		}
		if diag == "" {
			r.res.Converged, r.res.ConvergeIn = true, time.Since(start)
			finalChecks(r.stores, r.rec)
			return
		}
		if diag != lastDiag {
			lastDiag = diag
			if deadline = time.Now().Add(r.ConvergeWithin); deadline.After(hardCap) {
				deadline = hardCap
			}
		}
		if time.Now().After(deadline) {
			r.rec.violatef("replicas did not converge within %v: %s", r.ConvergeWithin, diag)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// account fills in the workload, store and fabric counters, and the trace of
// a run that caught a violation.
func (r *runner) account() {
	res := &r.res
	res.WritesAcked = int(r.counts.acked.Load())
	res.WriteRetries = int(r.counts.retries.Load())
	res.ReadsOK = int(r.counts.readsOK.Load())
	res.ReadsFailed = int(r.counts.readsFailed.Load())
	for _, s := range r.stores {
		if st, err := s.Stats(obj); err == nil {
			res.DigestsSent += st.DigestsSent
			res.DigestDemands += st.DigestDemands
			res.ReparentsDone += st.ReparentsDone
			res.ParentMissedDigests += st.ParentMissedDigests
		}
	}
	if r.net != nil {
		ns := r.net.Stats()
		res.FramesDropped, res.FramesDuplicated = ns.Dropped, ns.Duplicated
	}
	res.Violations = r.rec.take()
	if len(res.Violations) > 0 {
		res.TraceDump = traceDump(r.ob, r.stores)
	}
}

// awaitWriters waits for the workload phase to finish. Under CPU overcommit
// (torture runs share one box with the race detector and hundreds of
// goroutines) a healthy workload can legitimately outlive a flat deadline
// while still making steady progress, so the watchdog deadline is
// progress-extending: every advance of the op counters — they move on every
// attempt, including retries — buys the writers another base, up to a hard
// cap of 4×base, matching the convergence-deadline policy. A genuinely
// livelocked workload still dies within base of its last observed op.
// Reports whether the writers finished; on false the caller raises the abort
// flag and drains them.
func awaitWriters(finished <-chan struct{}, counts *opCounts, base time.Duration) bool {
	start := time.Now()
	deadline := start.Add(base)
	hardCap := start.Add(4 * base)
	last := int64(-1)
	for {
		select {
		case <-finished:
			return true
		case <-time.After(100 * time.Millisecond):
		}
		if cur := counts.progress(); cur != last {
			last = cur
			if d := time.Now().Add(base); d.Before(hardCap) {
				deadline = d
			} else {
				deadline = hardCap
			}
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// opCounts aggregates workload accounting across client goroutines, and
// carries the watchdog's abort flag every client loop checks.
type opCounts struct {
	acked, retries, readsOK, readsFailed atomic.Int64
	abort                                *atomic.Bool
	// attempts is appendToken's retry budget (the fault's, see faults).
	attempts int
}

// progress is the watchdog's liveness signal: the sum of every per-attempt
// counter, so even a workload that is only retrying keeps its deadline.
func (c *opCounts) progress() int64 {
	return c.acked.Load() + c.retries.Load() + c.readsOK.Load() + c.readsFailed.Load()
}

// appendToken appends one token, retrying on timeout. A retry reuses the
// same write identifier (the proxy aborts the failed allocation), which
// keeps both timeout outcomes safe: a request dropped on a store link is
// simply re-sent, and a request that WAS applied but whose ack came back
// after the client deadline (heavy box load stretches store event loops
// past the 500ms client timeout even on lossless client links) is re-acked
// by the stores' at-most-once admission as a replay — never applied twice.
func appendToken(p *core.Proxy, page string, tok token, counts *opCounts, rec *recorder) bool {
	args := webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: []byte(tok.String())})
	for attempt := 0; attempt < counts.attempts && !counts.abort.Load(); attempt++ {
		_, err := p.Invoke(msg.Invocation{Method: webdoc.MethodAppendPage, Page: page, Args: args})
		if err == nil {
			counts.acked.Add(1)
			return true
		}
		counts.retries.Add(1)
		time.Sleep(5 * time.Millisecond)
	}
	if !counts.abort.Load() {
		rec.violatef("write %v to %s never acked after %d attempts", tok, page, counts.attempts)
	}
	return false
}

// readPage reads one page through a client proxy; a missing page reads as
// empty (the document starts blank).
func readPage(p *core.Proxy, page string, counts *opCounts) (string, bool) {
	out, err := p.Invoke(msg.Invocation{Method: webdoc.MethodGetPage, Page: page})
	if err != nil {
		var re *core.RemoteError
		if errors.As(err, &re) && re.Status == msg.StatusNotFound {
			counts.readsOK.Add(1)
			return "", true
		}
		counts.readsFailed.Add(1)
		return "", false
	}
	pg, err := webdoc.DecodePage(out)
	if err != nil {
		counts.readsFailed.Add(1)
		return "", false
	}
	counts.readsOK.Add(1)
	return string(pg.Content), true
}

// runWriter is a plain writer: it appends label-stamped tokens to one page.
func runWriter(p *core.Proxy, label int, page string, ops int, counts *opCounts, rec *recorder) {
	for seq := 1; seq <= ops; seq++ {
		if !appendToken(p, page, token{label, seq}, counts, rec) {
			return
		}
		rec.recordAck(token{label, seq}, page)
		time.Sleep(time.Millisecond)
	}
}

// runRYWWriter writes and then immediately reads its own page with the Read
// Your Writes guarantee: every successful read must contain every token this
// client has been acked, no matter which faults are in flight.
func runRYWWriter(p *core.Proxy, label int, page string, ops int, counts *opCounts, rec *recorder) {
	acked := make(map[token]bool)
	for seq := 1; seq <= ops; seq++ {
		tok := token{label, seq}
		if !appendToken(p, page, tok, counts, rec) {
			return
		}
		acked[tok] = true
		rec.recordAck(tok, page)
		if content, ok := readPage(p, page, counts); ok {
			got := tokenSet(parseTokens(content, rec, "ryw read"))
			for a := range acked {
				if !got[a] {
					rec.violatef("RYW violated: client %d read %q after %v was acked, content %q", label, page, a, content)
				}
			}
			rec.observe("ryw@cache1", "cache1", page, content)
		}
		time.Sleep(time.Millisecond)
	}
}

// runWFRClient alternates read→write on one page under Writes Follow Reads:
// each of its writes depends on everything its preceding read observed, and
// the global observation check verifies no replica ever showed the write
// without its dependencies.
func runWFRClient(p *core.Proxy, label int, page string, ops int, counts *opCounts, rec *recorder) {
	var lastRead []token
	for seq := 1; seq <= ops; seq++ {
		if content, ok := readPage(p, page, counts); ok {
			lastRead = parseTokens(content, rec, "wfr read")
			rec.observe("wfr@cache2", "cache2", page, content)
		}
		tok := token{label, seq}
		rec.recordWFRDeps(tok, lastRead)
		if !appendToken(p, page, tok, counts, rec) {
			return
		}
		rec.recordAck(tok, page)
		time.Sleep(2 * time.Millisecond)
	}
}

// runMRReader polls every page at one store under Monotonic Reads: a token
// once observed must appear in every later read of the same page.
func runMRReader(p *core.Proxy, who, storeAddr string, done *atomic.Bool, counts *opCounts, rec *recorder) {
	seen := make(map[string]map[token]bool, len(pages))
	for !done.Load() {
		for _, page := range pages {
			content, ok := readPage(p, page, counts)
			if !ok {
				continue
			}
			got := tokenSet(parseTokens(content, rec, who))
			for tok := range seen[page] {
				if !got[tok] {
					rec.violatef("MR violated: %s saw %v on %q then a later read lost it (content %q)", who, tok, page, content)
				}
			}
			seen[page] = got
			rec.observe(who, storeAddr, page, content)
		}
		time.Sleep(3 * time.Millisecond)
	}
}

// localPage reads a page's content directly at a store (no client traffic).
func localPage(s *store.Store, page string) (string, error) {
	out, err := s.ReadLocal(obj, msg.Invocation{Method: webdoc.MethodGetPage, Page: page})
	if err != nil {
		if errors.Is(err, semantics.ErrNoElement) {
			return "", nil
		}
		return "", err
	}
	pg, err := webdoc.DecodePage(out)
	if err != nil {
		return "", err
	}
	return string(pg.Content), nil
}

// convergedState reports "" when every live store agrees with the permanent
// store on every page — byte identical under the sequential model, identical
// token sets under PRAM (which permits different interleavings of different
// clients' writes) — and on its applied vector. Otherwise it returns a
// diagnostic.
func convergedState(stores map[string]*store.Store, model coherence.Model, rec *recorder) string {
	perm := stores["perm"]
	ref := make(map[string]string, len(pages))
	for _, page := range pages {
		c, err := localPage(perm, page)
		if err != nil {
			return fmt.Sprintf("perm read %q: %v", page, err)
		}
		ref[page] = c
	}
	permVec, err := perm.Applied(obj)
	if err != nil {
		return err.Error()
	}
	for _, n := range tree[1:] {
		s, alive := stores[n.name]
		if !alive {
			continue // killed for good (MirrorKill)
		}
		for _, page := range pages {
			c, err := localPage(s, page)
			if err != nil {
				return fmt.Sprintf("%s read %q: %v", n.name, page, err)
			}
			if model == coherence.Sequential {
				if c != ref[page] {
					return fmt.Sprintf("%s page %q = %q, perm has %q", n.name, page, c, ref[page])
				}
				continue
			}
			a := parseTokens(c, rec, n.name)
			b := parseTokens(ref[page], rec, "perm")
			if !sameTokenSet(a, b) {
				return fmt.Sprintf("%s page %q tokens %v, perm has %v", n.name, page, a, b)
			}
		}
		v, err := s.Applied(obj)
		if err != nil {
			return err.Error()
		}
		if !v.Equal(&permVec) {
			return fmt.Sprintf("%s applied vector %v, perm has %v", n.name, v, permVec)
		}
	}
	return ""
}

// finalChecks runs the post-convergence invariants: every acked token is
// present at every store, and every final page content passes the per-client
// order check.
func finalChecks(stores map[string]*store.Store, rec *recorder) {
	acked := rec.ackedByPage()
	for addr, s := range stores {
		for _, page := range pages {
			content, err := localPage(s, page)
			if err != nil {
				rec.violatef("final read %s/%q: %v", addr, page, err)
				continue
			}
			toks := parseTokens(content, rec, addr)
			got := tokenSet(toks)
			for tok := range acked[page] {
				if !got[tok] {
					rec.violatef("durability violated: acked %v missing from %s page %q after convergence", tok, addr, page)
				}
			}
			checkPerClientOrder(toks, fmt.Sprintf("final state %s/%q", addr, page), rec)
		}
	}
}

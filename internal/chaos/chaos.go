// Package chaos is the fault-schedule convergence harness: it runs a seeded
// randomized write/read workload over a lossy, partitioned simulated network
// (memnet), heals every fault, and then asserts that (a) every replica
// converges to the same state, and (b) no session guarantee — Read Your
// Writes, Monotonic Reads, Monotonic Writes, Writes Follow Reads — was
// violated at any point a client observed, fault or no fault.
//
// The harness is the reusable scenario backbone for fault testing: a Config
// picks the coherence model, loss rate, partition cadence, and heartbeat
// interval; Run returns a Result whose Violations list is empty exactly when
// the framework kept its promises. The topology is the paper's three-layer
// hierarchy — a permanent store, an object-initiated mirror, and two
// client-initiated caches (one under the permanent store, one under the
// mirror) — so faults hit both single-hop and multi-hop dissemination.
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
	"repro/internal/replication"
	"repro/internal/semantics"
	"repro/internal/semantics/webdoc"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/transport/memnet"
)

// Config parameterises one chaos run.
type Config struct {
	// Seed drives the fault schedule and workload choices. Equal seeds give
	// equal schedules (delivery timing still depends on the scheduler).
	Seed int64
	// Strategy is the object's replication strategy at every store; the zero
	// value is the PRAM conference preset (pramConference). Its Model decides
	// what converged means: byte-identical pages under the sequential model,
	// identical token sets otherwise (PRAM permits different interleavings of
	// different clients' writes).
	Strategy strategy.Strategy
	// Loss is the per-frame drop probability on store↔store links.
	Loss float64
	// Dup is the per-frame duplication probability on store↔store links.
	Dup float64
	// OpsPerWriter is how many appends each writing client performs.
	OpsPerWriter int
	// DigestInterval is the anti-entropy heartbeat period (0 disables).
	DigestInterval time.Duration
	// ConvergeWithin bounds the post-heal convergence wait.
	ConvergeWithin time.Duration
}

func (c *Config) defaults() {
	if c.Strategy.Model == 0 {
		c.Strategy = pramConference(10 * time.Millisecond)
	}
	if c.OpsPerWriter == 0 {
		c.OpsPerWriter = 30
	}
	if c.ConvergeWithin == 0 {
		c.ConvergeWithin = 5 * time.Second
	}
}

// Result reports what a run did and every guarantee violation it caught.
type Result struct {
	// Violations is empty iff every convergence and session-guarantee check
	// held. Each entry is a self-contained description.
	Violations []string
	// Converged reports whether all replicas reached the same state within
	// ConvergeWithin after the final heal; ConvergeIn is how long it took.
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
	// TraceDump holds the trailing write-lifecycle trace events per store,
	// populated only when Violations is non-empty (see trace.go).
	TraceDump []string
}

// Store addresses and the partitionable store↔store pairs.
var (
	storeAddrs = []string{"perm", "mirror", "cache1", "cache2"}
	storePairs = [][2]string{{"perm", "mirror"}, {"perm", "cache1"}, {"mirror", "cache2"}}
	pages      = []string{"pg0", "pg1", "ryw"}
)

// Run executes one chaos scenario; see the package comment for the shape.
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	res := &Result{}
	rec := newRecorder()
	ob := newRunObserver()
	rng := rand.New(rand.NewSource(cfg.Seed))

	net := memnet.New(memnet.WithSeed(cfg.Seed))
	defer net.Close()
	ns := naming.New()

	// The store↔store links are hostile from the very first frame: the
	// subscribe/bootstrap handshake itself runs under loss (its ack + retry
	// and the digest-triggered re-subscribe are part of what this harness
	// proves — the old harness had to warm up on a clean network because a
	// lost send-once subscribe stranded the replica). Client links stay
	// clean (see the package comment's fault model).
	prof := memnet.LinkProfile{
		Latency: 200 * time.Microsecond,
		Jitter:  500 * time.Microsecond,
		Loss:    cfg.Loss,
		Dup:     cfg.Dup,
	}
	for _, p := range storePairs {
		net.SetLinkBoth(p[0], p[1], prof)
	}

	st := cfg.Strategy
	session := []coherence.ClientModel{
		coherence.ReadYourWrites, coherence.MonotonicReads,
		coherence.MonotonicWrites, coherence.WritesFollowReads,
	}

	stores := make(map[string]*store.Store, len(storeAddrs))
	mk := func(addr string, role replication.Role) (*store.Store, error) {
		ep, err := net.Endpoint(addr)
		if err != nil {
			return nil, err
		}
		s := store.New(store.Config{
			ID: ns.NextStore(), Role: role, Endpoint: ep,
			Tuning: replication.Tuning{ReadTimeout: 300 * time.Millisecond, DigestInterval: cfg.DigestInterval},
			Obs:    ob,
		})
		stores[addr] = s
		return s, nil
	}
	perm, err := mk("perm", replication.RolePermanent)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, s := range stores {
			_ = s.Close()
		}
	}()
	const obj = ids.ObjectID("chaos-doc")
	if err := perm.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st, Session: session}); err != nil {
		return nil, err
	}
	mirror, err := mk("mirror", replication.RoleObjectInitiated)
	if err != nil {
		return nil, err
	}
	if err := mirror.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st, Session: session, Parent: "perm", Subscribe: true}); err != nil {
		return nil, err
	}
	for addr, parent := range map[string]string{"cache1": "perm", "cache2": "mirror"} {
		c, err := mk(addr, replication.RoleClientInitiated)
		if err != nil {
			return nil, err
		}
		if err := c.Host(store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st, Session: session, Parent: parent, Subscribe: true}); err != nil {
			return nil, err
		}
	}

	bind := func(epName, storeAddr string, models ...coherence.ClientModel) (*core.Proxy, error) {
		ep, err := net.Endpoint(epName)
		if err != nil {
			return nil, err
		}
		return core.Bind(core.BindConfig{
			Object: obj, Endpoint: ep, StoreAddr: storeAddr,
			Client: ns.NextClient(), Session: models,
			Prototype: webdoc.New(), Timeout: 500 * time.Millisecond,
		})
	}

	// The cast: two plain writers at the permanent store, a Read-Your-Writes
	// writer-reader at cache1, a Writes-Follow-Reads read-then-write client
	// at cache2, and Monotonic-Reads observers at both caches.
	var clients []*core.Proxy
	addClient := func(p *core.Proxy, err error) (*core.Proxy, error) {
		if err == nil {
			clients = append(clients, p)
		}
		return p, err
	}
	defer func() {
		for _, p := range clients {
			p.Close()
		}
	}()
	w1, err := addClient(bind("client/w1", "perm"))
	if err != nil {
		return nil, err
	}
	w2, err := addClient(bind("client/w2", "perm"))
	if err != nil {
		return nil, err
	}
	ryw, err := addClient(bind("client/ryw", "cache1", coherence.ReadYourWrites, coherence.MonotonicWrites))
	if err != nil {
		return nil, err
	}
	wfr, err := addClient(bind("client/wfr", "cache2", coherence.WritesFollowReads))
	if err != nil {
		return nil, err
	}
	mr1, err := addClient(bind("client/mr1", "cache1", coherence.MonotonicReads))
	if err != nil {
		return nil, err
	}
	mr2, err := addClient(bind("client/mr2", "cache2", coherence.MonotonicReads))
	if err != nil {
		return nil, err
	}

	// Phase A: faulted workload. The coordinator injects seeded partition
	// windows on store links while the clients run; the MR readers and the
	// coordinator run until the writing clients finish (or the watchdog
	// aborts them — abort is checked per op and per retry, so a hung phase
	// winds down instead of racing the convergence checks).
	var writersDone, abort atomic.Bool
	var writerWG, readerWG sync.WaitGroup
	counts := &opCounts{abort: &abort}
	runW := func(f func()) { writerWG.Add(1); go func() { defer writerWG.Done(); f() }() }
	runW(func() { runWriter(w1, 1, "pg0", cfg.OpsPerWriter, counts, rec) })
	runW(func() { runWriter(w2, 2, "pg1", cfg.OpsPerWriter, counts, rec) })
	runW(func() { runRYWWriter(ryw, 3, "ryw", cfg.OpsPerWriter, counts, rec) })
	runW(func() { runWFRClient(wfr, 4, "pg0", cfg.OpsPerWriter/2, counts, rec) })
	readerWG.Add(2)
	go func() { defer readerWG.Done(); runMRReader(mr1, "mr1@cache1", "cache1", &writersDone, counts, rec) }()
	go func() { defer readerWG.Done(); runMRReader(mr2, "mr2@cache2", "cache2", &writersDone, counts, rec) }()

	partitions := 0
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for !writersDone.Load() {
			time.Sleep(time.Duration(10+rng.Intn(40)) * time.Millisecond)
			pair := storePairs[rng.Intn(len(storePairs))]
			net.Partition(pair[0], pair[1])
			partitions++
			time.Sleep(time.Duration(20+rng.Intn(60)) * time.Millisecond)
			net.Heal(pair[0], pair[1])
		}
	}()

	// Wait for the writing clients, with a watchdog so a livelocked client
	// fails the run instead of hanging the suite; the abort flag drains the
	// stuck writers before the convergence phase reads any state. The
	// deadline extends while the op counters advance (see awaitWriters), so
	// CPU overcommit stretching every round trip does not starve a healthy
	// workload into a false violation.
	writersFinished := make(chan struct{})
	go func() { writerWG.Wait(); close(writersFinished) }()
	if !awaitWriters(writersFinished, counts, 60*time.Second) {
		rec.violatef("workload phase stalled: no client progress for 60s (hard cap 240s)")
		abort.Store(true)
		<-writersFinished
	}
	writersDone.Store(true)
	readerWG.Wait()
	res.Partitions = partitions

	// Phase B: heal the world. From here on, zero foreground traffic — only
	// the coherence protocol (demand retries, digest heartbeats) runs.
	for _, p := range storePairs {
		net.Heal(p[0], p[1])
		net.SetLinkBoth(p[0], p[1], memnet.LinkProfile{})
	}
	healed := time.Now()

	// Phase C: convergence. Poll replica state directly (ReadLocal bypasses
	// the client path) until every store agrees, then run the global checks.
	// The deadline is progress-extending: each time the disagreement diag
	// changes (anti-entropy is visibly advancing — a loaded box stretches
	// every digest round-trip, but catch-up never stalls), the replicas get
	// another ConvergeWithin, up to a hard cap of 4x. A genuinely stuck
	// replica still fails in ConvergeWithin flat; only demonstrable progress
	// buys time.
	deadline := healed.Add(cfg.ConvergeWithin)
	hardCap := healed.Add(4 * cfg.ConvergeWithin)
	lastDiag := ""
	for {
		diag := convergedState(stores, obj, st.Model, rec)
		if diag == "" {
			res.Converged = true
			res.ConvergeIn = time.Since(healed)
			break
		}
		if diag != lastDiag {
			lastDiag = diag
			if d := time.Now().Add(cfg.ConvergeWithin); d.Before(hardCap) {
				deadline = d
			} else {
				deadline = hardCap
			}
		}
		if time.Now().After(deadline) {
			rec.violatef("replicas did not converge within %v: %s", cfg.ConvergeWithin, diag)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if res.Converged {
		finalChecks(stores, obj, counts, rec)
	}
	rec.checkObservations()

	res.WritesAcked = int(counts.acked.Load())
	res.WriteRetries = int(counts.retries.Load())
	res.ReadsOK = int(counts.readsOK.Load())
	res.ReadsFailed = int(counts.readsFailed.Load())
	for _, s := range stores {
		if st, err := s.Stats(obj); err == nil {
			res.DigestsSent += st.DigestsSent
			res.DigestDemands += st.DigestDemands
		}
	}
	ns2 := net.Stats()
	res.FramesDropped = ns2.Dropped
	res.FramesDuplicated = ns2.Duplicated
	res.Violations = rec.take()
	if len(res.Violations) > 0 {
		res.TraceDump = traceDump(ob, stores)
	}
	return res, nil
}

// pramConference is the harnesses' default strategy: the conference preset
// opened to every writer, with aggregated lazy partial pushes (batch frames to
// lose) and a demand reaction to the gaps their loss leaves.
func pramConference(lazy time.Duration) strategy.Strategy {
	st := strategy.Conference(lazy)
	st.Writers = strategy.MultipleWriters
	st.ObjectOutdate = strategy.Demand
	return st
}

// awaitWriters waits for the workload phase to finish. Under CPU overcommit
// (torture runs share one box with the race detector and hundreds of
// goroutines) a healthy workload can legitimately outlive a flat deadline
// while still making steady progress, so the watchdog deadline is
// progress-extending: every advance of the op counters — they move on every
// attempt, including retries — buys the writers another base, up to a hard
// cap of 4×base, matching the Phase C convergence-deadline policy. A
// genuinely livelocked workload still dies within base of its last
// observed op. Reports whether the writers finished; on false the caller
// raises the abort flag and drains them.
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
	// maxAttempts overrides appendToken's retry budget (0 = 40, sized for
	// transient frame loss; the crash harness raises it because a store
	// restart is a much longer outage than a dropped frame).
	maxAttempts int
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
	budget := counts.maxAttempts
	if budget == 0 {
		budget = 40
	}
	for attempt := 0; attempt < budget && !counts.abort.Load(); attempt++ {
		_, err := p.Invoke(msg.Invocation{Method: webdoc.MethodAppendPage, Page: page, Args: args})
		if err == nil {
			counts.acked.Add(1)
			return true
		}
		counts.retries.Add(1)
		time.Sleep(5 * time.Millisecond)
	}
	if !counts.abort.Load() {
		rec.violatef("write %v to %s never acked after %d attempts", tok, page, budget)
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
func localPage(s *store.Store, obj ids.ObjectID, page string) (string, error) {
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

// convergedState reports "" when every store agrees on every page — byte
// identical under the sequential model, identical token sets under PRAM
// (which permits different interleavings of different clients' writes) —
// and all applied vectors are equal. Otherwise it returns a diagnostic.
func convergedState(stores map[string]*store.Store, obj ids.ObjectID, model coherence.Model, rec *recorder) string {
	ref := make(map[string]string, len(pages))
	for _, page := range pages {
		c, err := localPage(stores["perm"], obj, page)
		if err != nil {
			return fmt.Sprintf("perm read %q: %v", page, err)
		}
		ref[page] = c
	}
	for _, addr := range storeAddrs[1:] {
		if _, alive := stores[addr]; !alive {
			continue // permanently killed mid-run (the re-parent schedule)
		}
		for _, page := range pages {
			c, err := localPage(stores[addr], obj, page)
			if err != nil {
				return fmt.Sprintf("%s read %q: %v", addr, page, err)
			}
			if model == coherence.Sequential {
				if c != ref[page] {
					return fmt.Sprintf("%s page %q = %q, perm has %q", addr, page, c, ref[page])
				}
				continue
			}
			a := parseTokens(c, rec, addr)
			b := parseTokens(ref[page], rec, "perm")
			if !sameTokenSet(a, b) {
				return fmt.Sprintf("%s page %q tokens %v, perm has %v", addr, page, a, b)
			}
		}
	}
	permVec, err := stores["perm"].Applied(obj)
	if err != nil {
		return err.Error()
	}
	for _, addr := range storeAddrs[1:] {
		if _, alive := stores[addr]; !alive {
			continue
		}
		v, err := stores[addr].Applied(obj)
		if err != nil {
			return err.Error()
		}
		if !v.Equal(&permVec) {
			return fmt.Sprintf("%s applied vector %v, perm has %v", addr, v, permVec)
		}
	}
	return ""
}

// finalChecks runs the post-convergence invariants: every acked token is
// present at every store, and every final page content passes the per-client
// order check.
func finalChecks(stores map[string]*store.Store, obj ids.ObjectID, counts *opCounts, rec *recorder) {
	acked := rec.ackedByPage()
	for addr, s := range stores {
		for _, page := range pages {
			content, err := localPage(s, obj, page)
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

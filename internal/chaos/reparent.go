// The re-parent schedule: kill the mirror permanently mid-write-stream and
// prove the tree heals itself. Unlike the crash-restart schedule (crash.go),
// the dead store never comes back — its child must notice the silence
// (missed digest heartbeats), re-resolve the object, re-subscribe at the
// permanent store, and anti-entropy the gap, all while the six-client cast
// keeps writing and the session-guarantee recorder watches every read.
package chaos

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/naming"
	"repro/internal/replication"
	"repro/internal/semantics/webdoc"
	"repro/internal/store"
	"repro/internal/transport/memnet"
)

// ReparentConfig parameterises one mirror-kill run.
type ReparentConfig struct {
	// Seed drives the workload (there is no random fault schedule here —
	// the one fault is the deterministic mirror kill).
	Seed int64
	// Loss is the store↔store frame drop probability, kept modest: the
	// scenario under test is death, not noise.
	Loss float64
	// OpsPerWriter is how many appends each writing client performs.
	OpsPerWriter int
	// DigestInterval is the parent heartbeat period — the liveness signal.
	DigestInterval time.Duration
	// ReparentAfter is the missed-digest threshold handed to every store.
	// Zero DISABLES re-parenting: the negative control, in which the
	// orphaned cache must demonstrably stall.
	ReparentAfter int
	// KillAfterAcks is how many acked writes precede the kill (default: a
	// third of the total write budget — genuinely mid-stream).
	KillAfterAcks int
	// ConvergeWithin bounds the post-workload convergence wait.
	ConvergeWithin time.Duration
}

// ReparentResult is a Result plus the self-healing counters.
type ReparentResult struct {
	Result
	// ReparentsDone / ParentMissedDigests aggregate the survivors' repair
	// counters (the proof the orphan actually re-subscribed, not merely
	// that traffic found another path).
	ReparentsDone       uint64
	ParentMissedDigests uint64
	// OrphanConverged reports whether cache2 — the killed mirror's child —
	// specifically reached the permanent store's state.
	OrphanConverged bool
}

// RunReparent executes the mirror-kill schedule; see the file comment.
func RunReparent(cfg ReparentConfig) (*ReparentResult, error) {
	if cfg.OpsPerWriter == 0 {
		cfg.OpsPerWriter = 30
	}
	if cfg.DigestInterval == 0 {
		cfg.DigestInterval = 25 * time.Millisecond
	}
	if cfg.ConvergeWithin == 0 {
		cfg.ConvergeWithin = 5 * time.Second
	}
	if cfg.KillAfterAcks == 0 {
		// Four writing clients; kill a third of the way into the stream.
		cfg.KillAfterAcks = 4 * cfg.OpsPerWriter / 3
	}
	res := &ReparentResult{}
	rec := newRecorder()
	ob := newRunObserver()

	net := memnet.New(memnet.WithSeed(cfg.Seed))
	defer net.Close()
	ns := naming.New()
	const obj = ids.ObjectID("chaos-doc")

	prof := memnet.LinkProfile{
		Latency: 200 * time.Microsecond,
		Jitter:  500 * time.Microsecond,
		Loss:    cfg.Loss,
	}
	for _, p := range storePairs {
		net.SetLinkBoth(p[0], p[1], prof)
	}
	// The re-parented subscription runs over this link once the mirror dies.
	net.SetLinkBoth("perm", "cache2", prof)

	st := pramConference(10 * time.Millisecond)
	session := []coherence.ClientModel{
		coherence.ReadYourWrites, coherence.MonotonicReads,
		coherence.MonotonicWrites, coherence.WritesFollowReads,
	}

	// Every store resolves parents through the shared naming service; the
	// harness plays the directory's liveness role (in a deployment the
	// lease TTL does this) by deregistering the mirror when it is killed.
	stores := make(map[string]*store.Store, len(storeAddrs))
	mk := func(addr string, role replication.Role) (*store.Store, error) {
		ep, err := net.Endpoint(addr)
		if err != nil {
			return nil, err
		}
		s := store.New(store.Config{
			ID: ns.NextStore(), Role: role, Endpoint: ep,
			Tuning: replication.Tuning{
				ReadTimeout:    300 * time.Millisecond,
				DigestInterval: cfg.DigestInterval,
				ReparentAfter:  cfg.ReparentAfter,
			},
			Obs: ob,
			ResolveParent: func(object ids.ObjectID) []replication.ParentCandidate {
				r, ok := ns.Record(object)
				if !ok {
					return nil
				}
				out := make([]replication.ParentCandidate, 0, len(r.Entries))
				for _, e := range r.Entries {
					out = append(out, replication.ParentCandidate{Addr: e.Addr, Role: e.Role})
				}
				return out
			},
		})
		stores[addr] = s
		ns.Register(obj, naming.Entry{Addr: addr, Store: s.ID(), Role: role})
		return s, nil
	}
	defer func() {
		for _, s := range stores {
			_ = s.Close()
		}
	}()
	perm, err := mk("perm", replication.RolePermanent)
	if err != nil {
		return nil, err
	}
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
	// The six-client cast of the main schedule: writers at the permanent
	// store, an RYW writer-reader at cache1, a WFR client and an MR
	// observer at cache2 (the store that will be orphaned), an MR observer
	// at cache1.
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

	var writersDone, abort atomic.Bool
	var writerWG, readerWG sync.WaitGroup
	// A dead parent is a much longer outage than a dropped frame: give the
	// cache2-bound writer a budget that spans detection + re-subscribe.
	counts := &opCounts{abort: &abort, maxAttempts: 120}
	runW := func(f func()) { writerWG.Add(1); go func() { defer writerWG.Done(); f() }() }
	runW(func() { runWriter(w1, 1, "pg0", cfg.OpsPerWriter, counts, rec) })
	runW(func() { runWriter(w2, 2, "pg1", cfg.OpsPerWriter, counts, rec) })
	runW(func() { runRYWWriter(ryw, 3, "ryw", cfg.OpsPerWriter, counts, rec) })
	if cfg.ReparentAfter > 0 {
		// cache2 forwards writes up its parent chain; with re-parenting off
		// (the negative control) they would hang against the corpse until
		// the retry budget drained, so the stranded cache is exercised by
		// its reader only.
		runW(func() { runWFRClient(wfr, 4, "pg0", cfg.OpsPerWriter/2, counts, rec) })
	} else {
		_ = wfr
	}
	readerWG.Add(2)
	go func() { defer readerWG.Done(); runMRReader(mr1, "mr1@cache1", "cache1", &writersDone, counts, rec) }()
	go func() { defer readerWG.Done(); runMRReader(mr2, "mr2@cache2", "cache2", &writersDone, counts, rec) }()

	// The assassin: once a third of the write stream is acked, SIGKILL the
	// mirror (Crash stops its event loop without any farewell traffic — an
	// abrupt process death, not a clean unsubscribe) and retire it from
	// resolution, as the lease TTL would in a deployment.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for counts.acked.Load() < int64(cfg.KillAfterAcks) && !writersDone.Load() {
			time.Sleep(time.Millisecond)
		}
		mirror.Crash()
		ns.Deregister(obj, "mirror")
	}()

	writersFinished := make(chan struct{})
	go func() { writerWG.Wait(); close(writersFinished) }()
	if !awaitWriters(writersFinished, counts, 90*time.Second) {
		rec.violatef("workload phase stalled: no client progress for 90s (hard cap 360s)")
		abort.Store(true)
		<-writersFinished
	}
	writersDone.Store(true)
	readerWG.Wait()
	<-killed

	// Convergence among the survivors only: the mirror is gone for good.
	delete(stores, "mirror")
	_ = mirror.Close()
	healed := time.Now()
	deadline := healed.Add(cfg.ConvergeWithin)
	for {
		if diag := convergedState(stores, obj, coherence.PRAM, rec); diag == "" {
			res.Converged = true
			res.ConvergeIn = time.Since(healed)
			break
		} else if time.Now().After(deadline) {
			if cfg.ReparentAfter > 0 {
				rec.violatef("survivors did not converge within %v: %s", cfg.ConvergeWithin, diag)
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if res.Converged {
		finalChecks(stores, obj, counts, rec)
	}
	rec.checkObservations()

	// The orphan check: does cache2 specifically hold the permanent
	// store's state? (Converged already implies it; kept separate so the
	// negative control can report exactly what stalled.)
	res.OrphanConverged = true
	for _, page := range pages {
		pc, err1 := localPage(perm, obj, page)
		cc, err2 := localPage(stores["cache2"], obj, page)
		if err1 != nil || err2 != nil ||
			!sameTokenSet(parseTokens(pc, rec, "perm"), parseTokens(cc, rec, "cache2")) {
			res.OrphanConverged = false
		}
	}

	res.WritesAcked = int(counts.acked.Load())
	res.WriteRetries = int(counts.retries.Load())
	res.ReadsOK = int(counts.readsOK.Load())
	res.ReadsFailed = int(counts.readsFailed.Load())
	for _, s := range stores {
		if st, err := s.Stats(obj); err == nil {
			res.DigestsSent += st.DigestsSent
			res.DigestDemands += st.DigestDemands
			res.ReparentsDone += st.ReparentsDone
			res.ParentMissedDigests += st.ParentMissedDigests
		}
	}
	nst := net.Stats()
	res.FramesDropped = nst.Dropped
	res.Violations = rec.take()
	if len(res.Violations) > 0 {
		res.TraceDump = traceDump(ob, stores)
	}
	return res, nil
}

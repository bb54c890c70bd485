package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/replication"
	"repro/internal/semantics/webdoc"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/wal"
)

// CrashConfig parameterises one kill -9 chaos run: the same three-layer
// topology and client cast as Run, but deployed over real TCP with a
// durable permanent store that is crashed and restarted from disk while the
// write stream is in flight.
type CrashConfig struct {
	// Seed drives crash timing and workload choices.
	Seed int64
	// OpsPerWriter is how many appends each writing client performs
	// (default 20).
	OpsPerWriter int
	// Crashes is how many kill -9 → restart cycles hit the permanent store
	// mid-workload (default 2; a cycle is skipped if the writers finish
	// first, so assert CrashResult.Crashes for non-vacuity).
	Crashes int
	// Fsync is the durable store's flush policy (default wal.SyncAlways —
	// the only policy under which "acked" implies "survives kill -9", which
	// is what the final durability check asserts).
	Fsync wal.Policy
	// DigestInterval is the anti-entropy heartbeat period (default 75ms;
	// it is also what re-converges children after a restart).
	DigestInterval time.Duration
	// LazyInterval is the dissemination aggregation period (default 10ms).
	LazyInterval time.Duration
	// RecoveryGrace bounds the restarted store's recover-then-serve gate
	// (default 1s).
	RecoveryGrace time.Duration
	// ConvergeWithin bounds the post-workload convergence wait (default 10s).
	ConvergeWithin time.Duration
	// DataDir is the permanent store's durable directory (required).
	DataDir string
}

func (c *CrashConfig) defaults() error {
	if c.DataDir == "" {
		return fmt.Errorf("chaos: CrashConfig.DataDir is required")
	}
	if c.OpsPerWriter == 0 {
		c.OpsPerWriter = 60
	}
	if c.Crashes == 0 {
		c.Crashes = 2
	}
	if c.Fsync == wal.SyncOff {
		c.Fsync = wal.SyncAlways
	}
	if c.DigestInterval == 0 {
		c.DigestInterval = 75 * time.Millisecond
	}
	if c.LazyInterval == 0 {
		c.LazyInterval = 10 * time.Millisecond
	}
	if c.RecoveryGrace == 0 {
		c.RecoveryGrace = time.Second
	}
	if c.ConvergeWithin == 0 {
		c.ConvergeWithin = 10 * time.Second
	}
	return nil
}

// CrashResult reports one kill -9 chaos run.
type CrashResult struct {
	// Violations is empty iff every durability, convergence, and session
	// guarantee held across every crash.
	Violations []string
	// Converged reports post-workload convergence; ConvergeIn is how long
	// the final heal-out took.
	Converged  bool
	ConvergeIn time.Duration
	// Crashes is how many kill -9 cycles actually ran; Recoveries how many
	// restarts completed their recovery gate.
	Crashes    int
	Recoveries int
	// WALReplayed totals the update records replayed from disk across all
	// restarts; TornTails counts corrupt WAL tails truncated.
	WALReplayed uint64
	TornTails   uint64
	// LastRecovery is the final restart's replay-to-serve duration.
	LastRecovery time.Duration
	// Workload accounting (same meaning as Result).
	WritesAcked  int
	WriteRetries int
	ReadsOK      int
	ReadsFailed  int
	// TraceDump holds the trailing write-lifecycle trace events per store,
	// populated only when Violations is non-empty (see trace.go).
	TraceDump []string
}

// RunCrash executes one kill -9 chaos scenario over real TCP.
//
// The topology is Run's three-layer hierarchy deployed on loopback TCP
// endpoints; the permanent store is durable (WAL + snapshots under
// cfg.DataDir, fsync per cfg.Fsync). While the client cast writes, a
// coordinator repeatedly kills the permanent store the way kill -9 would —
// event loop abandoned mid-flight, WAL neither flushed nor closed, listener
// torn down — then restarts it on the same address from disk alone. The
// restarted store replays snapshot + WAL, anti-entropies its tail from its
// children behind a StatusRetry gate, and resumes service.
//
// The checks are Run's, plus two crash-specific ones: every acknowledged
// write must survive every crash (zero acked-write loss under
// wal.SyncAlways), and a writer identity re-bound after the final recovery
// must resume its write sequence above everything it was acked before the
// crashes (the at-most-once floor — if recovery forgot it, the fresh write
// would be absorbed as a replay and silently vanish).
func RunCrash(cfg CrashConfig) (*CrashResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	res := &CrashResult{}
	rec := newRecorder()
	ob := newRunObserver()
	rng := rand.New(rand.NewSource(cfg.Seed))

	fab := tcpnet.NewFabric("")
	defer fab.Close()

	st := pramConference(cfg.LazyInterval)
	session := []coherence.ClientModel{
		coherence.ReadYourWrites, coherence.MonotonicReads,
		coherence.MonotonicWrites, coherence.WritesFollowReads,
	}
	const obj = ids.ObjectID("crash-doc")
	const permID = ids.StoreID(1)

	// The permanent store's endpoint is created ephemeral once, and every
	// restart re-listens on the SAME resolved address — children and
	// clients hold that address and simply redial.
	permEp, err := fab.Endpoint("store/perm")
	if err != nil {
		return nil, err
	}
	permAddr := permEp.Addr()

	newPerm := func(ep transport.Endpoint) *store.Store {
		return store.New(store.Config{
			ID: permID, Role: replication.RolePermanent, Endpoint: ep,
			Tuning: replication.Tuning{
				ReadTimeout:    300 * time.Millisecond,
				DigestInterval: cfg.DigestInterval,
				Durability:     replication.Durability{Fsync: cfg.Fsync, RecoveryGrace: cfg.RecoveryGrace},
			},
			DataDir: cfg.DataDir,
			Obs:     ob,
		})
	}
	hostPerm := func(s *store.Store) error {
		return s.Host(store.HostConfig{
			Object: obj, Semantics: webdoc.New(), Strat: st, Session: session,
		})
	}

	// The current incarnation of the permanent store. The coordinator
	// goroutine swaps it on every crash cycle; everyone else reads it under
	// the mutex.
	var permMu sync.Mutex
	perm := newPerm(permEp)
	curEp := permEp
	defer func() {
		permMu.Lock()
		defer permMu.Unlock()
		perm.Crash() // final state may be mid-anything; don't flush
		_ = curEp.Close()
	}()
	if err := hostPerm(perm); err != nil {
		return nil, err
	}

	// Mirror and caches are memory-only (reconstructible from the parent)
	// and stay up throughout — they are what the restarted permanent store
	// anti-entropies its WAL tail against.
	stores := map[string]*store.Store{"perm": perm}
	defer func() {
		for addr, s := range stores {
			if addr != "perm" { // perm's incarnation is closed above
				_ = s.Close()
			}
		}
	}()
	nextID := ids.StoreID(2)
	mkChild := func(addr, parent string, role replication.Role) (*store.Store, error) {
		ep, err := fab.Endpoint("store/" + addr)
		if err != nil {
			return nil, err
		}
		s := store.New(store.Config{
			ID: nextID, Role: role, Endpoint: ep,
			Tuning: replication.Tuning{ReadTimeout: 300 * time.Millisecond, DigestInterval: cfg.DigestInterval},
			Obs:    ob,
		})
		nextID++
		stores[addr] = s
		return s, s.Host(store.HostConfig{
			Object: obj, Semantics: webdoc.New(), Strat: st, Session: session,
			Parent: parent, Subscribe: true,
		})
	}
	mirror, err := mkChild("mirror", permAddr, replication.RoleObjectInitiated)
	if err != nil {
		return nil, err
	}
	if _, err := mkChild("cache1", permAddr, replication.RoleClientInitiated); err != nil {
		return nil, err
	}
	if _, err := mkChild("cache2", mirror.Addr(), replication.RoleClientInitiated); err != nil {
		return nil, err
	}

	// Client identities are pinned (not leased): the whole point of the
	// final floor check is re-binding identity 1 after the crashes.
	bind := func(epName, storeAddr string, client ids.ClientID, models ...coherence.ClientModel) (*core.Proxy, error) {
		ep, err := fab.Endpoint(epName)
		if err != nil {
			return nil, err
		}
		return core.Bind(core.BindConfig{
			Object: obj, Endpoint: ep, StoreAddr: storeAddr,
			Client: client, Session: models,
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
	w1, err := addClient(bind("client/w1", permAddr, 1))
	if err != nil {
		return nil, err
	}
	w2, err := addClient(bind("client/w2", permAddr, 2))
	if err != nil {
		return nil, err
	}
	ryw, err := addClient(bind("client/ryw", stores["cache1"].Addr(), 3,
		coherence.ReadYourWrites, coherence.MonotonicWrites))
	if err != nil {
		return nil, err
	}
	wfr, err := addClient(bind("client/wfr", stores["cache2"].Addr(), 4,
		coherence.WritesFollowReads))
	if err != nil {
		return nil, err
	}
	mr1, err := addClient(bind("client/mr1", stores["cache1"].Addr(), 5, coherence.MonotonicReads))
	if err != nil {
		return nil, err
	}
	mr2, err := addClient(bind("client/mr2", stores["cache2"].Addr(), 6, coherence.MonotonicReads))
	if err != nil {
		return nil, err
	}

	// Phase A: the workload, with the crash coordinator in place of Run's
	// partition injector. A write that straddles an outage retries under
	// the same write identifier until the restarted store either re-acks it
	// (it was durable) or admits it fresh — so the ack bookkeeping stays
	// exact across kill -9.
	var writersDone, abort atomic.Bool
	var writerWG, readerWG sync.WaitGroup
	counts := &opCounts{abort: &abort, maxAttempts: 400}
	runW := func(f func()) { writerWG.Add(1); go func() { defer writerWG.Done(); f() }() }
	runW(func() { runWriter(w1, 1, "pg0", cfg.OpsPerWriter, counts, rec) })
	runW(func() { runWriter(w2, 2, "pg1", cfg.OpsPerWriter, counts, rec) })
	runW(func() { runRYWWriter(ryw, 3, "ryw", cfg.OpsPerWriter, counts, rec) })
	runW(func() { runWFRClient(wfr, 4, "pg0", cfg.OpsPerWriter/2, counts, rec) })
	readerWG.Add(2)
	go func() { defer readerWG.Done(); runMRReader(mr1, "mr1@cache1", "cache1", &writersDone, counts, rec) }()
	go func() { defer readerWG.Done(); runMRReader(mr2, "mr2@cache2", "cache2", &writersDone, counts, rec) }()

	// The crash coordinator: kill -9, hold the address dark for a beat so
	// in-flight writes really fail, restart from disk, wait out the
	// recovery gate, collect the restart's replay accounting.
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for i := 0; i < cfg.Crashes && !writersDone.Load() && !abort.Load(); i++ {
			// Strike early the first time (loopback TCP drains the write
			// stream fast), then give the recovered deployment a beat of
			// healthy traffic before the next kill.
			lead := 30 + rng.Intn(50)
			if i > 0 {
				lead = 120 + rng.Intn(180)
			}
			time.Sleep(time.Duration(lead) * time.Millisecond)
			if writersDone.Load() {
				return
			}
			permMu.Lock()
			perm.Crash()
			_ = curEp.Close()
			permMu.Unlock()
			res.Crashes++
			time.Sleep(time.Duration(40+rng.Intn(80)) * time.Millisecond)

			ep, err := relisten(fab, permAddr)
			if err != nil {
				rec.violatef("restart %d: re-listen on %s: %v", i+1, permAddr, err)
				abort.Store(true)
				return
			}
			s2 := newPerm(ep)
			if err := hostPerm(s2); err != nil {
				rec.violatef("restart %d: recovery host failed: %v", i+1, err)
				abort.Store(true)
				return
			}
			permMu.Lock()
			perm, curEp = s2, ep
			stores["perm"] = s2
			permMu.Unlock()
			if !awaitRecovered(s2, obj, cfg.RecoveryGrace+2*time.Second) {
				rec.violatef("restart %d: recovery gate never opened", i+1)
				continue
			}
			res.Recoveries++
			if rs, err := s2.Stats(obj); err == nil {
				res.WALReplayed += rs.WALReplayed
				res.TornTails += rs.WALTornTail
				res.LastRecovery = time.Duration(rs.RecoveryNanos)
			}
		}
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

	// Phase B/C: nothing to heal (TCP injected no faults beyond the
	// crashes) — wait for convergence, then the identity-floor probe, then
	// the global checks.
	if !awaitConverged(res, stores, obj, cfg.ConvergeWithin, rec) {
		res.Violations = rec.take()
		res.TraceDump = traceDump(ob, stores)
		return res, nil
	}

	// The reused-identity floor: re-bind writer 1's pinned identity at the
	// recovered store and write the NEXT token in its sequence. The bind
	// reply's version vector must seed the session past every write the
	// dead incarnations acked; if recovery lost that floor, this write goes
	// out under an already-admitted identifier and is silently absorbed as
	// a replay — which the acked-token sweep below then catches missing.
	floorSeq := 0
	for tok := range rec.ackedByPage()["pg0"] {
		if tok.label == 1 && tok.seq > floorSeq {
			floorSeq = tok.seq
		}
	}
	permMu.Lock()
	permNow := perm
	permMu.Unlock()
	w1b, err := addClient(bind("client/w1b", permAddr, 1))
	if err != nil {
		rec.violatef("re-bind of pinned identity 1 after recovery: %v", err)
	} else {
		tok := token{1, floorSeq + 1}
		if appendToken(w1b, "pg0", tok, counts, rec) {
			rec.recordAck(tok, "pg0")
			if content, err := localPage(permNow, obj, "pg0"); err == nil {
				if !tokenSet(parseTokens(content, rec, "floor probe"))[tok] {
					rec.violatef("write-seq floor broken: post-recovery write %v from reused identity vanished (absorbed as a replay); perm has %q", tok, content)
				}
			}
		}
	}
	if !awaitConverged(res, stores, obj, cfg.ConvergeWithin, rec) {
		res.Violations = rec.take()
		res.TraceDump = traceDump(ob, stores)
		return res, nil
	}

	finalChecks(stores, obj, counts, rec)
	rec.checkObservations()

	res.WritesAcked = int(counts.acked.Load())
	res.WriteRetries = int(counts.retries.Load())
	res.ReadsOK = int(counts.readsOK.Load())
	res.ReadsFailed = int(counts.readsFailed.Load())
	res.Violations = rec.take()
	if len(res.Violations) > 0 {
		res.TraceDump = traceDump(ob, stores)
	}
	return res, nil
}

// relisten re-creates the permanent store's endpoint on its original
// address. The retry loop absorbs the OS briefly holding the port after the
// dead incarnation's listener closed.
func relisten(fab *tcpnet.Fabric, addr string) (transport.Endpoint, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ep, err := fab.Endpoint("store/" + addr)
		if err == nil {
			return ep, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitRecovered polls a restarted store until its recovery gate opens.
func awaitRecovered(s *store.Store, obj ids.ObjectID, within time.Duration) bool {
	deadline := time.Now().Add(within)
	for {
		d, err := s.Durability(obj)
		if err == nil && !d.Recovering {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// awaitConverged polls convergedState until every store agrees (PRAM token
// sets + equal applied vectors), recording a violation on timeout.
func awaitConverged(res *CrashResult, stores map[string]*store.Store, obj ids.ObjectID, within time.Duration, rec *recorder) bool {
	start := time.Now()
	deadline := start.Add(within)
	for {
		if diag := convergedState(stores, obj, coherence.PRAM, rec); diag == "" {
			res.Converged = true
			res.ConvergeIn = time.Since(start)
			return true
		} else if time.Now().After(deadline) {
			rec.violatef("replicas did not converge within %v after the crashes: %s", within, diag)
			res.Converged = false
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

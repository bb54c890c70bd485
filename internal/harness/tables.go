package harness

import (
	"math/rand"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/semantics/webdoc"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/transport/memnet"
	"repro/internal/workload"
)

// Table1Sweep sweeps the implementation parameters of Table 1 and measures
// their traffic/staleness trade-offs under a low-write and a high-write
// workload.
func Table1Sweep(o Options) *Table {
	t := &Table{
		ID:    "T1",
		Title: "implementation-parameter sweep (propagation x initiative x instant x transfer)",
		Header: []string{"workload", "propagation", "initiative", "instant", "coh.transfer",
			"msgs", "bytes", "stale reads", "mean lag"},
	}
	ops := o.ops(300)

	type combo struct {
		prop    strategy.Propagation
		init    strategy.Initiative
		instant strategy.Instant
		ct      strategy.CoherenceTransfer
	}
	combos := []combo{
		{strategy.PropagateUpdate, strategy.Push, strategy.Immediate, strategy.CoherencePartial},
		{strategy.PropagateUpdate, strategy.Push, strategy.Immediate, strategy.CoherenceFull},
		{strategy.PropagateUpdate, strategy.Push, strategy.Lazy, strategy.CoherencePartial},
		{strategy.PropagateUpdate, strategy.Push, strategy.Lazy, strategy.CoherenceFull},
		{strategy.PropagateInvalidate, strategy.Push, strategy.Immediate, strategy.CoherencePartial},
		{strategy.PropagateUpdate, strategy.Pull, strategy.Immediate, strategy.CoherencePartial},
	}
	for _, wl := range []struct {
		name       string
		writeRatio float64
	}{
		{"read-heavy (5% writes)", 0.05},
		{"write-heavy (40% writes)", 0.40},
	} {
		for _, c := range combos {
			msgs, bytes, rep := runSweep(c.prop, c.init, c.instant, c.ct, wl.writeRatio, ops)
			t.AddRow(wl.name, c.prop.String(), c.init.String(), c.instant.String(), c.ct.String(),
				f("%d", msgs), f("%d", bytes), f("%.2f", rep.StaleFraction), f("%.2f", rep.MeanLag))
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: invalidate saves bytes at low write rates; lazy aggregation saves messages at high write rates;",
		"full transfer costs bytes vs partial; pull trades staleness for fewer pushes")
	return t
}

func runSweep(prop strategy.Propagation, init strategy.Initiative, instant strategy.Instant,
	ct strategy.CoherenceTransfer, writeRatio float64, ops int) (uint64, uint64, Report) {
	r := newRigH(memnet.WithSeed(3))
	defer r.close()
	const obj = ids.ObjectID("t1-doc")
	st := strategy.Strategy{
		Model:             coherence.PRAM,
		Propagation:       prop,
		Scope:             strategy.ScopeAll,
		Writers:           strategy.SingleWriter,
		Initiative:        init,
		Instant:           instant,
		LazyInterval:      10 * time.Millisecond,
		PullInterval:      15 * time.Millisecond,
		AccessTransfer:    strategy.TransferPartial,
		CoherenceTransfer: ct,
		ObjectOutdate:     strategy.Demand,
		ClientOutdate:     strategy.Demand,
	}
	if st.Model == coherence.Eventual {
		st.ObjectOutdate = strategy.Wait
	}
	if err := st.Validate(); err != nil {
		panic(err)
	}

	perm := r.mustStore("perm", replication.RolePermanent, 2*time.Second)
	defer perm.Close()
	mustHost(perm, store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st})
	cache := r.mustStore("cache", replication.RoleClientInitiated, 2*time.Second)
	defer cache.Close()
	mustHost(cache, store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st, Parent: "perm", Subscribe: true})

	writer := r.mustBind("writer", "perm", obj, 2*time.Second)
	defer writer.Close()
	reader := r.mustBind("reader", "cache", obj, 2*time.Second)
	defer reader.Close()

	stale := NewStaleness()
	rng := rand.New(rand.NewSource(7))
	const pages = 4
	// Pre-populate pages so reads never cold-miss.
	for p := 0; p < pages; p++ {
		if err := putContent(writer, workload.PageName(p), []byte("v0")); err != nil {
			panic(err)
		}
		stale.Wrote(workload.PageName(p))
	}
	sched := workload.Generate(workload.Config{
		Seed: 11, Clients: 1, Ops: ops, WriteRatio: writeRatio, Pages: pages,
		WriteSize: 256, SingleWriter: true,
	})
	r.net.ResetStats()
	for _, op := range sched {
		page := op.Page
		if op.IsWrite {
			if err := putContent(writer, page, workload.Content(rng, op.Size)); err != nil {
				panic(err)
			}
			stale.Wrote(page)
			continue
		}
		v, err := readVersion(reader, page)
		if err == nil {
			stale.ReadVersion(page, v)
		}
	}
	// Allow pending lazy flushes to drain before counting.
	time.Sleep(30 * time.Millisecond)
	ns := r.net.Stats()
	return ns.Sent, ns.Bytes, stale.Report()
}

// Table2Conference runs the full §4 scenario with the exact Table 2
// parameters and reports the coherence work done, with and without the
// Read-Your-Writes client model for the master.
func Table2Conference(o Options) *Table {
	t := &Table{
		ID:    "T2",
		Title: "conference home page (Table 2 parameters): PRAM + Read Your Writes",
		Header: []string{"configuration", "master writes", "master stale reads", "RYW violations detected",
			"demands", "user stale reads", "msgs"},
	}
	writes := o.ops(60)

	for _, withRYW := range []bool{true, false} {
		r := newRigH()
		const obj = ids.ObjectID("conf")
		st := strategy.Conference(25 * time.Millisecond)

		server := r.mustStore("server", replication.RolePermanent, 2*time.Second)
		mustHost(server, store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st})
		var models []coherence.ClientModel
		if withRYW {
			models = []coherence.ClientModel{coherence.ReadYourWrites}
		}
		cacheM := r.mustStore("cache-m", replication.RoleClientInitiated, 2*time.Second)
		mustHost(cacheM, store.HostConfig{
			Object: obj, Semantics: webdoc.New(), Strat: st, Parent: "server",
			Subscribe: true, Session: models,
		})
		cacheU := r.mustStore("cache-u", replication.RoleClientInitiated, 2*time.Second)
		mustHost(cacheU, store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st, Parent: "server", Subscribe: true})

		master := r.mustBind("master", "cache-m", obj, 2*time.Second, models...)
		user := r.mustBind("user", "cache-u", obj, 2*time.Second)

		masterStale, userStale := 0, 0
		for i := 0; i < writes; i++ {
			if err := appendContent(master, "program", []byte("u")); err != nil {
				panic(err)
			}
			// The master verifies its own update (the paper's motivation
			// for RYW).
			v, err := readVersion(master, "program")
			if err == nil && v < uint64(i+1) {
				masterStale++
			}
			// A user reads concurrently; PRAM allows lag here.
			if uv, err := readVersion(user, "program"); err == nil && uv < uint64(i+1) {
				userStale++
			}
		}
		ms, _ := cacheM.Stats(obj)
		ns := r.net.Stats()
		name := "PRAM only"
		if withRYW {
			name = "PRAM + RYW (Table 2)"
		}
		t.AddRow(name, f("%d", writes), f("%d", masterStale), f("%d", ms.ReqViolations),
			f("%d", ms.DemandsSent), f("%d", userStale), f("%d", ns.Sent))
		master.Close()
		user.Close()
		cacheU.Close()
		cacheM.Close()
		server.Close()
		r.close()
	}
	t.Notes = append(t.Notes,
		"expected shape: with RYW the master never reads a cache state missing its own writes (0 stale),",
		"paid for by demand pulls; user caches may lag under lazy push either way (PRAM permits it)")
	return t
}

// ModelsObjectBased compares the five object-based models of §3.2.1 under a
// concurrent multi-writer workload: ordering overhead and convergence.
func ModelsObjectBased(o Options) *Table {
	t := &Table{
		ID:     "M1",
		Title:  "object-based coherence models under concurrent writers",
		Header: []string{"model", "writes", "converged", "buffered@caches", "msgs", "bytes", "write mean (us)"},
	}
	perWriter := o.ops(40)

	for _, model := range []coherence.Model{
		coherence.Sequential, coherence.PRAM, coherence.FIFO, coherence.Causal, coherence.Eventual,
	} {
		r := newRigH()
		const obj = ids.ObjectID("m1-doc")
		st := strategy.Strategy{
			Model:             model,
			Propagation:       strategy.PropagateUpdate,
			Scope:             strategy.ScopeAll,
			Writers:           strategy.MultipleWriters,
			Initiative:        strategy.Push,
			Instant:           strategy.Immediate,
			AccessTransfer:    strategy.TransferFull,
			CoherenceTransfer: strategy.CoherencePartial,
			ObjectOutdate:     strategy.Demand,
			ClientOutdate:     strategy.Demand,
		}
		if model == coherence.FIFO {
			st.Writers = strategy.SingleWriter
		}
		if model == coherence.Eventual {
			st.ObjectOutdate = strategy.Wait
		}
		if err := st.Validate(); err != nil {
			panic(err)
		}

		perm := r.mustStore("perm", replication.RolePermanent, 2*time.Second)
		mustHost(perm, store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st})
		caches := make([]*store.Store, 2)
		for i := range caches {
			caches[i] = r.mustStore(f("cache-%d", i), replication.RoleClientInitiated, 2*time.Second)
			mustHost(caches[i], store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st, Parent: "perm", Subscribe: true})
		}

		nWriters := 3
		if st.Writers == strategy.SingleWriter {
			nWriters = 1
		}
		writers := make([]*core.Proxy, nWriters)
		for i := range writers {
			writers[i] = r.mustBind(f("writer-%d", i), f("cache-%d", i%len(caches)), obj, 2*time.Second)
		}

		var lat obs.Hist
		r.net.ResetStats()
		// Each writer writes to its own page: concurrent but conflict-free
		// except under eventual LWW on shared page 0 for contrast.
		for k := 0; k < perWriter; k++ {
			for i, w := range writers {
				start := time.Now()
				if err := putContent(w, workload.PageName(i), []byte(f("w%d-v%d", i, k))); err != nil {
					panic(err)
				}
				lat.Record(time.Since(start))
			}
		}
		converged := settle(3*time.Second, func() bool {
			for _, c := range caches {
				v, err := c.Applied(obj)
				if err != nil {
					return false
				}
				for _, w := range writers {
					if v.Get(w.Client()) < uint64(perWriter) {
						return false
					}
				}
			}
			return true
		})
		var buffered uint64
		for _, c := range caches {
			cs, _ := c.Stats(obj)
			buffered += cs.UpdatesBuffered
		}
		ns := r.net.Stats()
		t.AddRow(model.String(), f("%d", perWriter*len(writers)), f("%v", converged),
			f("%d", buffered), f("%d", ns.Sent), f("%d", ns.Bytes), f("%.0f", histMeanMicros(&lat)))
		for _, w := range writers {
			w.Close()
		}
		for _, c := range caches {
			c.Close()
		}
		perm.Close()
		r.close()
	}
	t.Notes = append(t.Notes,
		"expected shape: stronger models do more ordering work (buffering) and writes cost more;",
		"eventual applies everything immediately; FIFO is restricted to a single writer")
	return t
}

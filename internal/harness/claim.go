package harness

import (
	"math/rand"
	"time"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/replication"
	"repro/internal/semantics/webdoc"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/transport/memnet"
	"repro/internal/workload"
)

// ClaimPerObjectVsUniform tests the paper's central claim (§1, §5): tuning
// the caching/replication strategy per Web document beats applying one
// uniform policy to every document. A mixed population of four document
// classes runs under three regimes:
//
//   - uniform TTL caching (every object: pull, periodic refresh) — the
//     expiration-based proxy cache of the paper's introduction;
//   - uniform validate-on-access (every object: pull on every read) — the
//     If-Modified-Since scheme of the introduction;
//   - per-object tailored strategies (each class uses its preset).
func ClaimPerObjectVsUniform(o Options) *Table {
	t := &Table{
		ID:    "C1",
		Title: "per-object strategies vs one-size-fits-all caching",
		Header: []string{"regime", "class", "reads", "stale frac", "mean lag",
			"msgs", "bytes"},
	}
	opsPerClass := o.ops(200)

	classes := []workload.Class{
		workload.ClassPersonalHome, workload.ClassPopularEvent,
		workload.ClassMagazine, workload.ClassForum,
	}

	regimes := []struct {
		name  string
		strat func(workload.Class) strategy.Strategy
	}{
		{"uniform TTL", func(workload.Class) strategy.Strategy { return uniformTTL(40 * time.Millisecond) }},
		{"uniform validate", func(workload.Class) strategy.Strategy { return uniformValidate() }},
		{"per-object tailored", tailored},
	}

	for _, reg := range regimes {
		var totMsgs, totBytes uint64
		var totReads, totStale int
		for _, cls := range classes {
			msgs, bytes, rep := runClass(cls, reg.strat(cls), opsPerClass)
			totMsgs += msgs
			totBytes += bytes
			totReads += rep.Reads
			totStale += rep.StaleReads
			t.AddRow(reg.name, cls.String(), f("%d", rep.Reads), f("%.2f", rep.StaleFraction),
				f("%.2f", rep.MeanLag), f("%d", msgs), f("%d", bytes))
		}
		frac := 0.0
		if totReads > 0 {
			frac = float64(totStale) / float64(totReads)
		}
		t.AddRow(reg.name, "TOTAL", f("%d", totReads), f("%.2f", frac), "",
			f("%d", totMsgs), f("%d", totBytes))
	}
	t.Notes = append(t.Notes,
		"expected shape: tailored strategies dominate the staleness-vs-traffic frontier —",
		"TTL is cheap but stale, validate is fresh but chatty, per-object gets both right")
	return t
}

// uniformTTL is the expiration-based proxy cache: serve from cache until
// the TTL poll refreshes it.
func uniformTTL(ttl time.Duration) strategy.Strategy {
	return strategy.Strategy{
		Model:             coherence.PRAM,
		Propagation:       strategy.PropagateUpdate,
		Scope:             strategy.ScopeAll,
		Writers:           strategy.MultipleWriters,
		Initiative:        strategy.Pull,
		Instant:           strategy.Immediate,
		PullInterval:      ttl,
		AccessTransfer:    strategy.TransferPartial,
		CoherenceTransfer: strategy.CoherencePartial,
		ObjectOutdate:     strategy.Wait,
		ClientOutdate:     strategy.Wait,
	}
}

// uniformValidate is validate-on-every-access (If-Modified-Since): fresh
// but one round trip per read.
func uniformValidate() strategy.Strategy {
	s := uniformTTL(0)
	s.PullInterval = 0 // pull on access
	s.ObjectOutdate = strategy.Demand
	s.ClientOutdate = strategy.Demand
	return s
}

// tailored picks the preset matching each document class.
func tailored(c workload.Class) strategy.Strategy {
	switch c {
	case workload.ClassPersonalHome:
		return strategy.PersonalHomePage()
	case workload.ClassPopularEvent:
		s := strategy.PopularEventPage()
		s.Scope = strategy.ScopeAll
		return s
	case workload.ClassMagazine:
		return strategy.Magazine(40 * time.Millisecond)
	case workload.ClassForum:
		return strategy.Forum()
	default:
		return strategy.Conference(40 * time.Millisecond)
	}
}

// runClass drives one document class under one strategy and measures
// traffic and staleness.
func runClass(cls workload.Class, st strategy.Strategy, ops int) (uint64, uint64, Report) {
	if err := st.Validate(); err != nil {
		panic(err)
	}
	r := newRigH(memnet.WithSeed(int64(cls)))
	defer r.close()
	obj := ids.ObjectID("c1-" + cls.String())

	perm := r.mustStore("perm", replication.RolePermanent, 2*time.Second)
	defer perm.Close()
	mustHost(perm, store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st})
	cache := r.mustStore("cache", replication.RoleClientInitiated, 2*time.Second)
	defer cache.Close()
	mustHost(cache, store.HostConfig{Object: obj, Semantics: webdoc.New(), Strat: st, Parent: "perm", Subscribe: true})

	cfg := workload.ClassConfig(cls, 17, ops)
	sched := workload.Generate(cfg)

	// Writers bind at the permanent store (owners publish at the server);
	// readers bind at the cache.
	writer := r.mustBind("writer", "perm", obj, 2*time.Second)
	defer writer.Close()
	reader := r.mustBind("reader", "cache", obj, 2*time.Second)
	defer reader.Close()

	stale := NewStaleness()
	rng := rand.New(rand.NewSource(23))
	for p := 0; p < cfg.Pages; p++ {
		if err := putContent(writer, workload.PageName(p), []byte("v0")); err != nil {
			panic(err)
		}
		stale.Wrote(workload.PageName(p))
	}
	r.net.ResetStats()
	for _, op := range sched {
		if op.IsWrite {
			if err := putContent(writer, op.Page, workload.Content(rng, op.Size)); err != nil {
				panic(err)
			}
			stale.Wrote(op.Page)
			continue
		}
		v, err := readVersion(reader, op.Page)
		if err == nil {
			stale.ReadVersion(op.Page, v)
		}
	}
	time.Sleep(30 * time.Millisecond) // drain lazy flushes before counting
	ns := r.net.Stats()
	return ns.Sent, ns.Bytes, stale.Report()
}

// Package repro's root benchmarks regenerate every figure and table of the
// paper: one benchmark per artifact, built on the same scenarios as
// cmd/globebench, plus micro-benchmarks of the hot paths (codec, ordering
// engines). Custom metrics report the
// quantities the paper reasons about: messages, bytes, demand pulls, and
// stale reads per operation.
package repro_test

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/coherence"
	"repro/internal/control"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/nameserv"
	"repro/internal/replication"
	"repro/internal/semantics/webdoc"
	"repro/internal/strategy"
	"repro/internal/transport"
	"repro/internal/transport/memnet"
	"repro/internal/transport/tcpnet"
	"repro/internal/vclock"
	"repro/webobj"
)

// --- micro: wire codec (every remote invocation pays this) -------------------

func BenchmarkMicro_MessageEncode(b *testing.B) {
	m := &msg.Message{
		Kind: msg.KindUpdate, Object: "doc", From: "a", To: "b",
		Write: ids.WiD{Client: 3, Seq: 17},
		VVec:  vecOf(1, 5, 2, 9, 3, 17),
		Inv:   msg.Invocation{Method: 4, Page: "index.html", Args: make([]byte, 512)},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = msg.Encode(m)
	}
}

func BenchmarkMicro_MessageDecode(b *testing.B) {
	wire := msg.Encode(&msg.Message{
		Kind: msg.KindUpdate, Object: "doc", From: "a", To: "b",
		Write: ids.WiD{Client: 3, Seq: 17},
		VVec:  vecOf(1, 5, 2, 9, 3, 17),
		Inv:   msg.Invocation{Method: 4, Page: "index.html", Args: make([]byte, 512)},
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := msg.Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// Pooled encode: the transports' steady-state path — zero allocations once
// the pool is warm.
func BenchmarkMicro_MessageEncodePooled(b *testing.B) {
	m := &msg.Message{
		Kind: msg.KindUpdate, Object: "doc", From: "a", To: "b",
		Write: ids.WiD{Client: 3, Seq: 17},
		VVec:  vecOf(1, 5, 2, 9, 3, 17),
		Inv:   msg.Invocation{Method: 4, Page: "index.html", Args: make([]byte, 512)},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wb := msg.EncodePooled(m)
		wb.Release()
	}
}

// Zero-copy decode: memnet's delivery path, which aliases the frame
// instead of copying Args/Payload.
func BenchmarkMicro_MessageDecodeAlias(b *testing.B) {
	wire := msg.Encode(&msg.Message{
		Kind: msg.KindUpdate, Object: "doc", From: "a", To: "b",
		Write: ids.WiD{Client: 3, Seq: 17},
		VVec:  vecOf(1, 5, 2, 9, 3, 17),
		Inv:   msg.Invocation{Method: 4, Page: "index.html", Args: make([]byte, 512)},
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := msg.DecodeAlias(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// Batch amortization: the same N updates shipped as N standalone frames vs
// one KindUpdateBatch frame. wireB/update shows the envelope overhead each
// batched update no longer pays.
func BenchmarkMicro_BatchAmortization(b *testing.B) {
	const n = 16
	mkInv := func(i int) msg.Invocation {
		return msg.Invocation{Method: 4, Page: "index.html", Args: []byte(fmt.Sprintf("append-%d", i))}
	}
	b.Run("single-frames", func(b *testing.B) {
		msgs := make([]*msg.Message, n)
		for i := range msgs {
			msgs[i] = &msg.Message{
				Kind: msg.KindUpdate, Object: "doc", From: "store/www", Store: 1,
				Write: ids.WiD{Client: 3, Seq: uint64(i + 1)},
				Inv:   mkInv(i),
			}
		}
		b.ReportAllocs()
		var bytes int
		for i := 0; i < b.N; i++ {
			bytes = 0
			for _, m := range msgs {
				bytes += len(msg.Encode(m))
			}
		}
		b.ReportMetric(float64(bytes)/n, "wireB/update")
		b.ReportMetric(n, "frames/flush")
	})
	b.Run("batch-frame", func(b *testing.B) {
		batch := &msg.Message{Kind: msg.KindUpdateBatch, Object: "doc", From: "store/www", Store: 1}
		for i := 0; i < n; i++ {
			batch.Batch = append(batch.Batch, msg.BatchUpdate{
				Write: ids.WiD{Client: 3, Seq: uint64(i + 1)},
				Inv:   mkInv(i),
			})
		}
		b.ReportAllocs()
		var bytes int
		for i := 0; i < b.N; i++ {
			bytes = len(msg.Encode(batch))
		}
		b.ReportMetric(float64(bytes)/n, "wireB/update")
		b.ReportMetric(1, "frames/flush")
	})
}

// --- micro: ordering engines (per-update coherence cost) ---------------------

func BenchmarkMicro_EngineSubmit(b *testing.B) {
	for _, model := range []coherence.Model{
		coherence.Sequential, coherence.PRAM, coherence.FIFO, coherence.Causal, coherence.Eventual,
	} {
		b.Run(model.String(), func(b *testing.B) {
			eng, err := coherence.NewEngine(model)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				deps := vecOf(1, uint64(i+1))
				u := &coherence.Update{
					Write:     ids.WiD{Client: 1, Seq: uint64(i + 1)},
					GlobalSeq: uint64(i + 1),
					Stamp:     vclock.Stamp{Time: uint64(i + 1), Client: 1},
					Deps:      &deps,
					Inv:       msg.Invocation{Method: 1, Page: "p"},
				}
				eng.Submit(u)
			}
		})
	}
}

// --- micro: serving a demand (what a child two updates behind costs) ----------

// demandEnv is a replication.Env over a real control object with no network
// and no clock: sends are counted, timers never fire. Like store's
// replicaEnv, it appends read results and page elements into one scratch
// buffer it reuses.
type demandEnv struct {
	*control.Control
	sent    int
	scratch []byte
}

func (e *demandEnv) ServeRead(inv msg.Invocation) ([]byte, error) {
	return e.reuse(e.AppendRead(e.scratch[:0], inv))
}
func (e *demandEnv) SnapshotElement(name string) ([]byte, error) {
	return e.reuse(e.AppendElement(e.scratch[:0], name))
}
func (e *demandEnv) reuse(b []byte, err error) ([]byte, error) {
	if err == nil {
		e.scratch = b
	}
	return b, err
}

func (e *demandEnv) Send(string, *msg.Message) error              { e.sent++; return nil }
func (e *demandEnv) Multicast(tos []string, _ *msg.Message) error { e.sent += len(tos); return nil }
func (e *demandEnv) Now() time.Time                               { return time.Time{} }
func (e *demandEnv) AfterFunc(time.Duration, func()) clock.Timer  { return idleTimer{} }

type idleTimer struct{}

func (idleTimer) Stop() bool { return false }

// A permanent replica that applied a log's worth of writes from three clients
// answers the demand of a child two updates behind. The cost must not depend
// on how much the log retains: log64 and log4096 should read alike (the
// whole-log scans this replaced cost 1.4 and 26 microseconds).
func BenchmarkMicro_OnDemand(b *testing.B) {
	for _, n := range []int{64, 4096} {
		b.Run(fmt.Sprintf("log%d", n), func(b *testing.B) {
			env := &demandEnv{Control: control.New(webdoc.New())}
			obj, err := replication.New(replication.Config{
				Env: env, Object: "doc", Self: 1, Addr: "www", Role: replication.RolePermanent,
				Strat: strategy.Whiteboard(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer obj.Close()
			args := webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: make([]byte, 512)})
			for i := 0; i < n; i++ {
				c := ids.ClientID(1 + i%3)
				obj.Handle(&msg.Message{
					Kind: msg.KindWriteRequest, Object: "doc", From: "client", Client: c,
					Write: ids.WiD{Client: c, Seq: uint64(1 + i/3)},
					Inv:   msg.Invocation{Method: webdoc.MethodPutPage, Page: "index.html", Args: args},
				})
			}
			behind := obj.Applied()
			for _, c := range []ids.ClientID{ids.ClientID(1 + (n-1)%3), ids.ClientID(1 + (n-2)%3)} {
				behind.Set(c, behind.Get(c)-1)
			}
			demand := &msg.Message{Kind: msg.KindDemandUpdate, Object: "doc", From: "child", VVec: behind}
			env.sent = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				obj.Handle(demand)
			}
			if env.sent != b.N {
				b.Fatalf("%d demands drew %d replies", b.N, env.sent)
			}
		})
	}
}

// --- micro: serving a read (the replica's share of every Get) -----------------

// A permanent replica answers a 4 KiB page read: the reply is written into
// the request and carries the page appended into the Env's scratch, so the
// replica allocates nothing per read. Handle owns the request it answers in,
// so each iteration hands it a fresh copy.
func BenchmarkMicro_ServeRead(b *testing.B) {
	env, obj := servingReplica(b)
	read := msg.Message{Kind: msg.KindReadRequest, Object: "doc", From: "client", Client: 2,
		Inv: msg.Invocation{Method: webdoc.MethodGetPage, Page: "index.html"}}
	var req msg.Message
	env.sent = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req = read
		obj.Handle(&req)
	}
	if env.sent != b.N || req.Kind != msg.KindReadReply || req.Status != msg.StatusOK {
		b.Fatalf("%d reads drew %d replies, the last %v %v", b.N, env.sent, req.Kind, req.Status)
	}
}

// A permanent replica applies a 4 KiB Put and then answers a read of the page
// it changed: the write allocates its update's block, and the read, which
// appends into the Env's scratch, nothing.
func BenchmarkMicro_ServeReadAfterWrite(b *testing.B) {
	env, obj := servingReplica(b)
	write := msg.Message{Kind: msg.KindWriteRequest, Object: "doc", From: "client", Client: 1,
		Inv: msg.Invocation{Method: webdoc.MethodPutPage, Page: "index.html",
			Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: make([]byte, 4096)})}}
	read := msg.Message{Kind: msg.KindReadRequest, Object: "doc", From: "client", Client: 2,
		Inv: msg.Invocation{Method: webdoc.MethodGetPage, Page: "index.html"}}
	var req msg.Message
	env.sent = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req = write
		req.Write = ids.WiD{Client: 1, Seq: uint64(2 + i)}
		obj.Handle(&req)
		req = read
		obj.Handle(&req)
	}
	if env.sent != 2*b.N || req.Kind != msg.KindReadReply || req.Status != msg.StatusOK {
		b.Fatalf("%d writes and reads drew %d replies, the last %v %v", b.N, env.sent, req.Kind, req.Status)
	}
}

// servingReplica is a permanent replica over a demandEnv holding one 4 KiB
// page, written by client 1's first write.
func servingReplica(b *testing.B) (*demandEnv, *replication.Object) {
	env := &demandEnv{Control: control.New(webdoc.New())}
	obj, err := replication.New(replication.Config{
		Env: env, Object: "doc", Self: 1, Addr: "www", Role: replication.RolePermanent,
		Strat: strategy.Conference(time.Hour),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(obj.Close)
	obj.Handle(&msg.Message{
		Kind: msg.KindWriteRequest, Object: "doc", From: "client", Client: 1, Write: ids.WiD{Client: 1, Seq: 1},
		Inv: msg.Invocation{Method: webdoc.MethodPutPage, Page: "index.html",
			Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{Content: make([]byte, 4096)})},
	})
	return env, obj
}

// --- shared scenario helpers --------------------------------------------------

type benchSys struct {
	sys    *webobj.System
	server *webobj.Store
	cache  *webobj.Store
	writer *webobj.Document
	reader *webobj.Document
}

func newBenchSys(b *testing.B, strat webobj.Strategy, session ...webobj.ClientModel) *benchSys {
	b.Helper()
	return newBenchSysSeeded(b, strat, true, session...)
}

// newBenchSysSeeded optionally skips the warm-up write, for benchmarks
// where a different client must be the single registered writer.
func newBenchSysSeeded(b *testing.B, strat webobj.Strategy, seed bool, session ...webobj.ClientModel) *benchSys {
	b.Helper()
	sys := webobj.NewSystem(webobj.WithFabric(webobj.NewMemFabric(memnet.WithSeed(1))))
	server, err := sys.NewServer("www")
	if err != nil {
		b.Fatal(err)
	}
	const obj = webobj.ObjectID("bench-doc")
	if err := sys.Publish(server, obj, webobj.WebDoc(), strat); err != nil {
		b.Fatal(err)
	}
	cache, err := sys.NewCache("proxy", server)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Replicate(cache, obj, session...); err != nil {
		b.Fatal(err)
	}
	writer, err := sys.Open(obj, webobj.At(server))
	if err != nil {
		b.Fatal(err)
	}
	reader, err := sys.Open(obj, webobj.At(cache), webobj.WithSession(session...))
	if err != nil {
		b.Fatal(err)
	}
	if seed {
		if err := writer.Put("index.html", []byte("<h1>bench</h1>"), "text/html"); err != nil {
			b.Fatal(err)
		}
		if _, err := reader.Get("index.html"); err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(func() {
		writer.Close()
		reader.Close()
		_ = sys.Close()
	})
	return &benchSys{sys: sys, server: server, cache: cache, writer: writer, reader: reader}
}

func reportNet(b *testing.B, sys *webobj.System, ops int) {
	s := sys.Network().Stats()
	if ops > 0 {
		b.ReportMetric(float64(s.Sent)/float64(ops), "msgs/op")
		b.ReportMetric(float64(s.Bytes)/float64(ops), "wireB/op")
	}
}

// --- F1: invocation paths (Figure 1) ------------------------------------------

func BenchmarkFigure1_InvocationPath(b *testing.B) {
	st := strategy.PopularEventPage()
	st.Scope = strategy.ScopeAll
	b.Run("rpc-to-permanent", func(b *testing.B) {
		s := newBenchSys(b, st)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.writer.Get("index.html"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replica-at-cache", func(b *testing.B) {
		s := newBenchSys(b, st)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.reader.Get("index.html"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFigure1_Binding(b *testing.B) {
	st := strategy.PopularEventPage()
	st.Scope = strategy.ScopeAll
	s := newBenchSys(b, st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := s.sys.Open("bench-doc", webobj.At(s.cache))
		if err != nil {
			b.Fatal(err)
		}
		d.Close()
	}
}

// --- F2: store layers (Figure 2) ----------------------------------------------

func BenchmarkFigure2_StoreLayers(b *testing.B) {
	st := strategy.PopularEventPage()
	st.Scope = strategy.ScopeAll
	sys := webobj.NewSystem(webobj.WithFabric(webobj.NewMemFabric()))
	server, err := sys.NewServer("www")
	if err != nil {
		b.Fatal(err)
	}
	const obj = webobj.ObjectID("layers-doc")
	if err := sys.Publish(server, obj, webobj.WebDoc(), st); err != nil {
		b.Fatal(err)
	}
	mirror, err := sys.NewMirror("mirror", server)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Replicate(mirror, obj); err != nil {
		b.Fatal(err)
	}
	cache, err := sys.NewCache("proxy", mirror)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Replicate(cache, obj); err != nil {
		b.Fatal(err)
	}
	seed, err := sys.Open(obj, webobj.At(server))
	if err != nil {
		b.Fatal(err)
	}
	if err := seed.Put("p", []byte("content"), "text/html"); err != nil {
		b.Fatal(err)
	}
	seed.Close()
	b.Cleanup(func() { _ = sys.Close() })

	for _, layer := range []struct {
		name string
		at   *webobj.Store
	}{{"permanent", server}, {"object-initiated", mirror}, {"client-initiated", cache}} {
		b.Run(layer.name, func(b *testing.B) {
			d, err := sys.Open(obj, webobj.At(layer.at))
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			if _, err := d.Get("p"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Get("p"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T1: parameter sweep (Table 1) ---------------------------------------------

func BenchmarkTable1_ParameterSweep(b *testing.B) {
	combos := []struct {
		name string
		mut  func(*webobj.Strategy)
	}{
		{"update-push-immediate-partial", func(s *webobj.Strategy) {}},
		{"update-push-immediate-full", func(s *webobj.Strategy) { s.CoherenceTransfer = strategy.CoherenceFull }},
		{"update-push-lazy-partial", func(s *webobj.Strategy) { s.Instant = strategy.Lazy; s.LazyInterval = 5 * time.Millisecond }},
		{"invalidate-push-immediate", func(s *webobj.Strategy) { s.Propagation = strategy.PropagateInvalidate }},
		{"update-pull-periodic", func(s *webobj.Strategy) { s.Initiative = strategy.Pull; s.PullInterval = 5 * time.Millisecond }},
	}
	for _, c := range combos {
		b.Run(c.name, func(b *testing.B) {
			st := webobj.Strategy{
				Model:             coherence.PRAM,
				Propagation:       strategy.PropagateUpdate,
				Scope:             strategy.ScopeAll,
				Writers:           strategy.SingleWriter,
				Initiative:        strategy.Push,
				Instant:           strategy.Immediate,
				AccessTransfer:    strategy.TransferPartial,
				CoherenceTransfer: strategy.CoherencePartial,
				ObjectOutdate:     strategy.Demand,
				ClientOutdate:     strategy.Demand,
			}
			c.mut(&st)
			if err := st.Validate(); err != nil {
				b.Fatal(err)
			}
			s := newBenchSys(b, st)
			s.sys.Network().ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// 1 write : 4 reads, the sweep's mixed workload.
				if err := s.writer.Put("index.html", []byte(fmt.Sprintf("v%d", i)), ""); err != nil {
					b.Fatal(err)
				}
				for r := 0; r < 4; r++ {
					if _, err := s.reader.Get("index.html"); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			reportNet(b, s.sys, b.N*5)
			// Batch amortization: how many updates each aggregated flush
			// carried per KindUpdateBatch frame.
			if st, err := s.server.Stats("bench-doc"); err == nil && st.BatchesSent > 0 {
				b.ReportMetric(float64(st.BatchedUpdates)/float64(st.BatchesSent), "ups/batch")
			}
		})
	}
}

// --- T2: conference scenario (Table 2, Figures 3-4) ------------------------------

func BenchmarkTable2_ConferenceScenario(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		session []webobj.ClientModel
	}{
		{"pram-only", nil},
		{"pram+ryw", []webobj.ClientModel{webobj.ReadYourWrites}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			// No seed write: the master must be the single registered writer.
			s := newBenchSysSeeded(b, webobj.ConferenceStrategy(5*time.Millisecond), false, cfg.session...)
			master, err := s.sys.Open("bench-doc", webobj.At(s.cache), webobj.WithSession(cfg.session...))
			if err != nil {
				b.Fatal(err)
			}
			defer master.Close()
			b.ResetTimer()
			stale := 0
			for i := 0; i < b.N; i++ {
				if err := master.Append("program", []byte("u")); err != nil {
					b.Fatal(err)
				}
				pg, err := master.Get("program")
				if err != nil {
					b.Fatal(err)
				}
				if pg.Version < uint64(i+1) {
					stale++
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(stale)/float64(b.N), "staleOwnReads/op")
		})
	}
}

// --- M1: object-based models ------------------------------------------------------

func BenchmarkModels_ObjectBased(b *testing.B) {
	for _, model := range []coherence.Model{
		coherence.Sequential, coherence.PRAM, coherence.FIFO, coherence.Causal, coherence.Eventual,
	} {
		b.Run(model.String(), func(b *testing.B) {
			st := webobj.Strategy{
				Model:             model,
				Propagation:       strategy.PropagateUpdate,
				Scope:             strategy.ScopeAll,
				Writers:           strategy.SingleWriter,
				Initiative:        strategy.Push,
				Instant:           strategy.Immediate,
				AccessTransfer:    strategy.TransferFull,
				CoherenceTransfer: strategy.CoherencePartial,
				ObjectOutdate:     strategy.Demand,
				ClientOutdate:     strategy.Demand,
			}
			if model == coherence.Eventual {
				st.ObjectOutdate = strategy.Wait
			}
			if err := st.Validate(); err != nil {
				b.Fatal(err)
			}
			s := newBenchSys(b, st)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.writer.Put("index.html", []byte(fmt.Sprintf("v%d", i)), ""); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportNet(b, s.sys, b.N)
		})
	}
}

// --- M2: session guarantees --------------------------------------------------------

func BenchmarkModels_SessionGuarantees(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		session []webobj.ClientModel
	}{
		{"none", nil},
		{"ryw", []webobj.ClientModel{webobj.ReadYourWrites}},
		{"mr", []webobj.ClientModel{webobj.MonotonicReads}},
		{"ryw+mr", []webobj.ClientModel{webobj.ReadYourWrites, webobj.MonotonicReads}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			// Lazy mirror sync: guarantees must work against a stale store.
			s := newBenchSys(b, webobj.MirroredSiteStrategy(20*time.Millisecond), cfg.session...)
			client, err := s.sys.Open("bench-doc", webobj.At(s.server), webobj.WithSession(cfg.session...))
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := client.Put("p", []byte(fmt.Sprintf("v%d", i)), ""); err != nil {
					b.Fatal(err)
				}
				if err := client.Rebind(s.cache); err != nil {
					b.Fatal(err)
				}
				if _, err := client.Get("p"); err != nil {
					b.Fatal(err)
				}
				if err := client.Rebind(s.server); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- C1: per-object vs uniform -----------------------------------------------------

func BenchmarkClaim_PerObjectVsUniform(b *testing.B) {
	ttl := webobj.Strategy{
		Model: coherence.PRAM, Propagation: strategy.PropagateUpdate,
		Scope: strategy.ScopeAll, Writers: strategy.SingleWriter,
		Initiative: strategy.Pull, Instant: strategy.Immediate,
		PullInterval: 10 * time.Millisecond, AccessTransfer: strategy.TransferPartial,
		CoherenceTransfer: strategy.CoherencePartial,
		ObjectOutdate:     strategy.Wait, ClientOutdate: strategy.Wait,
	}
	validate := ttl
	validate.PullInterval = 0
	validate.ObjectOutdate = strategy.Demand
	validate.ClientOutdate = strategy.Demand
	tailored := strategy.PopularEventPage()
	tailored.Scope = strategy.ScopeAll

	for _, cfg := range []struct {
		name string
		st   webobj.Strategy
	}{{"uniform-ttl", ttl}, {"uniform-validate", validate}, {"tailored-popular-page", tailored}} {
		b.Run(cfg.name, func(b *testing.B) {
			s := newBenchSys(b, cfg.st)
			s.sys.Network().ResetStats()
			stale := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%10 == 0 { // popular page: 10% writes
					if err := s.writer.Put("index.html", []byte(fmt.Sprintf("v%d", i)), ""); err != nil {
						b.Fatal(err)
					}
				}
				pg, err := s.reader.Get("index.html")
				if err != nil {
					b.Fatal(err)
				}
				if pg.Version < uint64(i/10+1) {
					stale++
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(stale)/float64(b.N), "staleReads/op")
			reportNet(b, s.sys, b.N)
		})
	}
}

// --- G1: anti-entropy gossip between mirrors -----------------------------------------

// BenchmarkGossip_AntiEntropy measures leaderless mirror synchronisation:
// two peered mirrors under the eventual model, with the second mirror
// partitioned from the permanent store so gossip is its only source of
// updates. Deltas ship as one batch frame per round.
func BenchmarkGossip_AntiEntropy(b *testing.B) {
	sys := webobj.NewSystem(webobj.WithFabric(webobj.NewMemFabric(memnet.WithSeed(1))))
	server, err := sys.NewServer("www")
	if err != nil {
		b.Fatal(err)
	}
	const obj = webobj.ObjectID("mirror-doc")
	if err := sys.Publish(server, obj, webobj.WebDoc(), webobj.MirroredSiteStrategy(2*time.Millisecond)); err != nil {
		b.Fatal(err)
	}
	m1, err := sys.NewMirror("m1", server)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Replicate(m1, obj); err != nil {
		b.Fatal(err)
	}
	m2, err := sys.NewMirror("m2", server)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Replicate(m2, obj); err != nil {
		b.Fatal(err)
	}
	if err := sys.Peer(m1, m2, obj); err != nil {
		b.Fatal(err)
	}
	// After bootstrap, m2 hears nothing from the server: only gossip from
	// m1 can synchronise it.
	sys.Network().Partition("store/www", "store/m2")
	writer, err := sys.Open(obj, webobj.At(m1))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { writer.Close(); _ = sys.Close() })
	sys.Network().ResetStats()
	const writesPerRound = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < writesPerRound; j++ {
			if err := writer.Append("log", []byte("x")); err != nil {
				b.Fatal(err)
			}
		}
		want, err := m1.Applied(obj)
		if err != nil {
			b.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			got, err := m2.Applied(obj)
			if err == nil && got.Covers(&want) {
				break
			}
			if time.Now().After(deadline) {
				b.Fatalf("mirror did not converge via gossip")
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	b.StopTimer()
	reportNet(b, sys, b.N*writesPerRound)
	if st, err := m1.Stats(obj); err == nil && st.BatchesSent > 0 {
		b.ReportMetric(float64(st.BatchedUpdates)/float64(st.BatchesSent), "ups/batch")
	}
}

// --- P2: transport contention & relay amortization ---------------------------------

// BenchmarkContention_MemnetMulticast drives the simulated network from many
// concurrent sender endpoints, each fanning a small update out to its own
// sinks. With one global network mutex every sender serialises on the RNG +
// delivery heap; with per-endpoint RNGs and sharded delivery queues the
// senders only share the read-locked topology. The link latency exceeds the
// measured window, so the clock driver sleeps and the benchmark isolates the
// send path — the serialisation point under test. ns/op is wall time per
// multicast across all senders.
func BenchmarkContention_MemnetMulticast(b *testing.B) {
	const fanout = 4
	for _, senders := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("senders-%d", senders), func(b *testing.B) {
			n := memnet.New(memnet.WithSeed(1),
				memnet.WithDefaultLink(memnet.LinkProfile{Latency: time.Minute}))
			defer n.Close()
			srcs := make([]transport.Endpoint, senders)
			tos := make([][]string, senders)
			var drain sync.WaitGroup
			for i := 0; i < senders; i++ {
				src, err := n.Endpoint(fmt.Sprintf("src%d", i))
				if err != nil {
					b.Fatal(err)
				}
				srcs[i] = src
				for j := 0; j < fanout; j++ {
					addr := fmt.Sprintf("sink%d-%d", i, j)
					ep, err := n.Endpoint(addr)
					if err != nil {
						b.Fatal(err)
					}
					tos[i] = append(tos[i], addr)
					drain.Add(1)
					go func(ep transport.Endpoint) {
						defer drain.Done()
						for range ep.Recv() {
						}
					}(ep)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for i := 0; i < senders; i++ {
				ops := b.N / senders
				if i < b.N%senders {
					ops++
				}
				wg.Add(1)
				go func(i, ops int) {
					defer wg.Done()
					m := &msg.Message{
						Kind: msg.KindUpdate, Object: "doc", From: fmt.Sprintf("src%d", i),
						Write: ids.WiD{Client: ids.ClientID(i + 1), Seq: 1},
						VVec:  msgVVec(i),
						Inv:   msg.Invocation{Method: 4, Page: "index.html", Args: make([]byte, 64)},
					}
					for k := 0; k < ops; k++ {
						if err := srcs[i].Multicast(tos[i], m); err != nil {
							b.Error(err)
							return
						}
					}
				}(i, ops)
			}
			wg.Wait()
			b.StopTimer()
			_ = n.Close() // close inboxes so the drainers exit
			drain.Wait()
		})
	}
}

// BenchmarkContention_TCPConcurrentWriters hammers one tcpnet endpoint from
// concurrent goroutines, each pinned to one of four peer connections. With a
// single endpoint mutex and two conn.Write calls per frame, all writers
// serialise; per-connection locks plus a single writev per frame let the
// four connections proceed independently and back-to-back frames on one
// connection share syscalls.
func BenchmarkContention_TCPConcurrentWriters(b *testing.B) {
	const conns = 4
	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("writers-%d", writers), func(b *testing.B) {
			src, err := tcpnet.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer src.Close()
			addrs := make([]string, 0, conns)
			for i := 0; i < conns; i++ {
				ep, err := tcpnet.Listen("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer ep.Close()
				addrs = append(addrs, ep.Addr())
				go func(ep *tcpnet.Endpoint) {
					for range ep.Recv() {
					}
				}(ep)
			}
			m := &msg.Message{
				Kind: msg.KindUpdate, Object: "doc",
				Write: ids.WiD{Client: 1, Seq: 1},
				Inv:   msg.Invocation{Method: 4, Page: "index.html", Args: make([]byte, 64)},
			}
			for _, a := range addrs { // warm the connection cache
				if err := src.Send(a, m); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				ops := b.N / writers
				if w < b.N%writers {
					ops++
				}
				wg.Add(1)
				go func(w, ops int) {
					defer wg.Done()
					to := addrs[w%conns]
					for k := 0; k < ops; k++ {
						if err := src.Send(to, m); err != nil {
							b.Error(err)
							return
						}
					}
				}(w, ops)
			}
			wg.Wait()
			b.StopTimer()
		})
	}
}

// BenchmarkRelay_DeepHierarchyBatch measures batch preservation through a
// three-level hierarchy (server → mirror → cache). Each round partitions the
// server from the mirror, performs a burst of writes the mirror misses, then
// heals; the next write exposes the gap, the mirror demands, the server
// replays the burst as one KindUpdateBatch frame, and the mirror relays the
// released updates to the cache. De-batched relaying ships one frame per
// update on the mirror→cache hop; re-batched relaying ships one frame per
// hop. msgs/op counts network frames per written update.
func BenchmarkRelay_DeepHierarchyBatch(b *testing.B) {
	st := webobj.Strategy{
		Model:             coherence.PRAM,
		Propagation:       strategy.PropagateUpdate,
		Scope:             strategy.ScopeAll,
		Writers:           strategy.SingleWriter,
		Initiative:        strategy.Push,
		Instant:           strategy.Immediate,
		AccessTransfer:    strategy.TransferPartial,
		CoherenceTransfer: strategy.CoherencePartial,
		ObjectOutdate:     strategy.Demand,
		ClientOutdate:     strategy.Demand,
	}
	if err := st.Validate(); err != nil {
		b.Fatal(err)
	}
	sys := webobj.NewSystem(webobj.WithFabric(webobj.NewMemFabric(memnet.WithSeed(1))))
	server, err := sys.NewServer("www")
	if err != nil {
		b.Fatal(err)
	}
	const obj = webobj.ObjectID("relay-doc")
	if err := sys.Publish(server, obj, webobj.WebDoc(), st); err != nil {
		b.Fatal(err)
	}
	mirror, err := sys.NewMirror("mirror", server)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Replicate(mirror, obj); err != nil {
		b.Fatal(err)
	}
	cache, err := sys.NewCache("proxy", mirror)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Replicate(cache, obj); err != nil {
		b.Fatal(err)
	}
	writer, err := sys.Open(obj, webobj.At(server))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { writer.Close(); _ = sys.Close() })
	if err := writer.Append("log", []byte("seed")); err != nil {
		b.Fatal(err)
	}
	waitCovers(b, sys, cache, obj, server)
	const gap = 16
	sys.Network().ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Network().Partition("store/www", "store/mirror")
		for j := 0; j < gap; j++ {
			if err := writer.Append("log", []byte("x")); err != nil {
				b.Fatal(err)
			}
		}
		sys.Network().Heal("store/www", "store/mirror")
		// The next write exposes the sequence gap at the mirror.
		if err := writer.Append("log", []byte("x")); err != nil {
			b.Fatal(err)
		}
		waitCovers(b, sys, cache, obj, server)
	}
	b.StopTimer()
	reportNet(b, sys, b.N*(gap+1))
	if st, err := mirror.Stats(obj); err == nil && st.BatchesSent > 0 {
		b.ReportMetric(float64(st.BatchedUpdates)/float64(st.BatchesSent), "ups/batch")
	}
}

// msgVVec builds a small distinct version vector per sender.
func msgVVec(i int) msg.Vec { return vecOf(1, uint64(i+1), 2, 9, 3, 17) }

// vecOf builds a vector from client, seq pairs.
func vecOf(kv ...uint64) msg.Vec {
	var v msg.Vec
	for i := 0; i+1 < len(kv); i += 2 {
		v.Set(ids.ClientID(kv[i]), kv[i+1])
	}
	return v
}

// waitCovers blocks until dst's applied vector covers src's.
func waitCovers(b *testing.B, sys *webobj.System, dst *webobj.Store, obj webobj.ObjectID, src *webobj.Store) {
	b.Helper()
	want, err := src.Applied(obj)
	if err != nil {
		b.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := dst.Applied(obj)
		if err == nil && got.Covers(&want) {
			return
		}
		if time.Now().After(deadline) {
			b.Fatalf("hierarchy did not converge")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// --- E2E: lossy transport (§4.2) -----------------------------------------------------

func BenchmarkE2E_LossyTransportRecovery(b *testing.B) {
	for _, react := range []strategy.Reaction{strategy.Demand, strategy.Wait} {
		b.Run(react.String(), func(b *testing.B) {
			st := webobj.ConferenceStrategy(3 * time.Millisecond)
			st.ObjectOutdate = react
			s := newBenchSys(b, st)
			s.sys.Network().SetLink("store/www", "store/proxy", memnet.LinkProfile{Loss: 0.3})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.writer.Append("log", []byte("x")); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Under demand the cache converges; under wait it may lag.
			deadline := time.Now().Add(2 * time.Second)
			converged := false
			for time.Now().Before(deadline) {
				pg, err := s.reader.Get("log")
				if err == nil && pg.Version == uint64(b.N) {
					converged = true
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			if converged {
				b.ReportMetric(1, "converged")
			} else {
				b.ReportMetric(0, "converged")
			}
		})
	}
}

// --- fabric end-to-end --------------------------------------------------------

// BenchmarkFabric_EndToEndPutGet measures one full public-API round trip —
// typed-handle Put (write ordered and applied at the store) followed by Get
// — through the identical deployment code over each fabric. It is the
// webobj-level end-to-end micro row (bench/ gates the same path under a
// workload): any regression anywhere on the handle → proxy → transport → store event loop
// → control path shows up here.
func BenchmarkFabric_EndToEndPutGet(b *testing.B) {
	for _, fab := range []struct {
		name string
		make func() webobj.Fabric
	}{
		{"memnet", func() webobj.Fabric { return webobj.NewMemFabric(memnet.WithSeed(1)) }},
		{"tcpnet", func() webobj.Fabric { return webobj.NewTCPFabric("") }},
	} {
		b.Run("fabric="+fab.name, func(b *testing.B) {
			sys := webobj.NewSystem(webobj.WithFabric(fab.make()))
			defer sys.Close()
			server, err := sys.NewServer("www")
			if err != nil {
				b.Fatal(err)
			}
			const obj = webobj.ObjectID("bench-doc")
			if err := sys.Publish(server, obj, webobj.WebDoc(), webobj.ConferenceStrategy(time.Hour)); err != nil {
				b.Fatal(err)
			}
			doc, err := sys.Open(obj, webobj.At(server))
			if err != nil {
				b.Fatal(err)
			}
			defer doc.Close()
			content := []byte("<h1>bench</h1>")
			if err := doc.Put("index.html", content, "text/html"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			woken := schedTransitions()
			for i := 0; i < b.N; i++ {
				if err := doc.Put("index.html", content, "text/html"); err != nil {
					b.Fatal(err)
				}
				if _, err := doc.Get("index.html"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(8*(schedTransitions()-woken))/float64(b.N), "wakeups/op")
		})
	}
}

// schedTransitions counts the goroutine transitions to running that the
// runtime has timed in /sched/latencies:seconds. The runtime times about one
// transition in eight, so eight times the count's growth estimates the
// goroutine wake-ups in between.
func schedTransitions() uint64 {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// --- digest heartbeats (anti-entropy) -----------------------------------------

// BenchmarkDigest_IdleNetworkOverhead measures what anti-entropy heartbeats
// cost when nothing is happening: a three-layer hierarchy (permanent →
// mirror → cache) sits idle for a fixed window and the benchmark reports
// the wire byte and digest-frame rate. digest=off is the zero baseline —
// heartbeats are opt-in precisely so quiet deployments pay nothing.
func BenchmarkDigest_IdleNetworkOverhead(b *testing.B) {
	for _, interval := range []time.Duration{0, 25 * time.Millisecond} {
		name := "digest=off"
		if interval > 0 {
			name = "digest=" + interval.String()
		}
		b.Run(name, func(b *testing.B) {
			sys := webobj.NewSystem(
				webobj.WithFabric(webobj.NewMemFabric(memnet.WithSeed(1))),
				webobj.WithDigestInterval(interval),
			)
			defer sys.Close()
			server, err := sys.NewServer("www")
			if err != nil {
				b.Fatal(err)
			}
			const obj = webobj.ObjectID("idle-doc")
			if err := sys.Publish(server, obj, webobj.WebDoc(), webobj.ConferenceStrategy(time.Hour)); err != nil {
				b.Fatal(err)
			}
			mirror, err := sys.NewMirror("mirror", server)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Replicate(mirror, obj); err != nil {
				b.Fatal(err)
			}
			cache, err := sys.NewCache("proxy", mirror)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Replicate(cache, obj); err != nil {
				b.Fatal(err)
			}
			doc, err := sys.Open(obj, webobj.At(server))
			if err != nil {
				b.Fatal(err)
			}
			defer doc.Close()
			if err := doc.Put("index.html", []byte("<h1>idle</h1>"), "text/html"); err != nil {
				b.Fatal(err)
			}
			time.Sleep(50 * time.Millisecond) // let dissemination settle
			net := sys.Network()
			net.ResetStats()
			const window = 250 * time.Millisecond
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				time.Sleep(window) // the object is completely idle
			}
			b.StopTimer()
			s := net.Stats()
			secs := (time.Duration(b.N) * window).Seconds()
			b.ReportMetric(float64(s.Bytes)/secs, "idleB/sec")
			b.ReportMetric(float64(s.ByKind[msg.KindDigest])/secs, "digests/sec")
		})
	}
}

// BenchmarkDigest_ConvergenceAfterHeal measures the latency the heartbeat
// bounds: each iteration partitions the cache from its server, writes behind
// its back (the pushes are lost in the partition), heals, and times how long
// the replica needs — with zero foreground traffic — until its applied
// vector covers the stranded write again. The heartbeat interval is 25ms, so
// the protocol's promise is convergence in ≤ ~31ms plus a demand round trip.
func BenchmarkDigest_ConvergenceAfterHeal(b *testing.B) {
	const interval = 25 * time.Millisecond
	sys := webobj.NewSystem(
		webobj.WithFabric(webobj.NewMemFabric(memnet.WithSeed(1))),
		webobj.WithDigestInterval(interval),
	)
	defer sys.Close()
	server, err := sys.NewServer("www")
	if err != nil {
		b.Fatal(err)
	}
	const obj = webobj.ObjectID("heal-doc")
	if err := sys.Publish(server, obj, webobj.WebDoc(), webobj.ConferenceStrategy(2*time.Millisecond)); err != nil {
		b.Fatal(err)
	}
	cache, err := sys.NewCache("proxy", server)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Replicate(cache, obj); err != nil {
		b.Fatal(err)
	}
	doc, err := sys.Open(obj, webobj.At(server))
	if err != nil {
		b.Fatal(err)
	}
	defer doc.Close()
	cid := doc.Client()
	net := sys.Network()

	waitCovered := func(seq uint64) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			v, err := cache.Applied(obj)
			if err != nil {
				b.Fatal(err)
			}
			if v.Get(cid) >= seq {
				return
			}
			if time.Now().After(deadline) {
				b.Fatalf("cache never covered write %d", seq)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	if err := doc.Append("log", []byte("x")); err != nil {
		b.Fatal(err)
	}
	waitCovered(1)

	var total time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Partition("store/www", "store/proxy")
		if err := doc.Append("log", []byte("x")); err != nil {
			b.Fatal(err)
		}
		time.Sleep(6 * time.Millisecond) // the lazy flush ships into the void
		net.Heal("store/www", "store/proxy")
		start := time.Now()
		waitCovered(uint64(i + 2))
		total += time.Since(start)
	}
	b.StopTimer()
	b.ReportMetric(float64(total.Microseconds())/float64(b.N)/1000, "convergeMs")
}

// --- name service: resolve/bind latency and directory-sync overhead -----------

// nameBenchSystem builds a memnet deployment whose System resolves through
// a real name-service client (server and client share the fabric), with one
// published object.
func nameBenchSystem(b *testing.B, ttl time.Duration) (*webobj.System, webobj.ObjectID) {
	b.Helper()
	net := memnet.New(memnet.WithSeed(1))
	srv, err := nameserv.NewServer(nameserv.Config{Fabric: net, Name: "ns", SyncInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	client := nameserv.NewClient(nameserv.ClientConfig{
		Fabric: net, Name: "nsc", Servers: []string{srv.Addr()}, CacheTTL: ttl,
	})
	sys := webobj.NewSystem(webobj.WithFabric(net), webobj.WithResolver(client))
	b.Cleanup(func() {
		_ = sys.Close() // closes the resolver and the shared fabric
		_ = srv.Close()
	})
	server, err := sys.NewServer("www")
	if err != nil {
		b.Fatal(err)
	}
	const obj = webobj.ObjectID("bench-doc")
	if err := sys.Publish(server, obj, webobj.WebDoc(), webobj.ConferenceStrategy(time.Hour)); err != nil {
		b.Fatal(err)
	}
	doc, err := sys.Open(obj, webobj.At(server))
	if err != nil {
		b.Fatal(err)
	}
	if err := doc.Put("index.html", []byte("x"), "text/html"); err != nil {
		b.Fatal(err)
	}
	doc.Close()
	return sys, obj
}

// BenchmarkName_Resolve measures one record resolution through the
// name-service client: cold = an RPC to the name server per call (cache
// disabled), cached = served from the client cache within its TTL.
func BenchmarkName_Resolve(b *testing.B) {
	for _, mode := range []struct {
		name string
		ttl  time.Duration
	}{{"lookup=cold", -1}, {"lookup=cached", time.Hour}} {
		b.Run(mode.name, func(b *testing.B) {
			sys, obj := nameBenchSystem(b, mode.ttl)
			if _, err := sys.ResolveName(obj); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.ResolveName(obj); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkName_OpenByName measures the full client entry path through the
// naming subsystem: resolve the record, pick a replica, bind a typed handle
// (semantics-checked), close. Cold re-resolves per open; cached rides the
// record cache — the cost a name-served deployment pays over a hardwired
// store address.
func BenchmarkName_OpenByName(b *testing.B) {
	for _, mode := range []struct {
		name string
		ttl  time.Duration
	}{{"lookup=cold", -1}, {"lookup=cached", time.Hour}} {
		b.Run(mode.name, func(b *testing.B) {
			sys, obj := nameBenchSystem(b, mode.ttl)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				doc, err := sys.Open(obj)
				if err != nil {
					b.Fatal(err)
				}
				doc.Close()
			}
		})
	}
}

// BenchmarkName_DirectorySyncIdle measures the steady-state cost of
// directory gossip between two naming peers holding a populated directory
// with nothing changing: bytes/sec, gossip digests/sec and gossip
// replies/sec on an idle deployment (the naming analogue of
// Digest_IdleNetworkOverhead). Converged peers answer a digest with nothing.
func BenchmarkName_DirectorySyncIdle(b *testing.B) {
	net := memnet.New(memnet.WithSeed(1))
	defer net.Close()
	const interval = 25 * time.Millisecond
	s1, err := nameserv.NewServer(nameserv.Config{
		Fabric: net, Name: "ns1", Index: 1, Total: 2, Peers: []string{"ns2"}, SyncInterval: interval,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s1.Close()
	s2, err := nameserv.NewServer(nameserv.Config{
		Fabric: net, Name: "ns2", Index: 2, Total: 2, Peers: []string{"ns1"}, SyncInterval: interval,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s2.Close()
	client := nameserv.NewClient(nameserv.ClientConfig{Fabric: net, Name: "c", Servers: []string{s1.Addr()}})
	defer client.Close()
	for i := 0; i < 50; i++ {
		obj := ids.ObjectID(fmt.Sprintf("obj-%d", i))
		err := client.Register(obj, webobj.NameEntry{Addr: fmt.Sprintf("store-%d", i), Store: ids.StoreID(i + 1), Role: 1},
			webobj.NameMeta{Sem: "webdoc"})
		if err != nil {
			b.Fatal(err)
		}
	}
	time.Sleep(2 * interval) // let the directories converge
	net.ResetStats()
	const window = 250 * time.Millisecond
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		time.Sleep(window) // the directory is completely idle
	}
	b.StopTimer()
	s := net.Stats()
	secs := (time.Duration(b.N) * window).Seconds()
	b.ReportMetric(float64(s.Bytes)/secs, "idleB/sec")
	b.ReportMetric(float64(s.ByKind[msg.KindGossip])/secs, "digests/sec")
	b.ReportMetric(float64(s.ByKind[msg.KindGossipReply])/secs, "replies/sec")
}

// --- durable stores (WAL + recovery) ------------------------------------------

// BenchmarkDurable_Put prices the write-ahead log: one full public-API Put
// through the identical memnet deployment with durability off (the memory
// baseline every earlier BENCH tracked as the e2e number), WAL enabled at
// each fsync policy. fsync=off is the pure serialization overhead (append to
// the page cache before ack), fsync=interval adds the background flusher,
// fsync=always pays one fdatasync per acknowledged write — the policy under
// which kill -9 cannot lose an acked write, and the cost the README's
// deployment section quotes.
func BenchmarkDurable_Put(b *testing.B) {
	cases := []struct {
		name    string
		durable bool
		fsync   webobj.FsyncPolicy
	}{
		{"durability=off", false, webobj.FsyncOff},
		{"fsync=off", true, webobj.FsyncOff},
		{"fsync=interval", true, webobj.FsyncInterval},
		{"fsync=always", true, webobj.FsyncAlways},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			opts := []webobj.SystemOption{webobj.WithFabric(webobj.NewMemFabric(memnet.WithSeed(1)))}
			if tc.durable {
				opts = append(opts,
					webobj.WithDataDir(b.TempDir()),
					webobj.WithDurability(webobj.Durability{Fsync: tc.fsync}))
			}
			sys := webobj.NewSystem(opts...)
			defer sys.Close()
			server, err := sys.NewServer("www", webobj.WithStoreID(1))
			if err != nil {
				b.Fatal(err)
			}
			const obj = webobj.ObjectID("bench-durable")
			if err := sys.Publish(server, obj, webobj.WebDoc(), webobj.ConferenceStrategy(time.Hour)); err != nil {
				b.Fatal(err)
			}
			doc, err := sys.Open(obj, webobj.At(server))
			if err != nil {
				b.Fatal(err)
			}
			defer doc.Close()
			content := []byte("<h1>durable bench</h1>")
			if err := doc.Put("index.html", content, "text/html"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := doc.Put("index.html", content, "text/html"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDurable_PutConcurrent prices the fsync=always policy under
// concurrent writers — the case group commit exists for. The sequential
// benchmark above pays one fdatasync per write by construction; here W
// clients write in parallel against one durable store, the store's event
// loop drains their writes in batches, and a single deferred barrier
// covers every ack in the batch. The per-write cost should fall well below
// the sequential fsync=always number as W grows; the groupCommits/op
// metric reports how many barriers actually covered more than one ack.
func BenchmarkDurable_PutConcurrent(b *testing.B) {
	for _, writers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			sys := webobj.NewSystem(
				webobj.WithFabric(webobj.NewMemFabric(memnet.WithSeed(1))),
				webobj.WithDataDir(b.TempDir()),
				webobj.WithDurability(webobj.Durability{Fsync: webobj.FsyncAlways}),
			)
			defer sys.Close()
			server, err := sys.NewServer("www", webobj.WithStoreID(1))
			if err != nil {
				b.Fatal(err)
			}
			const obj = webobj.ObjectID("bench-durable-mw")
			// Forum: the multi-writer Table 1 strategy (causal, immediate
			// push) — the conference page is single-writer by design.
			if err := sys.Publish(server, obj, webobj.WebDoc(), webobj.StrategyPresets()["forum"]); err != nil {
				b.Fatal(err)
			}
			docs := make([]*webobj.Document, writers)
			for w := range docs {
				doc, err := sys.Open(obj, webobj.At(server), webobj.AsClient(uint32(5000+w)))
				if err != nil {
					b.Fatal(err)
				}
				defer doc.Close()
				docs[w] = doc
			}
			content := []byte("<h1>durable bench</h1>")
			before, err := server.Stats(obj)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(doc *webobj.Document, page string) {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if err := doc.Put(page, content, "text/html"); err != nil {
							b.Error(err)
							return
						}
					}
				}(docs[w], fmt.Sprintf("pg-%d.html", w))
			}
			wg.Wait()
			b.StopTimer()
			after, err := server.Stats(obj)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(after.GroupCommits-before.GroupCommits)/float64(b.N), "groupCommits/op")
		})
	}
}

// BenchmarkDurable_Recovery measures restart recovery: a durable store's
// WAL is seeded with a fixed update tail once, then each iteration opens a
// fresh system over the same data dir and times Publish — which replays
// snapshot + WAL before the object serves. This is the downtime a crashed
// daemon adds to its restart, the second number the README's deployment
// section quotes.
func BenchmarkDurable_Recovery(b *testing.B) {
	const replayed = 512 // WAL update records replayed per recovery
	dir := b.TempDir()
	seed := webobj.NewSystem(
		webobj.WithFabric(webobj.NewMemFabric(memnet.WithSeed(1))),
		webobj.WithDataDir(dir),
		// SnapshotEvery > the seeded tail keeps compaction out of the way:
		// every iteration must replay all `replayed` records, not a snapshot.
		webobj.WithDurability(webobj.Durability{Fsync: webobj.FsyncOff, SnapshotEvery: 4 * replayed}),
	)
	server, err := seed.NewServer("www", webobj.WithStoreID(1))
	if err != nil {
		b.Fatal(err)
	}
	const obj = webobj.ObjectID("bench-recovery")
	if err := seed.Publish(server, obj, webobj.WebDoc(), webobj.ConferenceStrategy(time.Hour)); err != nil {
		b.Fatal(err)
	}
	doc, err := seed.Open(obj, webobj.At(server))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < replayed; i++ {
		if err := doc.Append("log.html", []byte("x;")); err != nil {
			b.Fatal(err)
		}
	}
	doc.Close()
	if err := seed.Close(); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := webobj.NewSystem(
			webobj.WithFabric(webobj.NewMemFabric(memnet.WithSeed(1))),
			webobj.WithDataDir(dir),
			webobj.WithDurability(webobj.Durability{Fsync: webobj.FsyncOff, SnapshotEvery: 4 * replayed}),
		)
		sv, err := sys.NewServer("www", webobj.WithStoreID(1))
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Publish(sv, obj, webobj.WebDoc(), webobj.ConferenceStrategy(time.Hour)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := sys.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(replayed, "ups_replay")
}

// BenchmarkContention_MemnetDelivery measures end-to-end simulated delivery
// throughput on instant links — encode, decode, inbox hand-over on the
// sender's goroutine — with four senders fanning out over sixteen sinks.
func BenchmarkContention_MemnetDelivery(b *testing.B) {
	const senders, receivers = 4, 16
	n := memnet.New(memnet.WithSeed(1))
	defer n.Close()
	srcs := make([]transport.Endpoint, senders)
	for i := range srcs {
		ep, err := n.Endpoint(fmt.Sprintf("src%d", i))
		if err != nil {
			b.Fatal(err)
		}
		srcs[i] = ep
	}
	total := int64(b.N)
	var delivered atomic.Int64
	done := make(chan struct{})
	var drain sync.WaitGroup
	dsts := make([]string, receivers)
	for j := 0; j < receivers; j++ {
		dsts[j] = fmt.Sprintf("sink%d", j)
		ep, err := n.Endpoint(dsts[j])
		if err != nil {
			b.Fatal(err)
		}
		drain.Add(1)
		go func(ep transport.Endpoint) {
			defer drain.Done()
			for range ep.Recv() {
				if delivered.Add(1) == total {
					close(done)
				}
			}
		}(ep)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		ops := b.N / senders
		if i < b.N%senders {
			ops++
		}
		wg.Add(1)
		go func(i, ops int) {
			defer wg.Done()
			m := &msg.Message{
				Kind: msg.KindUpdate, Object: "doc",
				Write: ids.WiD{Client: ids.ClientID(i + 1), Seq: 1},
				VVec:  msgVVec(i),
				Inv:   msg.Invocation{Method: 4, Page: "index.html", Args: make([]byte, 64)},
			}
			for k := 0; k < ops; k++ {
				if err := srcs[i].Send(dsts[(i+k)%receivers], m); err != nil {
					b.Error(err)
					return
				}
			}
		}(i, ops)
	}
	wg.Wait()
	<-done // all b.N frames decoded and landed in inboxes
	b.StopTimer()
	_ = n.Close()
	drain.Wait()
}

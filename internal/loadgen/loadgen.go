// Package loadgen is the open-loop workload driver behind cmd/globeload.
//
// Open-loop means fixed arrival rate: operations are *scheduled* at
// start + k/rate regardless of how fast earlier operations complete, the way
// independent Web clients arrive, rather than the closed-loop shape of
// bench_test.go where each virtual client waits for its previous op. Latency
// is measured from the op's INTENDED arrival time, not from when a worker
// got around to sending it — so a server stall shows up as thousands of slow
// ops (what the clients experienced), not one slow op and a silently paused
// clock. This is the standard defence against coordinated omission.
//
// Client identities are split into an unbounded reader population and a
// bounded writer pool. Reads carry any of cfg.Clients identities (a read is
// stateless server-side), which is how a single process simulates 10^5..10^6
// clients. Writes are folded onto cfg.Writers real identities because every
// write identity grows the store's applied version vector — which rides on
// every read reply — and because per-writer sequence numbers must stay
// contiguous and single-owner for the ordering engines. Ops are routed to
// workers so each writer identity is owned by exactly one worker goroutine.
package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/semantics/webdoc"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Config parameterises one open-loop run against an already-running
// deployment (Deploy builds a single-store one for the memnet mode).
type Config struct {
	// Fabric dials the deployment; Target is the store address to drive.
	Fabric transport.Fabric
	Target string
	Object ids.ObjectID

	// Rate is the intended arrival rate in ops/second. Required.
	Rate float64
	// Duration and MaxOps bound the run; whichever trips first stops the
	// dispatcher. At least one must be set.
	Duration time.Duration
	MaxOps   int

	// Clients is the simulated client population (reader identities).
	Clients int
	// Writers is the real writer-identity pool writes are folded onto.
	Writers int
	// Workers is the number of concurrent RPC goroutines, each with its own
	// endpoint; it bounds in-flight requests, not the arrival rate.
	Workers int

	WriteRatio float64
	Pages      int
	ZipfSkew   float64
	WriteSize  int
	Seed       int64
	// ClientBase offsets every identity this run mints, so several
	// generator processes can share one deployment without colliding.
	ClientBase uint32
	Timeout    time.Duration
}

// LatencySummary is the quantile digest of one histogram.
type LatencySummary struct {
	Count uint64 `json:"count"`
	P50   int64  `json:"p50_ns"`
	P99   int64  `json:"p99_ns"`
	P999  int64  `json:"p999_ns"`
	Max   int64  `json:"max_ns"`
}

// Report is the outcome of a run, in the JSON shape globeload prints.
type Report struct {
	Offered     int     `json:"offered_ops"`
	Completed   uint64  `json:"completed_ops"`
	Errors      uint64  `json:"errors"`
	Timeouts    uint64  `json:"timeouts"`
	Retries     uint64  `json:"retries"`
	ElapsedNS   int64   `json:"elapsed_ns"`
	OfferedRate float64 `json:"offered_rate"`
	AchievedOps float64 `json:"achieved_rate"`

	Read  LatencySummary `json:"read"`
	Write LatencySummary `json:"write"`

	Clients    int `json:"clients"`
	WriterPool int `json:"writer_pool"`
	Workers    int `json:"workers"`
}

// writeAttempts bounds per-write retries. A write MUST be retried on
// timeout: an abandoned write leaves a per-writer sequence hole that stalls
// every later write from that identity (the store's at-most-once admission
// makes the retry safe whether or not the original landed).
const writeAttempts = 4

type item struct {
	op       workload.Op
	intended time.Time
}

type counters struct {
	completed atomic.Uint64
	errors    atomic.Uint64
	timeouts  atomic.Uint64
	retries   atomic.Uint64
}

type worker struct {
	cfg     *Config
	dx      *transport.Demux
	ch      chan item
	seqs    []uint64 // indexed by writer pool slot; each slot owned by one worker
	content []byte
	cts     *counters
	hRead   *obs.Hist
	hWrite  *obs.Hist
}

// Run executes the configured open-loop workload and reports latency
// quantiles. It warms every page with one write first so reads never 404.
func Run(cfg Config) (*Report, error) {
	if cfg.Fabric == nil || cfg.Target == "" {
		return nil, errors.New("loadgen: Fabric and Target are required")
	}
	if cfg.Rate <= 0 {
		return nil, errors.New("loadgen: Rate must be positive")
	}
	if cfg.Duration <= 0 && cfg.MaxOps <= 0 {
		return nil, errors.New("loadgen: set Duration or MaxOps")
	}
	if cfg.Object == "" {
		cfg.Object = "loadgen-doc"
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1000
	}
	if cfg.Writers <= 0 {
		cfg.Writers = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 16
	}
	if cfg.Pages <= 0 {
		cfg.Pages = 16
	}
	if cfg.WriteSize <= 0 {
		cfg.WriteSize = 512
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}

	cts := &counters{}
	hRead, hWrite := &obs.Hist{}, &obs.Hist{}
	seqs := make([]uint64, cfg.Writers)
	rng := rand.New(rand.NewSource(cfg.Seed))
	workers := make([]*worker, cfg.Workers)
	for i := range workers {
		ep, err := cfg.Fabric.Endpoint(fmt.Sprintf("loadgen/w%03d", i))
		if err != nil {
			return nil, fmt.Errorf("loadgen: worker endpoint: %w", err)
		}
		workers[i] = &worker{
			cfg: &cfg, dx: transport.NewDemux(ep),
			ch:      make(chan item, 1024),
			seqs:    seqs,
			content: workload.Content(rng, cfg.WriteSize),
			cts:     cts, hRead: hRead, hWrite: hWrite,
		}
	}
	defer func() {
		for _, w := range workers {
			_ = w.dx.Close()
		}
	}()

	if err := warmup(&cfg, workers[0].dx); err != nil {
		return nil, err
	}

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go w.run(&wg)
	}

	stream := workload.NewStream(workload.Config{
		Seed: cfg.Seed, Clients: cfg.Clients, Ops: cfg.MaxOps,
		WriteRatio: cfg.WriteRatio, Pages: cfg.Pages,
		ZipfSkew: cfg.ZipfSkew, WriteSize: cfg.WriteSize,
	})
	interval := float64(time.Second) / cfg.Rate
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	offered := 0
	for k := 0; ; k++ {
		intended := start.Add(time.Duration(float64(k) * interval))
		if cfg.Duration > 0 && intended.After(deadline) {
			break
		}
		op, ok := stream.Next()
		if !ok {
			break
		}
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		// Route writes by pool slot (one owner per writer identity), reads
		// by simulated client. The enqueue may block when a worker is
		// saturated; latency stays honest because it is measured from
		// `intended`, which this loop computed before any blocking.
		var w *worker
		if op.IsWrite {
			w = workers[op.Client%cfg.Writers%cfg.Workers]
		} else {
			w = workers[op.Client%cfg.Workers]
		}
		w.ch <- item{op: op, intended: intended}
		offered++
	}
	for _, w := range workers {
		close(w.ch)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{
		Offered:     offered,
		Completed:   cts.completed.Load(),
		Errors:      cts.errors.Load(),
		Timeouts:    cts.timeouts.Load(),
		Retries:     cts.retries.Load(),
		ElapsedNS:   int64(elapsed),
		OfferedRate: cfg.Rate,
		Read:        summarize(hRead),
		Write:       summarize(hWrite),
		Clients:     cfg.Clients,
		WriterPool:  cfg.Writers,
		Workers:     cfg.Workers,
	}
	if s := elapsed.Seconds(); s > 0 {
		rep.AchievedOps = float64(rep.Completed) / s
	}
	return rep, nil
}

func summarize(h *obs.Hist) LatencySummary {
	return LatencySummary{
		Count: h.Count(),
		P50:   int64(h.Quantile(0.50)),
		P99:   int64(h.Quantile(0.99)),
		P999:  int64(h.Quantile(0.999)),
		Max:   int64(h.Max()),
	}
}

func (w *worker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for it := range w.ch {
		if it.op.IsWrite {
			w.doWrite(it)
		} else {
			w.doRead(it)
		}
	}
}

func (w *worker) doRead(it item) {
	m := &msg.Message{
		Kind:   msg.KindReadRequest,
		Object: w.cfg.Object,
		Client: ids.ClientID(w.cfg.ClientBase + uint32(it.op.Client)),
		Inv:    msg.Invocation{Method: webdoc.MethodGetPage, Page: it.op.Page},
	}
	r, err := w.dx.Call(w.cfg.Target, m, w.cfg.Timeout)
	switch {
	case errors.Is(err, transport.ErrTimeout):
		w.cts.timeouts.Add(1)
		w.cts.errors.Add(1)
	case err != nil || r.Status != msg.StatusOK:
		w.cts.errors.Add(1)
	default:
		w.cts.completed.Add(1)
		w.hRead.Record(time.Since(it.intended))
	}
}

func (w *worker) doWrite(it item) {
	slot := it.op.Client % w.cfg.Writers
	w.seqs[slot]++
	wid := ids.WiD{
		Client: ids.ClientID(w.cfg.ClientBase + uint32(w.cfg.Clients+slot)),
		Seq:    w.seqs[slot],
	}
	m := &msg.Message{
		Kind:   msg.KindWriteRequest,
		Object: w.cfg.Object,
		Client: wid.Client,
		Write:  wid,
		Inv: msg.Invocation{
			Method: webdoc.MethodAppendPage,
			Page:   it.op.Page,
			Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{
				Content:       w.content,
				ModifiedNanos: it.intended.UnixNano(),
			}),
		},
		WallNanos: it.intended.UnixNano(),
	}
	for attempt := 1; ; attempt++ {
		r, err := w.dx.Call(w.cfg.Target, m, w.cfg.Timeout)
		switch {
		case err == nil && r.Status == msg.StatusOK:
			w.cts.completed.Add(1)
			w.hWrite.Record(time.Since(it.intended))
			return
		case attempt < writeAttempts && (errors.Is(err, transport.ErrTimeout) ||
			(err == nil && r.Status == msg.StatusRetry)):
			w.cts.retries.Add(1)
			continue
		default:
			if errors.Is(err, transport.ErrTimeout) {
				w.cts.timeouts.Add(1)
			}
			w.cts.errors.Add(1)
			return
		}
	}
}

// warmup writes every page once under a dedicated loader identity (the slot
// just past the writer pool) so the measured phase never reads a page that
// does not exist yet.
func warmup(cfg *Config, dx *transport.Demux) error {
	loader := ids.ClientID(cfg.ClientBase + uint32(cfg.Clients+cfg.Writers))
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	content := workload.Content(rng, cfg.WriteSize)
	for i := 0; i < cfg.Pages; i++ {
		m := &msg.Message{
			Kind:   msg.KindWriteRequest,
			Object: cfg.Object,
			Client: loader,
			Write:  ids.WiD{Client: loader, Seq: uint64(i + 1)},
			Inv: msg.Invocation{
				Method: webdoc.MethodPutPage,
				Page:   workload.PageName(i),
				Args: webdoc.EncodeWriteArgs(webdoc.WriteArgs{
					Content:       content,
					ContentType:   "text/html",
					ModifiedNanos: time.Now().UnixNano(),
				}),
			},
			WallNanos: time.Now().UnixNano(),
		}
		var lastErr error
		ok := false
		for attempt := 0; attempt < writeAttempts && !ok; attempt++ {
			r, err := dx.Call(cfg.Target, m, cfg.Timeout)
			switch {
			case err != nil:
				lastErr = err
			case r.Status != msg.StatusOK:
				lastErr = fmt.Errorf("status %v: %s", r.Status, r.Err)
			default:
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("loadgen: warmup write %s: %w", workload.PageName(i), lastErr)
		}
	}
	return nil
}

package loadgen

import (
	"testing"
	"time"

	"repro/internal/transport/memnet"
	"repro/internal/transport/tcpnet"
)

// A short open-loop run over memnet: every offered op must complete without
// error and the histograms must cover both op kinds. This is the smoke test
// behind the CI globeload job; cmd/globeload is a flag wrapper over the same
// path.
func runSmoke(t *testing.T, opts ...memnet.Option) *Report {
	t.Helper()
	net := memnet.New(opts...)
	defer net.Close()
	s, err := Deploy(net, "perm", "loadgen-doc")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := Run(Config{
		Fabric: net, Target: "perm", Object: "loadgen-doc",
		Rate: 2000, MaxOps: 1000,
		Clients: 100000, Writers: 16, Workers: 8,
		WriteRatio: 0.2, Pages: 8, Seed: 1998,
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered != 1000 {
		t.Errorf("offered %d ops, want 1000", rep.Offered)
	}
	if rep.Completed != uint64(rep.Offered) || rep.Errors != 0 {
		t.Errorf("completed %d/%d with %d errors (%d timeouts)",
			rep.Completed, rep.Offered, rep.Errors, rep.Timeouts)
	}
	if rep.Read.Count == 0 || rep.Write.Count == 0 {
		t.Errorf("histograms not populated: reads=%d writes=%d", rep.Read.Count, rep.Write.Count)
	}
	if rep.Read.P50 <= 0 || rep.Write.P999 < rep.Write.P50 {
		t.Errorf("implausible quantiles: read=%+v write=%+v", rep.Read, rep.Write)
	}
	return rep
}

func TestOpenLoopOverMemnet(t *testing.T) {
	runSmoke(t, memnet.WithSeed(7))
}

// The same driver over real TCP — the shape of a multi-process deployment
// run, scaled down. The store listens on an ephemeral loopback port and the
// generator dials its advertised address.
func TestOpenLoopOverTCP(t *testing.T) {
	fab := tcpnet.NewFabric("")
	defer fab.Close()
	s, err := Deploy(fab, "perm", "loadgen-doc")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := Run(Config{
		Fabric: fab, Target: s.Addr(), Object: "loadgen-doc",
		Rate: 2000, MaxOps: 400,
		Clients: 5000, Writers: 8, Workers: 4,
		WriteRatio: 0.2, Pages: 4, Seed: 7,
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != uint64(rep.Offered) || rep.Errors != 0 {
		t.Errorf("completed %d/%d with %d errors (%d timeouts)",
			rep.Completed, rep.Offered, rep.Errors, rep.Timeouts)
	}
}

// The writer pool folds 100k simulated clients onto 16 real write
// identities; a full-population sweep must never mint a sequence gap, which
// would surface above as write timeouts. This test instead pins the routing
// invariant directly: the same pool slot always lands on the same worker.
func TestWriteRoutingOwnsSlots(t *testing.T) {
	const clients, writers, workers = 100000, 16, 8
	ownerOf := make(map[int]int)
	for c := 0; c < clients; c++ {
		slot := c % writers
		worker := c % writers % workers
		if prev, ok := ownerOf[slot]; ok && prev != worker {
			t.Fatalf("slot %d routed to workers %d and %d", slot, prev, worker)
		}
		ownerOf[slot] = worker
	}
}

func TestRunValidatesConfig(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	if _, err := Run(Config{Fabric: net, Target: "x"}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := Run(Config{Fabric: net, Target: "x", Rate: 100}); err == nil {
		t.Error("run with no Duration and no MaxOps accepted")
	}
	if _, err := Run(Config{Rate: 100, MaxOps: 1}); err == nil {
		t.Error("missing fabric accepted")
	}
}

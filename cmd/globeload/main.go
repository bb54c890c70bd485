// Command globeload is the open-loop load generator for a distributed Web
// object deployment. It offers operations at a FIXED arrival rate (the way
// independent Web clients do) rather than as fast as replies return, and it
// measures every latency from the op's intended arrival time, so server
// stalls are charged to every op they delayed instead of silently pausing
// the clock — the coordinated-omission-safe methodology README.md's
// "Benchmarking at scale" section describes.
//
// Two modes:
//
//	-fabric mem   self-deploys a single permanent webdoc store on an
//	              in-process simulated network and drives it. This is the
//	              10^5..10^6-simulated-client mode.
//	-fabric tcp   drives an already-running deployment (e.g. a globed
//	              daemon) at -target host:port over real TCP.
//
// The report prints as JSON on stdout; -check additionally exits non-zero
// if any op failed or a histogram stayed empty, which is what the CI smoke
// job asserts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/ids"
	"repro/internal/loadgen"
	"repro/internal/transport"
	"repro/internal/transport/memnet"
	"repro/internal/transport/tcpnet"
)

func main() {
	var (
		fabricKind = flag.String("fabric", "mem", "network fabric: mem (self-deployed simulation) or tcp (drive a running deployment)")
		target     = flag.String("target", "", "store address to drive (tcp mode; required)")
		object     = flag.String("object", "loadgen-doc", "object ID to read and write")
		rate       = flag.Float64("rate", 2000, "offered arrival rate, ops/second")
		duration   = flag.Duration("duration", 0, "run length (alternative to -ops)")
		ops        = flag.Int("ops", 5000, "total ops to offer (0 with -duration set)")
		clients    = flag.Int("clients", 100000, "simulated client population (reader identities)")
		writers    = flag.Int("writers", 64, "writer identity pool size")
		workers    = flag.Int("workers", 16, "concurrent RPC workers")
		writeRatio = flag.Float64("write-ratio", 0.1, "fraction of ops that are writes")
		pages      = flag.Int("pages", 16, "distinct pages")
		zipf       = flag.Float64("zipf", 0, "page popularity skew (>1 enables Zipf)")
		writeSize  = flag.Int("write-size", 512, "bytes per write")
		seed       = flag.Int64("seed", 1998, "workload seed")
		clientBase = flag.Uint("client-base", 0, "identity offset, for multiple generator processes")
		timeout    = flag.Duration("timeout", 2*time.Second, "per-RPC timeout")
		check      = flag.Bool("check", false, "exit non-zero on any error or empty histogram")
	)
	flag.Parse()

	var fab transport.Fabric
	addr := *target
	switch *fabricKind {
	case "mem":
		net := memnet.New(memnet.WithSeed(*seed))
		defer net.Close()
		if addr == "" {
			addr = "perm"
		}
		s, err := loadgen.Deploy(net, addr, ids.ObjectID(*object))
		if err != nil {
			fatal("deploy: %v", err)
		}
		defer s.Close()
		fab = net
	case "tcp":
		if addr == "" {
			fatal("-fabric tcp requires -target host:port")
		}
		f := tcpnet.NewFabric("")
		defer f.Close()
		fab = f
	default:
		fatal("unknown -fabric %q (want mem or tcp)", *fabricKind)
	}

	rep, err := loadgen.Run(loadgen.Config{
		Fabric: fab, Target: addr, Object: ids.ObjectID(*object),
		Rate: *rate, Duration: *duration, MaxOps: *ops,
		Clients: *clients, Writers: *writers, Workers: *workers,
		WriteRatio: *writeRatio, Pages: *pages, ZipfSkew: *zipf,
		WriteSize: *writeSize, Seed: *seed,
		ClientBase: uint32(*clientBase), Timeout: *timeout,
	})
	if err != nil {
		fatal("%v", err)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(out))
	if *check {
		switch {
		case rep.Errors > 0:
			fatal("check: %d of %d ops failed (%d timeouts)", rep.Errors, rep.Offered, rep.Timeouts)
		case rep.Completed == 0:
			fatal("check: no ops completed")
		case *writeRatio > 0 && rep.Write.Count == 0:
			fatal("check: write histogram empty at write-ratio %g", *writeRatio)
		case *writeRatio < 1 && rep.Read.Count == 0:
			fatal("check: read histogram empty at write-ratio %g", *writeRatio)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "globeload: "+format+"\n", args...)
	os.Exit(1)
}

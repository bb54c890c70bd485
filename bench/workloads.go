package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/transport/memnet"
	"repro/internal/workload"
	"repro/webobj"
)

const (
	object     = webobj.ObjectID("bench-doc")
	markerPage = "marker.html"
	opTimeout  = time.Second
	// numClients is fixed by the box the bounds were measured on (2 vCPUs):
	// one process, two client goroutines, two connections, never more.
	numClients = 2
	// contentVariants is how many distinct page bodies a workload writes.
	contentVariants = 4
	// browseLazy is the conference page's lazy push period. The issue's
	// 50 ms gives one marker sample per ~100 ms (two lazy hops), too few in
	// a 3 s visible phase for a p90 with ten samples beyond it; 10 ms gives
	// ~140.
	browseLazy = 10 * time.Millisecond
)

// spec is one named workload. Each isolates one mechanism, so a change is
// measured where it works and where it must not.
type spec struct {
	name, preset string
	strat        webobj.Strategy
	// tcp selects the durable-tcp deployment: www (WAL, fsync on an
	// interval) → mirror over loopback TCP. Otherwise topology T3 over
	// memnet: www → mirror → cache-a, cache-b.
	tcp bool
	// flat hangs the caches directly below www, beside the mirror.
	flat            bool
	pages, pageSize int
	zipf            float64 // 0 = uniform
	putShare        float64
	// rootWriter: only client 0 writes, through a second handle At(www).
	// Otherwise every client writes through its own write handle.
	rootWriter bool
	session    []webobj.ClientModel
	// rate is the paced phase's offered load in ops/s, frozen at about 40%
	// of the closed-loop capacity measured on the seed (README): low enough
	// that a slow quarter of an hour on the box does not saturate it.
	rate float64
}

var specs = []spec{
	{
		name: "browse", preset: "ConferenceStrategy(10ms)", strat: webobj.ConferenceStrategy(browseLazy),
		pages: 64, pageSize: 4096, zipf: 1.1, putShare: 0.05, rootWriter: true,
		session: []webobj.ClientModel{webobj.MonotonicReads}, rate: 22000,
	},
	{
		name: "whiteboard", preset: "WhiteboardStrategy()", strat: webobj.WhiteboardStrategy(),
		pages: 64, pageSize: 512, putShare: 0.5,
		session: []webobj.ClientModel{webobj.ReadYourWrites, webobj.MonotonicReads}, rate: 10000,
	},
	{
		name: "flashcrowd", preset: "PopularEventPageStrategy()", strat: webobj.PopularEventPageStrategy(),
		flat: true, pages: 256, pageSize: 512, zipf: 1.1, putShare: 0.10, rootWriter: true,
		session: []webobj.ClientModel{webobj.MonotonicReads}, rate: 26000,
	},
	{
		name: "durable-tcp", preset: "WhiteboardStrategy()", strat: webobj.WhiteboardStrategy(), tcp: true,
		pages: 64, pageSize: 512, putShare: 0.5,
		session: []webobj.ClientModel{webobj.MonotonicReads}, rate: 12000,
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// op is one pre-generated client operation.
type op struct {
	page  uint16
	write bool
}

// inputs is everything a run derives from the seed before any timing: page
// names, page bodies and each client's op list. The program under test sees
// only the ops.
type inputs struct {
	names    []string
	contents [][]byte
	ops      [numClients][]op
}

// genInputs draws perClient ops for each client; a phase that outlasts a
// client's list wraps around.
func genInputs(sp *spec, seed int64, perClient int) *inputs {
	in := &inputs{names: make([]string, sp.pages)}
	index := make(map[string]uint16, sp.pages)
	for i := range in.names {
		in.names[i] = workload.PageName(i)
		index[in.names[i]] = uint16(i)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < contentVariants; i++ {
		in.contents = append(in.contents, workload.Content(rng, sp.pageSize))
	}
	s := workload.NewStream(workload.Config{
		Seed: seed, Clients: numClients, WriteRatio: sp.putShare, Pages: sp.pages,
		ZipfSkew: sp.zipf, WriteSize: sp.pageSize, SingleWriter: sp.rootWriter,
	})
	for full := 0; full < numClients; {
		o, _ := s.Next()
		if len(in.ops[o.Client]) == perClient {
			continue
		}
		in.ops[o.Client] = append(in.ops[o.Client], op{page: index[o.Page], write: o.IsWrite})
		if len(in.ops[o.Client]) == perClient {
			full++
		}
	}
	return in
}

// client is one load-generating goroutine's view of the deployment: a read
// handle, a write handle (the same one on whiteboard), and the tallies the
// output check needs.
type client struct {
	rd, wr *webobj.Document
	ops    []op
	next   int
	tally  clientTally
}

// deployment is one built system plus the handles the phases drive.
type deployment struct {
	sp     *spec
	in     *inputs
	sys    *webobj.System
	stores []*webobj.Store // www first
	// far is the replica farthest from where client 0 writes; probe reads
	// there without a session, for the visible phase.
	far     *webobj.Store
	probe   *webobj.Document
	root    *webobj.Document // At(www), for loading and checking
	clients [numClients]*client
	// netStats reads the fabric's cumulative traffic counters.
	netStats func() map[string]uint64
	dataDir  string
	// markers counts the marker Puts acked so far, markerUnknown those
	// whose outcome was never learned.
	markers, markerUnknown uint64
}

type deployOpts struct {
	seed    int64
	dataDir string // parent directory for durable-tcp's WAL
	opens   int    // timed Open/Close cycles
	extra   []webobj.SystemOption
}

// setupTimes is what one timed set-up produced besides the deployment.
type setupTimes struct {
	total time.Duration
	opens []float64 // Open round trips, in microseconds
}

// deploy builds the workload's system, loads and warms it, and runs the
// timed Open/Close cycles. Everything in here is the set-up a user of the
// system pays, and all of it is inside setup_s.
func deploy(sp *spec, in *inputs, o deployOpts) (*deployment, setupTimes, error) {
	t0 := time.Now()
	d := &deployment{sp: sp, in: in}
	// Failures must surface as failures: one attempt, no silent retry.
	opts := append([]webobj.SystemOption{webobj.WithFailover(webobj.FailoverConfig{Attempts: 1})}, o.extra...)
	if sp.tcp {
		dir, err := os.MkdirTemp(o.dataDir, "wal-")
		if err != nil {
			return nil, setupTimes{}, err
		}
		d.dataDir = dir
		fab := webobj.NewTCPFabric("")
		d.netStats = fab.StatsMap
		// Not FsyncAlways: on the shared disk a checkout sits on, the
		// per-ack barrier made every metric the disk's neighbours' (README).
		opts = append(opts, webobj.WithFabric(fab), webobj.WithDataDir(dir),
			webobj.WithDurability(webobj.Durability{Fsync: webobj.FsyncInterval}))
	} else {
		net := webobj.NewMemFabric(memnet.WithSeed(o.seed))
		d.netStats = net.StatsMap
		opts = append(opts, webobj.WithFabric(net))
	}
	d.sys = webobj.NewSystem(opts...)
	st, err := d.build(o.opens)
	if err != nil {
		d.close()
		return nil, setupTimes{}, err
	}
	st.total = time.Since(t0)
	return d, st, nil
}

func (d *deployment) build(opens int) (setupTimes, error) {
	sp, sys := d.sp, d.sys
	var st setupTimes
	www, err := sys.NewServer("www")
	if err != nil {
		return st, err
	}
	if err := sys.Publish(www, object, webobj.WebDoc(), sp.strat, sp.session...); err != nil {
		return st, err
	}
	mirror, err := sys.NewMirror("mirror", www)
	if err != nil {
		return st, err
	}
	d.stores = []*webobj.Store{www, mirror}
	readAt := []*webobj.Store{mirror, mirror}
	writeAt := []*webobj.Store{www, www}
	if !sp.tcp {
		above := mirror
		if sp.flat {
			above = www
		}
		a, err := sys.NewCache("cache-a", above)
		if err != nil {
			return st, err
		}
		b, err := sys.NewCache("cache-b", above)
		if err != nil {
			return st, err
		}
		d.stores = append(d.stores, a, b)
		readAt = []*webobj.Store{a, b}
		if !sp.rootWriter {
			writeAt = readAt
		}
	}
	d.far = readAt[numClients-1]
	for _, s := range d.stores[1:] {
		if err := sys.Replicate(s, object, sp.session...); err != nil {
			return st, err
		}
	}

	open := func(at *webobj.Store, session ...webobj.ClientModel) (*webobj.Document, error) {
		return sys.Open(object, webobj.At(at), webobj.WithSession(session...), webobj.WithTimeout(opTimeout))
	}
	if d.root, err = open(www); err != nil {
		return st, err
	}
	if d.probe, err = open(d.far); err != nil {
		return st, err
	}
	for i := range d.clients {
		c := &client{ops: d.in.ops[i], tally: newClientTally(sp.pages)}
		if c.rd, err = open(readAt[i], sp.session...); err != nil {
			return st, err
		}
		switch {
		case writeAt[i] == readAt[i]:
			c.wr = c.rd
		case !sp.rootWriter:
			if c.wr, err = open(writeAt[i]); err != nil {
				return st, err
			}
		case i == 0:
			// A single-writer object belongs to the first client that
			// writes it, and loading writes it: the one writer is root.
			c.wr = d.root
		}
		d.clients[i] = c
	}

	// Load every page once at www, then read every page at every replica
	// until it matches www: whatever the strategy's push or pull does on
	// first access has happened before timing starts.
	for i, name := range d.in.names {
		if err := d.root.Put(name, d.in.contents[i%contentVariants], "text/html"); err != nil {
			return st, fmt.Errorf("load %s: %w", name, err)
		}
	}
	if err := d.root.Put(markerPage, []byte("0"), "text/plain"); err != nil {
		return st, fmt.Errorf("load %s: %w", markerPage, err)
	}
	if bad := d.converge(5 * time.Second); len(bad) > 0 {
		return st, fmt.Errorf("warm-up did not converge: %s", bad[0])
	}

	st.opens = make([]float64, 0, opens)
	for i := 0; i < opens; i++ {
		t := time.Now()
		doc, err := open(readAt[0])
		if err != nil {
			return st, fmt.Errorf("open cycle %d: %w", i, err)
		}
		st.opens = append(st.opens, float64(time.Since(t))*nsToUs)
		doc.Close()
	}
	return st, nil
}

// close tears the system down and removes the WAL directory.
func (d *deployment) close() {
	_ = d.sys.Close()
	if d.dataDir != "" {
		_ = os.RemoveAll(d.dataDir)
	}
}

// scratchDir is where WALs and span files go: inside the working tree,
// under a directory .gitignore names.
func scratchDir(base string) (string, error) {
	dir := filepath.Join(base, "data")
	return dir, os.MkdirAll(dir, 0o755)
}

// fsName names the file system the WAL lands on (wal_fs): durable-tcp's
// periodic fdatasync and snapshot writes are that file system's.
func fsName(dir string) string {
	for dir != "" {
		var st syscall.Statfs_t
		if err := syscall.Statfs(dir, &st); err == nil {
			names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
			if n, ok := names[int64(st.Type)]; ok {
				return "wal_fs " + n
			}
			return fmt.Sprintf("wal_fs type %#x", int64(st.Type))
		}
		if parent := filepath.Dir(dir); parent != dir {
			dir = parent // not created yet: ask its parent
		} else {
			break
		}
	}
	return "wal_fs unknown"
}

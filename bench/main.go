// Command bench is the repository's one end-to-end benchmark. It drives the
// public webobj API with a seeded op stream on four named workloads, prints
// every end-to-end metric by name with its unit, checks that the system's
// outputs are correct, and in a separate traced run (-trace 1) times calls
// into each layer's public functions from outside. BENCHMARK.json at the
// root of the repository names the metrics and their bounds; README.md here
// says what each one means and which layer should move it.
//
//	go run ./bench                          all four workloads
//	go run ./bench -workload browse         one workload
//	go run ./bench -trace 1                 per-layer metrics and a span file
//	go run ./bench -repeat 5                spread of every metric over 5 runs
//	go run ./bench -quick                   smoke run, numbers mean nothing
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric, in BENCHMARK.json's order.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system would see, and what BENCHMARK.json
// gates. Four more from the issue's table are measured and printed by every
// run but gated by none, because on the seed box they did not repeat within
// the widest bound the manifest allows (README, "Spread"): open_p50_us,
// read_p99_us, write_p99_us and visible_p90_us are in the per-layer list.
// error_share is not a metric at all: it is 0 on a healthy run, and the
// result line carries it as failed/attempted.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"capacity_ops_s", "ops/s"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"read_p50_us", "us"},
	{"write_p50_us", "us"},
	{"paced_slo_share", "share"},
	{"visible_p50_us", "us"},
}

// tails are the four demoted end-to-end metrics.
var tails = []metricDef{
	{"open_p50_us", "us"},
	{"read_p99_us", "us"},
	{"write_p99_us", "us"},
	{"visible_p90_us", "us"},
}

// unitOf finds a metric's unit in the three lists.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, tails, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is in no list") // a typo in this package, nothing else
}

// plan is how long each part of a run lasts.
type plan struct {
	closed, paced, visible time.Duration
	window                 time.Duration
	setups                 int // timed set-ups per run; setup_s is their median
	opens                  int // timed Open/Close cycles per set-up
	ladderOps              int // ops replayed on every rung
	calls                  int // repetitions of each single timed call
	opsPerClient           int // length of each client's pre-generated op list
}

// planFor splits the measured seconds: 60% closed loop, 25% paced, 15%
// visible. The traced run spends the same budget on its own parts.
func planFor(seconds float64, quick bool) plan {
	if quick {
		return plan{
			closed: 60 * time.Millisecond, paced: 60 * time.Millisecond, visible: 30 * time.Millisecond,
			window: 30 * time.Millisecond, setups: 1, opens: 10, ladderOps: 500, calls: 50, opsPerClient: 1 << 11,
		}
	}
	s := time.Duration(seconds * float64(time.Second))
	return plan{
		closed: s * 60 / 100, paced: s * 25 / 100, visible: s * 15 / 100,
		window: time.Second, setups: 7, opens: 200, ladderOps: 20000, calls: 2000, opsPerClient: 1 << 16,
	}
}

// value is one metric of one run.
type value struct {
	name, unit string
	v          float64
	note       string // sample count and windows, for the table
}

// result is one run of one workload.
type result struct {
	sp *spec
	// gated is the list the result line carries: endToEnd for an untraced
	// run, perLayer for a traced one. values holds everything measured.
	gated     []metricDef
	values    []value
	attempted uint64
	failed    uint64
	bad       []string // output-check violations
	warnings  []string
	// info is printed under the table and is not part of the result line.
	info []string
}

func (r *result) add(name string, v float64, note string) {
	r.values = append(r.values, value{name: name, unit: unitOf(name), v: v, note: note})
}

func (r *result) addStat(name string, s stat, scale float64) {
	note := fmt.Sprintf("n=%d, median of %d windows", s.n, s.windows)
	if s.windows == 0 {
		note = fmt.Sprintf("n=%d, whole phase as one window", s.n)
	}
	if s.low {
		note += fmt.Sprintf(", fewer than %d samples beyond it", minBeyond)
	}
	r.add(name, s.value*scale, note)
}

// addTails adds the four demoted end-to-end metrics from the phases that
// produce them.
func (r *result) addTails(opens []float64, cl *closedResult, lags []*hist) {
	r.add("open_p50_us", median(opens), fmt.Sprintf("n=%d", len(opens)))
	r.addStat("read_p99_us", windowedQuantile(cl.latencies(false), 0.99), nsToUs)
	r.addStat("write_p99_us", windowedQuantile(cl.latencies(true), 0.99), nsToUs)
	r.addStat("visible_p90_us", windowedQuantile(lags, 0.90), nsToUs)
}

type config struct {
	seed    int64
	pl      plan
	scratch string // directory for WALs and span files
}

const nsToUs = 1e-3

// maxShown caps how many output-check violations a run prints.
const maxShown = 10

// runWorkload is one untraced run: set up (several times, the last one is
// kept), closed loop, paced, visible, quiesce and check.
func runWorkload(sp *spec, cfg config) (*result, error) {
	res := &result{sp: sp, gated: endToEnd}
	in := genInputs(sp, cfg.seed, cfg.pl.opsPerClient)
	dataDir, err := scratchDir(cfg.scratch)
	if err != nil {
		return nil, err
	}
	var d *deployment
	var setups, opens []float64
	for i := 0; i < cfg.pl.setups; i++ {
		if d != nil {
			d.close()
		}
		var st setupTimes
		if d, st, err = deploy(sp, in, deployOpts{seed: cfg.seed, dataDir: dataDir, opens: cfg.pl.opens}); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		setups = append(setups, st.total.Seconds())
		opens = append(opens, st.opens...)
	}
	defer d.close()
	res.add("setup_s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))

	cl := d.closed(cfg.pl.closed, cfg.pl.window)
	res.addStat("capacity_ops_s", cl.capacity(), 1)
	whole := fmt.Sprintf("all windows, %d ops", cl.ops)
	res.add("cpu_us_per_op", cl.perOp(func(w *window) float64 { return float64(w.used.cpu) * nsToUs }), whole)
	res.add("allocs_per_op", cl.perOp(func(w *window) float64 { return float64(w.used.mallocs) }), whole)
	res.add("bytes_per_op", cl.perOp(func(w *window) float64 { return float64(w.used.bytes) }), whole)
	res.addStat("read_p50_us", windowedQuantile(cl.latencies(false), 0.50), nsToUs)
	res.addStat("write_p50_us", windowedQuantile(cl.latencies(true), 0.50), nsToUs)

	d.settle()
	pc := d.paced(cfg.pl.paced)
	res.add("paced_slo_share", float64(pc.within)/float64(pc.offered),
		fmt.Sprintf("%d of %d ops offered at %.0f ops/s answered within %v of due", pc.within, pc.offered, sp.rate, pacedSLO))
	res.info = append(res.info, pc.describe())
	if late, _ := pc.genLate.quantile(0.99); late > float64(genLateLimit) {
		res.warnings = append(res.warnings, fmt.Sprintf(
			"paced phase invalid: the generator woke %.0f us late at p99 (limit %v)", late*nsToUs, genLateLimit))
	}

	d.settle()
	lags := d.visible(cfg.pl.visible, cfg.pl.window)
	res.addStat("visible_p50_us", windowedQuantile(lags, 0.50), nsToUs)
	res.addTails(opens, &cl, lags)

	res.bad = d.check()
	res.tally(d)
	return res, nil
}

// settle lets pushes in flight land, so a phase starts on an idle system.
func (d *deployment) settle() {
	_ = d.converge(3 * time.Second)
}

// print writes the run as a table, then the result line the driver reads:
// one JSON object, the last line of a single-workload run.
func (r *result) print(w io.Writer) {
	sp := r.sp
	fmt.Fprintf(w, "== %s: %s, %d pages x %d B, zipf %.1f, %.0f%% Put, paced at %.0f ops/s\n",
		sp.name, sp.preset, sp.pages, sp.pageSize, sp.zipf, sp.putShare*100, sp.rate)
	byName := map[string]value{}
	for _, v := range r.values {
		byName[v.name] = v
	}
	gated := map[string]bool{}
	for _, d := range r.gated {
		gated[d.name] = true
	}
	for _, v := range r.values {
		note := v.note
		if !gated[v.name] {
			note = "(not gated) " + note
		}
		fmt.Fprintf(w, "  %-38s %14.4f %-6s %s\n", v.name, v.v, v.unit, note)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-38s %14.6f %-6s %d failed, refused or timed out (%v) of %d attempted\n",
		"error_share", share, "share", r.failed, opTimeout, r.attempted)
	fmt.Fprintf(w, "  %-38s %14d\n", "check_failures", len(r.bad))
	for i, b := range r.bad {
		if i == maxShown {
			fmt.Fprintf(w, "    ... and %d more\n", len(r.bad)-maxShown)
			break
		}
		fmt.Fprintf(w, "    CHECK FAILED: %s\n", b)
	}
	for _, s := range r.info {
		fmt.Fprintf(w, "    %s\n", s)
	}
	for _, s := range r.warnings {
		fmt.Fprintf(w, "    WARNING: %s\n", s)
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{Correct: len(r.bad) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jv{}}
	for _, d := range r.gated {
		out.Metrics[d.name] = jv{Value: byName[d.name].v, Unit: d.unit}
	}
	line, _ := json.Marshal(out) // plain numbers and strings cannot fail to marshal
	fmt.Fprintf(w, "%s\n", line)
}

// printSpread summarises -repeat runs: per metric the smallest, median and
// largest value and (max-min)/median. This is the table that justifies each
// bound in BENCHMARK.json.
func printSpread(w io.Writer, runs []*result) {
	fmt.Fprintf(w, "== %s: spread over %d runs\n", runs[0].sp.name, len(runs))
	fmt.Fprintf(w, "  %-38s %14s %14s %14s %8s\n", "metric", "min", "median", "max", "spread")
	for i, v := range runs[0].values {
		vals := make([]float64, len(runs))
		for j, r := range runs {
			vals[j] = r.values[i].v
		}
		s := spreadOf(vals)
		fmt.Fprintf(w, "  %-38s %14.4f %14.4f %14.4f %7.1f%%\n", v.name, s.min, s.median, s.max, s.rel*100)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "workload to run: "+workloadNames()+" (default: all)")
	seed := fs.Int64("seed", 1998, "seed for the op stream, the page bodies and memnet")
	seconds := fs.Float64("seconds", 20, "seconds of measurement per run, split over the phases")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file, no end-to-end metrics")
	repeat := fs.Int("repeat", 1, "run each workload this many times and print the spread of every metric")
	quick := fs.Bool("quick", false, "smoke run: every phase a fraction of a second, numbers mean nothing")
	scratch := fs.String("scratch", ".bench_build", "directory for the WAL and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected := specs
	if *workloadName != "" {
		sp := specByName(*workloadName)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want %s)\n", *workloadName, workloadNames())
			return 2
		}
		selected = []spec{*sp}
	}
	// The load is sized for two processors; more would change what the
	// numbers mean, not make them better.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	cfg := config{seed: *seed, pl: planFor(*seconds, *quick), scratch: *scratch}
	fmt.Fprintf(out, "bench: seed %d, %s, GOMAXPROCS %d of %d CPUs, %s\n",
		*seed, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), fsName(*scratch))

	code := 0
	for i := range selected {
		sp := &selected[i]
		var runs []*result
		for n := 0; n < *repeat; n++ {
			var res *result
			var err error
			if *trace == 1 {
				res, err = runTraced(sp, cfg)
			} else {
				res, err = runWorkload(sp, cfg)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			runs = append(runs, res)
			if *repeat > 1 {
				fmt.Fprintf(out, "-- run %d of %d\n", n+1, *repeat)
			}
			res.print(out)
			if len(res.bad) > 0 {
				code = 1
			}
		}
		if *repeat > 1 {
			printSpread(out, runs)
		}
	}
	return code
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i := range specs {
		names[i] = specs[i].name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

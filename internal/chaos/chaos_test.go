package chaos

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/strategy"
)

// lossRates returns the loss-rate matrix. CI pins a single rate per job via
// CHAOS_LOSS; locally both configured rates run.
func lossRates(t *testing.T) []float64 {
	if env := os.Getenv("CHAOS_LOSS"); env != "" {
		f, err := strconv.ParseFloat(env, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_LOSS %q: %v", env, err)
		}
		return []float64{f}
	}
	return []float64{0.01, 0.1}
}

func report(t *testing.T, res *Result) {
	t.Helper()
	t.Logf("converged=%v in %v; acked=%d retries=%d reads=%d ok/%d failed; partitions=%d dropped=%d dup=%d digests=%d demands-via-digest=%d; crashes=%d recoveries=%d wal-replayed=%d torn=%d last-recovery=%v",
		res.Converged, res.ConvergeIn.Round(time.Millisecond),
		res.WritesAcked, res.WriteRetries, res.ReadsOK, res.ReadsFailed,
		res.Partitions, res.FramesDropped, res.FramesDuplicated,
		res.DigestsSent, res.DigestDemands,
		res.Crashes, res.Recoveries, res.WALReplayed, res.TornTails, res.LastRecovery.Round(time.Millisecond))
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	for _, l := range res.TraceDump {
		t.Logf("trace: %s", l)
	}
	if !res.Converged {
		t.Errorf("replicas did not converge")
	}
}

// TestConvergenceUnderLossPRAM is the harness's main scenario: the PRAM
// (conference-style, multi-writer, lazy-batched) object survives a seeded
// schedule of frame loss, duplication, and partitions; after the heal every
// replica holds the same token sets and no session guarantee was violated
// at any observed point.
func TestConvergenceUnderLossPRAM(t *testing.T) {
	for _, loss := range lossRates(t) {
		t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
			res, err := run(Scenario{
				Seed:           1998,
				Loss:           loss,
				Dup:            0.02,
				DigestInterval: 100 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			report(t, res)
			if res.DigestsSent == 0 {
				t.Errorf("digest heartbeats never fired")
			}
			if res.FramesDropped == 0 {
				t.Errorf("fault schedule injected no loss — scenario vacuous")
			}
		})
	}
}

// TestConvergenceUnderLossSequential runs the sequential (whiteboard-style)
// object through the same fault schedule; here convergence is byte-identical
// content at every replica, not just equal token sets.
func TestConvergenceUnderLossSequential(t *testing.T) {
	for _, loss := range lossRates(t) {
		t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
			res, err := run(Scenario{
				Seed:           424242,
				Strategy:       strategy.Whiteboard(),
				Loss:           loss,
				Dup:            0.02,
				DigestInterval: 100 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			report(t, res)
		})
	}
}

// TestConvergenceSeedSweep runs a small seed sweep at a middling loss rate:
// different seeds give different partition schedules, so the sweep covers
// fault timings a single seed cannot.
func TestConvergenceSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short")
	}
	seedSweep(t, strategy.Strategy{})
}

// seedSweep runs st over the sweep's seeds. It honours the CI loss matrix so
// the two legs sweep different fault intensities instead of running
// byte-identically.
func seedSweep(t *testing.T, st strategy.Strategy) {
	loss := 0.05
	if os.Getenv("CHAOS_LOSS") != "" {
		loss = lossRates(t)[0]
	}
	for _, seed := range []int64{7, 63, 511} {
		t.Run(fmt.Sprintf("seed=%d/loss=%g", seed, loss), func(t *testing.T) {
			res, err := run(Scenario{
				Seed:           seed,
				Strategy:       st,
				Loss:           loss,
				Dup:            0.01,
				OpsPerWriter:   15,
				DigestInterval: 100 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			report(t, res)
		})
	}
}

// TestConvergenceUnderLossInvalidate is the invalidation leg: the popular
// event page opened to every writer, so every write reaches the caches as an
// invalidation and its content only by a fetch — page by page (partial) or
// whole (full). It runs the main schedule at each loss rate and the seed
// sweep; cache2 fetches through the mirror, so a page the mirror hands out
// must carry what it holds.
func TestConvergenceUnderLossInvalidate(t *testing.T) {
	for _, transfer := range []strategy.Transfer{strategy.TransferPartial, strategy.TransferFull} {
		st := strategy.PopularEventPage()
		st.Writers = strategy.MultipleWriters
		st.AccessTransfer = transfer
		t.Run(transfer.String(), func(t *testing.T) {
			for _, loss := range lossRates(t) {
				t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
					res, err := run(Scenario{
						Seed:           1998,
						Strategy:       st,
						Loss:           loss,
						Dup:            0.02,
						DigestInterval: 100 * time.Millisecond,
					})
					if err != nil {
						t.Fatal(err)
					}
					report(t, res)
				})
			}
			if !testing.Short() {
				seedSweep(t, st)
			}
		})
	}
}

// --- checker self-tests -------------------------------------------------------

// The harness is only as trustworthy as its checkers: feed them synthetic
// violations and make sure each one actually fires.

func TestCheckerCatchesGap(t *testing.T) {
	rec := newRecorder()
	checkPerClientOrder([]token{{1, 1}, {1, 3}}, "synthetic", rec)
	if len(rec.take()) == 0 {
		t.Fatalf("per-client gap not detected")
	}
}

func TestCheckerCatchesDuplicate(t *testing.T) {
	rec := newRecorder()
	checkPerClientOrder([]token{{1, 1}, {1, 2}, {1, 2}}, "synthetic", rec)
	if len(rec.take()) == 0 {
		t.Fatalf("duplicate apply not detected")
	}
}

func TestCheckerCatchesReorder(t *testing.T) {
	rec := newRecorder()
	checkPerClientOrder([]token{{1, 2}, {1, 1}}, "synthetic", rec)
	if len(rec.take()) == 0 {
		t.Fatalf("reorder not detected")
	}
}

func TestCheckerAcceptsInterleavedClients(t *testing.T) {
	rec := newRecorder()
	checkPerClientOrder([]token{{1, 1}, {2, 1}, {1, 2}, {2, 2}}, "synthetic", rec)
	if vs := rec.take(); len(vs) != 0 {
		t.Fatalf("valid interleaving flagged: %v", vs)
	}
}

func TestCheckerCatchesWFRViolation(t *testing.T) {
	rec := newRecorder()
	// The WFR client read {1,1} and then wrote {4,1}; an observation showing
	// {4,1} without {1,1} violates Writes Follow Reads.
	rec.recordWFRDeps(token{4, 1}, []token{{1, 1}})
	rec.observe("obs", "cacheX", "pg0", "c4.1;")
	rec.checkObservations()
	if len(rec.take()) == 0 {
		t.Fatalf("WFR violation not detected")
	}
	// And the healthy ordering passes.
	rec2 := newRecorder()
	rec2.recordWFRDeps(token{4, 1}, []token{{1, 1}})
	rec2.observe("obs", "cacheX", "pg0", "c1.1;c4.1;")
	rec2.checkObservations()
	if vs := rec2.take(); len(vs) != 0 {
		t.Fatalf("valid WFR history flagged: %v", vs)
	}
}

func TestCheckerCatchesMalformedContent(t *testing.T) {
	rec := newRecorder()
	parseTokens("garbage", rec, "synthetic")
	if len(rec.take()) == 0 {
		t.Fatalf("malformed content not detected")
	}
}

func TestTokenRoundTrip(t *testing.T) {
	rec := newRecorder()
	in := []token{{1, 1}, {2, 1}, {1, 2}, {12, 34}}
	var content string
	for _, tok := range in {
		content += tok.String()
	}
	out := parseTokens(content, rec, "round-trip")
	if vs := rec.take(); len(vs) != 0 {
		t.Fatalf("round trip flagged: %v", vs)
	}
	if len(out) != len(in) {
		t.Fatalf("parsed %d tokens, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("token %d: got %v want %v", i, out[i], in[i])
		}
	}
}

// --- watchdog self-tests ------------------------------------------------------

// A finished workload returns promptly regardless of counters.
func TestAwaitWritersFinishes(t *testing.T) {
	done := make(chan struct{})
	close(done)
	if !awaitWriters(done, &opCounts{}, time.Minute) {
		t.Fatal("finished workload reported as stalled")
	}
}

// A workload making no progress dies within roughly base, not the hard cap.
func TestAwaitWritersStallsWithoutProgress(t *testing.T) {
	done := make(chan struct{})
	start := time.Now()
	if awaitWriters(done, &opCounts{}, 300*time.Millisecond) {
		t.Fatal("stalled workload reported as finished")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("stall verdict took %v, want ~base", el)
	}
}

// Counter progress extends the deadline past base — the PR 8 torture-run
// failure shape: a healthy-but-slow workload under CPU overcommit must not
// be declared dead while its ops are still landing.
func TestAwaitWritersProgressExtends(t *testing.T) {
	done := make(chan struct{})
	counts := &opCounts{}
	go func() { // steady progress for ~3x base
		defer close(done)
		for i := 0; i < 6; i++ {
			counts.acked.Add(1)
			time.Sleep(150 * time.Millisecond)
		}
	}()
	if !awaitWriters(done, counts, 300*time.Millisecond) {
		t.Fatal("progressing workload hit the watchdog")
	}
}

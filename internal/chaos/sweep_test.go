//go:build goexperiment.synctest

package chaos

import (
	"fmt"
	"testing"
	"testing/synctest"
	"time"

	"repro/internal/strategy"
)

// sweepSeeds is how many seeds each leg of the bubbled sweep runs.
const sweepSeeds = 200

// invalidation is the popular event page opened to every writer: every write
// reaches the caches as an invalidation, and its content only by a fetch of
// one page (partial) or of the whole object (full).
func invalidation(transfer strategy.Transfer) strategy.Strategy {
	st := strategy.PopularEventPage()
	st.Writers = strategy.MultipleWriters
	st.AccessTransfer = transfer
	return st
}

// TestBubbledSweep runs every memnet leg over sweepSeeds seeds, each inside a
// synctest bubble: time is virtual, so a schedule costs its CPU work and not
// its sleeps and timeouts, and box load cannot stretch a deadline. Build it
// with GOEXPERIMENT=synctest:
//
//	GOEXPERIMENT=synctest go test -count=1 -run '^TestBubbledSweep$' ./internal/chaos/
//
// The legs are the tier-1 schedules (PRAM, sequential, and invalidation with
// partial and full transfer under partitions; the mirror-kill re-parent) plus
// the re-parent schedule under invalidation: a re-parented cache keeps marks
// whose vectors came from its old parent, and the new parent's transfers must
// meet them.
func TestBubbledSweep(t *testing.T) {
	partitions := Scenario{Loss: 0.05, Dup: 0.01, OpsPerWriter: 15, DigestInterval: 100 * time.Millisecond}
	mirrorKill := Scenario{Fault: MirrorKill, Loss: 0.01, ReparentAfter: 2}
	legs := []struct {
		name string
		s    Scenario
		st   strategy.Strategy
	}{
		{"pram", partitions, strategy.Strategy{}},
		{"sequential", partitions, strategy.Whiteboard()},
		{"invalidate-partial", partitions, invalidation(strategy.TransferPartial)},
		{"invalidate-full", partitions, invalidation(strategy.TransferFull)},
		{"mirror-kill", mirrorKill, strategy.Strategy{}},
		{"mirror-kill-invalidate-partial", mirrorKill, invalidation(strategy.TransferPartial)},
		{"mirror-kill-invalidate-full", mirrorKill, invalidation(strategy.TransferFull)},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= sweepSeeds; seed++ {
				s := leg.s
				s.Seed, s.Strategy = seed, leg.st
				var res *Result
				var err error
				synctest.Run(func() { res, err = run(s) })
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if msg := sweepVerdict(s, res); msg != "" {
					t.Errorf("seed %d: %s", seed, msg)
					report(t, res)
				}
			}
		})
	}
}

// sweepVerdict says what is wrong with one schedule's result, or "".
func sweepVerdict(s Scenario, res *Result) string {
	switch {
	case len(res.Violations) > 0 || !res.Converged:
		return fmt.Sprintf("converged=%v, %d violations", res.Converged, len(res.Violations))
	case s.Fault == MirrorKill && (res.ReparentsDone == 0 || !res.OrphanConverged):
		return fmt.Sprintf("mirror killed but reparents=%d orphan-converged=%v", res.ReparentsDone, res.OrphanConverged)
	}
	return ""
}

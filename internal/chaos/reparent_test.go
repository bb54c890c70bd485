package chaos

import (
	"fmt"
	"testing"
	"time"
)

// TestMirrorKillReparent is the self-healing scenario of the re-parent
// schedule: the mirror is killed permanently a third of the way into the
// write stream, its cache child must detect the silence, re-subscribe at the
// permanent store, and anti-entropy the gap — while the full client cast
// keeps writing and every session guarantee stays checked. Acked writes must
// survive, the survivors must converge, and the repair must be a real
// re-parent (counter ≥ 1), not luck.
func TestMirrorKillReparent(t *testing.T) {
	for _, loss := range lossRates(t) {
		t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
			res, err := run(Scenario{
				Fault:          MirrorKill,
				Seed:           1998,
				Loss:           loss,
				DigestInterval: 25 * time.Millisecond,
				ReparentAfter:  2,
			})
			if err != nil {
				t.Fatal(err)
			}
			report(t, res)
			t.Logf("reparents=%d missed-digests=%d orphan-converged=%v",
				res.ReparentsDone, res.ParentMissedDigests, res.OrphanConverged)
			if res.ReparentsDone == 0 {
				t.Errorf("mirror died but no store completed a re-parent handshake")
			}
			if res.ParentMissedDigests == 0 {
				t.Errorf("parent-watch never recorded a missed digest period")
			}
			if !res.OrphanConverged {
				t.Errorf("the orphaned cache never reached the permanent store's state")
			}
		})
	}
}

// TestMirrorKillWithoutReparentingStalls is the negative control: the same
// kill with re-parenting disabled must leave the orphaned cache stranded on
// its dead parent — proving the positive run's convergence is the repair
// machinery's doing, not a property the topology has for free.
func TestMirrorKillWithoutReparentingStalls(t *testing.T) {
	res, err := run(Scenario{
		Fault:          MirrorKill,
		Seed:           1998,
		Loss:           0.01,
		DigestInterval: 25 * time.Millisecond,
		ReparentAfter:  0, // repair disabled
		ConvergeWithin: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("converged=%v orphan-converged=%v reparents=%d acked=%d",
		res.Converged, res.OrphanConverged, res.ReparentsDone, res.WritesAcked)
	if res.Converged {
		t.Errorf("survivors converged with re-parenting disabled — the positive scenario proves nothing")
	}
	if res.OrphanConverged {
		t.Errorf("orphaned cache reached the permanent store's state without a parent")
	}
	if res.ReparentsDone != 0 {
		t.Errorf("ReparentsDone = %d with re-parenting disabled", res.ReparentsDone)
	}
}

package chaos

import (
	"fmt"
	"testing"
)

// TestCrashRestartKill9 is the durability tentpole scenario: the permanent
// store — durable, fsync=always, over real TCP — is kill -9'd twice in the
// middle of the write stream and restarted from disk each time. After the
// dust settles every acknowledged write must exist at every replica (zero
// acked-write loss), every session guarantee must have held at every
// observed point, and a writer identity re-bound at the recovered store
// must resume its write sequence where the dead incarnation left it.
func TestCrashRestartKill9(t *testing.T) {
	res, err := run(Scenario{
		Fault:   CrashRestart,
		Seed:    7,
		DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	report(t, res)
	if res.Crashes == 0 {
		t.Errorf("no crash cycle ran — scenario vacuous")
	}
	if res.Recoveries != res.Crashes {
		t.Errorf("recoveries=%d != crashes=%d: a restart never opened its gate", res.Recoveries, res.Crashes)
	}
	if res.WALReplayed == 0 {
		t.Errorf("restarts replayed zero WAL records — nothing was durable before the kill")
	}
}

// TestCrashRestartSeedSweep varies the kill timing: different seeds crash
// the store at different points of the write stream (mid-ack, mid-
// dissemination, mid-admission), covering windows a single seed cannot.
func TestCrashRestartSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash seed sweep skipped in -short")
	}
	for _, seed := range []int64{1998, 511} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res, err := run(Scenario{
				Fault:   CrashRestart,
				Seed:    seed,
				Crashes: 1,
				DataDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			report(t, res)
			if res.Crashes == 0 {
				t.Errorf("no crash cycle ran — scenario vacuous")
			}
		})
	}
}

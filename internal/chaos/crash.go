// The crash-restart schedule (CrashRestart): the tree is deployed on
// loopback TCP endpoints and the permanent store is durable (WAL + snapshots
// under Scenario.DataDir, fsync=always). While the client cast writes, the
// coordinator repeatedly kills the permanent store the way kill -9 would —
// event loop abandoned mid-flight, WAL neither flushed nor closed, listener
// torn down — then restarts it on the same address from disk alone. The
// restarted store replays snapshot + WAL, anti-entropies its tail from its
// children behind a StatusRetry gate, and resumes service.
//
// A write that straddles an outage retries under the same write identifier
// until the restarted store either re-acks it (it was durable) or admits it
// fresh, so the ack bookkeeping stays exact across kill -9, and the final
// checks' "every acked write at every replica" is zero acked-write loss
// under wal.SyncAlways. The reused-identity floor probe is this schedule's
// own check.

package chaos

import (
	"errors"
	"time"

	"repro/internal/replication"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/wal"
)

// loopback is CrashRestart's fabric, loopback tcpnet; a zero Crashes runs
// two cycles.
func (r *runner) loopback() error {
	if r.DataDir == "" {
		return errors.New("chaos: CrashRestart needs a DataDir")
	}
	if r.Crashes == 0 {
		r.Crashes = 2
	}
	r.fabric = tcpnet.NewFabric("")
	return nil
}

// durablePerm makes the permanent store durable under DataDir, fsync=always.
func (r *runner) durablePerm(i int, cfg *store.Config) {
	if tree[i].parent == "" {
		cfg.DataDir = r.DataDir
		cfg.Tuning.Durability = replication.Durability{Fsync: wal.SyncAlways, RecoveryGrace: recoveryGrace}
	}
}

// crashCycles is CrashRestart's coordinator: kill -9, hold the address dark
// for a beat so in-flight writes really fail, restart from disk, wait out
// the recovery gate, collect the restart's replay accounting.
func (r *runner) crashCycles() {
	addr := r.permEp.Addr()
	for i := 0; i < r.Crashes && !r.writersDone.Load() && !r.abort.Load(); i++ {
		// Strike early the first time (loopback TCP drains the write stream
		// fast), then give the recovered deployment a beat of healthy
		// traffic before the next kill.
		lead := 30 + r.rng.Intn(50)
		if i > 0 {
			lead = 120 + r.rng.Intn(180)
		}
		time.Sleep(time.Duration(lead) * time.Millisecond)
		if r.writersDone.Load() {
			return
		}
		r.stores["perm"].Crash()
		_ = r.permEp.Close()
		r.res.Crashes++
		time.Sleep(time.Duration(40+r.rng.Intn(80)) * time.Millisecond)

		ep, err := relisten(r.fabric, addr)
		if err != nil {
			r.rec.violatef("restart %d: re-listen on %s: %v", i+1, addr, err)
			r.abort.Store(true)
			return
		}
		r.permEp = ep
		if err := r.startStore(0, ep); err != nil {
			r.rec.violatef("restart %d: recovery host failed: %v", i+1, err)
			r.abort.Store(true)
			return
		}
		perm := r.stores["perm"]
		if !awaitRecovered(perm, recoveryGrace+2*time.Second) {
			r.rec.violatef("restart %d: recovery gate never opened", i+1)
			continue
		}
		r.res.Recoveries++
		if rs, err := perm.Stats(obj); err == nil {
			r.res.WALReplayed += rs.WALReplayed
			r.res.TornTails += rs.WALTornTail
			r.res.LastRecovery = time.Duration(rs.RecoveryNanos)
		}
	}
}

// floorProbe checks the reused-identity floor: re-bind writer 1's pinned
// identity at the recovered store and write the NEXT token in its sequence.
// The bind reply's version vector must seed the session past every write the
// dead incarnations acked; if recovery lost that floor, this write goes out
// under an already-admitted identifier and is silently absorbed as a replay
// — which this probe, and the acked-token sweep after convergence, catch
// missing.
func (r *runner) floorProbe() {
	floorSeq := 0
	for tok := range r.rec.ackedByPage()["pg0"] {
		if tok.label == 1 && tok.seq > floorSeq {
			floorSeq = tok.seq
		}
	}
	perm := r.stores["perm"]
	w1b, err := r.bind("w1b", perm.Addr(), 1, nil)
	if err != nil {
		r.rec.violatef("re-bind of pinned identity 1 after recovery: %v", err)
		return
	}
	tok := token{1, floorSeq + 1}
	if !appendToken(w1b, "pg0", tok, r.counts, r.rec) {
		return
	}
	r.rec.recordAck(tok, "pg0")
	if content, err := localPage(perm, "pg0"); err == nil && !tokenSet(parseTokens(content, r.rec, "floor probe"))[tok] {
		r.rec.violatef("write-seq floor broken: post-recovery write %v from reused identity vanished (absorbed as a replay); perm has %q", tok, content)
	}
}

// relisten re-creates the permanent store's endpoint on its original
// address. The retry loop absorbs the OS briefly holding the port after the
// dead incarnation's listener closed.
func relisten(fab transport.Fabric, addr string) (transport.Endpoint, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ep, err := fab.Endpoint(addr)
		if err == nil {
			return ep, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitRecovered polls a restarted store until its recovery gate opens.
func awaitRecovered(s *store.Store, within time.Duration) bool {
	deadline := time.Now().Add(within)
	for {
		d, err := s.Durability(obj)
		if err == nil && !d.Recovering {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

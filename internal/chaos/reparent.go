// The re-parent schedule (MirrorKill): kill the mirror permanently
// mid-write-stream and prove the tree heals itself. Unlike the crash-restart
// schedule (crash.go), the dead store never comes back — its child must
// notice the silence (missed digest heartbeats), re-resolve the object,
// re-subscribe at the permanent store, and anti-entropy the gap, all while
// the six-client cast keeps writing and the session-guarantee recorder
// watches every read.

package chaos

import (
	"time"

	"repro/internal/ids"
	"repro/internal/naming"
	"repro/internal/replication"
	"repro/internal/store"
)

// directoryNet is MirrorKill's fabric, lossyNet's, plus the directory every
// store registers at and resolves replacement parents through.
func (r *runner) directoryNet() error {
	r.ns = naming.New()
	return r.lossyNet()
}

// resolveThroughDirectory has every store re-resolve a dead parent through
// the directory.
func (r *runner) resolveThroughDirectory(_ int, cfg *store.Config) {
	cfg.ResolveParent = r.resolve
}

// resolve is every store's parent resolver under MirrorKill: the directory's
// entries for the object. The runner plays the directory's liveness role (in
// a deployment the lease TTL does this) by deregistering the mirror when it
// is killed.
func (r *runner) resolve(object ids.ObjectID) []replication.ParentCandidate {
	rec, ok := r.ns.Record(object)
	if !ok {
		return nil
	}
	out := make([]replication.ParentCandidate, 0, len(rec.Entries))
	for _, e := range rec.Entries {
		out = append(out, replication.ParentCandidate{Addr: e.Addr, Role: e.Role})
	}
	return out
}

// killMirror is the assassin: once a third of the write stream is acked,
// SIGKILL the mirror (Crash stops its event loop without any farewell
// traffic — an abrupt process death, not a clean unsubscribe) and retire it
// from resolution, as the lease TTL would in a deployment.
func (r *runner) killMirror() {
	// Four writing clients; kill a third of the way into the stream.
	killAfter := int64(4 * r.OpsPerWriter / 3)
	for r.counts.acked.Load() < killAfter && !r.writersDone.Load() {
		time.Sleep(time.Millisecond)
	}
	mirror := r.stores["mirror"]
	mirror.Crash()
	r.ns.Deregister(obj, mirror.Addr())
}

// retireMirror leaves convergence to the survivors: the mirror is gone for
// good.
func (r *runner) retireMirror() {
	_ = r.stores["mirror"].Close()
	delete(r.stores, "mirror")
}

// reparented is MirrorKill's part of convergence: with re-parenting on, the
// orphan has completed its handshake with a new parent. The states can agree
// first, since the new parent pushes to a child as soon as its subscribe
// arrives, while a lost ack is re-sent only after DemandRetry.
func (r *runner) reparented() string {
	if r.ReparentAfter == 0 {
		return ""
	}
	if st, err := r.stores["cache2"].Stats(obj); err != nil || st.ReparentsDone == 0 {
		return "cache2 has not completed a re-parent handshake"
	}
	return ""
}

// checkOrphan asks whether cache2 specifically holds the permanent store's
// state. (Converged already implies it; kept separate so the negative
// control can report exactly what stalled.)
func (r *runner) checkOrphan() {
	r.res.OrphanConverged = true
	for _, page := range pages {
		pc, err1 := localPage(r.stores["perm"], page)
		cc, err2 := localPage(r.stores["cache2"], page)
		if err1 != nil || err2 != nil ||
			!sameTokenSet(parseTokens(pc, r.rec, "perm"), parseTokens(cc, r.rec, "cache2")) {
			r.res.OrphanConverged = false
		}
	}
}

package loadgen

import (
	"time"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/replication"
	"repro/internal/semantics/webdoc"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/transport"
)

// Deploy hosts a single permanent webdoc store at addr on the fabric — the
// self-contained deployment the memnet mode drives. The strategy is the
// conference profile with the write set widened to the writer pool
// (conference proper is single-writer and would reject every pool identity
// but the first). The caller owns the returned store's lifecycle.
func Deploy(f transport.Fabric, addr string, obj ids.ObjectID) (*store.Store, error) {
	ep, err := f.Endpoint(addr)
	if err != nil {
		return nil, err
	}
	st := strategy.Conference(10 * time.Millisecond)
	st.Writers = strategy.MultipleWriters
	st.ObjectOutdate = strategy.Demand
	s := store.New(store.Config{
		ID:       1,
		Role:     replication.RolePermanent,
		Endpoint: ep,
		Tuning:   replication.Tuning{ReadTimeout: 300 * time.Millisecond, DigestInterval: 100 * time.Millisecond},
	})
	err = s.Host(store.HostConfig{
		Object: obj, Semantics: webdoc.New(), Strat: st,
		Session: []coherence.ClientModel{
			coherence.ReadYourWrites, coherence.MonotonicReads,
			coherence.MonotonicWrites, coherence.WritesFollowReads,
		},
	})
	if err != nil {
		_ = s.Close()
		return nil, err
	}
	return s, nil
}

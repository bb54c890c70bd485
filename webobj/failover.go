package webobj

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/naming"
)

// FailoverConfig tunes the client-side retry loop shared by the typed Open
// calls and every read/write on a bound handle. The zero value means the
// defaults below; WithFailover overrides them system-wide.
type FailoverConfig struct {
	// Attempts bounds how many times one operation is tried (first try
	// included; default 5, minimum 1).
	Attempts int
	// BaseDelay is the sleep before the first retry (default 25ms); each
	// further retry doubles it up to MaxDelay (default 1s). Every sleep is
	// jittered by up to half its length so a herd of clients failing over
	// from the same dead replica does not re-dial in lockstep.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Deadline bounds the whole loop: once exceeded, the last error is
	// returned even with attempts left (default 15s).
	Deadline time.Duration
}

// WithFailover tunes client-side failover for every handle this system
// opens.
func WithFailover(f FailoverConfig) SystemOption {
	return func(s *System) { s.failover = f }
}

// withDefaults fills zero fields with the documented defaults.
func (f FailoverConfig) withDefaults() FailoverConfig {
	if f.Attempts < 1 {
		f.Attempts = 5
	}
	if f.BaseDelay <= 0 {
		f.BaseDelay = 25 * time.Millisecond
	}
	if f.MaxDelay <= 0 {
		f.MaxDelay = time.Second
	}
	if f.Deadline <= 0 {
		f.Deadline = 15 * time.Second
	}
	return f
}

// retryVerdict classifies one failed attempt.
type retryVerdict int

const (
	// verdictTerminal: the error is not a liveness problem (bad request,
	// semantics mismatch, closed handle); retrying cannot help.
	verdictTerminal retryVerdict = iota
	// verdictRetrySame: the store answered StatusRetry (recovering, or a
	// session requirement not yet satisfiable); it is alive, so back off
	// and re-ask the same replica.
	verdictRetrySame
	// verdictRetryElsewhere: no answer at all (timeout, transport failure)
	// or the replica no longer hosts the object; re-resolve and try
	// another contact point.
	verdictRetryElsewhere
)

// classifyFailure maps a bind/invoke error onto a retry verdict.
func classifyFailure(err error) retryVerdict {
	if errors.Is(err, core.ErrClosed) {
		return verdictTerminal
	}
	if errors.Is(err, core.ErrTimeout) {
		return verdictRetryElsewhere
	}
	var re *core.RemoteError
	if errors.As(err, &re) {
		switch re.Status {
		case msg.StatusRetry:
			return verdictRetrySame
		case msg.StatusNotFound:
			// The replica dropped the object (Drop, or a daemon that came
			// back empty); another contact point may still host it.
			return verdictRetryElsewhere
		default:
			return verdictTerminal
		}
	}
	// Anything else is a transport-level failure (endpoint gone,
	// connection refused): the contact point is unreachable.
	return verdictRetryElsewhere
}

// backoff is one operation's jittered-exponential sleep schedule.
type backoff struct {
	cfg      FailoverConfig
	deadline time.Time
	delay    time.Duration
	attempt  int
}

func newBackoff(cfg FailoverConfig) *backoff {
	return &backoff{cfg: cfg, deadline: time.Now().Add(cfg.Deadline), delay: cfg.BaseDelay}
}

// next reports whether another attempt is allowed, sleeping the jittered
// delay first. It returns false once the attempt budget or the deadline is
// spent.
func (b *backoff) next() bool {
	b.attempt++
	if b.attempt >= b.cfg.Attempts {
		return false
	}
	d := b.delay + jitterDelay(b.delay/2)
	if remaining := time.Until(b.deadline); remaining <= 0 {
		return false
	} else if d > remaining {
		d = remaining
	}
	time.Sleep(d)
	b.delay *= 2
	if b.delay > b.cfg.MaxDelay {
		b.delay = b.cfg.MaxDelay
	}
	return !time.Now().After(b.deadline)
}

// failoverRNG jitters retry delays; seeded per process, guarded for
// concurrent handles.
var failoverRNG = struct {
	mu sync.Mutex
	r  *rand.Rand
}{r: rand.New(rand.NewSource(time.Now().UnixNano()))}

// jitterDelay draws a uniform duration in [0, max].
func jitterDelay(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	failoverRNG.mu.Lock()
	defer failoverRNG.mu.Unlock()
	return time.Duration(failoverRNG.r.Int63n(int64(max) + 1))
}

// invoke is the failure-hardened call path every typed handle method uses:
// it retries retryable failures (timeouts, transport errors, StatusRetry
// from a recovering store) under the system's FailoverConfig, re-resolving
// and rebinding to another live replica when the bound one stops
// answering. Writes are safe to re-issue: write identifiers are
// deduplicated at-most-once by every store on the path. The reply is the
// caller's to decode and then Release.
func (b *binding) invoke(inv msg.Invocation) (*msg.Message, error) {
	out, err := b.proxy.Call(inv)
	if err == nil || b.sys == nil {
		return out, err
	}
	bo := newBackoff(b.failover)
	for {
		v := classifyFailure(err)
		if v == verdictTerminal {
			return nil, err
		}
		if !bo.next() {
			return nil, err
		}
		if v == verdictRetryElsewhere {
			b.rebindElsewhere()
		}
		out, err = b.proxy.Call(inv)
		if err == nil {
			return out, nil
		}
	}
}

// rebindElsewhere re-resolves the object and moves the proxy to the best
// contact point other than the one that just failed; with no alternative
// it re-dials the same address (the store may have restarted). Best
// effort: a failed rebind leaves the next invoke to try again.
func (b *binding) rebindElsewhere() {
	if b.pinned {
		return // an At()-pinned handle never migrates
	}
	cur := b.proxy.StoreAddr()
	b.sys.res.Invalidate(b.object)
	rec, err := b.sys.res.Resolve(b.object)
	if err != nil {
		return
	}
	pick, ok := naming.PickEntry(filterAddr(rec.Entries, cur))
	if !ok {
		pick, ok = naming.PickEntry(rec.Entries)
	}
	if !ok {
		return
	}
	_ = b.proxy.Rebind(pick.Addr)
}

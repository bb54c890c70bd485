package strategy

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/coherence"
)

// Marshal renders a strategy as a compact, order-stable text form suitable
// for name records and manifests: "model=pram,prop=update,scope=all,...".
// Parse inverts it. The text form carries the full parameter set (not just a
// preset name), so custom strategies survive a trip through the name server.
func Marshal(s Strategy) string {
	var b strings.Builder
	b.Grow(128)
	fmt.Fprintf(&b, "model=%s", modelNames[s.Model])
	fmt.Fprintf(&b, ",prop=%d", int(s.Propagation))
	fmt.Fprintf(&b, ",scope=%d", int(s.Scope))
	fmt.Fprintf(&b, ",writers=%d", int(s.Writers))
	fmt.Fprintf(&b, ",init=%d", int(s.Initiative))
	fmt.Fprintf(&b, ",instant=%d", int(s.Instant))
	fmt.Fprintf(&b, ",access=%d", int(s.AccessTransfer))
	fmt.Fprintf(&b, ",coh=%d", int(s.CoherenceTransfer))
	fmt.Fprintf(&b, ",oout=%d", int(s.ObjectOutdate))
	fmt.Fprintf(&b, ",cout=%d", int(s.ClientOutdate))
	if s.LazyInterval > 0 {
		fmt.Fprintf(&b, ",lazy=%s", s.LazyInterval)
	}
	if s.PullInterval > 0 {
		fmt.Fprintf(&b, ",pull=%s", s.PullInterval)
	}
	return b.String()
}

// modelNames maps coherence models to their stable wire names. The model is
// the one field carried by name rather than ordinal: it defines the
// object's contract with clients, so a decoding mismatch should be legible.
var modelNames = map[coherence.Model]string{
	coherence.Sequential: "sequential",
	coherence.PRAM:       "pram",
	coherence.FIFO:       "fifo",
	coherence.Causal:     "causal",
	coherence.Eventual:   "eventual",
}

// Parse inverts Marshal. The result is validated; a record whose strategy
// does not pass Validate is rejected at parse time rather than at replica
// installation.
func Parse(text string) (Strategy, error) {
	var s Strategy
	if text == "" {
		return s, fmt.Errorf("strategy: empty encoded strategy")
	}
	for _, kv := range strings.Split(text, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return s, fmt.Errorf("strategy: malformed field %q", kv)
		}
		switch k {
		case "model":
			found := false
			for m, name := range modelNames {
				if name == v {
					s.Model = m
					found = true
					break
				}
			}
			if !found {
				return s, fmt.Errorf("strategy: unknown model %q", v)
			}
		case "lazy", "pull":
			d, err := time.ParseDuration(v)
			if err != nil {
				return s, fmt.Errorf("strategy: bad %s interval %q: %v", k, v, err)
			}
			if d < 0 {
				// Marshal writes no interval below zero back.
				return s, fmt.Errorf("strategy: negative %s interval %q", k, v)
			}
			if k == "lazy" {
				s.LazyInterval = d
			} else {
				s.PullInterval = d
			}
		default:
			n, err := strconv.Atoi(v)
			if err != nil {
				return s, fmt.Errorf("strategy: bad field %s=%q", k, v)
			}
			switch k {
			case "prop":
				s.Propagation = Propagation(n)
			case "scope":
				s.Scope = StoreScope(n)
			case "writers":
				s.Writers = WriteSet(n)
			case "init":
				s.Initiative = Initiative(n)
			case "instant":
				s.Instant = Instant(n)
			case "access":
				s.AccessTransfer = Transfer(n)
			case "coh":
				s.CoherenceTransfer = CoherenceTransfer(n)
			case "oout":
				s.ObjectOutdate = Reaction(n)
			case "cout":
				s.ClientOutdate = Reaction(n)
			default:
				return s, fmt.Errorf("strategy: unknown field %q", k)
			}
		}
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

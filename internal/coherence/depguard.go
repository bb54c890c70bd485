package coherence

import (
	"repro/internal/ids"
	"repro/internal/msg"
)

// DepGuard wraps an ordering engine and additionally enforces explicit
// write dependencies (Update.Deps) before handing updates to the inner
// engine. It realises the paper's observation that "when a client binds to
// a store and requests support for some client-based coherence model, the
// replication subobject of the store is easily augmented to integrate the
// implementation of the new coherence model": stores whose object-based
// model is too weak to order dependent writes are wrapped with a DepGuard
// when a client asks for client-causal (Writes Follow Reads) or client-PRAM
// (Monotonic Writes) support. NewEngine builds the causal model the same
// way, as a DepGuard over PRAM.
type DepGuard struct {
	inner  Engine
	model  Model
	buffer []*Update
	out    []*Update // Submit's result, reused (the inner engine reuses its own)
}

var _ Engine = (*DepGuard)(nil)

// NewDepGuard wraps inner with dependency enforcement, reporting inner's
// model.
func NewDepGuard(inner Engine) *DepGuard { return &DepGuard{inner: inner, model: inner.Model()} }

// Model reports the guarded model.
func (g *DepGuard) Model() Model { return g.model }

// Submit holds u until the inner engine's applied vector covers u's
// dependency vector (excluding the writer's own component, which the inner
// engine orders itself), then forwards it. Every forwarded update drains the
// buffer, released or not: an eventual write that loses its LWW race covers
// its WiD without being released, and a Seed covers dependencies silently.
func (g *DepGuard) Submit(u *Update) []*Update {
	if !g.satisfied(u) {
		g.buffer = append(g.buffer, u)
		return nil
	}
	released := g.inner.Submit(u)
	if len(g.buffer) == 0 {
		return released
	}
	g.out = g.drain(append(g.out[:0], released...))
	if len(g.out) == 0 {
		return nil
	}
	return g.out
}

// satisfied checks coverage of u's non-self dependencies.
func (g *DepGuard) satisfied(u *Update) bool {
	ok := true
	u.Deps.Each(func(c ids.ClientID, s uint64) bool {
		// Own-component ordering is the inner engine's job.
		ok = c == u.Write.Client || g.inner.Covers(ids.WiD{Client: c, Seq: s})
		return ok
	})
	return ok
}

// drain appends to out what the buffered updates whose dependencies are now
// covered release.
func (g *DepGuard) drain(out []*Update) []*Update {
	for progress := true; progress; {
		progress = false
		rest := g.buffer[:0]
		for _, u := range g.buffer {
			if g.satisfied(u) {
				out = append(out, g.inner.Submit(u)...)
				progress = true
			} else {
				rest = append(rest, u)
			}
		}
		g.buffer = rest
	}
	return out
}

// Applied reports the inner engine's applied vector.
func (g *DepGuard) Applied() msg.Vec { return g.inner.Applied() }

// Covers implements Engine.
func (g *DepGuard) Covers(w ids.WiD) bool { return g.inner.Covers(w) }

// Pending counts both guard-buffered and inner-buffered updates.
func (g *DepGuard) Pending() int { return len(g.buffer) + g.inner.Pending() }

// State implements Engine: the inner engine's.
func (g *DepGuard) State() *State { return g.inner.State() }

// Seed implements Engine by delegating to the inner engine. Buffered updates
// whose dependencies the seed covers go out with the next forwarded Submit:
// releasing them here would bypass the caller's apply path. Seed drops only
// the updates it made stale.
func (g *DepGuard) Seed(s *State) {
	g.inner.Seed(s)
	rest := g.buffer[:0]
	for _, u := range g.buffer {
		if !g.inner.Covers(u.Write) {
			rest = append(rest, u)
		}
	}
	g.buffer = rest
}

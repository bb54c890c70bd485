// Package control implements the control sub-object of the Globe
// local-object composition (Figure 1): it "takes care of invocations from
// client processes, and controls the interaction between the semantics
// object and the replication object". Concretely it classifies marshalled
// invocations using the semantics object's method table, guards the
// replication object from non-write operations, and performs the actual
// semantics calls and state transfers on the replication object's behalf.
package control

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/msg"
	"repro/internal/semantics"
)

// Control glues one semantics object to one replication object.
type Control struct {
	sem   semantics.Object
	table *semantics.Table
}

// New creates a control object for the given semantics object.
func New(sem semantics.Object) *Control {
	return &Control{sem: sem, table: semantics.NewTable(sem)}
}

// Semantics returns the underlying semantics object.
func (c *Control) Semantics() semantics.Object { return c.sem }

// IsWrite classifies a method using the semantics method table.
func (c *Control) IsWrite(method uint16) bool { return c.table.IsWrite(method) }

// AppendRead executes a read invocation against the local semantics object
// and appends the marshalled result to dst. Write methods are rejected: they
// must travel through the replication object's ordering machinery. A replica
// appends into a buffer it reuses for every reply it sends.
func (c *Control) AppendRead(dst []byte, inv msg.Invocation) ([]byte, error) {
	if c.table.IsWrite(inv.Method) {
		return nil, fmt.Errorf("control: method %d is a write, not servable as read", inv.Method)
	}
	return c.sem.AppendRead(dst, inv)
}

// ServeRead is AppendRead into a buffer of the caller's own.
func (c *Control) ServeRead(inv msg.Invocation) ([]byte, error) { return c.AppendRead(nil, inv) }

// ApplyOp applies an ordered write update to the semantics object. The update
// is the replica's own (the replication object copied it off its frame, or
// read it from its log) and stays unchanged from here on, so the semantics
// object may keep u.Inv.Args as state instead of copying them.
func (c *Control) ApplyOp(u *coherence.Update) error {
	if u.Inv.Method == semantics.MethodNoop {
		// A gap-seal no-op (see semantics.MethodNoop): it exists only to
		// occupy its write ID in the per-client order, so it applies by
		// doing nothing — the caller still advances the applied vector.
		return nil
	}
	if !c.table.IsWrite(u.Inv.Method) {
		return fmt.Errorf("control: update %v carries non-write method %d", u.Write, u.Inv.Method)
	}
	_, err := c.sem.Invoke(u.Inv)
	return err
}

// Snapshot marshals the full local state (coherence/access transfer type
// "full").
func (c *Control) Snapshot() ([]byte, error) { return c.sem.Snapshot() }

// ApplyFull replaces local state from a full snapshot.
func (c *Control) ApplyFull(snapshot []byte) error { return c.sem.Restore(snapshot) }

// AppendElement appends one marshalled element to dst (transfer type
// "partial").
func (c *Control) AppendElement(dst []byte, name string) ([]byte, error) {
	return c.sem.AppendElement(dst, name)
}

// SnapshotElement is AppendElement into a buffer of the caller's own.
func (c *Control) SnapshotElement(name string) ([]byte, error) { return c.AppendElement(nil, name) }

// RemoveElement deletes one element: the state a replica installs says the
// element is absent.
func (c *Control) RemoveElement(name string) error { return c.sem.RemoveElement(name) }

// ApplyElement replaces one element from a partial snapshot.
func (c *Control) ApplyElement(name string, data []byte) error {
	return c.sem.RestoreElement(name, data)
}

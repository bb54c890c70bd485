// Package released is the aliasretain fixture for leased messages: a use
// after Release is flagged in any package, marked aliased-input or not.
package released

import "repro/internal/msg"

type parked struct{ m *msg.Message }

func useAfter(m *msg.Message) []byte {
	m.Release()
	return m.Payload // want `m used after m.Release`
}

func fieldPath(p *parked) msg.Kind {
	p.m.Release()
	return p.m.Kind // want `p.m used after p.m.Release`
}

func inBranch(m *msg.Message, drop bool) msg.Status {
	if drop {
		m.Release()
		_ = m.Err // want `m used after m.Release`
	}
	return m.Status // another path: not this rule's to judge
}

func copyFirst(m *msg.Message) string {
	err := string(append([]byte(nil), m.Err...))
	m.Release()
	return err
}

func reassigned(next func() *msg.Message) msg.Kind {
	m := next()
	m.Release()
	m = next()
	return m.Kind
}

func deferred(m *msg.Message) []byte {
	defer m.Release()
	return append([]byte(nil), m.Payload...)
}

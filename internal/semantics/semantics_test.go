package semantics

import (
	"testing"

	"repro/internal/msg"
)

// tableObject is a minimal semantics object for testing the Table index.
type tableObject struct{}

func (tableObject) Methods() []MethodInfo {
	return []MethodInfo{
		{ID: 1, Name: "Read", Kind: Read},
		{ID: 2, Name: "Write", Kind: Write},
	}
}
func (tableObject) Invoke(msg.Invocation) ([]byte, error)                   { return nil, nil }
func (tableObject) AppendRead(dst []byte, _ msg.Invocation) ([]byte, error) { return dst, nil }
func (tableObject) Snapshot() ([]byte, error)                               { return nil, nil }
func (tableObject) Restore([]byte) error                                    { return nil }
func (tableObject) Elements() []string                                      { return nil }
func (tableObject) AppendElement([]byte, string) ([]byte, error)            { return nil, ErrNoElement }
func (tableObject) RestoreElement(string, []byte) error                     { return ErrNoElement }
func (tableObject) RemoveElement(string) error                              { return nil }

func TestTableClassification(t *testing.T) {
	tab := NewTable(tableObject{})
	if tab.IsWrite(1) {
		t.Fatalf("read method classified as write")
	}
	if !tab.IsWrite(2) {
		t.Fatalf("write method classified as read")
	}
	if !tab.IsWrite(99) {
		t.Fatalf("unknown methods must be conservatively treated as writes")
	}
	if m, ok := tab.Lookup(1); !ok || m.Name != "Read" {
		t.Fatalf("Lookup(1) = %+v, %v", m, ok)
	}
	if _, ok := tab.Lookup(99); ok {
		t.Fatalf("Lookup of unknown method succeeded")
	}
}

func TestMethodKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatalf("kind names wrong")
	}
	if MethodKind(9).String() != "MethodKind(9)" {
		t.Fatalf("unknown kind string wrong")
	}
}

//go:build leasecheck

package msg

import (
	"bytes"
	"testing"
)

// TestReleasedFramesArePoisoned: under leasecheck a released message and the
// frame it aliased read as garbage, and a second Release panics.
func TestReleasedFramesArePoisoned(t *testing.T) {
	w := EncodePooled(sampleMessage())
	m, err := DecodeLeased(w.Bytes(), w)
	if err != nil {
		t.Fatal(err)
	}
	payload, page := m.Payload, m.Inv.Page
	m.Release()
	if m.Kind.Valid() || m.Inv.Page == "program.html" {
		t.Fatalf("released message still reads as a frame: %+v", m)
	}
	if !bytes.Equal(payload, []byte{0xDB, 0xDB, 0xDB}) || page == "program.html" {
		t.Fatalf("an alias into the released frame still reads its bytes: %x %q", payload, page)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	m.Release()
}

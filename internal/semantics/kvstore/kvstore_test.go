package kvstore

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/msg"
	"repro/internal/semantics"
)

func TestPutGetDelete(t *testing.T) {
	s := New()
	s.Put("k", []byte("v"))
	v, ok := s.Get("k")
	if !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	s.Delete("k")
	if _, ok := s.Get("k"); ok {
		t.Fatalf("deleted key still present")
	}
	s.Delete("k") // idempotent
}

func TestGetPutCopySemantics(t *testing.T) {
	s := New()
	val := []byte("abc")
	s.Put("k", val)
	val[0] = 'z'
	got, _ := s.Get("k")
	if string(got) != "abc" {
		t.Fatalf("Put did not copy: %q", got)
	}
	got[1] = 'z'
	got2, _ := s.Get("k")
	if string(got2) != "abc" {
		t.Fatalf("Get did not copy: %q", got2)
	}
}

func TestKeysSortedAndLen(t *testing.T) {
	s := New()
	for _, k := range []string{"c", "a", "b"} {
		s.Put(k, nil)
	}
	if got := s.Keys(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("Keys = %v", got)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestInvokeDispatch(t *testing.T) {
	s := New()
	if _, err := s.Invoke(msg.Invocation{Method: MethodPut, Page: "rec1", Args: []byte("data")}); err != nil {
		t.Fatal(err)
	}
	out, err := s.Invoke(msg.Invocation{Method: MethodGet, Page: "rec1"})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "data" {
		t.Fatalf("Get via Invoke = %q", out)
	}
	if _, err := s.Invoke(msg.Invocation{Method: MethodGet, Page: "absent"}); !errors.Is(err, semantics.ErrNoElement) {
		t.Fatalf("want ErrNoElement, got %v", err)
	}
	if _, err := s.Invoke(msg.Invocation{Method: MethodKeys}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Invoke(msg.Invocation{Method: MethodDelete, Page: "rec1"}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Delete via Invoke failed")
	}
	if _, err := s.Invoke(msg.Invocation{Method: 42}); !errors.Is(err, semantics.ErrUnknownMethod) {
		t.Fatalf("want ErrUnknownMethod, got %v", err)
	}
}

func TestElementsTransfer(t *testing.T) {
	s := New()
	s.Put("a", []byte("1"))
	e, err := s.AppendElement(nil, "a")
	if err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.RestoreElement("a", e); err != nil {
		t.Fatal(err)
	}
	v, ok := s2.Get("a")
	if !ok || string(v) != "1" {
		t.Fatalf("restored = %q, %v", v, ok)
	}
	if _, err := s.AppendElement(nil, "zzz"); !errors.Is(err, semantics.ErrNoElement) {
		t.Fatalf("want ErrNoElement, got %v", err)
	}
}

// Property: snapshot/restore round-trips arbitrary maps.
func TestSnapshotRestoreProperty(t *testing.T) {
	f := func(m map[string][]byte) bool {
		s := New()
		for k, v := range m {
			s.Put(k, v)
		}
		snap, err := s.Snapshot()
		if err != nil {
			return false
		}
		s2 := New()
		if err := s2.Restore(snap); err != nil {
			return false
		}
		snap2, err := s2.Snapshot()
		if err != nil {
			return false
		}
		return bytes.Equal(snap, snap2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRejectsCorrupt(t *testing.T) {
	if err := New().Restore([]byte{9}); err == nil {
		t.Fatalf("short snapshot accepted")
	}
	s := New()
	s.Put("a", []byte("x"))
	snap, _ := s.Snapshot()
	if err := New().Restore(append(snap, 1)); err == nil {
		t.Fatalf("trailing bytes accepted")
	}
}

// TestKeyOwnsItsName: a key is a copy of the invocation's string, on the
// first Put and on every overwrite (a map assignment stores the key it is
// given even when the key is present). A replica carves that string from the
// same block as the write's arguments, which an uncloned key would pin.
func TestKeyOwnsItsName(t *testing.T) {
	s := New()
	for i, v := range []string{"first", "second"} {
		inv := msg.Invocation{Method: MethodPut, Page: strings.Clone("key"), Args: []byte(v)}
		if _, err := s.Invoke(inv); err != nil {
			t.Fatal(err)
		}
		for k := range s.data {
			if pointsInto(k, inv.Page) {
				t.Fatalf("put %d: key %q points into the invocation's name", i, k)
			}
		}
		if got, _ := s.Get("key"); string(got) != v {
			t.Fatalf("put %d: Get = %q, want %q", i, got, v)
		}
	}
}

// pointsInto reports whether s's bytes start inside name's.
func pointsInto(s, name string) bool {
	off := uintptr(unsafe.Pointer(unsafe.StringData(s))) - uintptr(unsafe.Pointer(unsafe.StringData(name)))
	return off < uintptr(len(name))
}

// A read appends into the caller's buffer: with room there, Get and
// AppendElement allocate nothing, and what Invoke returns is the caller's own.
func TestAppendReadAllocatesNothing(t *testing.T) {
	s := New()
	s.Put("k", []byte("value"))
	get := msg.Invocation{Method: MethodGet, Page: "k"}
	buf := make([]byte, 0, 64)
	if a := testing.AllocsPerRun(100, func() { _, _ = s.AppendRead(buf, get) }); a != 0 {
		t.Errorf("Get into a buffer with room allocates %.0f times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = s.AppendElement(buf, "k") }); a != 0 {
		t.Errorf("AppendElement into a buffer with room allocates %.0f times, want 0", a)
	}
	if out, err := s.AppendRead(buf[:1], get); err != nil || string(out[1:]) != "value" {
		t.Fatalf("Get appended %q, %v", out, err)
	}
	first, _ := s.Invoke(get)
	s.Put("k", []byte("other"))
	if string(first) != "value" {
		t.Fatalf("a later Put changed what an earlier Get returned: %q", first)
	}
	if _, err := s.AppendRead(nil, msg.Invocation{Method: MethodPut, Page: "k"}); !errors.Is(err, semantics.ErrUnknownMethod) {
		t.Fatalf("AppendRead of a write: %v", err)
	}
}

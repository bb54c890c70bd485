package applog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/msg"
	"repro/internal/semantics"
)

func TestAppendEntrySuffix(t *testing.T) {
	l := New()
	l.Append([]byte("post-1"))
	l.Append([]byte("post-2"))
	l.Append([]byte("post-3"))
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	e, ok := l.Entry(1)
	if !ok || string(e) != "post-2" {
		t.Fatalf("Entry(1) = %q, %v", e, ok)
	}
	if _, ok := l.Entry(3); ok {
		t.Fatalf("out-of-range entry returned")
	}
	if _, ok := l.Entry(-1); ok {
		t.Fatalf("negative index returned")
	}
	suf := l.Suffix(1)
	if len(suf) != 2 || string(suf[0]) != "post-2" || string(suf[1]) != "post-3" {
		t.Fatalf("Suffix(1) = %v", suf)
	}
	if got := l.Suffix(99); got != nil {
		t.Fatalf("Suffix past end = %v", got)
	}
	if got := l.Suffix(-5); len(got) != 3 {
		t.Fatalf("negative suffix should clamp to full log")
	}
}

func TestEntryCopies(t *testing.T) {
	l := New()
	payload := []byte("abc")
	l.Append(payload)
	payload[0] = 'z'
	e, _ := l.Entry(0)
	if string(e) != "abc" {
		t.Fatalf("Append did not copy")
	}
	e[1] = 'z'
	e2, _ := l.Entry(0)
	if string(e2) != "abc" {
		t.Fatalf("Entry did not copy")
	}
}

func TestInvokeDispatch(t *testing.T) {
	l := New()
	if _, err := l.Invoke(msg.Invocation{Method: MethodAppend, Args: []byte("msg-a")}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Invoke(msg.Invocation{Method: MethodAppend, Args: []byte("msg-b")}); err != nil {
		t.Fatal(err)
	}
	out, err := l.Invoke(msg.Invocation{Method: MethodLen})
	if err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint32(out) != 2 {
		t.Fatalf("Len via Invoke = %d", binary.BigEndian.Uint32(out))
	}
	var idx [4]byte
	binary.BigEndian.PutUint32(idx[:], 1)
	out, err = l.Invoke(msg.Invocation{Method: MethodEntry, Args: idx[:]})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "msg-b" {
		t.Fatalf("Entry via Invoke = %q", out)
	}
	binary.BigEndian.PutUint32(idx[:], 0)
	out, err = l.Invoke(msg.Invocation{Method: MethodSuffix, Args: idx[:]})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := DecodeEntries(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("Suffix via Invoke = %v", entries)
	}
	binary.BigEndian.PutUint32(idx[:], 9)
	if _, err := l.Invoke(msg.Invocation{Method: MethodEntry, Args: idx[:]}); !errors.Is(err, semantics.ErrNoElement) {
		t.Fatalf("want ErrNoElement, got %v", err)
	}
	if _, err := l.Invoke(msg.Invocation{Method: MethodEntry, Args: []byte{1}}); err == nil {
		t.Fatalf("short index accepted")
	}
	if _, err := l.Invoke(msg.Invocation{Method: MethodSuffix, Args: []byte{1}}); err == nil {
		t.Fatalf("short suffix index accepted")
	}
	if _, err := l.Invoke(msg.Invocation{Method: 77}); !errors.Is(err, semantics.ErrUnknownMethod) {
		t.Fatalf("want ErrUnknownMethod, got %v", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	l := New()
	l.Append([]byte("a"))
	l.Append(nil)
	l.Append([]byte("ccc"))
	snap, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	l2 := New()
	if err := l2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 3 {
		t.Fatalf("restored Len = %d", l2.Len())
	}
	e, _ := l2.Entry(2)
	if string(e) != "ccc" {
		t.Fatalf("restored entry = %q", e)
	}
}

func TestElementsInterface(t *testing.T) {
	l := New()
	if got := l.Elements(); !reflect.DeepEqual(got, []string{"log"}) {
		t.Fatalf("Elements = %v", got)
	}
	l.Append([]byte("x"))
	e, err := l.AppendElement(nil, "log")
	if err != nil {
		t.Fatal(err)
	}
	l2 := New()
	if err := l2.RestoreElement("log", e); err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 1 {
		t.Fatalf("element restore failed")
	}
	if _, err := l.AppendElement(nil, "bogus"); !errors.Is(err, semantics.ErrNoElement) {
		t.Fatalf("want ErrNoElement, got %v", err)
	}
	if err := l.RestoreElement("bogus", nil); !errors.Is(err, semantics.ErrNoElement) {
		t.Fatalf("want ErrNoElement, got %v", err)
	}
}

// Property: entries codec round-trips arbitrary logs.
func TestEntriesCodecRoundTrip(t *testing.T) {
	f := func(entries [][]byte) bool {
		enc := appendEntries(nil, entries)
		got, err := DecodeEntries(enc)
		if err != nil {
			return false
		}
		if len(entries) != len(got) {
			return false
		}
		for i := range entries {
			if !bytes.Equal(entries[i], got[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeEntriesRejectsCorrupt(t *testing.T) {
	if _, err := DecodeEntries([]byte{1}); err == nil {
		t.Fatalf("short header accepted")
	}
	good := appendEntries(nil, [][]byte{[]byte("x")})
	if _, err := DecodeEntries(append(good, 7)); err == nil {
		t.Fatalf("trailing bytes accepted")
	}
	if _, err := DecodeEntries(good[:5]); err == nil {
		t.Fatalf("truncated body accepted")
	}
}

// A read appends into the caller's buffer: with room there, Len, Entry,
// Suffix and AppendElement allocate nothing, and each appends what Invoke
// returns.
func TestAppendReadAllocatesNothing(t *testing.T) {
	l := New()
	for _, e := range []string{"a", "bb", "ccc"} {
		l.Append([]byte(e))
	}
	var one [4]byte
	binary.BigEndian.PutUint32(one[:], 1)
	buf := make([]byte, 0, 64)
	for _, inv := range []msg.Invocation{
		{Method: MethodLen}, {Method: MethodEntry, Args: one[:]}, {Method: MethodSuffix, Args: one[:]},
	} {
		if a := testing.AllocsPerRun(100, func() { _, _ = l.AppendRead(buf, inv) }); a != 0 {
			t.Errorf("method %d into a buffer with room allocates %.0f times, want 0", inv.Method, a)
		}
		want, err := l.Invoke(inv)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := l.AppendRead(buf[:1], inv); err != nil || !bytes.Equal(got[1:], want) {
			t.Fatalf("method %d appended %q, %v; Invoke returns %q", inv.Method, got, err, want)
		}
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = l.AppendElement(buf, logElement) }); a != 0 {
		t.Errorf("AppendElement into a buffer with room allocates %.0f times, want 0", a)
	}
	if _, err := l.AppendRead(nil, msg.Invocation{Method: MethodAppend}); !errors.Is(err, semantics.ErrUnknownMethod) {
		t.Fatalf("AppendRead of a write: %v", err)
	}
}

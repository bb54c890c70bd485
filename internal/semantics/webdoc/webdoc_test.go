package webdoc

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/msg"
	"repro/internal/semantics"
)

func TestPutGetRoundTrip(t *testing.T) {
	d := New()
	d.Put("index.html", []byte("<h1>hi</h1>"), "text/html", 100)
	p, err := d.Get("index.html")
	if err != nil {
		t.Fatal(err)
	}
	if string(p.Content) != "<h1>hi</h1>" || p.ContentType != "text/html" {
		t.Fatalf("got %+v", p)
	}
	if p.Version != 1 || p.ModifiedNanos != 100 {
		t.Fatalf("version/modified wrong: %+v", p)
	}
}

func TestPutBumpsVersion(t *testing.T) {
	d := New()
	d.Put("p", []byte("v1"), "", 1)
	d.Put("p", []byte("v2"), "", 2)
	p, _ := d.Get("p")
	if p.Version != 2 || string(p.Content) != "v2" {
		t.Fatalf("got %+v", p)
	}
	if p.ContentType != "text/html" {
		t.Fatalf("default content type not applied: %q", p.ContentType)
	}
}

func TestAppendIsIncremental(t *testing.T) {
	d := New()
	d.Append("news", []byte("a"), 1)
	d.Append("news", []byte("b"), 2)
	p, _ := d.Get("news")
	if string(p.Content) != "ab" || p.Version != 2 {
		t.Fatalf("got %+v", p)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	d := New()
	d.Put("p", []byte("abc"), "", 1)
	p, _ := d.Get("p")
	p.Content[0] = 'z'
	p2, _ := d.Get("p")
	if string(p2.Content) != "abc" {
		t.Fatalf("Get aliases internal state")
	}
}

func TestDeleteAndMissing(t *testing.T) {
	d := New()
	d.Put("p", []byte("x"), "", 1)
	d.Delete("p")
	d.Delete("p") // idempotent
	if _, err := d.Get("p"); !errors.Is(err, semantics.ErrNoElement) {
		t.Fatalf("want ErrNoElement, got %v", err)
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestPagesSorted(t *testing.T) {
	d := New()
	d.Put("b", nil, "", 1)
	d.Put("a", nil, "", 1)
	d.Put("c", nil, "", 1)
	if got := d.Pages(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("Pages = %v", got)
	}
}

func TestInvokeDispatch(t *testing.T) {
	d := New()
	args := EncodeWriteArgs(WriteArgs{Content: []byte("body"), ContentType: "text/plain", ModifiedNanos: 7})
	if _, err := d.Invoke(msg.Invocation{Method: MethodPutPage, Page: "p", Args: args}); err != nil {
		t.Fatal(err)
	}
	out, err := d.Invoke(msg.Invocation{Method: MethodGetPage, Page: "p"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodePage(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(p.Content) != "body" || p.ContentType != "text/plain" || p.ModifiedNanos != 7 {
		t.Fatalf("got %+v", p)
	}

	out, err = d.Invoke(msg.Invocation{Method: MethodStatPage, Page: "p"})
	if err != nil {
		t.Fatal(err)
	}
	stat, err := DecodePage(out)
	if err != nil {
		t.Fatal(err)
	}
	if stat.Content != nil || stat.Version != 1 || stat.ModifiedNanos != 7 {
		t.Fatalf("stat = %+v", stat)
	}

	out, err = d.Invoke(msg.Invocation{Method: MethodListPages})
	if err != nil {
		t.Fatal(err)
	}
	names, err := DecodeStrings(out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"p"}) {
		t.Fatalf("names = %v", names)
	}

	if _, err := d.Invoke(msg.Invocation{Method: MethodAppendPage, Page: "p",
		Args: EncodeWriteArgs(WriteArgs{Content: []byte("+"), ModifiedNanos: 8})}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Invoke(msg.Invocation{Method: MethodDeletePage, Page: "p"}); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("delete via Invoke failed")
	}
	if _, err := d.Invoke(msg.Invocation{Method: 999}); !errors.Is(err, semantics.ErrUnknownMethod) {
		t.Fatalf("want ErrUnknownMethod, got %v", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	d := New()
	d.Put("a", []byte("alpha"), "text/html", 1)
	d.Append("a", []byte("!"), 2)
	d.Put("b", []byte{0, 1, 2}, "image/png", 3)
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d2 := New()
	if err := d2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	snap2, _ := d2.Snapshot()
	if !bytes.Equal(snap, snap2) {
		t.Fatalf("restored snapshot differs")
	}
	p, _ := d2.Get("a")
	if string(p.Content) != "alpha!" || p.Version != 2 {
		t.Fatalf("restored page wrong: %+v", p)
	}
}

func TestPartialElementTransfer(t *testing.T) {
	d := New()
	d.Put("a", []byte("A"), "", 1)
	d.Put("b", []byte("B"), "", 2)
	if got := d.Elements(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Elements = %v", got)
	}
	eb, err := d.SnapshotElement("b")
	if err != nil {
		t.Fatal(err)
	}
	d2 := New()
	if err := d2.RestoreElement("b", eb); err != nil {
		t.Fatal(err)
	}
	p, err := d2.Get("b")
	if err != nil {
		t.Fatal(err)
	}
	if string(p.Content) != "B" || p.Version != 1 || p.ModifiedNanos != 2 {
		t.Fatalf("partial restore wrong: %+v", p)
	}
	if _, err := d.SnapshotElement("zzz"); !errors.Is(err, semantics.ErrNoElement) {
		t.Fatalf("want ErrNoElement, got %v", err)
	}
}

func TestMethodTableClassification(t *testing.T) {
	tab := semantics.NewTable(New())
	reads := []uint16{MethodGetPage, MethodListPages, MethodStatPage}
	writes := []uint16{MethodPutPage, MethodAppendPage, MethodDeletePage}
	for _, m := range reads {
		if tab.IsWrite(m) {
			t.Fatalf("method %d misclassified as write", m)
		}
	}
	for _, m := range writes {
		if !tab.IsWrite(m) {
			t.Fatalf("method %d misclassified as read", m)
		}
	}
	if !tab.IsWrite(999) {
		t.Fatalf("unknown methods must be conservatively writes")
	}
	if _, ok := tab.Lookup(MethodGetPage); !ok {
		t.Fatalf("Lookup failed for known method")
	}
}

// Property: page encode/decode round-trips.
func TestPageCodecRoundTrip(t *testing.T) {
	f := func(content []byte, ctype string, version uint64, modified int64) bool {
		p := &Page{Content: content, ContentType: ctype, Version: version, ModifiedNanos: modified}
		got, err := DecodePage(EncodePage(p))
		if err != nil {
			return false
		}
		if len(p.Content) == 0 {
			p.Content = nil
		}
		return reflect.DeepEqual(p, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: write-args encode/decode round-trips.
func TestWriteArgsCodecRoundTrip(t *testing.T) {
	f := func(content []byte, ctype string, modified int64) bool {
		a := WriteArgs{Content: content, ContentType: ctype, ModifiedNanos: modified}
		got, err := DecodeWriteArgs(EncodeWriteArgs(a))
		if err != nil {
			return false
		}
		if len(a.Content) == 0 {
			a.Content = nil
		}
		return reflect.DeepEqual(a, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot/restore preserves document state for arbitrary page
// sets.
func TestSnapshotRestoreProperty(t *testing.T) {
	f := func(pages map[string][]byte) bool {
		d := New()
		i := int64(1)
		for name, content := range pages {
			d.Put(name, content, "text/html", i)
			i++
		}
		snap, err := d.Snapshot()
		if err != nil {
			return false
		}
		d2 := New()
		if err := d2.Restore(snap); err != nil {
			return false
		}
		snap2, err := d2.Snapshot()
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
	d := New()
	if err := d.Restore([]byte{1, 2}); err == nil {
		t.Fatalf("short snapshot accepted")
	}
	good, _ := func() ([]byte, error) { d.Put("a", []byte("x"), "", 1); return d.Snapshot() }()
	if err := New().Restore(append(good, 0xFF)); err == nil {
		t.Fatalf("trailing bytes accepted")
	}
	if _, err := DecodePage([]byte{0}); err == nil {
		t.Fatalf("short page accepted")
	}
	if _, err := DecodeWriteArgs([]byte{0}); err == nil {
		t.Fatalf("short write args accepted")
	}
}

// An invoked Put keeps its arguments' content window as the page: a later
// Append must grow a buffer of its own and leave the arguments — which the
// replica's update log still holds — and whatever follows them in their
// buffer exactly as they were. The exported Put copies, so its caller's
// buffer stays the caller's.
func TestAppendAfterOwnedPutLeavesLoggedArgsUntouched(t *testing.T) {
	enc := EncodeWriteArgs(WriteArgs{Content: []byte("first"), ContentType: "text/plain", ModifiedNanos: 7})
	// The arguments sit inside a larger buffer, as a size-class-rounded copy
	// does: spare capacity right behind the content.
	buf := append(append([]byte(nil), enc...), "spare-capacity-behind-the-args"...)
	args, want := buf[:len(enc)], append([]byte(nil), buf...)

	d := New()
	if _, err := d.Invoke(msg.Invocation{Method: MethodPutPage, Page: "p", Args: args}); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := d.Invoke(msg.Invocation{Method: MethodPutPage, Page: "p", Args: args}); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("an invoked Put of a known page and content type allocates %.0f times, want 0", a)
	}
	more := EncodeWriteArgs(WriteArgs{Content: []byte("+second"), ModifiedNanos: 8})
	if _, err := d.Invoke(msg.Invocation{Method: MethodAppendPage, Page: "p", Args: more}); err != nil {
		t.Fatal(err)
	}
	p, err := d.Get("p")
	if err != nil || string(p.Content) != "first+second" || p.ContentType != "text/plain" || p.ModifiedNanos != 8 {
		t.Fatalf("page after Put and Append: %+v, %v", p, err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("Append wrote into the Put's argument buffer:\n got %q\nwant %q", buf, want)
	}

	mine := []byte("caller's")
	d.Put("q", mine, "", 9)
	mine[0] = 'X'
	if q, _ := d.Get("q"); string(q.Content) != "caller's" {
		t.Fatalf("exported Put kept the caller's buffer: %q", q.Content)
	}
}

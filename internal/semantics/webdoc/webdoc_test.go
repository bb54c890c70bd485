package webdoc

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

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
	eb, err := d.AppendElement(nil, "b")
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
	if _, err := d.AppendElement(nil, "zzz"); !errors.Is(err, semantics.ErrNoElement) {
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

// A decoded page owns its bytes: the frame it came from may be reused, for a
// content type that fits inside the page's own allocation and for one that
// does not.
func TestDecodePageOwnsItsBytes(t *testing.T) {
	for _, ctype := range []string{"text/html", "application/vnd.example+json; charset=utf-8"} {
		enc := EncodePage(&Page{Content: []byte("body"), ContentType: ctype, Version: 2})
		p, err := DecodePage(enc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range enc {
			enc[i] = 'X'
		}
		if p.ContentType != ctype || string(p.Content) != "body" || p.Version != 2 {
			t.Fatalf("decoded page changed with its input: %q %q v%d", p.ContentType, p.Content, p.Version)
		}
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

// getPage decodes what GetPage and AppendElement return for name; both must
// agree.
func getPage(t *testing.T, d *Document, name string) *Page {
	t.Helper()
	out, err := d.Invoke(msg.Invocation{Method: MethodGetPage, Page: name})
	if err != nil {
		t.Fatalf("GetPage %q: %v", name, err)
	}
	el, err := d.AppendElement(nil, name)
	if err != nil || !bytes.Equal(out, el) {
		t.Fatalf("AppendElement %q = %q, %v; GetPage = %q", name, el, err, out)
	}
	p, err := DecodePage(out)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Every way of changing the page shows in the next read: the read after each
// mutation sees the new version.
func TestEveryMutationDropsTheSharedEncoding(t *testing.T) {
	d := New()
	d.Put("p", []byte("v1"), "text/plain", 1)
	want := func(content string, version uint64) {
		t.Helper()
		p := getPage(t, d, "p")
		if string(p.Content) != content || p.Version != version {
			t.Fatalf("page = %q v%d, want %q v%d", p.Content, p.Version, content, version)
		}
	}
	want("v1", 1)

	args := EncodeWriteArgs(WriteArgs{Content: []byte("v2"), ModifiedNanos: 2})
	if _, err := d.Invoke(msg.Invocation{Method: MethodPutPage, Page: "p", Args: args}); err != nil {
		t.Fatal(err)
	}
	want("v2", 2)

	d.Put("p", []byte("v3"), "", 3)
	want("v3", 3)

	d.Append("p", []byte("+"), 4)
	want("v3+", 4)

	old, _ := d.AppendElement(nil, "p")
	snap, _ := d.Snapshot()
	d.Put("p", []byte("v5"), "", 5)
	want("v5", 5)

	if err := d.RestoreElement("p", old); err != nil {
		t.Fatal(err)
	}
	want("v3+", 4)

	d.Put("p", []byte("v5"), "", 5)
	want("v5", 5)
	if err := d.Restore(snap); err != nil {
		t.Fatal(err)
	}
	want("v3+", 4)

	d.Delete("p")
	if _, err := d.Invoke(msg.Invocation{Method: MethodGetPage, Page: "p"}); !errors.Is(err, semantics.ErrNoElement) {
		t.Fatalf("GetPage after Delete: %v", err)
	}
	if _, err := d.AppendElement(nil, "p"); !errors.Is(err, semantics.ErrNoElement) {
		t.Fatalf("AppendElement after Delete: %v", err)
	}
}

// A read appends into the caller's buffer: with room there, GetPage, StatPage
// and AppendElement allocate nothing. What Invoke returns is the caller's own,
// so no later write changes it.
func TestAppendReadAllocatesNothing(t *testing.T) {
	d := New()
	d.Put("p", bytes.Repeat([]byte("x"), 4096), "text/html", 1)
	get := msg.Invocation{Method: MethodGetPage, Page: "p"}
	stat := msg.Invocation{Method: MethodStatPage, Page: "p"}
	buf := make([]byte, 0, 8192)
	for name, read := range map[string]func() ([]byte, error){
		"GetPage":       func() ([]byte, error) { return d.AppendRead(buf, get) },
		"StatPage":      func() ([]byte, error) { return d.AppendRead(buf, stat) },
		"AppendElement": func() ([]byte, error) { return d.AppendElement(buf, "p") },
	} {
		if a := testing.AllocsPerRun(100, func() { _, _ = read() }); a != 0 {
			t.Errorf("%s into a buffer with room allocates %.0f times, want 0", name, a)
		}
	}
	if out, err := d.AppendRead(buf, get); err != nil || &out[0] != &buf[:1][0] {
		t.Fatalf("GetPage did not append into the buffer with room (%v)", err)
	}

	first, err := d.Invoke(get)
	if err != nil {
		t.Fatal(err)
	}
	keep := append([]byte(nil), first...)
	el, _ := d.AppendElement(nil, "p")
	d.Put("p", []byte("v2"), "", 2)
	d.Append("p", []byte("!"), 3)
	if err := d.RestoreElement("p", el); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, keep) {
		t.Fatalf("a later write changed what an earlier GetPage returned")
	}
	if p := getPage(t, d, "p"); len(p.Content) != 4096 || p.Version != 1 {
		t.Fatalf("page after RestoreElement: %d bytes v%d", len(p.Content), p.Version)
	}
}

// Readers copying pages out race writers replacing them: run under -race,
// every read must decode to a consistent version.
func TestConcurrentReadersAndWriters(t *testing.T) {
	d := New()
	d.Put("p", []byte("v0"), "", 0)
	snap, _ := d.Snapshot()
	el, _ := d.AppendElement(nil, "p")
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				out, err := d.Invoke(msg.Invocation{Method: MethodGetPage, Page: "p"})
				if err != nil {
					continue // deleted just now
				}
				if _, err := DecodePage(out); err != nil {
					t.Error(err)
					return
				}
				_, _ = d.AppendElement(nil, "p")
				_, _ = d.Snapshot()
				_, _ = d.Get("p")
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			switch i % 6 {
			case 0:
				args := EncodeWriteArgs(WriteArgs{Content: []byte("put"), ModifiedNanos: int64(i)})
				_, _ = d.Invoke(msg.Invocation{Method: MethodPutPage, Page: "p", Args: args})
			case 1:
				d.Put("p", []byte("copy"), "text/plain", int64(i))
			case 2:
				d.Append("p", []byte("+"), int64(i))
			case 3:
				_ = d.RestoreElement("p", el)
			case 4:
				_ = d.Restore(snap)
			case 5:
				d.Delete("p")
			}
		}
	}()
	wg.Wait()
}

// TestPageKeyOwnsItsName: a page is keyed by a copy of its name, never by the
// invocation's string. A replica carves that string from the same block as
// the write's arguments, so a key over it would pin the block, a whole old
// version of the page's content, for the page's life.
func TestPageKeyOwnsItsName(t *testing.T) {
	d := New()
	for i, m := range []uint16{MethodPutPage, MethodPutPage, MethodAppendPage} {
		inv := msg.Invocation{Method: m, Page: strings.Clone("index.html"),
			Args: EncodeWriteArgs(WriteArgs{Content: []byte("body"), ModifiedNanos: int64(i)})}
		if _, err := d.Invoke(inv); err != nil {
			t.Fatal(err)
		}
		for k := range d.pages {
			if pointsInto(k, inv.Page) {
				t.Fatalf("write %d: page key %q points into the invocation's name", i, k)
			}
		}
	}
}

// pointsInto reports whether s's bytes start inside name's.
func pointsInto(s, name string) bool {
	off := uintptr(unsafe.Pointer(unsafe.StringData(s))) - uintptr(unsafe.Pointer(unsafe.StringData(name)))
	return off < uintptr(len(name))
}

// A page's content type never views a superseded write's block: a Put
// without a type keeps the page's type as a copy, and an Append that outgrows
// the content moves the type into the page's new block, so no older block
// stays pinned by its type.
func TestPageTypeHoldsNoOlderBlock(t *testing.T) {
	d := New()
	put := func(ct string) string {
		args := EncodeWriteArgs(WriteArgs{Content: []byte("body"), ContentType: ct})
		if _, err := d.Invoke(msg.Invocation{Method: MethodPutPage, Page: "p", Args: args}); err != nil {
			t.Fatal(err)
		}
		return unsafe.String(&args[0], len(args))
	}
	first := put("text/plain")
	put("")
	if ct := d.pages["p"].ContentType; ct != "text/plain" || pointsInto(ct, first) {
		t.Fatalf("after a typeless Put the type is %q, inside the first write's block: %v", ct, pointsInto(ct, first))
	}
	last := put("image/png")
	d.Append("p", []byte("!"), 9)
	if ct := d.pages["p"].ContentType; ct != "image/png" || pointsInto(ct, last) {
		t.Fatalf("after an Append the type is %q, inside the last write's block: %v", ct, pointsInto(ct, last))
	}
}

// Package webdoc implements the Web-document semantics object: "a Web
// document consists of a collection of HTML pages, together with files for
// images, applets, etc., which jointly comprise the state of the distributed
// shared object" (§2).
//
// The method table offers page retrieval and listing (reads), replacement,
// incremental append, and deletion (writes), and a Stat read used by the
// If-Modified-Since baseline. Every page carries a version counter and a
// last-modified timestamp, which the metrics layer uses to measure
// staleness. Pages are the document's elements for partial state transfer.
package webdoc

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/msg"
	"repro/internal/semantics"
)

// Method identifiers of the Web-document interface.
const (
	MethodGetPage uint16 = iota + 1
	MethodListPages
	MethodStatPage
	MethodPutPage
	MethodAppendPage
	MethodDeletePage
)

// methodTable is shared by all documents.
var methodTable = []semantics.MethodInfo{
	{ID: MethodGetPage, Name: "GetPage", Kind: semantics.Read},
	{ID: MethodListPages, Name: "ListPages", Kind: semantics.Read},
	{ID: MethodStatPage, Name: "StatPage", Kind: semantics.Read},
	{ID: MethodPutPage, Name: "PutPage", Kind: semantics.Write},
	{ID: MethodAppendPage, Name: "AppendPage", Kind: semantics.Write},
	{ID: MethodDeletePage, Name: "DeletePage", Kind: semantics.Write},
}

// Page is one element of a Web document.
type Page struct {
	Content     []byte
	ContentType string
	// Version counts writes applied to this page at this replica.
	Version uint64
	// ModifiedNanos is the origin wall-clock time (UnixNano) of the write
	// that produced this version; used by If-Modified-Since and staleness
	// accounting.
	ModifiedNanos int64
}

// Document is a thread-safe Web-document semantics object. The zero value
// is an empty document ready for use.
type Document struct {
	mu    sync.RWMutex
	pages map[string]*stored
}

// stored is a page as the document keeps it: the Page, and enc, the encoding
// of its current version. The first GetPage or SnapshotElement after a write
// builds enc (encoded), and every read returns that same slice until the next
// write drops it. Once enc exists the page's content and content type are
// windows of it, so the page keeps one copy of its content, not two (after an
// Append the type still points into the old encoding until the next read
// builds a new one).
type stored struct {
	Page
	enc []byte
}

var _ semantics.Object = (*Document)(nil)

// New returns an empty document.
func New() *Document { return &Document{} }

// Factory returns a semantics.Factory creating empty documents.
func Factory() semantics.Factory {
	return func() semantics.Object { return New() }
}

// Methods implements semantics.Object.
func (d *Document) Methods() []semantics.MethodInfo { return methodTable }

// Invoke implements semantics.Object by dispatching on the method ID.
// Write arguments are the encoding produced by EncodeWriteArgs; they are the
// document's to keep (semantics.Object), and PutPage keeps them.
func (d *Document) Invoke(inv msg.Invocation) ([]byte, error) {
	switch inv.Method {
	case MethodGetPage:
		return d.encoded(inv.Page)
	case MethodListPages:
		return encodeStrings(d.Pages()), nil
	case MethodStatPage:
		return d.stat(inv.Page)
	case MethodPutPage:
		return nil, d.putOwned(inv.Page, inv.Args)
	case MethodAppendPage:
		args, err := DecodeWriteArgs(inv.Args)
		if err != nil {
			return nil, err
		}
		d.Append(inv.Page, args.Content, args.ModifiedNanos)
		return nil, nil
	case MethodDeletePage:
		d.Delete(inv.Page)
		return nil, nil
	default:
		return nil, fmt.Errorf("%w: %d", semantics.ErrUnknownMethod, inv.Method)
	}
}

// Get returns a copy of the named page.
func (d *Document) Get(name string) (*Page, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, ok := d.pages[name]
	if !ok {
		return nil, noPage(name)
	}
	cp := p.Page
	cp.Content = append([]byte(nil), p.Content...)
	return &cp, nil
}

func noPage(name string) error {
	return fmt.Errorf("%w: page %q", semantics.ErrNoElement, name)
}

// encoded returns the encoding of the named page's current version, shared
// with every other read until the next write: callers send it and must not
// modify it. The first read after a write builds it under the write lock,
// checking again there, since another reader may have built it meanwhile.
func (d *Document) encoded(name string) ([]byte, error) {
	d.mu.RLock()
	p := d.pages[name]
	var enc []byte
	if p != nil {
		enc = p.enc
	}
	d.mu.RUnlock()
	if enc != nil {
		return enc, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	p = d.pages[name]
	if p == nil {
		return nil, noPage(name)
	}
	if p.enc == nil {
		enc := EncodePage(&p.Page)
		// Point the page at the encoding's bytes (it cannot fail to parse: it
		// was just built), so the content the page held before can go.
		p.Page, _ = viewPage(enc)
		p.enc = enc
	}
	return p.enc, nil
}

// stat is the StatPage reply: the named page's encoding without content.
func (d *Document) stat(name string) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, ok := d.pages[name]
	if !ok {
		return nil, noPage(name)
	}
	return EncodePage(&Page{ContentType: p.ContentType, Version: p.Version, ModifiedNanos: p.ModifiedNanos}), nil
}

// Pages returns the sorted page names.
func (d *Document) Pages() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.pages))
	for n := range d.pages {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Put replaces (or creates) a page. The caller keeps content; the page
// stores a copy.
func (d *Document) Put(name string, content []byte, contentType string, modifiedNanos int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.page(name)
	p.Content = append([]byte(nil), content...)
	if contentType != "" {
		p.ContentType = contentType
	}
	p.written(modifiedNanos)
}

// putOwned is Put for marshalled arguments the document owns (Invoke): they
// are split in place and the page keeps the content window itself, so an
// applied write copies its content nowhere. The window's capacity is clamped
// to its length: a later Append must grow a new buffer, never write into
// args, which the replica's update log still holds. The content type is a
// string over args too, so the page holds nothing of its previous version.
// At a replica args are the tail of the update's one block, after the page
// name: the page keeps that block, and its map key is a clone (page), so no
// older write's block outlives its version.
func (d *Document) putOwned(name string, args []byte) error {
	contentType, content, modifiedNanos, err := splitWriteArgs(args)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.page(name)
	p.Content = nil
	if len(content) > 0 {
		p.Content = content[:len(content):len(content)]
	}
	if len(contentType) > 0 {
		p.ContentType = unsafe.String(&contentType[0], len(contentType))
	}
	p.written(modifiedNanos)
	return nil
}

// Append adds content to the end of a page, creating it if absent. This is
// the incremental-update operation of the paper's conference-page example.
func (d *Document) Append(name string, content []byte, modifiedNanos int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.page(name)
	p.Content = append(p.Content, content...)
	p.written(modifiedNanos)
}

// page returns the named page, created empty if absent. Callers hold the
// write lock. A new page's key is a clone: name may share one block with a
// write's arguments (a replica's update), which the key would otherwise pin
// for the page's life. Only creation assigns the key, so this is never paid
// per write.
func (d *Document) page(name string) *stored {
	if d.pages == nil {
		d.pages = make(map[string]*stored)
	}
	p, ok := d.pages[name]
	if !ok {
		p = &stored{}
		d.pages[strings.Clone(name)] = p
	}
	return p
}

// written stamps one applied write on the page and drops the old version's
// encoding (readers that hold it keep theirs).
func (p *stored) written(modifiedNanos int64) {
	if p.ContentType == "" {
		p.ContentType = "text/html"
	}
	p.Version++
	p.ModifiedNanos = modifiedNanos
	p.enc = nil
}

// Delete removes a page (idempotent).
func (d *Document) Delete(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.pages, name)
}

// Len returns the number of pages.
func (d *Document) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.pages)
}

// Elements implements semantics.Object: pages are the transfer units.
func (d *Document) Elements() []string { return d.Pages() }

// SnapshotElement implements semantics.Object: the page's shared encoding,
// as GetPage returns it.
func (d *Document) SnapshotElement(name string) ([]byte, error) {
	return d.encoded(name)
}

// RestoreElement implements semantics.Object. Restoring an element replaces
// the page wholesale, including its version counter, so replicas converge
// on identical page metadata.
func (d *Document) RestoreElement(name string, data []byte) error {
	p, err := restored(data)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pages == nil {
		d.pages = make(map[string]*stored)
	}
	d.pages[name] = p
	return nil
}

// restored makes a page record from a page encoding the caller keeps: one
// copy of it, which is the record's encoding and holds its content and type.
func restored(data []byte) (*stored, error) {
	enc := append([]byte(nil), data...)
	p, err := viewPage(enc)
	if err != nil {
		return nil, err
	}
	return &stored{Page: p, enc: enc}, nil
}

// Snapshot implements semantics.Object (full state transfer).
func (d *Document) Snapshot() ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.pages))
	for n := range d.pages {
		names = append(names, n)
	}
	sort.Strings(names)
	var buf []byte
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(names)))
	for _, n := range names {
		buf = appendString(buf, n)
		p := d.pages[n]
		enc := p.enc
		if enc == nil {
			enc = EncodePage(&p.Page)
		}
		buf = appendBytes(buf, enc)
	}
	return buf, nil
}

// Restore implements semantics.Object.
func (d *Document) Restore(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("webdoc: short snapshot")
	}
	n := binary.BigEndian.Uint32(data)
	data = data[4:]
	pages := make(map[string]*stored, n)
	for i := uint32(0); i < n; i++ {
		var name string
		var err error
		name, data, err = takeString(data)
		if err != nil {
			return err
		}
		var pb []byte
		pb, data, err = takeField(data, "bytes")
		if err != nil {
			return err
		}
		p, err := restored(pb)
		if err != nil {
			return err
		}
		pages[name] = p
	}
	if len(data) != 0 {
		return fmt.Errorf("webdoc: %d trailing snapshot bytes", len(data))
	}
	d.mu.Lock()
	d.pages = pages
	d.mu.Unlock()
	return nil
}

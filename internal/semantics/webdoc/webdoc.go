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
//
// A page keeps one copy of its content. Its content and content type view
// either the block of the write that put it (putOwned), which no one changes,
// or memory of the page's own (Put, Append, and the copy RestoreElement and
// Restore make of a page encoding). A read copies the page out under the read
// lock (appendPage), so nothing a read returns aliases the page.
type Document struct {
	mu    sync.RWMutex
	pages map[string]*Page
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
		return d.AppendRead(nil, inv)
	}
}

// AppendRead implements semantics.Object: GetPage appends the page's
// encoding, StatPage the same without content, ListPages the sorted names.
func (d *Document) AppendRead(dst []byte, inv msg.Invocation) ([]byte, error) {
	switch inv.Method {
	case MethodGetPage:
		return d.appendNamed(dst, inv.Page, true)
	case MethodStatPage:
		return d.appendNamed(dst, inv.Page, false)
	case MethodListPages:
		return appendStrings(dst, d.Pages()), nil
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
	cp := *p
	cp.Content = append([]byte(nil), p.Content...)
	return &cp, nil
}

func noPage(name string) error {
	return fmt.Errorf("%w: page %q", semantics.ErrNoElement, name)
}

// appendNamed appends the named page's encoding to dst, its content left out
// unless content is set (StatPage).
func (d *Document) appendNamed(dst []byte, name string, content bool) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, ok := d.pages[name]
	if !ok {
		return nil, noPage(name)
	}
	if !content {
		return appendPage(dst, &Page{ContentType: p.ContentType, Version: p.Version, ModifiedNanos: p.ModifiedNanos}), nil
	}
	return appendPage(dst, p), nil
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
// string over args too; a write without one keeps the page's type as a copy
// (or the default constant), so the page holds nothing of its previous
// version. At a replica args are the tail of the update's one block, after
// the page name: the page keeps that block, and its map key is a clone
// (page), so no older write's block outlives its version.
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
	switch {
	case len(contentType) > 0:
		p.ContentType = unsafe.String(&contentType[0], len(contentType))
	case p.ContentType == defaultType:
		p.ContentType = defaultType
	default:
		p.ContentType = strings.Clone(p.ContentType)
	}
	p.written(modifiedNanos)
	return nil
}

// Append adds content to the end of a page, creating it if absent. This is
// the incremental-update operation of the paper's conference-page example.
// Content viewing a write's block or a restored copy has its capacity
// clamped, so appending never writes into it. A page that outgrows its
// content moves it, and its content type, into one new block of its own, so
// it lets go of the block it viewed; appends then fill that block's spare
// room, which no reader sees.
func (d *Document) Append(name string, content []byte, modifiedNanos int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.page(name)
	if n := len(p.Content) + len(content); n > cap(p.Content) {
		ct := len(p.ContentType)
		b := make([]byte, 0, ct+2*n)
		b = append(append(b, p.ContentType...), p.Content...)
		p.ContentType = unsafe.String(unsafe.SliceData(b), ct)
		p.Content = b[ct:]
	}
	p.Content = append(p.Content, content...)
	p.written(modifiedNanos)
}

// page returns the named page, created empty if absent. Callers hold the
// write lock. A new page's key is a clone: name may share one block with a
// write's arguments (a replica's update), which the key would otherwise pin
// for the page's life. Only creation assigns the key, so this is never paid
// per write.
func (d *Document) page(name string) *Page {
	if d.pages == nil {
		d.pages = make(map[string]*Page)
	}
	p, ok := d.pages[name]
	if !ok {
		p = &Page{}
		d.pages[strings.Clone(name)] = p
	}
	return p
}

// defaultType is the content type of a page no write gave one.
const defaultType = "text/html"

// written stamps one applied write on the page.
func (p *Page) written(modifiedNanos int64) {
	if p.ContentType == "" {
		p.ContentType = defaultType
	}
	p.Version++
	p.ModifiedNanos = modifiedNanos
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

// AppendElement implements semantics.Object: the page's encoding, as GetPage
// appends it.
func (d *Document) AppendElement(dst []byte, name string) ([]byte, error) {
	return d.appendNamed(dst, name, true)
}

// RestoreElement implements semantics.Object. Restoring an element replaces
// the page wholesale, including its version counter, so replicas converge
// on identical page metadata. name and data may alias a received frame: the
// page keeps one copy of data, and an existing page's record is rewritten in
// place, since assigning a map entry anew would make its key alias name.
func (d *Document) RestoreElement(name string, data []byte) error {
	p, err := restored(data)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	*d.page(name) = p
	return nil
}

// RemoveElement implements semantics.Object.
func (d *Document) RemoveElement(name string) error {
	d.Delete(name)
	return nil
}

// restored makes a page from a page encoding the caller keeps: a view of one
// copy of it, which holds the page's content and type.
func restored(data []byte) (Page, error) {
	return viewPage(append([]byte(nil), data...))
}

// Snapshot implements semantics.Object (full state transfer). It sizes its
// buffer first and appends every page into it: one allocation for the state.
func (d *Document) Snapshot() ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.pages))
	size := 4
	for n, p := range d.pages {
		names = append(names, n)
		size += 4 + len(n) + 4 + pageSize(p)
	}
	sort.Strings(names)
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, size), uint32(len(names)))
	for _, n := range names {
		p := d.pages[n]
		buf = appendString(buf, n)
		buf = binary.BigEndian.AppendUint32(buf, uint32(pageSize(p)))
		buf = appendPage(buf, p)
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
	pages := make(map[string]*Page, n)
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
		pages[name] = &p
	}
	if len(data) != 0 {
		return fmt.Errorf("webdoc: %d trailing snapshot bytes", len(data))
	}
	d.mu.Lock()
	d.pages = pages
	d.mu.Unlock()
	return nil
}

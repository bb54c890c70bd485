package webdoc

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"unsafe"
)

// WriteArgs is the argument record of PutPage/AppendPage invocations, kept
// as an explicit type so that clients and the semantics object agree on one
// encoding without the replication layer ever interpreting it.
type WriteArgs struct {
	Content       []byte
	ContentType   string
	ModifiedNanos int64
}

// EncodeWriteArgs marshals write arguments.
func EncodeWriteArgs(a WriteArgs) []byte { return AppendWriteArgs(nil, a) }

// AppendWriteArgs appends the encoding of write arguments to dst, growing it
// at most once.
func AppendWriteArgs(dst []byte, a WriteArgs) []byte {
	dst = slices.Grow(dst, 4+len(a.ContentType)+8+4+len(a.Content))
	dst = appendString(dst, a.ContentType)
	dst = binary.BigEndian.AppendUint64(dst, uint64(a.ModifiedNanos))
	return appendBytes(dst, a.Content)
}

// DecodeWriteArgs unmarshals write arguments into a record of its own.
func DecodeWriteArgs(b []byte) (WriteArgs, error) {
	contentType, content, modifiedNanos, err := splitWriteArgs(b)
	if err != nil {
		return WriteArgs{}, err
	}
	a := WriteArgs{ContentType: string(contentType), ModifiedNanos: modifiedNanos}
	if len(content) > 0 {
		a.Content = append([]byte(nil), content...)
	}
	return a, nil
}

// splitWriteArgs parses write arguments in place: contentType and content
// are windows of b.
func splitWriteArgs(b []byte) (contentType, content []byte, modifiedNanos int64, err error) {
	if contentType, b, err = takeField(b, "string"); err != nil {
		return nil, nil, 0, err
	}
	if len(b) < 8 {
		return nil, nil, 0, fmt.Errorf("webdoc: short write args")
	}
	modifiedNanos = int64(binary.BigEndian.Uint64(b))
	if content, b, err = takeField(b[8:], "bytes"); err != nil {
		return nil, nil, 0, err
	}
	if len(b) != 0 {
		return nil, nil, 0, fmt.Errorf("webdoc: %d trailing write-arg bytes", len(b))
	}
	return contentType, content, modifiedNanos, nil
}

// EncodePage marshals a page (content, type, version, modified time) into a
// buffer of exactly its size: one allocation, the content copied once.
func EncodePage(p *Page) []byte { return appendPage(make([]byte, 0, pageSize(p)), p) }

// appendPage appends a page's encoding to dst, growing it at most once. It is
// the one page encoder: reads, element transfers and snapshots all use it.
func appendPage(dst []byte, p *Page) []byte {
	dst = slices.Grow(dst, pageSize(p))
	dst = appendString(dst, p.ContentType)
	dst = binary.BigEndian.AppendUint64(dst, p.Version)
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.ModifiedNanos))
	return appendBytes(dst, p.Content)
}

// pageSize is the length of a page's encoding.
func pageSize(p *Page) int { return 4 + len(p.ContentType) + 8 + 8 + 4 + len(p.Content) }

// decoded is a Page allocated together with room for a short content type.
type decoded struct {
	Page
	ct [24]byte
}

// DecodePage unmarshals a page into two allocations: the page, which holds a
// content type of up to 24 bytes too, and its content. One buffer for type
// and content would cost a page-sized read a larger size class than the
// content alone (a 4 KiB page then takes 4 864 bytes, not 4 096).
func DecodePage(b []byte) (*Page, error) {
	v, err := viewPage(b)
	if err != nil {
		return nil, err
	}
	d := &decoded{Page: Page{Version: v.Version, ModifiedNanos: v.ModifiedNanos}}
	if n := copy(d.ct[:], v.ContentType); n == len(v.ContentType) && n > 0 {
		d.ContentType = unsafe.String(&d.ct[0], n)
	} else {
		d.ContentType = strings.Clone(v.ContentType)
	}
	if len(v.Content) > 0 {
		d.Content = append([]byte(nil), v.Content...)
	}
	return &d.Page, nil
}

// viewPage parses a page encoding without copying: ContentType is a string
// over b and Content a window of b with its capacity clamped (nil when
// empty), so b must never change afterwards.
func viewPage(b []byte) (Page, error) {
	contentType, b, err := takeField(b, "string")
	if err != nil {
		return Page{}, err
	}
	if len(b) < 16 {
		return Page{}, fmt.Errorf("webdoc: short page encoding")
	}
	p := Page{Version: binary.BigEndian.Uint64(b), ModifiedNanos: int64(binary.BigEndian.Uint64(b[8:]))}
	content, b, err := takeField(b[16:], "bytes")
	if err != nil {
		return Page{}, err
	}
	if len(b) != 0 {
		return Page{}, fmt.Errorf("webdoc: %d trailing page bytes", len(b))
	}
	if len(contentType) > 0 {
		p.ContentType = unsafe.String(&contentType[0], len(contentType))
	}
	if len(content) > 0 {
		p.Content = content[:len(content):len(content)]
	}
	return p, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// takeField splits one length-prefixed field off b without copying it; what
// names the field's kind in the error.
func takeField(b []byte, what string) (field, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("webdoc: short %s", what)
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < n {
		return nil, nil, fmt.Errorf("webdoc: short %s body", what)
	}
	return b[:n], b[n:], nil
}

func takeString(b []byte) (string, []byte, error) {
	f, rest, err := takeField(b, "string")
	return string(f), rest, err
}

// appendStrings appends a string list (ListPages reply) to dst.
func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ss)))
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

// DecodeStrings unmarshals a ListPages reply.
func DecodeStrings(b []byte) ([]string, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("webdoc: short string list")
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	out := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		var s string
		var err error
		s, b, err = takeString(b)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("webdoc: %d trailing list bytes", len(b))
	}
	return out, nil
}

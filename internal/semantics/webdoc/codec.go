package webdoc

import (
	"encoding/binary"
	"fmt"
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
func EncodeWriteArgs(a WriteArgs) []byte {
	buf := make([]byte, 0, 4+len(a.ContentType)+8+4+len(a.Content))
	buf = appendString(buf, a.ContentType)
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.ModifiedNanos))
	buf = appendBytes(buf, a.Content)
	return buf
}

// DecodeWriteArgs unmarshals write arguments.
func DecodeWriteArgs(b []byte) (WriteArgs, error) {
	var a WriteArgs
	var err error
	a.ContentType, b, err = takeString(b)
	if err != nil {
		return a, err
	}
	if len(b) < 8 {
		return a, fmt.Errorf("webdoc: short write args")
	}
	a.ModifiedNanos = int64(binary.BigEndian.Uint64(b))
	b = b[8:]
	a.Content, b, err = takeBytes(b)
	if err != nil {
		return a, err
	}
	if len(b) != 0 {
		return a, fmt.Errorf("webdoc: %d trailing write-arg bytes", len(b))
	}
	return a, nil
}

// EncodePage marshals a page (content, type, version, modified time) into a
// buffer sized up front: one allocation, the content copied once.
func EncodePage(p *Page) []byte {
	buf := make([]byte, 0, 4+len(p.ContentType)+8+8+4+len(p.Content))
	buf = appendString(buf, p.ContentType)
	buf = binary.BigEndian.AppendUint64(buf, p.Version)
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.ModifiedNanos))
	buf = appendBytes(buf, p.Content)
	return buf
}

// DecodePage unmarshals a page.
func DecodePage(b []byte) (*Page, error) {
	p := &Page{}
	var err error
	p.ContentType, b, err = takeString(b)
	if err != nil {
		return nil, err
	}
	if len(b) < 16 {
		return nil, fmt.Errorf("webdoc: short page encoding")
	}
	p.Version = binary.BigEndian.Uint64(b)
	p.ModifiedNanos = int64(binary.BigEndian.Uint64(b[8:]))
	b = b[16:]
	p.Content, b, err = takeBytes(b)
	if err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("webdoc: %d trailing page bytes", len(b))
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

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("webdoc: short string")
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < n {
		return "", nil, fmt.Errorf("webdoc: short string body")
	}
	return string(b[:n]), b[n:], nil
}

func takeBytes(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("webdoc: short bytes")
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < n {
		return nil, nil, fmt.Errorf("webdoc: short bytes body")
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out, b[n:], nil
}

// encodeStrings marshals a string list (ListPages reply).
func encodeStrings(ss []string) []byte {
	var buf []byte
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ss)))
	for _, s := range ss {
		buf = appendString(buf, s)
	}
	return buf
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

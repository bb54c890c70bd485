package msg

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/ids"
)

// writer accumulates the big-endian wire encoding.
type writer struct {
	buf []byte
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// str encodes a string with a u16 length prefix. Strings longer than 64 KiB
// are not used by any protocol message; encode truncates defensively rather
// than corrupting the frame.
func (w *writer) str(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	w.u16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

// bytes encodes a byte slice with a u32 length prefix.
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// inv encodes a marshalled invocation.
func (w *writer) inv(inv *Invocation) {
	w.u16(inv.Method)
	w.str(inv.Page)
	w.bytes(inv.Args)
}

// vecV encodes a Vec sorted by client, so equal vectors encode alike; a nil
// vector encodes as an empty one.
func (w *writer) vecV(v *Vec) {
	es := v.entries()
	w.u16(uint16(len(es)))
	for _, e := range es {
		w.u32(uint32(e.Client))
		w.u64(e.Seq)
	}
}

// reader consumes the wire encoding with bounds checks. With alias set,
// byte-slice fields are returned as sub-slices of buf instead of copies
// (zero-copy decode; the caller promises buf is immutable).
type reader struct {
	buf   []byte
	off   int
	alias bool
}

func (r *reader) need(n int) error {
	if r.off+n > len(r.buf) {
		return fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrShortMessage, n, r.off, len(r.buf))
	}
	return nil
}

func (r *reader) u8() (uint8, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if err := r.need(int(n)); err != nil {
		return "", err
	}
	if n == 0 {
		return "", nil
	}
	if r.alias {
		// The alias contract promises buf is immutable for the lifetime of
		// the decoded message, which is exactly the guarantee a string
		// header needs — so string fields decode zero-copy too.
		s := unsafe.String(&r.buf[r.off], int(n))
		r.off += int(n)
		return s, nil
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if err := r.need(int(n)); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if r.alias {
		b := r.buf[r.off : r.off+int(n) : r.off+int(n)]
		r.off += int(n)
		return b, nil
	}
	b := make([]byte, n)
	copy(b, r.buf[r.off:])
	r.off += int(n)
	return b, nil
}

// vecInto decodes a vector in place. Vectors that fit the inline array
// allocate nothing — this is the small-vector fast path that keeps
// DecodeAlias map-free; larger vectors spill to a map.
func (r *reader) vecInto(v *Vec) error {
	n, err := r.u16()
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	if int(n) > VecInline {
		// Bound the pre-allocation by what the remaining frame could hold
		// (12 wire bytes per entry), so a corrupt count cannot amplify.
		capHint := int(n)
		if max := r.remaining() / 12; capHint > max {
			capHint = max
		}
		v.spill = make(map[ids.ClientID]uint64, capHint)
	}
	for i := 0; i < int(n); i++ {
		c, err := r.u32()
		if err != nil {
			return err
		}
		s, err := r.u64()
		if err != nil {
			return err
		}
		v.Set(ids.ClientID(c), s)
	}
	return nil
}

// vecPtr decodes a vector that is nil when empty (Deps): an empty one
// allocates nothing, any other a fresh Vec.
func (r *reader) vecPtr() (*Vec, error) {
	if err := r.need(2); err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint16(r.buf[r.off:]) == 0 {
		r.off += 2
		return nil, nil
	}
	v := new(Vec)
	if err := r.vecInto(v); err != nil {
		return nil, err
	}
	return v, nil
}

func (r *reader) empty() bool    { return r.off == len(r.buf) }
func (r *reader) remaining() int { return len(r.buf) - r.off }

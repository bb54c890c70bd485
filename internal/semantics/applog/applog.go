// Package applog implements an append-only log semantics object. It models
// the paper's Web-forum / newsgroup example (§3.2.1): "a participant's
// reaction makes sense only if the audience has received the message that
// triggered the reaction" — the workload the causal coherence model serves.
//
// Entries are opaque payloads appended in order; reads return entries by
// index or the whole suffix after an index.
package applog

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/msg"
	"repro/internal/semantics"
)

// Method identifiers of the log interface.
const (
	MethodLen uint16 = iota + 1
	MethodEntry
	MethodSuffix
	MethodAppend
)

var methodTable = []semantics.MethodInfo{
	{ID: MethodLen, Name: "Len", Kind: semantics.Read},
	{ID: MethodEntry, Name: "Entry", Kind: semantics.Read},
	{ID: MethodSuffix, Name: "Suffix", Kind: semantics.Read},
	{ID: MethodAppend, Name: "Append", Kind: semantics.Write},
}

// logElement is the single partial-transfer element name: the log transfers
// as a unit (its entries are causally interdependent).
const logElement = "log"

// Log is a thread-safe append-only log semantics object. The zero value is
// an empty log ready for use.
type Log struct {
	mu      sync.RWMutex
	entries [][]byte
}

var _ semantics.Object = (*Log)(nil)

// New returns an empty log.
func New() *Log { return &Log{} }

// Factory returns a semantics.Factory creating empty logs.
func Factory() semantics.Factory {
	return func() semantics.Object { return New() }
}

// Methods implements semantics.Object.
func (l *Log) Methods() []semantics.MethodInfo { return methodTable }

// Invoke implements semantics.Object. Entry/Suffix take a big-endian u32
// index in Args; Append takes the payload in Args.
func (l *Log) Invoke(inv msg.Invocation) ([]byte, error) {
	if inv.Method == MethodAppend {
		l.Append(inv.Args)
		return nil, nil
	}
	return l.AppendRead(nil, inv)
}

// AppendRead implements semantics.Object: Len appends the entry count, Entry
// one entry, Suffix the encoding of every entry from the index on.
func (l *Log) AppendRead(dst []byte, inv msg.Invocation) ([]byte, error) {
	switch inv.Method {
	case MethodLen:
		return binary.BigEndian.AppendUint32(dst, uint32(l.Len())), nil
	case MethodEntry, MethodSuffix:
	default:
		return nil, fmt.Errorf("%w: %d", semantics.ErrUnknownMethod, inv.Method)
	}
	if len(inv.Args) < 4 {
		return nil, fmt.Errorf("applog: method %d needs a u32 index", inv.Method)
	}
	i := uint(binary.BigEndian.Uint32(inv.Args))
	l.mu.RLock()
	defer l.mu.RUnlock()
	if inv.Method == MethodSuffix {
		return appendEntries(dst, l.entries[min(i, uint(len(l.entries))):]), nil
	}
	if i >= uint(len(l.entries)) {
		return nil, fmt.Errorf("%w: entry %d", semantics.ErrNoElement, i)
	}
	return append(dst, l.entries[i]...), nil
}

// Append adds a copy of payload to the log.
func (l *Log) Append(payload []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, append([]byte(nil), payload...))
}

// Entry returns a copy of the i-th entry.
func (l *Log) Entry(i int) ([]byte, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if i < 0 || i >= len(l.entries) {
		return nil, false
	}
	return append([]byte(nil), l.entries[i]...), true
}

// Suffix returns copies of all entries from index i on.
func (l *Log) Suffix(i int) [][]byte {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if i < 0 {
		i = 0
	}
	if i >= len(l.entries) {
		return nil
	}
	out := make([][]byte, 0, len(l.entries)-i)
	for _, e := range l.entries[i:] {
		out = append(out, append([]byte(nil), e...))
	}
	return out
}

// Len returns the number of entries.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries)
}

// Elements implements semantics.Object.
func (l *Log) Elements() []string { return []string{logElement} }

// AppendElement implements semantics.Object: the whole log, as Snapshot
// encodes it.
func (l *Log) AppendElement(dst []byte, name string) ([]byte, error) {
	if name != logElement {
		return nil, fmt.Errorf("%w: %q", semantics.ErrNoElement, name)
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return appendEntries(dst, l.entries), nil
}

// RestoreElement implements semantics.Object.
func (l *Log) RestoreElement(name string, data []byte) error {
	if name != logElement {
		return fmt.Errorf("%w: %q", semantics.ErrNoElement, name)
	}
	return l.Restore(data)
}

// RemoveElement implements semantics.Object: removing the log empties it.
func (l *Log) RemoveElement(name string) error {
	if name == logElement {
		l.mu.Lock()
		l.entries = nil
		l.mu.Unlock()
	}
	return nil
}

// Snapshot implements semantics.Object: the entries encoded into one buffer
// of exactly their size.
func (l *Log) Snapshot() ([]byte, error) { return l.AppendElement(nil, logElement) }

// Restore implements semantics.Object.
func (l *Log) Restore(data []byte) error {
	entries, err := DecodeEntries(data)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.entries = entries
	l.mu.Unlock()
	return nil
}

// appendEntries appends the encoding of entries to dst (Snapshot, Suffix),
// growing it at most once: u32 count, then u32-length-prefixed entries.
func appendEntries(dst []byte, entries [][]byte) []byte {
	size := 4
	for _, e := range entries {
		size += 4 + len(e)
	}
	dst = binary.BigEndian.AppendUint32(slices.Grow(dst, size), uint32(len(entries)))
	for _, e := range entries {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(e)))
		dst = append(dst, e...)
	}
	return dst
}

// EncodeIndex marshals the u32 index argument of MethodEntry / MethodSuffix.
func EncodeIndex(i int) []byte {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], uint32(i))
	return buf[:]
}

// DecodeLen unmarshals a MethodLen reply.
func DecodeLen(b []byte) (int, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("applog: short length reply")
	}
	return int(binary.BigEndian.Uint32(b)), nil
}

// DecodeEntries unmarshals the encoding produced by Snapshot / Suffix.
func DecodeEntries(b []byte) ([][]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("applog: short entries encoding")
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	out := make([][]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("applog: short entry header")
		}
		m := binary.BigEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < m {
			return nil, fmt.Errorf("applog: short entry body")
		}
		e := make([]byte, m)
		copy(e, b)
		out = append(out, e)
		b = b[m:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("applog: %d trailing bytes", len(b))
	}
	return out, nil
}

// Package kvstore implements a generic key-value semantics object. It
// models the paper's shared bibliographic-database example (§3.2.1): clients
// add records and later update individual fields, which is exactly the
// incremental-update pattern PRAM coherence serves well.
package kvstore

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/msg"
	"repro/internal/semantics"
)

// Method identifiers of the key-value interface.
const (
	MethodGet uint16 = iota + 1
	MethodKeys
	MethodPut
	MethodDelete
)

var methodTable = []semantics.MethodInfo{
	{ID: MethodGet, Name: "Get", Kind: semantics.Read},
	{ID: MethodKeys, Name: "Keys", Kind: semantics.Read},
	{ID: MethodPut, Name: "Put", Kind: semantics.Write},
	{ID: MethodDelete, Name: "Delete", Kind: semantics.Write},
}

// Store is a thread-safe key-value semantics object. The zero value is an
// empty store ready for use. Keys are the elements for partial transfer.
type Store struct {
	mu   sync.RWMutex
	data map[string][]byte
}

var _ semantics.Object = (*Store)(nil)

// New returns an empty store.
func New() *Store { return &Store{} }

// Factory returns a semantics.Factory creating empty stores.
func Factory() semantics.Factory {
	return func() semantics.Object { return New() }
}

// Methods implements semantics.Object.
func (s *Store) Methods() []semantics.MethodInfo { return methodTable }

// Invoke implements semantics.Object. The invocation's Page field carries
// the key; Args carry the value for Put.
func (s *Store) Invoke(inv msg.Invocation) ([]byte, error) {
	switch inv.Method {
	case MethodPut:
		s.Put(inv.Page, inv.Args)
		return nil, nil
	case MethodDelete:
		s.Delete(inv.Page)
		return nil, nil
	default:
		return s.AppendRead(nil, inv)
	}
}

// AppendRead implements semantics.Object: Get appends the key's value, Keys
// the sorted key set.
func (s *Store) AppendRead(dst []byte, inv msg.Invocation) ([]byte, error) {
	switch inv.Method {
	case MethodGet:
		return s.AppendElement(dst, inv.Page)
	case MethodKeys:
		return appendKeys(dst, s.Keys()), nil
	default:
		return nil, fmt.Errorf("%w: %d", semantics.ErrUnknownMethod, inv.Method)
	}
}

// Get returns a copy of the value for key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Put stores a copy of value under key. The key is copied with it, into one
// block: key may share a block with a write's arguments (a replica's
// update), and a map assignment stores the key it is given even when the key
// is present, so an uncloned key would pin that block until the key's next
// write. The copy is the one Put always made, so a new key costs nothing
// extra.
func (s *Store) Put(key string, value []byte) {
	b := make([]byte, len(key)+len(value))
	copy(b, key)
	copy(b[len(key):], value)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data == nil {
		s.data = make(map[string][]byte)
	}
	s.data[unsafe.String(unsafe.SliceData(b), len(key))] = b[len(key):]
}

// Delete removes key (idempotent).
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, key)
}

// Keys returns the sorted key set.
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Len returns the number of keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Elements implements semantics.Object.
func (s *Store) Elements() []string { return s.Keys() }

// AppendElement implements semantics.Object: the key's value.
func (s *Store) AppendElement(dst []byte, name string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[name]
	if !ok {
		return nil, fmt.Errorf("%w: key %q", semantics.ErrNoElement, name)
	}
	return append(dst, v...), nil
}

// RestoreElement implements semantics.Object.
func (s *Store) RestoreElement(name string, data []byte) error {
	s.Put(name, data)
	return nil
}

// RemoveElement implements semantics.Object.
func (s *Store) RemoveElement(name string) error {
	s.Delete(name)
	return nil
}

// Snapshot implements semantics.Object. It sizes its buffer first and
// appends every entry into it: one allocation for the state.
func (s *Store) Snapshot() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.data))
	size := 4
	for k, v := range s.data {
		keys = append(keys, k)
		size += 4 + len(k) + 4 + len(v)
	}
	sort.Strings(keys)
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, size), uint32(len(keys)))
	for _, k := range keys {
		buf = appendChunk(buf, k)
		v := s.data[k]
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	}
	return buf, nil
}

// Restore implements semantics.Object.
func (s *Store) Restore(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("kvstore: short snapshot")
	}
	n := binary.BigEndian.Uint32(data)
	data = data[4:]
	m := make(map[string][]byte, n)
	for i := uint32(0); i < n; i++ {
		k, rest, err := takeChunk(data)
		if err != nil {
			return err
		}
		v, rest2, err := takeChunk(rest)
		if err != nil {
			return err
		}
		m[string(k)] = v
		data = rest2
	}
	if len(data) != 0 {
		return fmt.Errorf("kvstore: %d trailing snapshot bytes", len(data))
	}
	s.mu.Lock()
	s.data = m
	s.mu.Unlock()
	return nil
}

// appendKeys appends a MethodKeys reply to dst: u32 count, then
// u32-length-prefixed keys.
func appendKeys(dst []byte, keys []string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = appendChunk(dst, k)
	}
	return dst
}

// appendChunk appends one u32-length-prefixed string to dst.
func appendChunk(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// DecodeKeys unmarshals a MethodKeys reply.
func DecodeKeys(b []byte) ([]string, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("kvstore: short keys encoding")
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	// Bound the pre-allocation by what the reply could actually hold (each
	// key occupies at least 4 wire bytes), so a corrupt count cannot
	// amplify into a huge allocation.
	capHint := int(n)
	if max := len(b) / 4; capHint > max {
		capHint = max
	}
	out := make([]string, 0, capHint)
	for i := uint32(0); i < n; i++ {
		k, rest, err := takeChunk(b)
		if err != nil {
			return nil, err
		}
		out = append(out, string(k))
		b = rest
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("kvstore: %d trailing key bytes", len(b))
	}
	return out, nil
}

func takeChunk(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("kvstore: short chunk")
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < n {
		return nil, nil, fmt.Errorf("kvstore: short chunk body")
	}
	out := make([]byte, n)
	copy(out, b)
	return out, b[n:], nil
}

package wal

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/msg"
)

// sealSnapshot frames body as a snapshot file: the magic, body, and a CRC
// over both, so a corrupt body reaches the decoder and not the checksum.
func sealSnapshot(body []byte) []byte {
	b := append(append([]byte(nil), snapMagic...), body...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// snapAllocBound is the most decodeSnapshot may allocate for an n-byte file:
// a small multiple of the file plus the snapshot itself.
func snapAllocBound(n int) uint64 { return uint64(16*n + 4096) }

// allocBytes reports the bytes the process allocated while f ran.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// countedBody is a snapshot body with no applied entries and no admissions
// whose child count claims n children it does not hold.
func countedBody(children uint32) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, 0) // NextGlobal
	b = binary.LittleEndian.AppendUint64(b, 0) // Lamport
	b = binary.LittleEndian.AppendUint32(b, 0) // applied entries
	b = binary.LittleEndian.AppendUint32(b, 0) // admissions
	return binary.LittleEndian.AppendUint32(b, children)
}

// TestDecodeSnapshotCapsCounts: a checksum-valid snapshot whose child count
// the file cannot hold is rejected at the count, without a child appended
// per claimed entry.
func TestDecodeSnapshotCapsCounts(t *testing.T) {
	data := sealSnapshot(countedBody(1 << 16))
	var ok bool
	n := allocBytes(func() { _, ok = decodeSnapshot(data) })
	if ok {
		t.Fatal("decodeSnapshot accepted 65 536 children in a file too short for them")
	}
	if n > snapAllocBound(len(data)) {
		t.Fatalf("decodeSnapshot of a %d-byte file allocated %d bytes, bound %d", len(data), n, snapAllocBound(len(data)))
	}
}

// FuzzDecodeSnapshot decodes arbitrary snapshot bodies under a valid
// checksum: the decoder may not panic or allocate out of proportion to the
// file, and a snapshot it accepts must survive a re-encode unchanged.
func FuzzDecodeSnapshot(f *testing.F) {
	s := &Snapshot{State: []byte("state"), NextGlobal: 6, Lamport: 9, Children: []string{"cache-1", ""}}
	s.Applied.Set(1, 4)
	s.Applied.Set(7, 19)
	s.Stamped = []ClientAdmission{{Client: 7, Max: 19, Holes: []uint64{12, 15}}, {Client: 2, Max: 1}}
	full := encodeSnapshot(s)
	f.Add(full[len(snapMagic) : len(full)-4])
	f.Add(countedBody(1 << 16))
	f.Fuzz(func(t *testing.T, body []byte) {
		data := sealSnapshot(body)
		var got *Snapshot
		var ok bool
		if n := allocBytes(func() { got, ok = decodeSnapshot(data) }); n > snapAllocBound(len(data)) {
			t.Fatalf("decodeSnapshot of a %d-byte file allocated %d bytes", len(data), n)
		}
		if !ok {
			return
		}
		again, ok := decodeSnapshot(encodeSnapshot(got))
		if !ok {
			t.Fatal("re-encoded snapshot does not decode")
		}
		if !sameSnapshot(got, again) {
			t.Fatalf("re-encode changed the snapshot:\n%+v\n%+v", got, again)
		}
	})
}

// sameSnapshot compares two snapshots with their applied vectors taken entry
// by entry, as a vector naming a client twice may decode spilled.
func sameSnapshot(a, b *Snapshot) bool {
	x, y := *a, *b
	x.Applied, y.Applied = msg.Vec{}, msg.Vec{}
	return a.Applied.Equal(&b.Applied) && reflect.DeepEqual(x, y)
}

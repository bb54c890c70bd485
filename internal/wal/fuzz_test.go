package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/vclock"
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

// allocBytes reports the bytes the process allocated while f ran, as the
// least over three runs. The count is process-wide, and a fuzzing worker
// allocates on its own goroutines now and then: one such 5 488-byte burst
// failed a 37-byte input that decodeSnapshot rejects at its first count. f
// is deterministic, so every run of it allocates the same.
func allocBytes(f func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// countedBody is a snapshot body with no admissions whose child count claims
// n children it does not hold.
func countedBody(children uint32) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, 0) // Lamport
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
	s := &Snapshot{State: []byte("state"), Lamport: 9, Children: []string{"cache-1", ""}}
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
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("re-encode changed the snapshot:\n%+v\n%+v", got, again)
		}
	})
}

// resealLog recomputes the CRC of every record whose length fits in data, so
// a mutated record reaches decodeRecord instead of failing its checksum.
func resealLog(data []byte) []byte {
	data = append([]byte(nil), data...)
	for off := 0; len(data)-off >= 9; {
		n := int(binary.LittleEndian.Uint32(data[off+1:]))
		if n > maxRecord || len(data)-off < 9+n {
			break
		}
		binary.LittleEndian.PutUint32(data[off+5+n:], crc32.ChecksumIEEE(data[off:off+5+n]))
		off += 9 + n
	}
	return data
}

// FuzzScanLog scans arbitrary logs whose records carry valid checksums: the
// scanner and decodeRecord may not panic or allocate out of proportion to
// the log, the valid prefix must end on a record boundary, and scanning that
// prefix alone must find the same records and no tear.
func FuzzScanLog(f *testing.F) {
	dir := f.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	u := &coherence.Update{Write: ids.WiD{Client: 3, Seq: 1}, GlobalSeq: 4, Stamp: vclock.Stamp{Time: 9, Client: 3},
		Deps: new(msg.Vec), Inv: msg.Invocation{Method: 4, Page: "p", Args: []byte("args")}, WallNanos: 7}
	u.Deps.Set(2, 5)
	if err := l.AppendUpdate(u); err != nil {
		f.Fatal(err)
	}
	if err := l.AppendAdmit(3, 1); err != nil {
		f.Fatal(err)
	}
	if err := l.AppendChild("cache-1", false); err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Fuzz(func(t *testing.T, raw []byte) {
		data := resealLog(raw)
		var records []Record
		var good int64
		var torn uint64
		if n := allocBytes(func() { records, good, torn = scanLog(data) }); n > snapAllocBound(len(data)) {
			t.Fatalf("scanLog of a %d-byte log allocated %d bytes", len(data), n)
		}
		if good < 0 || good > int64(len(data)) || (torn == 0) != (good == int64(len(data))) {
			t.Fatalf("scanLog of %d bytes: valid prefix %d, torn %d", len(data), good, torn)
		}
		again, good2, torn2 := scanLog(data[:good])
		if good2 != good || torn2 != 0 || len(again) != len(records) {
			t.Fatalf("the valid prefix rescans to %d records up to %d (torn %d), want %d up to %d",
				len(again), good2, torn2, len(records), good)
		}
	})
}

package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/vclock"
)

func mkUpdate(c ids.ClientID, seq uint64) *coherence.Update {
	deps := new(msg.Vec)
	deps.Set(c, seq)
	return &coherence.Update{
		Write:     ids.WiD{Client: c, Seq: seq},
		GlobalSeq: seq,
		Stamp:     vclock.Stamp{Time: seq * 10, Client: c},
		Deps:      deps,
		Inv:       msg.Invocation{Method: 4, Page: "p", Args: []byte("x")},
		WallNanos: 42,
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Records) != 0 || rec.TornTail != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	if err := l.AppendAdmit(3, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendUpdate(mkUpdate(3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendChild("store/1.2.3.4:99", false); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendChild("store/1.2.3.4:99", true); err != nil {
		t.Fatal(err)
	}
	if got := l.Appends(); got != 4 {
		t.Fatalf("Appends = %d, want 4", got)
	}
	if l.Size() <= 0 {
		t.Fatal("Size not tracked")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec2.TornTail != 0 {
		t.Fatalf("TornTail = %d on clean log", rec2.TornTail)
	}
	if len(rec2.Records) != 4 {
		t.Fatalf("recovered %d records, want 4", len(rec2.Records))
	}
	if a := rec2.Records[0].Admit; a == nil || a.Client != 3 || a.Seq != 1 {
		t.Fatalf("record 0 = %+v, want admit c3#1", rec2.Records[0])
	}
	u := rec2.Records[1].Update
	if u == nil {
		t.Fatalf("record 1 = %+v, want update", rec2.Records[1])
	}
	want := mkUpdate(3, 1)
	if u.Write != want.Write || u.GlobalSeq != want.GlobalSeq || u.Stamp != want.Stamp ||
		u.Inv.Page != want.Inv.Page || string(u.Inv.Args) != string(want.Inv.Args) ||
		u.Deps.Get(3) != 1 || u.WallNanos != 42 {
		t.Fatalf("update round-trip mismatch: %+v", u)
	}
	if c := rec2.Records[2].Child; c == nil || c.Addr != "store/1.2.3.4:99" || c.Remove {
		t.Fatalf("record 2 = %+v", rec2.Records[2])
	}
	if c := rec2.Records[3].Child; c == nil || !c.Remove {
		t.Fatalf("record 3 = %+v", rec2.Records[3])
	}
}

// A crash mid-append leaves a torn tail: recovery must keep the valid
// prefix, truncate the tear, and count it.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := l.AppendUpdate(mkUpdate(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the last record in half.
	torn := data[:len(data)-len(data)/6]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornTail != 1 {
		t.Fatalf("TornTail = %d, want 1", rec.TornTail)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want 2", len(rec.Records))
	}
	// The log must be appendable again and recover cleanly afterwards.
	if err := l2.AppendUpdate(mkUpdate(1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec3.TornTail != 0 || len(rec3.Records) != 3 {
		t.Fatalf("after repair: torn=%d records=%d, want 0/3", rec3.TornTail, len(rec3.Records))
	}
}

// A flipped byte mid-log fails that record's CRC; everything from it on is
// dropped (we cannot trust record framing past a corrupt length/payload).
func TestFlippedByteTruncates(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := l.AppendAdmit(7, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recLen := len(data) / 3
	data[recLen+7] ^= 0xff // inside the second record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornTail != 1 || len(rec.Records) != 1 {
		t.Fatalf("torn=%d records=%d, want 1/1", rec.TornTail, len(rec.Records))
	}
	if a := rec.Records[0].Admit; a == nil || a.Seq != 1 {
		t.Fatalf("surviving record = %+v", rec.Records[0])
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		if err := l.AppendUpdate(mkUpdate(2, i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := &Snapshot{
		State:    []byte("full-state"),
		Lamport:  50,
		Stamped:  []ClientAdmission{{Client: 2, Max: 5, Holes: []uint64{3}}},
		Children: []string{"store/kid:1"},
	}
	if err := l.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if l.Appends() != 0 || l.Size() != 0 {
		t.Fatalf("log not reset after snapshot: appends=%d size=%d", l.Appends(), l.Size())
	}
	// Tail past the snapshot.
	if err := l.AppendUpdate(mkUpdate(2, 6)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Snapshot
	if s == nil {
		t.Fatal("snapshot not recovered")
	}
	if string(s.State) != "full-state" || s.Lamport != 50 {
		t.Fatalf("snapshot mismatch: %+v", s)
	}
	if len(s.Stamped) != 1 || s.Stamped[0].Max != 5 || len(s.Stamped[0].Holes) != 1 {
		t.Fatalf("admission state mismatch: %+v", s.Stamped)
	}
	if len(s.Children) != 1 || s.Children[0] != "store/kid:1" {
		t.Fatalf("children mismatch: %+v", s.Children)
	}
	if len(rec.Records) != 1 || rec.Records[0].Update == nil || rec.Records[0].Update.Write.Seq != 6 {
		t.Fatalf("tail mismatch: %+v", rec.Records)
	}
}

// A corrupt snapshot file must not fail recovery: it counts as torn and the
// log alone recovers.
func TestCorruptSnapshotIgnored(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(&Snapshot{State: []byte("s")}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendAdmit(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snapshot")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil {
		t.Fatal("corrupt snapshot was believed")
	}
	if rec.TornTail != 1 || len(rec.Records) != 1 {
		t.Fatalf("torn=%d records=%d, want 1/1", rec.TornTail, len(rec.Records))
	}
}

// A GSNP1 snapshot written when the applied vector was a map lists its
// entries in map-iteration order, so the decoder must take them in any order.
// The hand-built files below list them in descending client order, once
// within msg.VecInline entries and once beyond it; each decodes to an engine
// state holding them all, ahead of the content.
func TestSnapshotWithUnsortedVectorDecodes(t *testing.T) {
	for _, n := range []int{msg.VecInline, 3 * msg.VecInline} {
		b := append([]byte(nil), snapMagic1...)
		b = binary.LittleEndian.AppendUint64(b, 6) // sequencer position
		b = binary.LittleEndian.AppendUint64(b, 9) // Lamport
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
		for c := n; c >= 1; c-- {
			b = binary.LittleEndian.AppendUint32(b, uint32(c))
			b = binary.LittleEndian.AppendUint64(b, uint64(100+c))
		}
		b = binary.LittleEndian.AppendUint32(b, 0) // no admissions
		b = binary.LittleEndian.AppendUint32(b, 0) // no children
		b = binary.LittleEndian.AppendUint32(b, 1)
		b = append(b, 's')
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))

		s, ok := decodeSnapshot(b)
		if !ok {
			t.Fatalf("%d entries: hand-built snapshot rejected", n)
		}
		st, content, err := coherence.SplitState(s.State)
		if err != nil || st.Applied.Len() != n || st.Global != 6 || s.Lamport != 9 || string(content) != "s" || st.Stamps != nil {
			t.Fatalf("%d entries: decoded %+v (%v), content %q, lamport %d", n, st, err, content, s.Lamport)
		}
		for c := 1; c <= n; c++ {
			if got := st.Applied.Get(ids.ClientID(c)); got != uint64(100+c) {
				t.Fatalf("%d entries: client %d at %d, want %d", n, c, got, 100+c)
			}
		}
		again, ok := decodeSnapshot(encodeSnapshot(s))
		if !ok || !reflect.DeepEqual(again, s) {
			t.Fatalf("%d entries: re-encoded snapshot decodes to %+v", n, again)
		}
	}
}

// encodeSnapshot is the snapshot file WriteSnapshot writes for s: the header,
// the state, and the CRC of both.
func encodeSnapshot(s *Snapshot) []byte {
	b := append(appendSnapshotHeader(nil, s), s.State...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// goldenSnapshot is a snapshot, the GSNP2 file WriteSnapshot writes for it,
// and the GSNP1 file an earlier encoder wrote for the same replica state,
// which held the applied vector {1:4, 7:19} and sequencer position 6 in its
// header and the content "<state>" alone as its state.
func goldenSnapshot() (s *Snapshot, gsnp2, gsnp1 string) {
	st := &coherence.State{Global: 6}
	st.Applied.Set(1, 4)
	st.Applied.Set(7, 19)
	s = &Snapshot{State: append(st.Append(nil), "<state>"...), Lamport: 9, Children: []string{"cache-1", "cache-2"}}
	s.Stamped = []ClientAdmission{{Client: 7, Max: 19, Holes: []uint64{12, 15}}, {Client: 2, Max: 1}}
	return s,
		"47534e5032090000000000000002000000070000001300000000000000020000000c000000000000000f" +
			"0000000000000002000000010000000000000000000000020000000700000063616368652d3107000000" +
			"63616368652d322f00000006000000000000000200000001000000040000000000000007000000130000" +
			"0000000000000000003c73746174653ee4de17d9",
		"47534e5031060000000000000009000000000000000200000001000000040000000000000007000000" +
			"130000000000000002000000070000001300000000000000020000000c000000000000000f00000000" +
			"00000002000000010000000000000000000000020000000700000063616368652d310700000063616368" +
			"652d32070000003c73746174653e80cf26ce"
}

// WriteSnapshot writes header, state and CRC separately; the file must be
// byte for byte what encodeSnapshot builds in one buffer, and the pinned
// GSNP2 encoding. A GSNP1 file from before the engine state moved into the
// state recovers to the same snapshot, with no page stamps.
func TestSnapshotFileIsEncodeSnapshot(t *testing.T) {
	s, gsnp2, gsnp1 := goldenSnapshot()
	want, err := hex.DecodeString(gsnp2)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeSnapshot(s); !bytes.Equal(got, want) {
		t.Fatalf("encodeSnapshot = %x\nwant %x", got, want)
	}
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(s); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, snapName)); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("snapshot file = %x (%v)\nwant %x", got, err, want)
	}

	for name, file := range map[string]string{"GSNP2": gsnp2, "GSNP1": gsnp1} {
		data, err := hex.DecodeString(file)
		if err != nil {
			t.Fatal(err)
		}
		old := t.TempDir()
		if err := os.WriteFile(filepath.Join(old, snapName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, rec, err := Open(old)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Snapshot == nil || !reflect.DeepEqual(rec.Snapshot, s) {
			t.Fatalf("%s snapshot recovered as %+v, want %+v", name, rec.Snapshot, s)
		}
	}
}

// A snapshot that cannot be written (its temp path is taken by a directory)
// fails before the rename: the old snapshot and the whole log stay, and every
// record recovers.
func TestFailedSnapshotKeepsTheLog(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 2; i++ {
		if err := l.AppendUpdate(mkUpdate(2, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteSnapshot(&Snapshot{State: []byte("old")}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(3); i <= 5; i++ {
		if err := l.AppendUpdate(mkUpdate(2, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, snapName+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	size := l.Size()
	if err := l.WriteSnapshot(&Snapshot{State: []byte("new")}); err == nil {
		t.Fatal("WriteSnapshot over a blocked temp path succeeded")
	}
	if l.Appends() != 3 || l.Size() != size {
		t.Fatalf("failed snapshot touched the log: appends=%d size=%d, want 3/%d", l.Appends(), l.Size(), size)
	}
	if err := l.AppendUpdate(mkUpdate(2, 6)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || string(rec.Snapshot.State) != "old" {
		t.Fatalf("recovered snapshot %+v, want the old one", rec.Snapshot)
	}
	if len(rec.Records) != 4 {
		t.Fatalf("recovered %d records, want 4", len(rec.Records))
	}
	for i, r := range rec.Records {
		if r.Update == nil || r.Update.Write.Seq != uint64(3+i) {
			t.Fatalf("record %d = %+v, want update seq %d", i, r, 3+i)
		}
	}
}

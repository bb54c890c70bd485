package wal

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/vclock"
)

// goldenUpdate is one update and the exact wal.log bytes its AppendUpdate
// record takes on disk.
type goldenUpdate struct {
	name string
	u    *coherence.Update
	hex  string
}

// goldenUpdates covers an update with Deps, one without, and one whose
// Deps spills past the inline vector.
func goldenUpdates() []goldenUpdate {
	deps := new(msg.Vec)
	deps.Set(3, 6)
	deps.Set(9, 2)
	spill := new(msg.Vec)
	for c := 1; c <= msg.VecInline+2; c++ {
		spill.Set(ids.ClientID(c), uint64(100+c))
	}
	mk := func(seq uint64, d *msg.Vec) *coherence.Update {
		return &coherence.Update{
			Write:     ids.WiD{Client: 3, Seq: seq},
			GlobalSeq: 10 + seq,
			Stamp:     vclock.Stamp{Time: 70 + seq, Client: 3},
			Deps:      d,
			Inv:       msg.Invocation{Method: 4, Page: "index.html", Args: []byte("<h1>hi</h1>")},
			WallNanos: 1_700_000_000_000_000_000,
		}
	}
	return []goldenUpdate{
		{name: "deps", u: mk(7, deps), hex: "0196000000050a00000000000000000000000000000000000000000000000000" +
			"0300000000000000070000000000000011000000000000004d00000003000000" +
			"0200000003000000000000000600000009000000000000000200000000000000" +
			"0000000000000000000004000a696e6465782e68746d6c0000000b3c68313e68" +
			"693c2f68313e00000000000017979cfe362a0000000000000000000a192a35"},
		{name: "nodeps", u: mk(8, nil), hex: "017e000000050a00000000000000000000000000000000000000000000000000" +
			"0300000000000000080000000000000012000000000000004e00000003000000" +
			"00000000000000000000000000000000000004000a696e6465782e68746d6c00" +
			"00000b3c68313e68693c2f68313e00000000000017979cfe362a000000000000" +
			"000000b00ec556"},
		{name: "spill", u: mk(9, spill), hex: "01f6000000050a00000000000000000000000000000000000000000000000000" +
			"0300000000000000090000000000000013000000000000004f00000003000000" +
			"0a00000001000000000000006500000002000000000000006600000003000000" +
			"0000000067000000040000000000000068000000050000000000000069000000" +
			"06000000000000006a00000007000000000000006b0000000800000000000000" +
			"6c00000009000000000000006d0000000a000000000000006e00000000000000" +
			"0000000000000000000004000a696e6465782e68746d6c0000000b3c68313e68" +
			"693c2f68313e00000000000017979cfe362a00000000000000000048b3165c"},
	}
}

// TestAppendUpdateGolden pins the on-disk record AppendUpdate writes: the
// bytes were taken from the encoding that built a KindUpdate message and
// copied its frame, so a log written by either reads back the same.
func TestAppendUpdateGolden(t *testing.T) {
	for _, g := range goldenUpdates() {
		t.Run(g.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.AppendUpdate(g.u); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, logName))
			if err != nil {
				t.Fatal(err)
			}
			if want := goldenBytes(t, g); !bytes.Equal(got, want) {
				t.Fatalf("record bytes changed:\n got %x\nwant %x", got, want)
			}
		})
	}
}

// TestRecoverGoldenLog opens a log made of the golden records, as an older
// build wrote it, and checks every update comes back as it went in.
func TestRecoverGoldenLog(t *testing.T) {
	dir := t.TempDir()
	var log []byte
	golden := goldenUpdates()
	for _, g := range golden {
		log = append(log, goldenBytes(t, g)...)
	}
	if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rec.TornTail != 0 || len(rec.Records) != len(golden) {
		t.Fatalf("recovered %d records (torn %d), want %d", len(rec.Records), rec.TornTail, len(golden))
	}
	for i, g := range golden {
		u, want := rec.Records[i].Update, g.u
		if u == nil {
			t.Fatalf("%s: record %+v is not an update", g.name, rec.Records[i])
		}
		if u.Write != want.Write || u.GlobalSeq != want.GlobalSeq || u.Stamp != want.Stamp ||
			u.WallNanos != want.WallNanos || u.Inv.Method != want.Inv.Method ||
			u.Inv.Page != want.Inv.Page || !bytes.Equal(u.Inv.Args, want.Inv.Args) ||
			!u.Deps.Equal(want.Deps) {
			t.Fatalf("%s: recovered %+v, want %+v", g.name, u, want)
		}
	}
}

// TestAppendUpdateAllocs pins a durable write's log append at zero
// allocations once the log's scratch buffer has grown. A spilled Deps
// costs the one allocation every encode of a spilled vector makes: its
// entries sorted by client.
func TestAppendUpdateAllocs(t *testing.T) {
	l, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, g := range goldenUpdates() {
		u := g.u
		if err := l.AppendUpdate(u); err != nil {
			t.Fatal(err)
		}
		want := 0.0
		if u.Deps.Len() > msg.VecInline {
			want = 1
		}
		if n := testing.AllocsPerRun(50, func() { _ = l.AppendUpdate(u) }); n != want {
			t.Fatalf("%s: AppendUpdate allocates %.1f times per record, want %.0f", g.name, n, want)
		}
	}
}

func goldenBytes(t *testing.T, g goldenUpdate) []byte {
	t.Helper()
	b, err := hex.DecodeString(g.hex)
	if err != nil {
		t.Fatalf("%s: bad golden hex: %v", g.name, err)
	}
	return b
}

// Package wal gives a permanent store's replicas durability: a per-object
// write-ahead log of the stamped updates and admission decisions the
// replication object produces, plus an atomically written snapshot that
// compacts the log. The WAL is exactly the stamped update log the ordering
// engines already keep, made persistent — replaying snapshot + log tail
// through the same engine reconstructs the replica byte for byte, and the
// engines' own duplicate suppression makes replay of a torn write prefix
// safe.
//
// On-disk layout (one directory per store+object):
//
//	wal.log   — append-only records: [type u8][len u32][payload][crc32 u32]
//	snapshot  — the replica's whole state (engine state, then content) +
//	            Lamport clock + admission state + children, written to a
//	            temp file and renamed into place
//
// Every record carries a CRC32 over type+len+payload; recovery truncates the
// log at the first record that fails the check (a torn tail from a crash
// mid-append) instead of failing, and reports how many times it had to.
//
//globelint:deterministic
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/coherence"
	"repro/internal/ids"
	"repro/internal/msg"
)

// Policy selects when WAL appends reach stable storage.
type Policy int

// Fsync policies, cheapest first.
const (
	// SyncOff never fsyncs during operation (data reaches the OS on every
	// append, the disk only on snapshot/close). A machine crash can lose
	// acknowledged writes; a process crash cannot.
	SyncOff Policy = iota
	// SyncInterval fsyncs on a timer: bounded loss window, near-SyncOff
	// throughput.
	SyncInterval
	// SyncAlways fsyncs before every write ack: zero acknowledged-write
	// loss even across power failure.
	SyncAlways
)

var policyNames = [...]string{SyncOff: "off", SyncInterval: "interval", SyncAlways: "always"}

// String names the policy ("off", "interval", "always").
func (p Policy) String() string {
	if p >= 0 && int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy parses a policy name as accepted by flags and manifests; the
// empty name is off.
func ParsePolicy(s string) (Policy, error) {
	if s == "" {
		return SyncOff, nil
	}
	if i := slices.Index(policyNames[:], s); i >= 0 {
		return Policy(i), nil
	}
	return SyncOff, fmt.Errorf("wal: unknown fsync policy %q (want off|interval|always)", s)
}

// Record types in wal.log.
//
//globelint:wiresym group=walrec
const (
	recUpdate byte = 1 // a stamped update (msg.Encode of its wire form)
	recAdmit  byte = 2 // an unstamped-write admission (client, seq)
	recChild  byte = 3 // a child subscription change (remove flag, addr)
)

// maxRecord bounds a record payload a reader will believe; anything larger
// is treated as a torn/corrupt tail.
const maxRecord = 1 << 26

// Admission is one replayed admission decision: this store minted a stamp
// for the client's write with this sequence number.
type Admission struct {
	Client ids.ClientID
	Seq    uint64
}

// ChildEvent is one replayed child-subscription change.
type ChildEvent struct {
	Addr   string
	Remove bool
}

// Record is one decoded WAL record; exactly one field is non-nil.
type Record struct {
	Update *coherence.Update
	Admit  *Admission
	Child  *ChildEvent
}

// ClientAdmission is one client's admission watermark+holes state inside a
// snapshot (see replication's stamped map).
type ClientAdmission struct {
	Client ids.ClientID
	Max    uint64
	Holes  []uint64
}

// Snapshot is the compacted replica state: everything recovery needs that
// is not in the log tail.
type Snapshot struct {
	// State is the replica's whole state as it sends it to another replica:
	// the encoded engine state (coherence.State: the applied vector, the
	// sequencer position, the eventual model's page stamps), then the
	// semantics object's full snapshot.
	State []byte
	// Lamport is the Lamport clock reading.
	Lamport uint64
	// Stamped is the per-client admission state.
	Stamped []ClientAdmission
	// Children are the subscribed child store addresses.
	Children []string
}

// Recovery is everything Open reconstructed from disk.
type Recovery struct {
	// Snapshot is the last compaction point (nil on a fresh directory or
	// when the snapshot file failed its checksum).
	Snapshot *Snapshot
	// Records is the log tail past the snapshot, in append order.
	Records []Record
	// TornTail counts corrupt tails truncated during this open (log tail
	// and/or snapshot file).
	TornTail uint64
}

// Log is an open write-ahead log for one replica. Not safe for concurrent
// use: the owning store serialises all calls on its event loop.
type Log struct {
	dir     string
	f       *os.File
	size    int64
	appends uint64      // records appended since the last snapshot
	dirty   bool        // appended since the last Sync
	scratch []byte      // the record being written
	m       msg.Message // the frame AppendUpdate encodes into scratch
}

const (
	logName  = "wal.log"
	snapName = "snapshot"
)

// Open opens (creating if needed) the WAL directory, recovers snapshot and
// log tail, truncates any torn tail, and returns the log positioned for
// appending.
func Open(dir string) (*Log, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	rec := &Recovery{}
	if snap, torn, err := readSnapshot(filepath.Join(dir, snapName)); err != nil {
		return nil, nil, err
	} else {
		rec.Snapshot = snap
		rec.TornTail += torn
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("wal: reading log: %w", err)
	}
	records, good, torn := scanLog(data)
	rec.Records = records
	rec.TornTail += torn
	if torn > 0 {
		if err := f.Truncate(good); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, f: f, size: good, appends: uint64(len(records))}
	return l, rec, nil
}

// scanLog decodes the log's records until its end or the first bad record,
// returning the records, the byte offset of the valid prefix, and 1 if a
// tear was found.
func scanLog(data []byte) ([]Record, int64, uint64) {
	var records []Record
	off := int64(0)
	for int64(len(data))-off >= 9 {
		hdr := data[off:]
		n := int64(binary.LittleEndian.Uint32(hdr[1:5]))
		if n > maxRecord || int64(len(data))-off < 9+n {
			return records, off, 1 // torn length or short payload
		}
		payload := hdr[5 : 5+n]
		want := binary.LittleEndian.Uint32(hdr[5+n : 9+n])
		if crc32.ChecksumIEEE(hdr[:5+n]) != want {
			return records, off, 1
		}
		r, err := decodeRecord(hdr[0], payload)
		if err != nil {
			return records, off, 1 // undecodable payload: same as torn
		}
		records = append(records, r)
		off += 9 + n
	}
	if off != int64(len(data)) {
		return records, off, 1 // trailing partial header
	}
	return records, off, 0
}

//globelint:wiresym group=walrec role=decode
func decodeRecord(typ byte, payload []byte) (Record, error) {
	switch typ {
	case recUpdate:
		m, err := msg.Decode(payload)
		if err != nil {
			return Record{}, err
		}
		return Record{Update: &coherence.Update{
			Write:     m.Write,
			GlobalSeq: m.GlobalSeq,
			Deps:      coherence.DepsOf(m.Deps),
			Stamp:     m.Stamp,
			Inv:       m.Inv,
			WallNanos: m.WallNanos,
		}}, nil
	case recAdmit:
		if len(payload) != 12 {
			return Record{}, errors.New("wal: bad admission record")
		}
		return Record{Admit: &Admission{
			Client: ids.ClientID(binary.LittleEndian.Uint32(payload)),
			Seq:    binary.LittleEndian.Uint64(payload[4:]),
		}}, nil
	case recChild:
		if len(payload) < 1 {
			return Record{}, errors.New("wal: bad child record")
		}
		return Record{Child: &ChildEvent{
			Remove: payload[0] != 0,
			Addr:   string(payload[1:]),
		}}, nil
	default:
		return Record{}, fmt.Errorf("wal: unknown record type %d", typ)
	}
}

// record starts a record of type typ in the log's scratch buffer, with its
// length still zero; the caller appends the payload and hands the result
// to write.
func (l *Log) record(typ byte) []byte {
	return append(l.scratch[:0], typ, 0, 0, 0, 0)
}

// write patches the payload length into a record begun by record, appends
// the CRC and writes the record.
func (l *Log) write(b []byte) error {
	if l.f == nil {
		return errors.New("wal: closed")
	}
	binary.LittleEndian.PutUint32(b[1:5], uint32(len(b)-5))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	l.scratch = b[:0]
	if _, err := l.f.Write(b); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(b))
	l.appends++
	l.dirty = true
	return nil
}

// AppendUpdate logs one stamped update in its wire form, a KindUpdate
// frame encoded straight into the record. The frame is built in the log's
// own message, so a durable write allocates nothing here.
func (l *Log) AppendUpdate(u *coherence.Update) error {
	l.m = msg.Message{
		Kind:      msg.KindUpdate,
		Write:     u.Write,
		GlobalSeq: u.GlobalSeq,
		Stamp:     u.Stamp,
		Deps:      u.Deps,
		Inv:       u.Inv,
		WallNanos: u.WallNanos,
	}
	b := msg.AppendEncode(l.record(recUpdate), &l.m)
	l.m = msg.Message{} // keep nothing of u
	return l.write(b)
}

// AppendAdmit logs one unstamped-write admission.
func (l *Log) AppendAdmit(c ids.ClientID, seq uint64) error {
	b := binary.LittleEndian.AppendUint32(l.record(recAdmit), uint32(c))
	return l.write(binary.LittleEndian.AppendUint64(b, seq))
}

// AppendChild logs a child subscription change.
func (l *Log) AppendChild(addr string, remove bool) error {
	var flag byte
	if remove {
		flag = 1
	}
	return l.write(append(append(l.record(recChild), flag), addr...))
}

// Sync flushes appended records to stable storage; a no-op when nothing was
// appended since the last Sync.
func (l *Log) Sync() error {
	if !l.dirty || l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.dirty = false
	return nil
}

// Appends reports records appended since the last snapshot (compaction
// scheduling input).
func (l *Log) Appends() uint64 { return l.appends }

// Size reports the current log length in bytes.
func (l *Log) Size() int64 { return l.size }

// WriteSnapshot writes a compaction point atomically (temp file + fsync +
// rename + directory sync) and truncates the log: every record the snapshot
// covers is dropped. Crash-safe at every step — until the rename lands the
// old snapshot + full log recover, after it the new snapshot + empty log do.
// Any failure before the rename (a write, the fsync, the close) returns with
// the old snapshot and the log untouched.
func (l *Log) WriteSnapshot(s *Snapshot) error {
	if l.f == nil {
		return errors.New("wal: closed")
	}
	tmp := filepath.Join(l.dir, snapName+".tmp")
	if err := writeSnapshotFile(tmp, s); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapName)); err != nil {
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	syncDir(l.dir)
	// The log's history is now covered by the snapshot; restart it. The
	// truncation must come after the rename: a crash in between recovers
	// from the new snapshot plus a log whose records it already covers,
	// which the engines deduplicate.
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate after snapshot: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.size = 0
	l.appends = 0
	l.dirty = false
	return nil
}

// Close syncs and releases the log.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// --- snapshot codec ----------------------------------------------------------

// snapMagic versions the snapshot encoding. A GSNP1 file, which held the
// applied vector and the sequencer position in its header and the content
// alone as its state, still decodes (decodeSnapshot).
var snapMagic, snapMagic1 = []byte("GSNP2"), []byte("GSNP1")

// writeSnapshotFile writes s to path as one snapshot file and syncs it: the
// header, the state and a CRC over both, in three writes, so the state goes
// to the file from the caller's buffer without a copy.
func writeSnapshotFile(path string, s *Snapshot) error {
	hdr := appendSnapshotHeader(nil, s)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Update(crc32.ChecksumIEEE(hdr), crc32.IEEETable, s.State))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, b := range [...][]byte{hdr, s.State, sum[:]} {
		if _, err = f.Write(b); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendSnapshotHeader appends everything of a snapshot file that precedes
// the state, ending with the state's length. The file is that header, the
// state, then the CRC-32 of both.
func appendSnapshotHeader(b []byte, s *Snapshot) []byte {
	b = append(b, snapMagic...)
	b = binary.LittleEndian.AppendUint64(b, s.Lamport)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Stamped)))
	for _, a := range s.Stamped {
		b = binary.LittleEndian.AppendUint32(b, uint32(a.Client))
		b = binary.LittleEndian.AppendUint64(b, a.Max)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(a.Holes)))
		for _, h := range a.Holes {
			b = binary.LittleEndian.AppendUint64(b, h)
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Children)))
	for _, c := range s.Children {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(c)))
		b = append(b, c...)
	}
	return binary.LittleEndian.AppendUint32(b, uint32(len(s.State)))
}

// readSnapshot loads and validates the snapshot file. A missing file is a
// fresh store (nil, 0, nil); a corrupt one — torn rename never happens, but
// bit rot does — counts as torn and recovery proceeds from the log alone.
func readSnapshot(path string) (*Snapshot, uint64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	s, ok := decodeSnapshot(data)
	if !ok {
		return nil, 1, nil
	}
	return s, 0, nil
}

// decodeSnapshot parses a snapshot file. Every count is checked against the
// bytes left (count), and every loop stops at the first short read, so a
// corrupt file allocates no more than its own size warrants. A GSNP1 file's
// vector and sequencer position become the engine state ahead of its content,
// with no page stamps: it predates them.
func decodeSnapshot(data []byte) (*Snapshot, bool) {
	if len(data) < len(snapMagic)+4 {
		return nil, false
	}
	magic := string(data[:len(snapMagic)])
	if magic != string(snapMagic) && magic != string(snapMagic1) {
		return nil, false
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, false
	}
	b, bad := body[len(snapMagic):], false
	take := func(n int) []byte {
		if bad || n > len(b) {
			bad = true
			return make([]byte, 8)
		}
		v := b[:n]
		b = b[n:]
		return v
	}
	u32 := func() uint32 { return binary.LittleEndian.Uint32(take(4)) }
	u64 := func() uint64 { return binary.LittleEndian.Uint64(take(8)) }
	// count reads an entry count, which must fit what is left at size bytes
	// an entry.
	count := func(size int) int {
		n := int(u32())
		bad = bad || n > len(b)/size
		return n
	}
	s := &Snapshot{}
	var old *coherence.State
	if magic == string(snapMagic1) {
		old = &coherence.State{Global: u64()}
	}
	s.Lamport = u64()
	if old != nil {
		for n := count(4 + 8); n > 0 && !bad; n-- {
			c := ids.ClientID(u32())
			old.Applied.Set(c, u64())
		}
	}
	if n := count(4 + 8 + 4); n > 0 && !bad {
		s.Stamped = make([]ClientAdmission, 0, n)
		for ; n > 0 && !bad; n-- {
			a := ClientAdmission{Client: ids.ClientID(u32()), Max: u64()}
			if nh := count(8); nh > 0 && !bad {
				a.Holes = make([]uint64, 0, nh)
				for ; nh > 0 && !bad; nh-- {
					a.Holes = append(a.Holes, u64())
				}
			}
			s.Stamped = append(s.Stamped, a)
		}
	}
	if n := count(4); n > 0 && !bad {
		s.Children = make([]string, 0, n)
		for ; n > 0 && !bad; n-- {
			s.Children = append(s.Children, string(take(int(u32()))))
		}
	}
	s.State = append([]byte(nil), take(int(u32()))...)
	if bad {
		return nil, false
	}
	if old != nil {
		s.State = append(old.Append(nil), s.State...)
	}
	return s, true
}

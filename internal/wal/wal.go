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
//	snapshot  — full state + applied vector + sequencer/admission state,
//	            written to a temp file and renamed into place
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

// String names the policy ("off", "interval", "always").
func (p Policy) String() string {
	switch p {
	case SyncOff:
		return "off"
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a policy name as accepted by flags and manifests.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "off", "":
		return SyncOff, nil
	case "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	default:
		return SyncOff, fmt.Errorf("wal: unknown fsync policy %q (want off|interval|always)", s)
	}
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
	// State is the semantics object's full snapshot (Env.Snapshot()).
	State []byte
	// Applied is the replica's applied version vector at snapshot time.
	Applied msg.Vec
	// NextGlobal is the sequential-model sequencer position.
	NextGlobal uint64
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
	records, good, torn, err := scanLog(f)
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
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

// scanLog decodes records until EOF or the first bad record, returning the
// records, the byte offset of the valid prefix, and 1 if a tear was found.
func scanLog(f *os.File) ([]Record, int64, uint64, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wal: reading log: %w", err)
	}
	var records []Record
	off := int64(0)
	for int64(len(data))-off >= 9 {
		hdr := data[off:]
		n := int64(binary.LittleEndian.Uint32(hdr[1:5]))
		if n > maxRecord || int64(len(data))-off < 9+n {
			return records, off, 1, nil // torn length or short payload
		}
		payload := hdr[5 : 5+n]
		want := binary.LittleEndian.Uint32(hdr[5+n : 9+n])
		if crc32.ChecksumIEEE(hdr[:5+n]) != want {
			return records, off, 1, nil
		}
		r, err := decodeRecord(hdr[0], payload)
		if err != nil {
			return records, off, 1, nil // undecodable payload: same as torn
		}
		records = append(records, r)
		off += 9 + n
	}
	if off != int64(len(data)) {
		return records, off, 1, nil // trailing partial header
	}
	return records, off, 0, nil
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

// WriteSnapshot writes a compaction point atomically (temp file + rename +
// directory sync) and truncates the log: every record the snapshot covers
// is dropped. Crash-safe at every step — until the rename lands the old
// snapshot + full log recover, after it the new snapshot + empty log do.
func (l *Log) WriteSnapshot(s *Snapshot) error {
	if l.f == nil {
		return errors.New("wal: closed")
	}
	data := encodeSnapshot(s)
	tmp := filepath.Join(l.dir, snapName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	tf, err := os.Open(tmp)
	if err == nil {
		_ = tf.Sync()
		_ = tf.Close()
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

// snapMagic versions the snapshot encoding.
var snapMagic = []byte("GSNP1")

func encodeSnapshot(s *Snapshot) []byte {
	b := append([]byte(nil), snapMagic...)
	b = binary.LittleEndian.AppendUint64(b, s.NextGlobal)
	b = binary.LittleEndian.AppendUint64(b, s.Lamport)
	b = binary.LittleEndian.AppendUint32(b, uint32(s.Applied.Len()))
	s.Applied.Each(func(c ids.ClientID, seq uint64) bool {
		b = binary.LittleEndian.AppendUint32(b, uint32(c))
		b = binary.LittleEndian.AppendUint64(b, seq)
		return true
	})
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
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.State)))
	b = append(b, s.State...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return b
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
// corrupt file allocates no more than its own size warrants.
func decodeSnapshot(data []byte) (*Snapshot, bool) {
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != string(snapMagic) {
		return nil, false
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, false
	}
	r := &snapReader{b: body[len(snapMagic):]}
	s := &Snapshot{}
	s.NextGlobal = r.u64()
	s.Lamport = r.u64()
	for n := r.count(4 + 8); n > 0 && !r.bad; n-- {
		c := ids.ClientID(r.u32())
		s.Applied.Set(c, r.u64())
	}
	if n := r.count(4 + 8 + 4); n > 0 {
		s.Stamped = make([]ClientAdmission, 0, n)
		for ; n > 0 && !r.bad; n-- {
			a := ClientAdmission{Client: ids.ClientID(r.u32()), Max: r.u64()}
			if nh := r.count(8); nh > 0 {
				a.Holes = make([]uint64, 0, nh)
				for ; nh > 0 && !r.bad; nh-- {
					a.Holes = append(a.Holes, r.u64())
				}
			}
			s.Stamped = append(s.Stamped, a)
		}
	}
	if n := r.count(4); n > 0 {
		s.Children = make([]string, 0, n)
		for ; n > 0 && !r.bad; n-- {
			s.Children = append(s.Children, string(r.bytes(int(r.u32()))))
		}
	}
	s.State = append([]byte(nil), r.bytes(int(r.u32()))...)
	if r.bad {
		return nil, false
	}
	return s, true
}

type snapReader struct {
	b   []byte
	bad bool
}

func (r *snapReader) u32() uint32 {
	if len(r.b) < 4 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *snapReader) u64() uint64 {
	if len(r.b) < 8 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// count reads an entry count, and fails the read when the bytes left cannot
// hold that many entries of at least size bytes each.
func (r *snapReader) count(size int) int {
	n := r.u32()
	if r.bad || uint64(n)*uint64(size) > uint64(len(r.b)) {
		r.bad = true
		return 0
	}
	return int(n)
}

func (r *snapReader) bytes(n int) []byte {
	if r.bad || n < 0 || len(r.b) < n {
		r.bad = true
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

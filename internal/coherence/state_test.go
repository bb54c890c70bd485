package coherence

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/vclock"
)

// Every engine's State encodes, decodes to an equal state and leaves the
// bytes behind it alone; the eventual engine's stamps come out in page order.
func TestStateRoundTrip(t *testing.T) {
	ev := newEventualEngine()
	for i, page := range []string{"q", "p", "", "r"} {
		ev.Submit(stampUpd(ids.ClientID(i+1), 1, uint64(10-i), page))
	}
	seq := newSequentialEngine()
	seq.Submit(seqUpd(3, 1, 1))
	wide := newFIFOEngine()
	for c := 2 * msg.VecInline; c >= 1; c-- {
		wide.Submit(upd(ids.ClientID(c), uint64(c)))
	}
	for name, e := range map[string]Engine{"eventual": ev, "sequential": seq, "fifo (spilled vector)": wide, "guard": NewDepGuard(ev)} {
		st := e.State()
		b := st.Append(nil)
		got, rest, err := SplitState(append(b, "content"...))
		if err != nil || string(rest) != "content" {
			t.Fatalf("%s: SplitState = %v, rest %q", name, err, rest)
		}
		if !sameState(got, st) || !bytes.Equal(got.Append(nil), b) {
			t.Fatalf("%s: decoded %+v, want %+v", name, got, st)
		}
	}
	want := []string{"", "p", "q", "r"}
	for i, p := range ev.State().Stamps {
		if p.Page != want[i] {
			t.Fatalf("stamps in order %v, want pages %v", ev.State().Stamps, want)
		}
	}
	if g := seq.State().Global; g != 2 {
		t.Fatalf("sequential State().Global = %d, want 2", g)
	}
}

// SplitState takes only the canonical encoding: a vector or a stamp list out
// of order, or a count the bytes cannot hold, is an error.
func TestSplitStateRejectsNonCanonical(t *testing.T) {
	le := binary.LittleEndian
	var vec []byte
	vec = le.AppendUint64(vec, 0)
	vec = le.AppendUint32(vec, 2)
	for _, c := range []uint32{2, 1} {
		vec = le.AppendUint32(vec, c)
		vec = le.AppendUint64(vec, 1)
	}
	vec = le.AppendUint32(vec, 0)
	pages := (&State{}).Append(nil)
	pages = le.AppendUint32(pages[:len(pages)-4], 2)
	for _, p := range []string{"q", "p"} {
		pages = le.AppendUint32(pages, 1)
		pages = append(pages, p...)
		pages = le.AppendUint64(pages, 1)
		pages = le.AppendUint32(pages, 1)
	}
	long := le.AppendUint32(le.AppendUint64(nil, 0), 1<<30)
	for name, b := range map[string][]byte{"clients out of order": vec, "pages out of order": pages, "count past the end": long, "short": {1, 2}} {
		if _, _, err := SplitState(b); err == nil {
			t.Fatalf("%s: SplitState accepted %x", name, b)
		}
	}
}

// sameState compares two states, their vectors entry by entry.
func sameState(a, b *State) bool {
	x, y := *a, *b
	x.Applied, y.Applied = msg.Vec{}, msg.Vec{}
	return a.Applied.Equal(&b.Applied) && reflect.DeepEqual(x, y)
}

// allocBytes reports the bytes the process allocated while f ran, as the
// least over three runs, since a fuzzing worker allocates on its own
// goroutines now and then.
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

// FuzzDecodeEngineState decodes arbitrary bytes as an engine-state prefix,
// as a replica does with every whole state it receives: the decoder may not
// panic or allocate more than 16 times its input plus 4 KiB, and a state it
// accepts must re-encode to exactly the bytes it consumed.
func FuzzDecodeEngineState(f *testing.F) {
	ev := newEventualEngine()
	ev.Submit(stampUpd(1, 1, 5, "p"))
	ev.Submit(stampUpd(2, 3, 7, "q"))
	f.Add(append(ev.State().Append(nil), "content"...))
	f.Add((&State{Global: 9}).Append(nil))
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(nil, 0), 1<<30))
	f.Fuzz(func(t *testing.T, b []byte) {
		var st *State
		var rest []byte
		var err error
		if n := allocBytes(func() { st, rest, err = SplitState(b) }); n > uint64(16*len(b)+4096) {
			t.Fatalf("SplitState of %d bytes allocated %d", len(b), n)
		}
		if err != nil {
			return
		}
		if again := st.Append(nil); !bytes.Equal(again, b[:len(b)-len(rest)]) {
			t.Fatalf("state re-encodes to %x, decoded from %x", again, b[:len(b)-len(rest)])
		}
	})
}

// eventualMatchesLWW builds writes to three pages from pick's choices and
// delivers them to the engine under test, with duplicates and late
// redeliveries, while a third, eventual, replica takes others; now and then
// the engine is seeded from the third's State, as a replica that installs the
// third's whole state is. pick(n) returns a choice in [0, n).
//
// Checked at every step, for every page: the page's winner at the replica —
// the stamp of the last write the engine released for it, or a seeded stamp
// that beats that, as mergeState installs it — and the engine's own
// State().Stamps both equal the reference, the greatest stamp among the
// writes offered to the engine, on their own or inside a seed. The first
// difference is returned.
func eventualMatchesLWW(e Engine, pick func(n int) int, steps int) error {
	third := newEventualEngine()
	pages := [...]string{"p", "q", "r"}
	ref, won := map[string]vclock.Stamp{}, map[string]vclock.Stamp{}
	newer := func(m map[string]vclock.Stamp, page string, s vclock.Stamp) {
		if cur, ok := m[page]; !ok || cur.Less(s) {
			m[page] = s
		}
	}
	var pool []*Update
	var seqs [4]uint64
	var now uint64
	deliver := func(u *Update) {
		newer(ref, u.Inv.Page, u.Stamp)
		for _, r := range e.Submit(u) {
			won[r.Inv.Page] = r.Stamp
		}
	}
	for i := 0; i < steps; i++ {
		var what string
		switch op := pick(4); {
		case op == 0 || len(pool) == 0: // a fresh write, here or at the third
			c := 1 + pick(3)
			seqs[c]++
			now += 1 + uint64(pick(3))
			u := &Update{
				Write: ids.WiD{Client: ids.ClientID(c), Seq: seqs[c]},
				Stamp: vclock.Stamp{Time: now, Client: ids.ClientID(c)},
				Inv:   msg.Invocation{Method: 1, Page: pages[pick(len(pages))]},
			}
			pool = append(pool, u)
			what = fmt.Sprintf("write %v %s@%d", u.Write, u.Inv.Page, now)
			if pick(2) == 0 {
				deliver(u)
			} else {
				third.Submit(u)
			}
		case op == 1: // a duplicate or late redelivery here
			u := pool[pick(len(pool))]
			what = fmt.Sprintf("redeliver %v", u.Write)
			deliver(u)
		case op == 2: // the third takes one
			u := pool[pick(len(pool))]
			what = fmt.Sprintf("third takes %v", u.Write)
			third.Submit(u)
		default: // a whole state from the third
			st := third.State()
			what = fmt.Sprintf("seed %v", st.Stamps)
			e.Seed(st)
			for _, p := range st.Stamps {
				newer(ref, p.Page, p.Stamp)
				newer(won, p.Page, p.Stamp)
			}
		}
		stamps := map[string]vclock.Stamp{}
		for _, p := range e.State().Stamps {
			stamps[p.Page] = p.Stamp
		}
		if !reflect.DeepEqual(won, ref) || !reflect.DeepEqual(stamps, ref) {
			return fmt.Errorf("step %d (%s): winners %v, engine stamps %v, reference %v", i, what, won, stamps, ref)
		}
	}
	return nil
}

// lwwEngines are the engines that order by last-writer-wins: the eventual
// model, bare and behind the guard a mirror adds for MW or WFR sessions.
func lwwEngines() map[string]func() Engine {
	return map[string]func() Engine{
		"eventual":         func() Engine { return newEventualEngine() },
		"guarded eventual": func() Engine { return NewDepGuard(newEventualEngine()) },
	}
}

// Each page's winner is the newest write offered, whatever the order,
// duplicates and seeds, under both last-writer-wins engines.
func TestEventualMatchesLWW(t *testing.T) {
	for name, mk := range lwwEngines() {
		for seed := int64(1); seed <= 2000; seed++ {
			rng := rand.New(rand.NewSource(seed))
			if err := eventualMatchesLWW(mk(), rng.Intn, 1+rng.Intn(40)); err != nil {
				t.Fatalf("%s, seed %d: %v", name, seed, err)
			}
		}
	}
}

// FuzzEventualMatchesLWW lets the fuzzer choose the writes, the deliveries,
// the duplicates and the seeds. The second entry is the smallest history
// that needs a seeded stamp: the third takes two writes to p, the engine is
// seeded from it, then the older write arrives.
func FuzzEventualMatchesLWW(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 3, 1, 0})
	f.Add([]byte{0, 1, 2, 1, 0, 0, 2, 0, 2, 1, 2, 0, 3, 1, 1, 0, 2, 1, 3, 1, 0, 2, 1, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, mk := range lwwEngines() {
			rest := data
			pick := func(n int) int {
				if len(rest) == 0 {
					return 0
				}
				b := rest[0]
				rest = rest[1:]
				return int(b) % n
			}
			if err := eventualMatchesLWW(mk(), pick, min(len(data)/2, 128)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	})
}

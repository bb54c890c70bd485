package vclock

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

func TestLamportMonotonic(t *testing.T) {
	var l Lamport
	prev := uint64(0)
	for i := 0; i < 100; i++ {
		n := l.Next()
		if n <= prev {
			t.Fatalf("Lamport.Next not monotonic: %d after %d", n, prev)
		}
		prev = n
	}
}

func TestLamportWitness(t *testing.T) {
	var l Lamport
	l.Next() // 1
	if got := l.Witness(10); got != 11 {
		t.Fatalf("Witness(10) = %d, want 11", got)
	}
	if got := l.Witness(3); got != 12 {
		t.Fatalf("Witness(3) = %d, want 12 (must still advance)", got)
	}
	if got := l.Now(); got != 12 {
		t.Fatalf("Now = %d, want 12", got)
	}
}

func TestLamportConcurrentUnique(t *testing.T) {
	var l Lamport
	const workers, per = 8, 200
	seen := make(chan uint64, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seen <- l.Next()
			}
		}()
	}
	wg.Wait()
	close(seen)
	uniq := make(map[uint64]bool, workers*per)
	for v := range seen {
		if uniq[v] {
			t.Fatalf("duplicate Lamport time %d", v)
		}
		uniq[v] = true
	}
}

func TestStampTotalOrder(t *testing.T) {
	a := Stamp{Time: 1, Client: 2}
	b := Stamp{Time: 2, Client: 1}
	c := Stamp{Time: 1, Client: 3}
	if !a.Less(b) {
		t.Fatalf("lower time must order first")
	}
	if !a.Less(c) || c.Less(a) {
		t.Fatalf("client must break time ties")
	}
	if a.Less(a) {
		t.Fatalf("Less must be irreflexive")
	}
	var z Stamp
	if !z.Zero() || a.Zero() {
		t.Fatalf("Zero() misreported")
	}
}

// Property: Stamp.Less is a strict total order (trichotomy + transitivity).
func TestStampLessTotalOrderProperty(t *testing.T) {
	f := func(t1, t2, t3 uint16, c1, c2, c3 uint8) bool {
		a := Stamp{Time: uint64(t1), Client: ids.ClientID(c1)}
		b := Stamp{Time: uint64(t2), Client: ids.ClientID(c2)}
		c := Stamp{Time: uint64(t3), Client: ids.ClientID(c3)}
		// trichotomy
		if a != b && !a.Less(b) && !b.Less(a) {
			return false
		}
		// transitivity
		if a.Less(b) && b.Less(c) && !a.Less(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

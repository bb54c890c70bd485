package main

import (
	"testing"
	"time"
)

// fakeClock is the pacer's injected time: sleeping advances it by the
// request plus a fixed oversleep, like the runtime's timer does.
type fakeClock struct {
	t         time.Time
	oversleep time.Duration
	slept     []time.Duration
}

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) sleep(d time.Duration) {
	c.slept = append(c.slept, d)
	c.t = c.t.Add(d + c.oversleep)
}

func testPacer(c *fakeClock, opsPerSec float64) *pacer {
	p := newPacer(c.t, opsPerSec)
	p.now, p.sleep = c.now, c.sleep
	return p
}

func TestPacerSleepsToFutureTickAndChargesOversleepToGenerator(t *testing.T) {
	c := &fakeClock{t: time.Unix(100, 0), oversleep: 900 * time.Microsecond}
	p := testPacer(c, 5000) // 10 ops per 2 ms tick
	start := c.t

	first := p.next() // tick 0 is scheduled at start: already due
	if !first.due.Equal(start) || first.late != 0 || first.n != 10 || len(c.slept) != 0 {
		t.Fatalf("tick 0: %+v, slept %v", first, c.slept)
	}
	c.t = c.t.Add(300 * time.Microsecond) // the ops took 0.3 ms
	tk := p.next()
	if len(c.slept) != 1 || c.slept[0] != pacerTick-300*time.Microsecond {
		t.Fatalf("slept %v, want the rest of the tick", c.slept)
	}
	wantDue := start.Add(pacerTick + 900*time.Microsecond)
	if !tk.due.Equal(wantDue) {
		t.Fatalf("due %v, want the wake-up stamp %v: oversleep is not the system's delay", tk.due, wantDue)
	}
	if tk.late != 900*time.Microsecond || !tk.sched.Equal(start.Add(pacerTick)) {
		t.Fatalf("late %v sched %v", tk.late, tk.sched)
	}
}

func TestPacerBusyThroughThreeTicksKeepsScheduledDueTimes(t *testing.T) {
	c := &fakeClock{t: time.Unix(100, 0)}
	p := testPacer(c, 5000)
	start := c.t
	p.next() // tick 0
	// The system stalls: tick 0's ops return 3.2 ticks later. Ticks 1, 2
	// and 3 came due meanwhile and must be charged from their schedule.
	c.t = start.Add(3*pacerTick + 400*time.Microsecond)
	for k := 1; k <= 3; k++ {
		tk := p.next()
		want := start.Add(time.Duration(k) * pacerTick)
		if !tk.due.Equal(want) || tk.late != 0 || tk.n != 10 {
			t.Fatalf("tick %d: due %v late %v n %d, want due %v at its scheduled time", k, tk.due, tk.late, tk.n, want)
		}
	}
	if len(c.slept) != 0 {
		t.Fatalf("slept %v while behind schedule", c.slept)
	}
	tk := p.next() // tick 4 is in the future again
	if len(c.slept) != 1 || c.slept[0] != pacerTick-400*time.Microsecond || !tk.due.Equal(start.Add(4*pacerTick)) {
		t.Fatalf("tick 4: %+v, slept %v", tk, c.slept)
	}
}

func TestPacerCarriesFractionalOpsAcrossTicks(t *testing.T) {
	c := &fakeClock{t: time.Unix(100, 0)}
	p := testPacer(c, 1250) // 2.5 ops per tick
	total, ticks := 0, int(time.Second/pacerTick)
	for i := 0; i < ticks; i++ {
		n := p.next().n
		if n != 2 && n != 3 {
			t.Fatalf("tick %d offers %d ops, want 2 or 3", i, n)
		}
		total += n
	}
	if total != 1250 {
		t.Fatalf("offered %d ops in one second, want 1250", total)
	}
}

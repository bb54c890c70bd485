package main

import "time"

// pacerTick is the open-loop schedule's granularity. The Go runtime
// oversleeps a sub-millisecond time.Sleep by about 1 ms on this kernel, so
// pacing every op by its own sleep measures the timer, not the system; a
// client instead wakes once per tick and issues that tick's ops back to back.
const pacerTick = 2 * time.Millisecond

// pacer is one client's open-loop schedule: tick k is scheduled at
// start + k*tick and carries its share of rate ops. There is no dispatcher
// goroutine; the client that issues the ops owns the schedule.
type pacer struct {
	start   time.Time
	tick    time.Duration
	perTick float64 // ops per tick, fractional part carried across ticks
	k       int     // ticks handed out so far

	now   func() time.Time
	sleep func(time.Duration)
}

func newPacer(start time.Time, opsPerSec float64) *pacer {
	return &pacer{
		start: start, tick: pacerTick,
		perTick: opsPerSec * pacerTick.Seconds(),
		now:     time.Now, sleep: time.Sleep,
	}
}

// tick is one batch of arrivals: n ops, all due at due.
type tick struct {
	sched time.Time
	due   time.Time
	n     int
	// late is how far past the scheduled time the generator woke. It is
	// the runtime timer's oversleep, reported as bench.gen_late_p99_us and
	// not charged to the system.
	late time.Duration
}

// scheduled returns when tick k is scheduled.
func (p *pacer) scheduled(k int) time.Time {
	return p.start.Add(time.Duration(k) * p.tick)
}

// next hands out the next tick. A tick still in the future is slept to and
// is due when the client wakes. A tick whose time passed while the client
// was busy with earlier ops is due at its scheduled time, so the wait the
// system imposed on it is charged in full (no coordinated omission).
func (p *pacer) next() tick {
	sched := p.scheduled(p.k)
	n := int(float64(p.k+1)*p.perTick) - int(float64(p.k)*p.perTick)
	p.k++
	now := p.now()
	if !now.Before(sched) {
		return tick{sched: sched, due: sched, n: n}
	}
	p.sleep(sched.Sub(now))
	woke := p.now()
	return tick{sched: sched, due: woke, n: n, late: woke.Sub(sched)}
}

package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// do issues one op and returns when its decoded reply is back.
func (c *client) do(in *inputs, o op) error {
	name := in.names[o.page]
	c.tally.attempted++
	if o.write {
		err := c.wr.Put(name, in.contents[c.next%contentVariants], "text/html")
		if err != nil {
			c.tally.unknown[o.page]++
			c.tally.fail(err)
			return err
		}
		c.tally.acked[o.page]++
		return nil
	}
	p, err := c.rd.Get(name)
	if err != nil {
		c.tally.fail(err)
		return err
	}
	c.tally.observe(int(o.page), name, p.Version)
	return nil
}

// nextOp steps through the client's op list, wrapping at the end.
func (c *client) nextOp() op {
	o := c.ops[c.next%len(c.ops)]
	c.next++
	return o
}

// resources is the whole process's CPU time and heap allocation so far.
type resources struct {
	cpu            time.Duration
	mallocs, bytes uint64
	numGC          uint32
	// gcCPU and allCPU are the runtime's own estimates, in CPU-seconds, of
	// the time spent in the collector and in total.
	gcCPU, allCPU float64
}

func readResources() resources {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	return resources{cpu: tv(ru.Utime) + tv(ru.Stime), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, numGC: ms.NumGC,
		gcCPU: cpu[0].Value.Float64(), allCPU: cpu[1].Value.Float64()}
}

func (r resources) since(before resources) resources {
	return resources{cpu: r.cpu - before.cpu, mallocs: r.mallocs - before.mallocs,
		bytes: r.bytes - before.bytes, numGC: r.numGC - before.numGC,
		gcCPU: r.gcCPU - before.gcCPU, allCPU: r.allCPU - before.allCPU}
}

// window is one measured stretch of the closed loop.
type window struct {
	ops         uint64
	elapsed     time.Duration
	read, write hist
	used        resources
}

// closedResult is what the closed-loop phase measured.
type closedResult struct {
	wins []window
	ops  uint64
}

// closed runs both clients back to back for dur, one window at a time: each
// sends its next op as soon as the previous reply is decoded.
func (d *deployment) closed(dur, width time.Duration) closedResult {
	n := max(int(dur/width), 1)
	res := closedResult{wins: make([]window, n)}
	runtime.GC() // every run starts the phase from a collected heap
	for i := range res.wins {
		d.closedWindow(&res.wins[i], width)
		res.ops += res.wins[i].ops
	}
	return res
}

func (d *deployment) closedWindow(w *window, width time.Duration) {
	type part struct {
		read, write hist
		ops         uint64
	}
	parts := make([]part, numClients)
	before := readResources()
	start := time.Now()
	end := start.Add(width)
	var wg sync.WaitGroup
	for i, c := range d.clients {
		p := &parts[i]
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for t0 := time.Now(); t0.Before(end); {
				o := c.nextOp()
				err := c.do(d.in, o)
				t1 := time.Now()
				p.ops++
				switch {
				case err != nil:
				case o.write:
					p.write.observe(t1.Sub(t0))
				default:
					p.read.observe(t1.Sub(t0))
				}
				t0 = t1
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.used = readResources().since(before)
	for i := range parts {
		w.ops += parts[i].ops
		w.read.add(&parts[i].read)
		w.write.add(&parts[i].write)
	}
}

// capacity is the median across windows of ops completed per second.
func (r *closedResult) capacity() stat {
	vals := make([]float64, len(r.wins))
	for i, w := range r.wins {
		vals[i] = float64(w.ops) / w.elapsed.Seconds()
	}
	return stat{value: median(vals), n: r.ops, windows: len(vals)}
}

// sum adds a quantity up over the windows.
func (r *closedResult) sum(f func(w *window) float64) float64 {
	var sum float64
	for i := range r.wins {
		sum += f(&r.wins[i])
	}
	return sum
}

// perOp divides a resource summed over the windows by the ops they did.
func (r *closedResult) perOp(f func(w *window) float64) float64 {
	return r.sum(f) / float64(r.ops)
}

// latencies picks the read or the write histogram of every window.
func (r *closedResult) latencies(write bool) []*hist {
	hs := make([]*hist, len(r.wins))
	for i := range r.wins {
		hs[i] = &r.wins[i].read
		if write {
			hs[i] = &r.wins[i].write
		}
	}
	return hs
}

// pacedSLO is the open-loop latency limit, counted from an op's due time.
const pacedSLO = 10 * time.Millisecond

// genLateLimit marks a paced run invalid: past it the generator, not the
// system, decided the latencies.
const genLateLimit = 5 * time.Millisecond

// pacedResult is what the open-loop phase measured. Latencies run from an
// op's due time.
type pacedResult struct {
	read, write hist
	offered     uint64
	within      uint64 // answered OK within pacedSLO of their due time
	genLate     hist
}

// paced offers the workload's frozen rate for dur, half to each client, on
// each client's own tick schedule. An op not answered OK within pacedSLO of
// its due time misses, whether it was slow, failed, or never sent because
// the client was still behind when the phase ran out.
func (d *deployment) paced(dur time.Duration) pacedResult {
	parts := make([]pacedResult, numClients)
	runtime.GC()
	start := time.Now()
	end := start.Add(dur)
	giveUp := end.Add(2 * time.Second)
	var wg sync.WaitGroup
	for i, c := range d.clients {
		p := &parts[i]
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			pc := newPacer(start, d.sp.rate/numClients)
			for pc.scheduled(pc.k).Before(end) {
				tk := pc.next()
				p.offered += uint64(tk.n)
				if tk.late > 0 {
					p.genLate.observe(tk.late)
				}
				if time.Now().After(giveUp) {
					continue // hopelessly behind: the rest of the offer misses
				}
				for j := 0; j < tk.n; j++ {
					o := c.nextOp()
					err := c.do(d.in, o)
					lat := time.Since(tk.due)
					switch {
					case err != nil:
						continue
					case o.write:
						p.write.observe(lat)
					default:
						p.read.observe(lat)
					}
					if lat <= pacedSLO {
						p.within++
					}
				}
			}
		}(c)
	}
	wg.Wait()
	var res pacedResult
	for i := range parts {
		res.offered += parts[i].offered
		res.within += parts[i].within
		res.read.add(&parts[i].read)
		res.write.add(&parts[i].write)
		res.genLate.add(&parts[i].genLate)
	}
	return res
}

// p99us is a whole-phase 99th percentile in microseconds.
func p99us(h *hist) float64 {
	v, _ := h.quantile(0.99)
	return v * nsToUs
}

// describe is the paced phase's latencies from due time, for the table; the
// traced run reports them as per-layer metrics.
func (r *pacedResult) describe() string {
	return fmt.Sprintf("paced from due time: read p99 %.0f us, write p99 %.0f us; generator woke late p99 %.0f us over %d ticks",
		p99us(&r.read), p99us(&r.write), p99us(&r.genLate), r.genLate.n)
}

// visible measures how long a write takes to become readable elsewhere.
// The system is otherwise idle; client 0 alone Puts the marker page where it
// writes, then polls Stat at the farthest replica until the new Version
// shows. The lag runs from the Put being issued to the return of the first
// read that shows it. Then it does it again, with no gap: a gap lets every
// processor go to sleep, and the lag then measures how long the operating
// system takes to wake four threads in turn, which varied threefold from run
// to run (the issue's 1 ms gap is dropped for that reason).
// It returns the lag histogram of every window.
func (d *deployment) visible(dur, width time.Duration) []*hist {
	lags := make([]*hist, max(int(dur/width), 1))
	for i := range lags {
		lags[i] = &hist{}
		d.visibleWindow(lags[i], width)
	}
	return lags
}

func (d *deployment) visibleWindow(lag *hist, width time.Duration) {
	c := d.clients[0]
	for end := time.Now().Add(width); time.Now().Before(end); {
		body := d.in.contents[d.markers%contentVariants][:16]
		t0 := time.Now()
		c.tally.attempted++
		if err := c.wr.Put(markerPage, body, "text/plain"); err != nil {
			c.tally.fail(err)
			d.markerUnknown++
			continue
		}
		d.markers++
		want := loadWrites + d.markers
		for {
			c.tally.attempted++
			p, err := d.probe.Stat(markerPage)
			if err != nil {
				c.tally.fail(err)
				break
			}
			if waited := time.Since(t0); p.Version >= want {
				lag.observe(waited)
				break
			} else if waited > opTimeout {
				c.tally.fail(fmt.Errorf("marker version %d not visible at %s after %v", want, d.far.Name(), opTimeout))
				break
			}
		}
	}
}

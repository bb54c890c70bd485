package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/webobj"
)

// clientTally is what one client records while it runs, for the output
// check: per page, the Puts it saw acknowledged, the Puts whose outcome it
// never learned (error or timeout), and the newest Version its read handle
// has observed.
type clientTally struct {
	acked, unknown []uint64
	seen           []uint64
	regressed      []string // Monotonic Reads violations, as messages
	attempted      uint64
	failed         uint64
	firstErr       error
}

// fail counts a failed op and keeps the first error for the report.
func (t *clientTally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func newClientTally(pages int) clientTally {
	return clientTally{
		acked: make([]uint64, pages), unknown: make([]uint64, pages), seen: make([]uint64, pages),
	}
}

// observe records the Version a read returned for a page; a handle that
// holds Monotonic Reads must never see it go down.
func (t *clientTally) observe(page int, name string, version uint64) {
	if version < t.seen[page] {
		t.regressed = append(t.regressed,
			fmt.Sprintf("monotonic reads: %s went from version %d back to %d", name, t.seen[page], version))
		return
	}
	t.seen[page] = version
}

// loadWrites is how many writes set-up applies to every page.
const loadWrites = 1

// checkVersions is output check (a): at www a page's Version counts the
// writes applied to it, so it must equal the load write plus every
// acknowledged Put, plus at most the Puts whose outcome the client never
// learned. Fewer means an acknowledged write was lost, more means one was
// applied twice.
func checkVersions(names []string, rootVersions, acked, unknown []uint64) []string {
	var bad []string
	for i, name := range names {
		lo := loadWrites + acked[i]
		hi := lo + unknown[i]
		switch v := rootVersions[i]; {
		case v < lo:
			bad = append(bad, fmt.Sprintf("lost write: %s at www has version %d, want at least %d (1 load + %d acked)", name, v, lo, acked[i]))
		case v > hi:
			bad = append(bad, fmt.Sprintf("duplicate apply: %s at www has version %d, want at most %d (1 load + %d acked + %d unknown)", name, v, hi, acked[i], unknown[i]))
		}
	}
	return bad
}

// comparePage is output check (b) for one page at one replica.
func comparePage(replica, name string, want, got *webobj.Page) string {
	switch {
	case got.Version != want.Version:
		return fmt.Sprintf("%s: %s has version %d, www has %d", replica, name, got.Version, want.Version)
	case !bytes.Equal(got.Content, want.Content):
		return fmt.Sprintf("%s: %s content differs from www at version %d", replica, name, want.Version)
	}
	return ""
}

// allPages is every page the deployment holds, the marker last.
func (d *deployment) allPages() []string {
	return append(append([]string(nil), d.in.names...), markerPage)
}

// converge reads every page at every replica and compares it with www,
// again and again until all match or the deadline passes (a lazy push is at
// most a period away; an invalidated page is fetched by the read itself).
// It returns what still differs.
func (d *deployment) converge(deadline time.Duration) []string {
	pages := d.allPages()
	want := make([]*webobj.Page, len(pages))
	for i, name := range pages {
		p, err := d.root.Get(name)
		if err != nil {
			return []string{fmt.Sprintf("www: get %s: %v", name, err)}
		}
		want[i] = p
	}
	stop := time.Now().Add(deadline)
	var bad []string
	for _, st := range d.stores[1:] {
		doc, err := d.sys.Open(object, webobj.At(st), webobj.WithTimeout(opTimeout))
		if err != nil {
			return []string{fmt.Sprintf("%s: open: %v", st.Name(), err)}
		}
		for i, name := range pages {
			for {
				var diff string
				if got, err := doc.Get(name); err != nil {
					diff = fmt.Sprintf("%s: get %s: %v", st.Name(), name, err)
				} else {
					diff = comparePage(st.Name(), name, want[i], got)
				}
				if diff == "" {
					break
				}
				if time.Now().After(stop) {
					bad = append(bad, diff)
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
		doc.Close()
	}
	return bad
}

// check runs the three output checks after the load has stopped and returns
// every violation found.
func (d *deployment) check() []string {
	bad := d.converge(3 * time.Second)
	pages := d.allPages()
	acked := make([]uint64, len(pages))
	unknown := make([]uint64, len(pages))
	for _, c := range d.clients {
		for i := range d.in.names {
			acked[i] += c.tally.acked[i]
			unknown[i] += c.tally.unknown[i]
		}
		bad = append(bad, c.tally.regressed...)
	}
	acked[len(pages)-1], unknown[len(pages)-1] = d.markers, d.markerUnknown
	versions := make([]uint64, len(pages))
	for i, name := range pages {
		p, err := d.root.Stat(name)
		if err != nil {
			return append(bad, fmt.Sprintf("www: stat %s: %v", name, err))
		}
		versions[i] = p.Version
	}
	return append(bad, checkVersions(pages, versions, acked, unknown)...)
}

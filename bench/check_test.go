package main

import (
	"strings"
	"testing"

	"repro/webobj"
)

// The checker's own negative tests: it must notice a dropped ack, a write
// applied twice, and a version that went backwards.

func TestCheckVersionsCatchesLostAndDuplicateWrites(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	acked := []uint64{5, 5, 5, 5}
	unknown := []uint64{0, 0, 2, 2}
	// a: exact. b: one acknowledged write missing. c: within the two whose
	// outcome is unknown. d: one more than anything could explain.
	root := []uint64{6, 5, 7, 9}
	bad := checkVersions(names, root, acked, unknown)
	if len(bad) != 2 {
		t.Fatalf("violations %q, want one for b and one for d", bad)
	}
	if !strings.Contains(bad[0], "lost write: b") || !strings.Contains(bad[1], "duplicate apply: d") {
		t.Fatalf("violations %q", bad)
	}
}

func TestTallyCatchesRegressedVersion(t *testing.T) {
	tally := newClientTally(2)
	tally.observe(0, "a", 3)
	tally.observe(0, "a", 3)
	tally.observe(1, "b", 9)
	tally.observe(0, "a", 4)
	if len(tally.regressed) != 0 {
		t.Fatalf("false alarm: %q", tally.regressed)
	}
	tally.observe(0, "a", 2)
	if len(tally.regressed) != 1 || !strings.Contains(tally.regressed[0], "a went from version 4 back to 2") {
		t.Fatalf("regression not reported: %q", tally.regressed)
	}
}

func TestComparePage(t *testing.T) {
	www := &webobj.Page{Content: []byte("new"), Version: 4}
	if d := comparePage("cache-a", "p", www, &webobj.Page{Content: []byte("new"), Version: 4}); d != "" {
		t.Fatalf("equal pages differ: %s", d)
	}
	if d := comparePage("cache-a", "p", www, &webobj.Page{Content: []byte("old"), Version: 3}); !strings.Contains(d, "version 3, www has 4") {
		t.Fatalf("stale version not reported: %q", d)
	}
	if d := comparePage("cache-a", "p", www, &webobj.Page{Content: []byte("old"), Version: 4}); !strings.Contains(d, "content differs") {
		t.Fatalf("differing bytes not reported: %q", d)
	}
}

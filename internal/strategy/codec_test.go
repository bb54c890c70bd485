package strategy

import (
	"testing"
	"time"
)

// TestParseRejectsNegativeInterval: Marshal writes no interval below zero,
// so a text that parsed to one would not survive a round trip through a
// name record.
func TestParseRejectsNegativeInterval(t *testing.T) {
	for _, field := range []string{",lazy=-5s", ",pull=-1ns"} {
		text := Marshal(Whiteboard()) + field
		if s, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) accepted %+v, which Marshal writes back as %q", text, s, Marshal(s))
		}
	}
}

// FuzzParseStrategy feeds Parse the text of every preset and mutations of
// it. It must never panic, and whatever it accepts must marshal to text that
// parses to the same strategy.
func FuzzParseStrategy(f *testing.F) {
	for _, s := range Presets() {
		f.Add(Marshal(s))
	}
	f.Add(Marshal(Conference(time.Second)) + ",pull=-1ns")
	f.Add("model=eventual")
	f.Add("")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		again, err := Parse(Marshal(s))
		if err != nil {
			t.Fatalf("Marshal(Parse(%q)) = %q does not parse: %v", text, Marshal(s), err)
		}
		if again != s {
			t.Fatalf("round trip of %q changed the strategy:\n%+v\n%+v", text, s, again)
		}
	})
}

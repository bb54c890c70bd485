package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json, the contract later changes are held to.
type manifest struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

type resultLine struct {
	Correct   bool
	Attempted uint64
	Failed    uint64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestQuickRunEmitsWhatBenchmarkJSONNames is the tier-1 smoke: every
// workload runs end to end in quick mode, untraced and traced, the output
// checks pass, and the names printed are exactly the names the manifest
// gates.
func TestQuickRunEmitsWhatBenchmarkJSONNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if n := len(m.Workloads); n < 2 || n > 8 || n != len(specs) {
		t.Fatalf("%d workloads in the manifest, %d in the program", n, len(specs))
	}
	if len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(m.EndToEnd), len(m.PerLayer))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name || !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q with a why of %d characters, program has %q", i, w.Name, len(w.Why), specs[i].name)
		}
	}

	for _, mode := range []struct {
		trace string
		want  []manifestMetric
	}{{"0", m.EndToEnd}, {"1", m.PerLayer}} {
		var out bytes.Buffer
		if code := run([]string{"-quick", "-trace", mode.trace, "-scratch", t.TempDir()}, &out); code != 0 {
			t.Fatalf("trace %s: exit code %d\n%s", mode.trace, code, out.String())
		}
		var lines []resultLine
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "{") {
				var r resultLine
				if err := json.Unmarshal([]byte(l), &r); err != nil {
					t.Fatalf("result line %q: %v", l, err)
				}
				lines = append(lines, r)
			}
		}
		if len(lines) != len(specs) {
			t.Fatalf("trace %s: %d result lines for %d workloads\n%s", mode.trace, len(lines), len(specs), out.String())
		}
		for i, r := range lines {
			name := specs[i].name
			if !r.Correct || r.Attempted == 0 {
				t.Errorf("%s trace %s: correct=%v attempted=%d\n%s", name, mode.trace, r.Correct, r.Attempted, out.String())
			}
			if len(r.Metrics) != len(mode.want) {
				t.Errorf("%s trace %s: %d metrics printed, manifest names %d", name, mode.trace, len(r.Metrics), len(mode.want))
			}
			for _, want := range mode.want {
				got, ok := r.Metrics[want.Name]
				switch {
				case !nameRE.MatchString(want.Name):
					t.Errorf("metric name %q is outside the manifest's alphabet", want.Name)
				case !ok:
					t.Errorf("%s trace %s: %s is in the manifest and was not printed", name, mode.trace, want.Name)
				case got.Unit != want.Unit:
					t.Errorf("%s: %s printed in %q, manifest says %q", name, want.Name, got.Unit, want.Unit)
				}
				if (want.Bound != nil) != (mode.trace == "0") {
					t.Errorf("%s: end-to-end metrics have a bound, per-layer metrics have none", want.Name)
				}
			}
		}
	}
}

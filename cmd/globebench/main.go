// Command globebench runs the full reproduction experiment suite — one
// experiment per figure/table of the paper — and prints the measured tables.
//
//	globebench              # full-size experiments
//	globebench -quick       # reduced sizes (CI-friendly)
//	globebench -only T2     # a single experiment by ID
//	globebench -json out.json  # also write machine-readable results ("-" for stdout)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-size experiments")
	only := flag.String("only", "", "run only the experiment with this ID (F1,F2,T1,T2,M1,M2,C1,E2E)")
	jsonPath := flag.String("json", "", "write results as JSON to this path (\"-\" for stdout); perf-trajectory support")
	flag.Parse()

	opts := harness.Options{Quick: *quick}
	var ran []*harness.Table
	for _, t := range harness.All(opts) {
		if *only != "" && t.ID != *only {
			continue
		}
		t.Fprint(os.Stdout)
		ran = append(ran, t)
	}
	if len(ran) == 0 {
		fmt.Fprintf(os.Stderr, "globebench: no experiment with ID %q\n", *only)
		os.Exit(1)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, ran); err != nil {
			fmt.Fprintf(os.Stderr, "globebench: %v\n", err)
			os.Exit(1)
		}
	}
}

func writeJSON(path string, tables []*harness.Table) error {
	b, err := json.MarshalIndent(tables, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

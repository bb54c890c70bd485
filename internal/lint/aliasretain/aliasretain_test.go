package aliasretain

import (
	"strings"
	"testing"

	"repro/internal/lint/lintkit"
)

func TestRetentionIsFlagged(t *testing.T) {
	lintkit.RunGolden(t, Analyzer, "testdata/src/aliased")
}

func TestCloneIdiomsAreClean(t *testing.T) {
	lintkit.RunGolden(t, Analyzer, "testdata/src/clean")
}

func TestUnmarkedPackageIsExempt(t *testing.T) {
	lintkit.RunGolden(t, Analyzer, "testdata/src/unmarked")
}

func TestFixWrapsStringSinksInClone(t *testing.T) {
	got := lintkit.GoldenFixes(t, Analyzer, "testdata/src/aliased", "aliased.go")
	for _, want := range []string{
		`r.last = strings.Clone(m.Err)`,
		`lastErr = strings.Clone(m.Err)`,
		"\t\"strings\"",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("fixed source missing %q\n%s", want, got)
		}
	}
	// Non-string sinks ([]byte, closure captures) have no mechanical fix.
	if strings.Contains(got, "strings.Clone(m.Payload)") {
		t.Errorf("fix must not wrap []byte sinks in strings.Clone:\n%s", got)
	}
}

func TestUseAfterReleaseIsFlagged(t *testing.T) {
	lintkit.RunGolden(t, Analyzer, "testdata/src/released")
}

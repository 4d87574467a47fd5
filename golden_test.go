package vlsisync

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenQuick is the quick suite's text output, as written by
//
//	go run ./cmd/experiments -quick -parallel 1 -metrics=false
//
// It pins every E1–E16 table, claim and finding across commits: the
// parallel-vs-sequential gate compares two runs of one build, so only a
// committed copy catches a change to a random stream or an event order.
// Regenerate it with the command above only when a change to the
// numbers is intended, and say why in the commit.
const goldenQuick = "testdata/experiments_quick.golden.txt"

// renderText renders results exactly as cmd/experiments' text format.
func renderText(t *testing.T, results []*ExperimentResult) string {
	t.Helper()
	var b strings.Builder
	for _, r := range results {
		status := "PASS"
		if !r.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "=== %s — %s [%s]\n", r.ID, r.Title, status)
		fmt.Fprintf(&b, "Paper claim: %s\n", r.PaperClaim)
		fmt.Fprintf(&b, "Measured:    %s\n\n", r.Finding)
		if err := r.Table.Render(&b); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// TestQuickSuiteMatchesGolden diffs the quick suite, line by line,
// against the committed golden output.
func TestQuickSuiteMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(goldenQuick)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := RunExperiments(context.Background(), RunOptions{Quick: true, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := renderText(t, results)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got: %q\nwant: %q", goldenQuick, i+1, g, w)
		}
	}
}

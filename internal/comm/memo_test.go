package comm

import (
	"slices"
	"strings"
	"testing"
)

func mustPanic(t *testing.T, wantSubstr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic, got none")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T (%v), want string", r, r)
		}
		if !strings.Contains(msg, wantSubstr) {
			t.Fatalf("panic %q does not mention %q", msg, wantSubstr)
		}
	}()
	f()
}

func TestCommunicatingPairsRepeatedCallsStable(t *testing.T) {
	g, err := Mesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	first := g.CommunicatingPairs()
	second := g.CommunicatingPairs()
	if len(first) == 0 || !slices.Equal(first, second) {
		t.Fatalf("repeated pair lists differ: %v vs %v", first, second)
	}
}

func TestCommunicatingPairsPanicsOnCountChange(t *testing.T) {
	g, err := Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	g.CommunicatingPairs()
	g.Edges = append(g.Edges, Edge{From: 0, To: 8, Label: "zz"})
	mustPanic(t, "mutated after first CommunicatingPairs", func() {
		g.CommunicatingPairs()
	})
}

// TestCommunicatingPairsPanicsOnCountPreservingRewrite is the
// regression test for the memoization guard: an edge rewritten in
// place leaves len(Edges) unchanged, so a count-only check would hand
// every engine a stale pair list. The content fingerprint catches it.
func TestCommunicatingPairsPanicsOnCountPreservingRewrite(t *testing.T) {
	rewrites := []struct {
		name   string
		mutate func(g *Graph)
	}{
		{"endpoint", func(g *Graph) { g.Edges[0].To = g.Edges[0].To + 1 }},
		{"swap endpoints", func(g *Graph) {
			g.Edges[0].From, g.Edges[0].To = g.Edges[0].To, g.Edges[0].From
		}},
		{"label", func(g *Graph) { g.Edges[0].Label = g.Edges[0].Label + "'" }},
	}
	for _, tc := range rewrites {
		t.Run(tc.name, func(t *testing.T) {
			g, err := Mesh(3, 3)
			if err != nil {
				t.Fatal(err)
			}
			before := len(g.CommunicatingPairs())
			tc.mutate(g)
			if len(g.Edges) == 0 || before == 0 {
				t.Fatal("test setup broken")
			}
			mustPanic(t, "rewritten after first CommunicatingPairs", func() {
				g.CommunicatingPairs()
			})
		})
	}
}

func TestEdgeFingerprintDistinguishesLabelBoundaries(t *testing.T) {
	// ("ab","c") vs ("a","bc") across two edges: same bytes, different
	// boundaries — the terminator must separate them.
	g1, err := Linear(3)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Linear(3)
	if err != nil {
		t.Fatal(err)
	}
	g1.Edges[0].Label, g1.Edges[1].Label = "ab", "c"
	g2.Edges[0].Label, g2.Edges[1].Label = "a", "bc"
	if g1.edgeFingerprint() == g2.edgeFingerprint() {
		t.Error("fingerprint collides across label boundaries")
	}
	if g1.edgeFingerprint() != g1.edgeFingerprint() {
		t.Error("fingerprint not deterministic")
	}
}

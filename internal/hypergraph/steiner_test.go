package hypergraph

import "testing"

func TestSteinerRejectsBadN(t *testing.T) {
	for _, n := range []int{0, 1, 2, 4, 6, 7, 13, 100} {
		if _, err := SteinerTripleSystem(n); err == nil {
			t.Fatalf("n=%d accepted", n)
		}
	}
}

func TestSteinerSmallest(t *testing.T) {
	// STS(3) is a single triple.
	h, err := SteinerTripleSystem(3)
	if err != nil {
		t.Fatal(err)
	}
	if h.M() != 1 || h.Dim() != 3 {
		t.Fatalf("STS(3): %v", h)
	}
}

func TestSteinerDesignProperties(t *testing.T) {
	for _, n := range []int{9, 15, 21, 33, 63} {
		h, err := SteinerTripleSystem(n)
		if err != nil {
			t.Fatal(err)
		}
		// Exactly n(n−1)/6 triples.
		if want := n * (n - 1) / 6; h.M() != want {
			t.Fatalf("STS(%d): m = %d, want %d", n, h.M(), want)
		}
		// Every pair covered exactly once.
		pairCount := make(map[[2]V]int)
		for _, e := range h.Edges() {
			if len(e) != 3 {
				t.Fatalf("STS(%d): non-triple edge %v", n, e)
			}
			for i := 0; i < 3; i++ {
				for j := i + 1; j < 3; j++ {
					pairCount[[2]V{e[i], e[j]}]++
				}
			}
		}
		if len(pairCount) != n*(n-1)/2 {
			t.Fatalf("STS(%d): %d pairs covered, want %d", n, len(pairCount), n*(n-1)/2)
		}
		for pair, c := range pairCount {
			if c != 1 {
				t.Fatalf("STS(%d): pair %v covered %d times", n, pair, c)
			}
		}
		// Every vertex in exactly (n−1)/2 triples.
		for v, d := range h.VertexDegrees() {
			if d != (n-1)/2 {
				t.Fatalf("STS(%d): vertex %d degree %d, want %d", n, v, d, (n-1)/2)
			}
		}
	}
}

func TestSteinerIsLinear(t *testing.T) {
	h, err := SteinerTripleSystem(21)
	if err != nil {
		t.Fatal(err)
	}
	edges := edgeList(h)
	for i := range edges {
		for j := i + 1; j < len(edges); j++ {
			if IntersectionSize(edges[i], edges[j]) > 1 {
				t.Fatalf("triples %v and %v share 2+ vertices", edges[i], edges[j])
			}
		}
	}
}

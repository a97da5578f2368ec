package hypergraph

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/bitset"
	"repro/internal/rng"
)

// edgeList collects h's edges, for tests that index or print them.
func edgeList(h *Hypergraph) []Edge {
	var edges []Edge
	for _, e := range h.Edges() {
		edges = append(edges, e)
	}
	return edges
}

// checkEdges requires h.Edges() to yield exactly Edge(0), …, Edge(M−1),
// in order and each capped at its own end, over offsets that span the
// whole arena.
func checkEdges(t *testing.T, label string, h *Hypergraph) {
	t.Helper()
	m := h.M()
	if len(h.off) != m+1 || h.off[0] != 0 || int(h.off[m]) != len(h.verts) {
		t.Fatalf("%s: offsets %v for %d edges over %d vertices", label, h.off, m, len(h.verts))
	}
	next := 0
	for i, e := range h.Edges() {
		want := h.Edge(i)
		if i != next || len(e) == 0 || len(e) != len(want) || &e[0] != &want[0] || cap(e) != len(e) {
			t.Fatalf("%s: yield %d is edge %d %v (len %d, cap %d), want edge %d %v",
				label, next, i, e, len(e), cap(e), next, h.Edge(next))
		}
		next++
	}
	if next != m {
		t.Fatalf("%s: Edges yielded %d edges, want %d", label, next, m)
	}
	if m < 2 {
		return
	}
	seen := 0
	for i := range h.Edges() {
		seen++
		if i == 1 {
			break
		}
	}
	if seen != 2 {
		t.Fatalf("%s: a break after edge 1 saw %d edges", label, seen)
	}
}

// TestEdgesIterator runs checkEdges on a Hypergraph from every source:
// Build on input in canonical order (whose arena it keeps) and out of
// order (which it packs), Clone, the ops.go transforms, and the round
// pipeline's InduceIntoBits and NextRoundBits.
func TestEdgesIterator(t *testing.T) {
	src := RandomMixed(rng.New(31), 200, 400, 1, 6)
	inOrder, reversed := NewBuilder(src.N()), NewBuilder(src.N())
	for _, e := range src.Edges() {
		inOrder.AddEdgeSlice(e)
	}
	for i := src.M() - 1; i >= 0; i-- {
		reversed.AddEdgeSlice(src.Edge(i))
	}
	red, blue := randomColors(rng.New(32), src.N())
	in := bitset.New(src.N())
	for v := 0; v < src.N(); v += 3 {
		in.Add(v)
		in.Add(v + 1)
	}
	scr := &RoundScratch{}
	shrunk, _ := Shrink(src, has(blue))
	singletonFree, _ := RemoveSingletons(src)
	round, _ := NextRoundBits(src, red, blue, scr, nil)
	for _, c := range []struct {
		label string
		h     *Hypergraph
	}{
		{"Build in order", inOrder.MustBuild()},
		{"Build out of order", reversed.MustBuild()},
		{"Clone", src.Clone()},
		{"Shrink", shrunk},
		{"RemoveSingletons", singletonFree},
		{"RemoveSupersets", RemoveSupersets(src)},
		{"InduceIntoBits", InduceIntoBits(src.Residual(), in, scr, nil)},
		{"NextRoundBits", round},
		{"edgeless", NewBuilder(4).MustBuild()},
	} {
		if c.h.M() < 2 && c.label != "edgeless" {
			t.Fatalf("%s: only %d edges", c.label, c.h.M())
		}
		checkEdges(t, c.label, c.h)
	}
}

func TestBuilderCanonicalizes(t *testing.T) {
	h, err := NewBuilder(10).
		AddEdge(3, 1, 2).
		AddEdge(2, 1, 3). // duplicate after sorting
		AddEdge(5, 5, 6). // duplicate vertex inside edge
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if h.M() != 2 {
		t.Fatalf("expected 2 canonical edges, got %d: %v", h.M(), edgeList(h))
	}
	if !h.HasEdge(1, 2, 3) {
		t.Fatal("missing canonical edge {1,2,3}")
	}
	if !h.HasEdge(5, 6) {
		t.Fatal("edge {5,5,6} should canonicalize to {5,6}")
	}
	if h.Dim() != 3 {
		t.Fatalf("dim = %d", h.Dim())
	}
}

func TestBuilderRejectsEmptyEdge(t *testing.T) {
	if _, err := NewBuilder(5).AddEdge().Build(); err == nil {
		t.Fatal("empty edge accepted")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	if _, err := NewBuilder(5).AddEdge(0, 5).Build(); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if _, err := NewBuilder(5).AddEdge(-1, 2).Build(); err == nil {
		t.Fatal("negative vertex accepted")
	}
}

func TestEmptyHypergraph(t *testing.T) {
	h := NewBuilder(7).MustBuild()
	if h.N() != 7 || h.M() != 0 || h.Dim() != 0 {
		t.Fatalf("bad empty hypergraph: %v", h)
	}
	all := make([]bool, 7)
	for i := range all {
		all[i] = true
	}
	if err := VerifyMIS(h, all); err != nil {
		t.Fatalf("full set must be the MIS of an edgeless hypergraph: %v", err)
	}
}

func TestIncidence(t *testing.T) {
	h := NewBuilder(5).AddEdge(0, 1).AddEdge(1, 2, 3).MustBuild()
	inc := h.Incidence()
	if len(inc[1]) != 2 {
		t.Fatalf("vertex 1 should touch 2 edges, got %d", len(inc[1]))
	}
	if len(inc[4]) != 0 {
		t.Fatal("vertex 4 should be isolated")
	}
	deg := h.VertexDegrees()
	if deg[1] != 2 || deg[0] != 1 || deg[4] != 0 {
		t.Fatalf("degrees wrong: %v", deg)
	}
}

// TestDegreeSummary: DegreeSummary agrees with the VertexDegrees
// reference, and allocates nothing sized by n: on n = 2^31 with the one
// edge {0, 2^31 − 1} it reports degree 1 and 2^31 − 2 isolated vertices.
func TestDegreeSummary(t *testing.T) {
	s := rng.New(23)
	for seed := 0; seed < 30; seed++ {
		st := s.Child(uint64(seed))
		n := 6 + st.Intn(200)
		h := RandomMixed(st, n, st.Intn(2*n), 1, 6)
		wantMax, wantIso := 0, 0
		for _, d := range h.VertexDegrees() {
			wantMax = max(wantMax, d)
			if d == 0 {
				wantIso++
			}
		}
		if gotMax, gotIso := h.DegreeSummary(); gotMax != wantMax || gotIso != wantIso {
			t.Fatalf("seed %d: DegreeSummary = (%d, %d), VertexDegrees gives (%d, %d)",
				seed, gotMax, gotIso, wantMax, wantIso)
		}
	}

	n := math.MaxInt32
	n++ // computed, so the file still compiles where int has 32 bits
	if n < 0 {
		t.Skip("int has 32 bits")
	}
	h := NewBuilder(n).AddEdge(0, V(n-1)).MustBuild()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	maxDeg, isolated := h.DegreeSummary()
	runtime.ReadMemStats(&after)
	if maxDeg != 1 || isolated != n-2 {
		t.Fatalf("n=2^31: DegreeSummary = (%d, %d), want (1, %d)", maxDeg, isolated, n-2)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("n=2^31: DegreeSummary allocated %d bytes", d)
	}
}

func TestDimHistogram(t *testing.T) {
	h := NewBuilder(6).AddEdge(0, 1).AddEdge(2, 3).AddEdge(0, 1, 2).MustBuild()
	hist := h.DimHistogram()
	if hist[2] != 2 || hist[3] != 1 {
		t.Fatalf("hist = %v", hist)
	}
}

func TestContainsSorted(t *testing.T) {
	e := Edge{1, 3, 5, 7}
	cases := []struct {
		x    Edge
		want bool
	}{
		{Edge{}, true},
		{Edge{1}, true},
		{Edge{7}, true},
		{Edge{3, 5}, true},
		{Edge{1, 3, 5, 7}, true},
		{Edge{2}, false},
		{Edge{1, 2}, false},
		{Edge{1, 3, 5, 7, 9}, false},
	}
	for _, c := range cases {
		if got := ContainsSorted(e, c.x); got != c.want {
			t.Fatalf("ContainsSorted(%v, %v) = %v", e, c.x, got)
		}
	}
}

func TestIntersectionSize(t *testing.T) {
	if got := IntersectionSize(Edge{1, 2, 3}, Edge{2, 3, 4}); got != 2 {
		t.Fatalf("got %d", got)
	}
	if got := IntersectionSize(Edge{1}, Edge{2}); got != 0 {
		t.Fatalf("got %d", got)
	}
	if got := IntersectionSize(Edge{}, Edge{1, 2}); got != 0 {
		t.Fatalf("got %d", got)
	}
}

func TestDiffSorted(t *testing.T) {
	got := DiffSorted(Edge{1, 2, 3, 4}, Edge{2, 4})
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v", got)
	}
	got = DiffSorted(Edge{1, 2}, Edge{})
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	got = DiffSorted(Edge{1, 2}, Edge{1, 2})
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	h := NewBuilder(4).AddEdge(0, 1, 2).MustBuild()
	c := h.Clone()
	c.Edge(0)[0] = 3
	if h.Edge(0)[0] != 0 {
		t.Fatal("Clone shares edge storage")
	}
}

func TestVerifyMISPositive(t *testing.T) {
	// Triangle hypergraph {0,1,2}; MIS examples: {0,1,3} on 4 vertices.
	h := NewBuilder(4).AddEdge(0, 1, 2).MustBuild()
	in := []bool{true, true, false, true}
	if err := VerifyMIS(h, in); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyMISNotIndependent(t *testing.T) {
	h := NewBuilder(3).AddEdge(0, 1, 2).MustBuild()
	in := []bool{true, true, true}
	if err := VerifyMIS(h, in); err == nil {
		t.Fatal("accepted dependent set")
	}
}

func TestVerifyMISNotMaximal(t *testing.T) {
	h := NewBuilder(4).AddEdge(0, 1, 2).MustBuild()
	in := []bool{true, false, false, true} // vertex 1 addable
	if err := VerifyMIS(h, in); err == nil {
		t.Fatal("accepted non-maximal set")
	}
}

func TestVerifyMISIsolatedVertexMustBeIn(t *testing.T) {
	h := NewBuilder(3).AddEdge(0, 1).MustBuild()
	in := []bool{true, false, false} // vertex 2 isolated, must be in
	if err := VerifyMIS(h, in); err == nil {
		t.Fatal("isolated vertex omitted but set accepted")
	}
	in[2] = true
	if err := VerifyMIS(h, in); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyMISWrongLength(t *testing.T) {
	h := NewBuilder(3).AddEdge(0, 1).MustBuild()
	if err := VerifyMIS(h, []bool{true}); err == nil {
		t.Fatal("wrong-length mask accepted")
	}
}

func TestMaskListRoundTrip(t *testing.T) {
	vs := []V{1, 4, 5}
	mask := MaskFromList(8, vs)
	back := ListFromMask(mask)
	if len(back) != 3 || back[0] != 1 || back[1] != 4 || back[2] != 5 {
		t.Fatalf("round trip gave %v", back)
	}
}

func TestInduced(t *testing.T) {
	h := NewBuilder(6).AddEdge(0, 1).AddEdge(1, 2).AddEdge(3, 4, 5).MustBuild()
	in := map[V]bool{0: true, 1: true, 2: true}
	sub := Induced(h, func(v V) bool { return in[v] })
	if sub.M() != 2 {
		t.Fatalf("induced should keep 2 edges, got %d", sub.M())
	}
	if sub.N() != h.N() {
		t.Fatal("induced must preserve the vertex universe")
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) {
		t.Fatalf("wrong edges: %v", edgeList(sub))
	}
}

func TestDiscardTouching(t *testing.T) {
	h := NewBuilder(5).AddEdge(0, 1).AddEdge(2, 3).MustBuild()
	got := DiscardTouching(h, func(v V) bool { return v == 1 })
	if got.M() != 1 || !got.HasEdge(2, 3) {
		t.Fatalf("got %v", edgeList(got))
	}
}

func TestShrink(t *testing.T) {
	h := NewBuilder(5).AddEdge(0, 1, 2).AddEdge(3, 4).MustBuild()
	got, emptied := Shrink(h, func(v V) bool { return v == 1 })
	if emptied != 0 {
		t.Fatalf("emptied = %d", emptied)
	}
	if !got.HasEdge(0, 2) || !got.HasEdge(3, 4) {
		t.Fatalf("got %v", edgeList(got))
	}
}

func TestShrinkReportsEmptied(t *testing.T) {
	h := NewBuilder(3).AddEdge(0, 1).MustBuild()
	_, emptied := Shrink(h, func(v V) bool { return true })
	if emptied != 1 {
		t.Fatalf("emptied = %d, want 1", emptied)
	}
}

func TestShrinkMergesDuplicates(t *testing.T) {
	// {0,1,2} and {0,1,3} both shrink to {0,1} when 2,3 drop; dedup to one.
	h := NewBuilder(4).AddEdge(0, 1, 2).AddEdge(0, 1, 3).MustBuild()
	got, _ := Shrink(h, func(v V) bool { return v >= 2 })
	if got.M() != 1 || !got.HasEdge(0, 1) {
		t.Fatalf("got %v", edgeList(got))
	}
}

func TestRemoveSupersets(t *testing.T) {
	h := NewBuilder(5).AddEdge(0, 1).AddEdge(0, 1, 2).AddEdge(2, 3, 4).MustBuild()
	got := RemoveSupersets(h)
	if got.M() != 2 {
		t.Fatalf("got %d edges: %v", got.M(), edgeList(got))
	}
	if got.HasEdge(0, 1, 2) {
		t.Fatal("superset {0,1,2} of {0,1} survived")
	}
}

func TestRemoveSupersetsKeepsIncomparable(t *testing.T) {
	h := NewBuilder(6).AddEdge(0, 1, 2).AddEdge(1, 2, 3).AddEdge(3, 4).MustBuild()
	got := RemoveSupersets(h)
	if got.M() != 3 {
		t.Fatalf("incomparable edges dropped: %v", edgeList(got))
	}
}

func TestRemoveSingletons(t *testing.T) {
	h := NewBuilder(5).AddEdge(2).AddEdge(0, 1).AddEdge(3).MustBuild()
	got, blocked := RemoveSingletons(h)
	if got.M() != 1 || !got.HasEdge(0, 1) {
		t.Fatalf("got %v", edgeList(got))
	}
	if len(blocked) != 2 {
		t.Fatalf("blocked = %v", blocked)
	}
	seen := map[V]bool{}
	for _, v := range blocked {
		seen[v] = true
	}
	if !seen[2] || !seen[3] {
		t.Fatalf("blocked = %v", blocked)
	}
}

func TestRemoveSingletonsNoop(t *testing.T) {
	h := NewBuilder(4).AddEdge(0, 1).MustBuild()
	got, blocked := RemoveSingletons(h)
	if got != h || blocked != nil {
		t.Fatal("no-singleton case should return the same hypergraph")
	}
}

func TestUsedVertices(t *testing.T) {
	h := NewBuilder(4).AddEdge(1, 2).MustBuild()
	used := h.UsedVertices()
	want := []bool{false, true, true, false}
	for i := range want {
		if used[i] != want[i] {
			t.Fatalf("used = %v", used)
		}
	}
}

// --- generator validity ---

func TestRandomUniformShape(t *testing.T) {
	s := rng.New(1)
	h := RandomUniform(s, 100, 200, 3)
	if h.N() != 100 {
		t.Fatalf("n = %d", h.N())
	}
	if h.M() == 0 || h.M() > 200 {
		t.Fatalf("m = %d", h.M())
	}
	for _, e := range h.Edges() {
		if len(e) != 3 {
			t.Fatalf("non-uniform edge %v", e)
		}
		for i := 1; i < len(e); i++ {
			if e[i] <= e[i-1] {
				t.Fatalf("edge not strictly sorted: %v", e)
			}
		}
	}
}

func TestRandomMixedSizes(t *testing.T) {
	s := rng.New(2)
	h := RandomMixed(s, 200, 300, 2, 6)
	for _, e := range h.Edges() {
		if len(e) < 2 || len(e) > 6 {
			t.Fatalf("edge size %d out of [2,6]", len(e))
		}
	}
	if h.Dim() > 6 {
		t.Fatalf("dim = %d", h.Dim())
	}
}

func TestLinearIsLinear(t *testing.T) {
	s := rng.New(3)
	h := Linear(s, 300, 80, 3)
	edges := edgeList(h)
	for i := range edges {
		for j := i + 1; j < len(edges); j++ {
			if IntersectionSize(edges[i], edges[j]) > 1 {
				t.Fatalf("edges %v and %v intersect in >1 vertex", edges[i], edges[j])
			}
		}
	}
	if h.M() < 40 {
		t.Fatalf("linear generator produced too few edges: %d", h.M())
	}
}

func TestPlantedMISIsIndependent(t *testing.T) {
	s := rng.New(4)
	const n, planted = 120, 40
	h := PlantedMIS(s, n, 250, 3, planted)
	mask := make([]bool, n)
	for i := 0; i < planted; i++ {
		mask[i] = true
	}
	if !IsIndependent(h, mask) {
		t.Fatal("planted set is not independent")
	}
}

func TestSunflowerStructure(t *testing.T) {
	s := rng.New(5)
	h := Sunflower(s, 100, 2, 3, 8)
	if h.M() != 8 {
		t.Fatalf("m = %d", h.M())
	}
	edges := edgeList(h)
	// Any two edges intersect exactly in the core (size 2).
	for i := range edges {
		if len(edges[i]) != 5 {
			t.Fatalf("edge size %d, want 5", len(edges[i]))
		}
		for j := i + 1; j < len(edges); j++ {
			if IntersectionSize(edges[i], edges[j]) != 2 {
				t.Fatalf("edges intersect in %d, want core size 2",
					IntersectionSize(edges[i], edges[j]))
			}
		}
	}
}

func TestLayeredMigrationSizes(t *testing.T) {
	s := rng.New(6)
	h := LayeredMigration(s, 500, 2, 4, 7, 5)
	if h.Dim() != 7 {
		t.Fatalf("dim = %d", h.Dim())
	}
	hist := h.DimHistogram()
	for k := 4; k <= 7; k++ {
		if hist[k] == 0 {
			t.Fatalf("no edges of size %d: %v", k, hist)
		}
	}
}

func TestBlockPartitionLocality(t *testing.T) {
	s := rng.New(7)
	h := BlockPartition(s, 100, 10, 3, 4)
	for _, e := range h.Edges() {
		block := e[0] / 10
		for _, v := range e {
			if v/10 != block {
				t.Fatalf("edge %v crosses blocks", e)
			}
		}
	}
}

func TestCompleteCount(t *testing.T) {
	h := Complete(10, 5, 3)
	if h.M() != 10 { // C(5,3)
		t.Fatalf("m = %d, want 10", h.M())
	}
	// MIS: any 2 of the first 5 plus all of 5..9.
	mask := []bool{true, true, false, false, false, true, true, true, true, true}
	if err := VerifyMIS(h, mask); err != nil {
		t.Fatal(err)
	}
}

func TestStarHub(t *testing.T) {
	s := rng.New(8)
	h := Star(s, 50, 30, 3)
	for _, e := range h.Edges() {
		if e[0] != 0 {
			t.Fatalf("edge %v misses hub", e)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	h1 := RandomUniform(rng.New(99), 64, 100, 3)
	h2 := RandomUniform(rng.New(99), 64, 100, 3)
	if h1.M() != h2.M() {
		t.Fatal("same seed, different edge count")
	}
	for i := range h1.Edges() {
		if !equalEdge(h1.Edge(i), h2.Edge(i)) {
			t.Fatalf("edge %d differs", i)
		}
	}
}

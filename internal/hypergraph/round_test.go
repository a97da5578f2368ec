package hypergraph

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/par"
	"repro/internal/rng"
)

// randomRoundInstance builds a fuzzed instance for the pipeline
// equivalence tests: mixed edge sizes starting at 1 (singleton edges
// included), and with extra proper subsets of existing edges injected
// so the superset/subset structure the antichain machinery cares about
// is exercised.
func randomRoundInstance(st *rng.Stream) *Hypergraph {
	n := 5 + st.Intn(60)
	m := 1 + st.Intn(90)
	maxSize := 2 + st.Intn(4) // up to 5
	b := NewBuilder(n)
	var edges []Edge
	for i := 0; i < m; i++ {
		k := 1 + st.Intn(maxSize)
		e := sampleDistinct(st, n, k)
		edges = append(edges, e)
		b.AddEdgeSlice(e)
	}
	// Inject proper subsets of some existing edges (superset cases).
	for _, e := range edges {
		if len(e) < 2 || st.Intn(3) != 0 {
			continue
		}
		sub := append(Edge(nil), e[:1+st.Intn(len(e)-1)]...)
		b.AddEdgeSlice(sub)
	}
	return b.MustBuild()
}

// randomColors draws disjoint red/blue masks over the universe.
func randomColors(st *rng.Stream, n int) (isRed, isBlue []bool) {
	isRed = make([]bool, n)
	isBlue = make([]bool, n)
	for v := 0; v < n; v++ {
		switch st.Intn(5) {
		case 0:
			isBlue[v] = true
		case 1:
			isRed[v] = true
		}
	}
	return
}

func requireSameHypergraph(t *testing.T, seed, round int, got, want *Hypergraph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.Dim() != want.Dim() {
		t.Fatalf("seed %d round %d: shape (n,m,dim)=(%d,%d,%d), want (%d,%d,%d)",
			seed, round, got.N(), got.M(), got.Dim(), want.N(), want.M(), want.Dim())
	}
	for i := range want.Edges() {
		if !equalEdge(got.Edge(i), want.Edge(i)) {
			t.Fatalf("seed %d round %d: edge %d = %v, want %v",
				seed, round, i, got.Edge(i), want.Edge(i))
		}
	}
}

// TestNextRoundMatchesPurePipeline is the acceptance property for the
// fused CSR round: on ≥100 fuzzed instances (mixed dimensions,
// singleton edges, superset structure), chained over several rounds of
// one reused scratch, NextRound produces exactly the canonical edge set
// of the seed's pure DiscardTouching → Shrink pipeline, with the same
// emptied count.
func TestNextRoundMatchesPurePipeline(t *testing.T) {
	s := rng.New(42)
	scr := &RoundScratch{} // reused across all instances: exercises buffer recycling
	instances := 120
	for seed := 0; seed < instances; seed++ {
		st := s.Child(uint64(seed))
		h := randomRoundInstance(st)
		cur := h
		ref := h
		for round := 0; round < 4; round++ {
			isRed, isBlue := randomColors(st, h.N())
			red := func(v V) bool { return isRed[v] }
			blue := func(v V) bool { return isBlue[v] }

			wantNext := DiscardTouching(ref, red)
			wantNext, wantEmptied := Shrink(wantNext, blue)

			gotNext, gotEmptied := NextRound(cur, red, blue, scr)
			if gotEmptied != wantEmptied {
				t.Fatalf("seed %d round %d: emptied %d, want %d", seed, round, gotEmptied, wantEmptied)
			}
			requireSameHypergraph(t, seed, round, gotNext, wantNext)
			cur, ref = gotNext, wantNext
			if ref.M() == 0 {
				break
			}
		}
	}
}

// TestInduceIntoMatchesInduced checks the scratch-buffered induction
// against the pure Induced, including interleaving with NextRound on
// the same scratch (the SBL loop's access pattern).
func TestInduceIntoMatchesInduced(t *testing.T) {
	s := rng.New(43)
	scr := &RoundScratch{}
	for seed := 0; seed < 120; seed++ {
		st := s.Child(uint64(seed))
		h := randomRoundInstance(st)
		cur := h
		for round := 0; round < 3 && cur.M() > 0; round++ {
			in := make([]bool, h.N())
			for v := range in {
				in[v] = st.Intn(3) != 0
			}
			want := Induced(cur, func(v V) bool { return in[v] })
			got := InduceInto(cur, func(v V) bool { return in[v] }, scr)
			requireSameHypergraph(t, seed, round, got, want)

			// Advance cur through the fused round to interleave the two
			// scratch consumers like the SBL loop does; the sub result
			// must survive the NextRound call (dedicated buffer).
			isRed, isBlue := randomColors(st, h.N())
			next, _ := NextRound(cur, func(v V) bool { return isRed[v] },
				func(v V) bool { return isBlue[v] }, scr)
			requireSameHypergraph(t, seed, round, got, want) // still intact
			cur = next
		}
	}
}

// TestNextRoundZeroAllocSteadyState pins the sequential path's claim:
// once the scratch arenas are warm, a fused round performs zero heap
// allocations — a red-only round, which keeps canonical order, and a
// shrinking round that has to sort, merge and repack alike.
func TestNextRoundZeroAllocSteadyState(t *testing.T) {
	st := rng.New(7)
	h := RandomMixed(st, 400, 800, 2, 5)
	scr := &RoundScratch{}
	isRed := make([]bool, h.N())
	for v := 0; v < h.N(); v += 17 {
		isRed[v] = true
	}
	red := func(v V) bool { return isRed[v] }
	blue := func(v V) bool { return false }
	// Warm-up: size the arenas.
	if next, _ := NextRound(h, red, blue, scr); next.M() == 0 {
		t.Fatal("degenerate warm-up instance")
	}
	allocs := testing.AllocsPerRun(20, func() {
		NextRound(h, red, blue, scr)
	})
	if allocs != 0 {
		t.Fatalf("steady-state NextRound allocated %v times per round, want 0", allocs)
	}
	in := make([]bool, h.N())
	for v := range in {
		in[v] = v%3 != 0
	}
	inF := func(v V) bool { return in[v] }
	InduceInto(h, inF, scr)
	allocs = testing.AllocsPerRun(20, func() {
		InduceInto(h, inF, scr)
	})
	if allocs != 0 {
		t.Fatalf("steady-state InduceInto allocated %v times per round, want 0", allocs)
	}

	// A shrinking round that reorders edges and creates duplicates runs
	// the whole canonicalization (sort, merge, repack); warm, it must
	// not allocate either. Vertex 3 is blue, so {3, 10, 11} shrinks onto
	// the unchanged {10, 11}.
	b := NewBuilder(h.N())
	for _, e := range h.Edges() {
		b.AddEdge(e...)
	}
	hs := b.AddEdge(10, 11).AddEdge(3, 10, 11).MustBuild()
	redBits, blueBits := bitset.New(h.N()), bitset.New(h.N())
	for v := 0; v < h.N(); v += 17 {
		redBits.Add(v)
	}
	for v := 3; v < h.N(); v += 5 {
		blueBits.Add(v)
	}
	c := roundCases(hs, redBits, blueBits)
	if !c.reorder || !c.dupUnchanged || !c.dupShrunk {
		t.Fatalf("blue set does not exercise canonicalization: %+v", c)
	}
	scrP1 := &RoundScratch{Eng: par.Engine{P: 1}}
	NextRoundBits(hs, redBits, blueBits, scrP1, nil)
	allocs = testing.AllocsPerRun(20, func() {
		NextRoundBits(hs, redBits, blueBits, scrP1, nil)
	})
	if allocs != 0 {
		t.Fatalf("steady-state shrinking NextRoundBits allocated %v times per round, want 0", allocs)
	}
}

// canonCases records which canonicalization cases one round exercises.
type canonCases struct {
	reorder      bool   // a shrunk edge lands before a smaller one
	dupUnchanged bool   // a shrunk edge equals an unchanged edge
	dupShrunk    bool   // two shrunk edges are equal
	merged       []Edge // surviving edges, sorted, duplicates included
	arena        int    // their total size
}

// roundCases classifies, from the pure definitions, what the round
// (red, blue) does to h's surviving edges before deduplication.
func roundCases(h *Hypergraph, red, blue bitset.Set) canonCases {
	var c canonCases
	unchanged := map[string]int{}
	shrunk := map[string]int{}
	var prev Edge
	for _, e := range h.Edges() {
		var out Edge
		dead := false
		for _, v := range e {
			switch {
			case red.Has(int(v)):
				dead = true
			case !blue.Has(int(v)):
				out = append(out, v)
			}
		}
		if dead || len(out) == 0 {
			continue
		}
		if prev != nil && lessEdge(out, prev) {
			c.reorder = true
		}
		prev = out
		key := fmt.Sprint(out)
		if len(out) < len(e) {
			shrunk[key]++
		} else {
			unchanged[key]++
		}
		c.merged = append(c.merged, out)
		c.arena += len(out)
	}
	for key, k := range shrunk {
		c.dupUnchanged = c.dupUnchanged || unchanged[key] > 0
		c.dupShrunk = c.dupShrunk || k > 1
	}
	sort.Slice(c.merged, func(i, j int) bool { return lessEdge(c.merged[i], c.merged[j]) })
	return c
}

// straddles reports whether a run of equal edges crosses a boundary of
// the (len(merged), shards) block partition the sharded merge uses.
func (c canonCases) straddles(shards int) bool {
	L := len(c.merged)
	chunk := (L + shards - 1) / shards
	for b := chunk; b < L; b += chunk {
		if equalEdge(c.merged[b-1], c.merged[b]) {
			return true
		}
	}
	return false
}

// TestWorkingAndFusedAgainstSeedReference is the differential test
// pinning both incremental engines — Working and the fused CSR round —
// against the seed's pure DiscardTouching → Shrink → RemoveSupersets
// reference on fuzzed instances.
func TestWorkingAndFusedAgainstSeedReference(t *testing.T) {
	s := rng.New(44)
	scr := &RoundScratch{}
	for seed := 0; seed < 110; seed++ {
		st := s.Child(uint64(seed))
		h := randomRoundInstance(st)
		var blue, red []V
		isRed := make([]bool, h.N())
		isBlue := make([]bool, h.N())
		for v := 0; v < h.N(); v++ {
			switch st.Intn(5) {
			case 0:
				blue = append(blue, V(v))
				isBlue[v] = true
			case 1:
				red = append(red, V(v))
				isRed[v] = true
			}
		}
		norm := RemoveSupersets(h)
		want := DiscardTouching(norm, func(v V) bool { return isRed[v] })
		want, wantEmptied := Shrink(want, func(v V) bool { return isBlue[v] })
		want = RemoveSupersets(want)

		w := NewWorking(h)
		gotEmptied := w.Commit(blue, red)
		if gotEmptied != wantEmptied {
			t.Fatalf("seed %d: Working emptied %d, want %d", seed, gotEmptied, wantEmptied)
		}
		requireSameHypergraph(t, seed, 0, w.Snapshot(), want)

		fused, fusedEmptied := NextRound(norm, func(v V) bool { return isRed[v] },
			func(v V) bool { return isBlue[v] }, scr)
		if fusedEmptied != wantEmptied {
			t.Fatalf("seed %d: fused emptied %d, want %d", seed, fusedEmptied, wantEmptied)
		}
		requireSameHypergraph(t, seed, 0, RemoveSupersets(fused), want)
	}
}

// TestNextRoundParallelShards forces the sharded classify/scatter paths
// (arena above parallelScanThreshold, several workers) even on a
// single-CPU host, and checks the fused results against the pure
// pipeline.
func TestNextRoundParallelShards(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	s := rng.New(45)
	scr := &RoundScratch{}
	for seed := 0; seed < 3; seed++ {
		st := s.Child(uint64(seed))
		h := RandomMixed(st, 4000, 8000, 2, 6)
		if len(h.verts) < parallelScanThreshold {
			t.Fatalf("instance too small to exercise the parallel path: %d", len(h.verts))
		}
		isRed, isBlue := randomColors(st, h.N())
		red := func(v V) bool { return isRed[v] }
		blue := func(v V) bool { return isBlue[v] }

		want := DiscardTouching(h, red)
		want, wantEmptied := Shrink(want, blue)
		got, gotEmptied := NextRound(h, red, blue, scr)
		if gotEmptied != wantEmptied {
			t.Fatalf("seed %d: emptied %d, want %d", seed, gotEmptied, wantEmptied)
		}
		requireSameHypergraph(t, seed, 0, got, want)

		in := make([]bool, h.N())
		for v := range in {
			in[v] = st.Intn(4) != 0
		}
		wantInd := Induced(h, func(v V) bool { return in[v] })
		gotInd := InduceInto(h, func(v V) bool { return in[v] }, scr)
		requireSameHypergraph(t, seed, 0, gotInd, wantInd)
	}
}

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

// randomColors draws disjoint red/blue vertex sets over the universe.
func randomColors(st *rng.Stream, n int) (red, blue bitset.Set) {
	red, blue = bitset.New(n), bitset.New(n)
	for v := 0; v < n; v++ {
		switch st.Intn(5) {
		case 0:
			blue.Add(v)
		case 1:
			red.Add(v)
		}
	}
	return
}

// has is set membership as the predicate the pure pipeline takes.
func has(set bitset.Set) func(V) bool { return func(v V) bool { return set.Has(int(v)) } }

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
// one reused scratch, NextRoundBits produces exactly the canonical edge
// set of the seed's pure DiscardTouching → Shrink pipeline, with the
// same emptied count.
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
			red, blue := randomColors(st, h.N())

			wantNext := DiscardTouching(ref, has(red))
			wantNext, wantEmptied := Shrink(wantNext, has(blue))

			gotNext, gotEmptied := NextRoundBits(cur, red, blue, scr, nil)
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

// TestNextRoundNilRedMatchesShrink pins the round BL runs, with no red
// set: NextRoundBits(cur, nil, blue, …) must equal Shrink alone, chained
// over rounds of one reused scratch on fuzzed instances, and on an
// instance above the scan threshold at degrees 1, 2 and 8.
func TestNextRoundNilRedMatchesShrink(t *testing.T) {
	s := rng.New(46)
	scr := &RoundScratch{}
	for seed := 0; seed < 120; seed++ {
		st := s.Child(uint64(seed))
		h := randomRoundInstance(st)
		cur, ref := h, h
		for round := 0; round < 4 && ref.M() > 0; round++ {
			_, blue := randomColors(st, h.N())
			want, wantEmptied := Shrink(ref, has(blue))
			got, gotEmptied := NextRoundBits(cur, nil, blue, scr, nil)
			if gotEmptied != wantEmptied {
				t.Fatalf("seed %d round %d: emptied %d, want %d", seed, round, gotEmptied, wantEmptied)
			}
			requireSameHypergraph(t, seed, round, got, want)
			cur, ref = got, want
		}
	}
	st := s.Child(1000)
	h := RandomMixed(st, 4000, 8000, 2, 6)
	_, blue := randomColors(st, h.N())
	want, wantEmptied := Shrink(h, has(blue))
	for _, p := range []int{1, 2, 8} {
		got, gotEmptied := NextRoundBits(h, nil, blue, &RoundScratch{Eng: par.Engine{P: p}}, nil)
		if gotEmptied != wantEmptied {
			t.Fatalf("P=%d: emptied %d, want %d", p, gotEmptied, wantEmptied)
		}
		sameEdges(t, fmt.Sprintf("P=%d", p), want, got)
	}
}

// TestInduceIntoMatchesInduced checks the scratch-buffered induction
// against the pure Induced, including interleaving with NextRoundBits
// on the same scratch (the SBL loop's access pattern).
func TestInduceIntoMatchesInduced(t *testing.T) {
	s := rng.New(43)
	scr := &RoundScratch{}
	for seed := 0; seed < 120; seed++ {
		st := s.Child(uint64(seed))
		h := randomRoundInstance(st)
		cur := h
		for round := 0; round < 3 && cur.M() > 0; round++ {
			in := bitset.New(h.N())
			for v := 0; v < h.N(); v++ {
				if st.Intn(3) != 0 {
					in.Add(v)
				}
			}
			want := Induced(cur, has(in))
			got := InduceIntoBits(cur, in, scr)
			requireSameHypergraph(t, seed, round, got, want)

			// Advance cur through the fused round to interleave the two
			// scratch consumers like the SBL loop does; the sub result
			// must survive the NextRoundBits call (dedicated buffer).
			red, blue := randomColors(st, h.N())
			next, _ := NextRoundBits(cur, red, blue, scr, nil)
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
	red, blue := bitset.New(h.N()), bitset.New(h.N())
	for v := 0; v < h.N(); v += 17 {
		red.Add(v)
	}
	// Warm-up: size the arenas.
	if next, _ := NextRoundBits(h, red, blue, scr, nil); next.M() == 0 {
		t.Fatal("degenerate warm-up instance")
	}
	allocs := testing.AllocsPerRun(20, func() {
		NextRoundBits(h, red, blue, scr, nil)
	})
	if allocs != 0 {
		t.Fatalf("steady-state NextRoundBits allocated %v times per round, want 0", allocs)
	}
	in := bitset.New(h.N())
	for v := 0; v < h.N(); v++ {
		if v%3 != 0 {
			in.Add(v)
		}
	}
	InduceIntoBits(h, in, scr)
	allocs = testing.AllocsPerRun(20, func() {
		InduceIntoBits(h, in, scr)
	})
	if allocs != 0 {
		t.Fatalf("steady-state InduceIntoBits allocated %v times per round, want 0", allocs)
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
	chunk := par.BlockLen(L, shards)
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
		redBits, blueBits := bitset.New(h.N()), bitset.New(h.N())
		for v := 0; v < h.N(); v++ {
			switch st.Intn(5) {
			case 0:
				blue = append(blue, V(v))
				blueBits.Add(v)
			case 1:
				red = append(red, V(v))
				redBits.Add(v)
			}
		}
		norm := RemoveSupersets(h)
		want := DiscardTouching(norm, has(redBits))
		want, wantEmptied := Shrink(want, has(blueBits))
		want = RemoveSupersets(want)

		w := NewWorking(h)
		gotEmptied := w.Commit(blue, red)
		if gotEmptied != wantEmptied {
			t.Fatalf("seed %d: Working emptied %d, want %d", seed, gotEmptied, wantEmptied)
		}
		requireSameHypergraph(t, seed, 0, w.Snapshot(), want)

		fused, fusedEmptied := NextRoundBits(norm, redBits, blueBits, scr, nil)
		if fusedEmptied != wantEmptied {
			t.Fatalf("seed %d: fused emptied %d, want %d", seed, fusedEmptied, wantEmptied)
		}
		requireSameHypergraph(t, seed, 0, RemoveSupersets(fused), want)
	}
}

// TestNextRoundParallelShards forces the sharded classify/scatter paths
// (arena above par.MinScanWork, several workers) even on a
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
		if len(h.verts) < par.MinScanWork {
			t.Fatalf("instance too small to exercise the parallel path: %d", len(h.verts))
		}
		red, blue := randomColors(st, h.N())

		want := DiscardTouching(h, has(red))
		want, wantEmptied := Shrink(want, has(blue))
		got, gotEmptied := NextRoundBits(h, red, blue, scr, nil)
		if gotEmptied != wantEmptied {
			t.Fatalf("seed %d: emptied %d, want %d", seed, gotEmptied, wantEmptied)
		}
		requireSameHypergraph(t, seed, 0, got, want)

		in := bitset.New(h.N())
		for v := 0; v < h.N(); v++ {
			if st.Intn(4) != 0 {
				in.Add(v)
			}
		}
		wantInd := Induced(h, has(in))
		gotInd := InduceIntoBits(h, in, scr)
		requireSameHypergraph(t, seed, 0, gotInd, wantInd)
	}
}

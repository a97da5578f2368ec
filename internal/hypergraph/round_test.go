package hypergraph

import (
	"fmt"
	"runtime"
	"slices"
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

// residualOf packs edges, each sorted and strictly increasing, into a
// Residual in the given order.
func residualOf(n int, edges []Edge) *Residual {
	r := &Residual{n: n, off: []int32{0}}
	for _, e := range edges {
		r.verts = append(r.verts, e...)
		r.off = append(r.off, int32(len(r.verts)))
		r.dim = max(r.dim, len(e))
	}
	return r
}

// scrambled returns h's edges as a multiset the way rounds leave one:
// shuffled, with about a quarter of the edges repeated.
func scrambled(st *rng.Stream, h *Hypergraph) *Residual {
	var edges []Edge
	for _, e := range h.Edges() {
		edges = append(edges, e)
		if st.Intn(4) == 0 {
			edges = append(edges, e)
		}
	}
	shuffled := make([]Edge, len(edges))
	for i, j := range st.Perm(len(edges)) {
		shuffled[i] = edges[j]
	}
	return residualOf(h.N(), shuffled)
}

// canonOf returns the canonical hypergraph of r's distinct edges.
func canonOf(r *Residual) *Hypergraph {
	edges := make([]Edge, r.M())
	for i := range edges {
		edges[i] = r.Edge(i)
	}
	h, err := FromEdges(r.N(), edges)
	if err != nil {
		panic(err)
	}
	return h
}

// sameCSR requires got to be byte-identical to want: the same shape,
// arena and offsets, with Edges serving exactly that arena.
func sameCSR(t *testing.T, label string, got, want *Hypergraph) {
	t.Helper()
	if got.N() != want.N() || got.Dim() != want.Dim() || !slices.Equal(got.verts, want.verts) || !slices.Equal(got.off, want.off) {
		t.Fatalf("%s: CSR (n=%d dim=%d verts=%v off=%v), want (n=%d dim=%d verts=%v off=%v)",
			label, got.N(), got.Dim(), got.verts, got.off, want.N(), want.Dim(), want.verts, want.off)
	}
	checkEdges(t, label, got)
}

// sameResidual requires two residuals to be byte-identical.
func sameResidual(t *testing.T, label string, got, want *Residual) {
	t.Helper()
	if got.N() != want.N() || got.Dim() != want.Dim() || !slices.Equal(got.verts, want.verts) || !slices.Equal(got.off, want.off) {
		t.Fatalf("%s: residual (n=%d dim=%d m=%d), want (n=%d dim=%d m=%d), or their arenas differ",
			label, got.N(), got.Dim(), got.M(), want.N(), want.Dim(), want.M())
	}
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
// one reused scratch, NextRoundBits produces exactly the canonical edge
// set of the seed's pure DiscardTouching → Shrink pipeline, with the
// same emptied count. A residual threaded through the same rounds by
// NextResidual, starting shuffled and with repeats, must hold the same
// edges once deduplicated, the same dimension, and an emptied count
// that is zero exactly when the pipeline's is (it counts repeats).
func TestNextRoundMatchesPurePipeline(t *testing.T) {
	s := rng.New(42)
	scr := &RoundScratch{}  // reused across all instances: exercises buffer recycling
	rscr := &RoundScratch{} // the residual thread's ring
	instances := 120
	for seed := 0; seed < instances; seed++ {
		st := s.Child(uint64(seed))
		h := randomRoundInstance(st)
		cur := h
		ref := h
		res := scrambled(st, h)
		for round := 0; round < 4; round++ {
			red, blue := randomColors(st, h.N())

			wantNext := DiscardTouching(ref, has(red))
			wantNext, wantEmptied := Shrink(wantNext, has(blue))

			gotNext, gotEmptied := NextRoundBits(cur, red, blue, scr, nil)
			if gotEmptied != wantEmptied {
				t.Fatalf("seed %d round %d: emptied %d, want %d", seed, round, gotEmptied, wantEmptied)
			}
			requireSameHypergraph(t, seed, round, gotNext, wantNext)

			gotRes, resEmptied := NextResidual(res, red, blue, rscr, nil)
			if resEmptied < wantEmptied || (resEmptied > 0) != (wantEmptied > 0) {
				t.Fatalf("seed %d round %d: residual emptied %d, pipeline %d", seed, round, resEmptied, wantEmptied)
			}
			if gotRes.Dim() != wantNext.Dim() || gotRes.M() < wantNext.M() {
				t.Fatalf("seed %d round %d: residual dim %d m %d, pipeline dim %d m %d",
					seed, round, gotRes.Dim(), gotRes.M(), wantNext.Dim(), wantNext.M())
			}
			requireSameHypergraph(t, seed, round, canonOf(gotRes), wantNext)
			cur, ref, res = gotNext, wantNext, gotRes
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
// on the same scratch (the SBL loop's access pattern). Induced from a
// shuffled multiset of the same edges, the result must be
// byte-identical to Induced on the canonical form.
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
			got := InduceIntoBits(cur.Residual(), in, scr, nil)
			requireSameHypergraph(t, seed, round, got, want)

			// Advance cur through the fused round to interleave the two
			// scratch consumers like the SBL loop does; the sub result
			// must survive the NextRoundBits call (dedicated buffer).
			red, blue := randomColors(st, h.N())
			next, _ := NextRoundBits(cur, red, blue, scr, nil)
			requireSameHypergraph(t, seed, round, got, want) // still intact

			label := fmt.Sprintf("seed %d round %d multiset", seed, round)
			sameCSR(t, label, InduceIntoBits(scrambled(st, cur), in, scr, nil), want)
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
	InduceIntoBits(h.Residual(), in, scr, nil)
	allocs = testing.AllocsPerRun(20, func() {
		InduceIntoBits(h.Residual(), in, scr, nil)
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

	// A round on a multiset, and an induce from one that has to sort and
	// deduplicate H′, allocate nothing warm either.
	r := scrambled(rng.New(8), hs)
	rscr := &RoundScratch{Eng: par.Engine{P: 1}}
	NextResidual(r, redBits, blueBits, rscr, nil)
	allocs = testing.AllocsPerRun(20, func() {
		NextResidual(r, redBits, blueBits, rscr, nil)
	})
	if allocs != 0 {
		t.Fatalf("steady-state NextResidual allocated %v times per round, want 0", allocs)
	}
	InduceIntoBits(r, in, rscr, nil)
	if len(rscr.spill) == 0 {
		t.Fatal("the induce from a shuffled multiset did not canonicalize")
	}
	allocs = testing.AllocsPerRun(20, func() {
		InduceIntoBits(r, in, rscr, nil)
	})
	if allocs != 0 {
		t.Fatalf("steady-state canonicalizing InduceIntoBits allocated %v times per round, want 0", allocs)
	}
}

// canonCases records which canonicalization cases one round exercises.
type canonCases struct {
	reorder      bool // a shrunk edge lands before a smaller one
	dupUnchanged bool // a shrunk edge equals an unchanged edge
	dupShrunk    bool // two shrunk edges are equal
	arena        int  // total size of the surviving edges, duplicates included
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
		c.arena += len(out)
	}
	for key, k := range shrunk {
		c.dupUnchanged = c.dupUnchanged || unchanged[key] > 0
		c.dupShrunk = c.dupShrunk || k > 1
	}
	return c
}

// TestFusedAgainstSeedReference is the differential test pinning the
// fused CSR round against the seed's pure DiscardTouching → Shrink →
// RemoveSupersets reference on fuzzed instances.
func TestFusedAgainstSeedReference(t *testing.T) {
	s := rng.New(44)
	scr := &RoundScratch{}
	for seed := 0; seed < 110; seed++ {
		st := s.Child(uint64(seed))
		h := randomRoundInstance(st)
		redBits, blueBits := bitset.New(h.N()), bitset.New(h.N())
		for v := 0; v < h.N(); v++ {
			switch st.Intn(5) {
			case 0:
				blueBits.Add(v)
			case 1:
				redBits.Add(v)
			}
		}
		norm := RemoveSupersets(h)
		want := DiscardTouching(norm, has(redBits))
		want, wantEmptied := Shrink(want, has(blueBits))
		want = RemoveSupersets(want)

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
		gotInd := InduceIntoBits(h.Residual(), in, scr, nil)
		requireSameHypergraph(t, seed, 0, gotInd, wantInd)
	}
}

package hypergraph

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/par"
)

// These tests pin the sequential/sharded switchover exactly at the
// par.MinScanWork boundary: instances whose CSR arena holds
// threshold−1, threshold, and threshold+1 vertices take different code
// paths (the round pipeline's classify/scatter passes and the
// verifier's scans shard at ≥ threshold), and the outputs must be
// identical on both sides, at every engine degree.

// boundaryInstance builds a hypergraph whose arena holds exactly
// arenaLen vertices: size-2 edges over a large vertex universe, plus
// one size-3 edge when arenaLen is odd.
func boundaryInstance(arenaLen int) *Hypergraph {
	n := arenaLen + 8
	b := NewBuilder(n)
	used := 0
	v := V(0)
	if arenaLen%2 == 1 {
		b.AddEdge(v, v+1, v+2)
		v += 3
		used += 3
	}
	for ; used < arenaLen; used += 2 {
		b.AddEdge(v, v+1)
		v += 2
	}
	h := b.MustBuild()
	if h.ArenaLen() != arenaLen {
		panic(fmt.Sprintf("boundaryInstance(%d) built arena %d", arenaLen, h.ArenaLen()))
	}
	return h
}

// boundaryColors deterministically colors a sprinkling of vertices red
// and blue (disjoint).
func boundaryColors(n int) (red, blue bitset.Set) {
	red, blue = bitset.New(n), bitset.New(n)
	for v := 0; v < n; v++ {
		switch v % 17 {
		case 3:
			red.Add(v)
		case 5, 11:
			blue.Add(v)
		}
	}
	return
}

// boundaryResidual returns h's edges as a multiset with the same arena
// length: in reverse order, with every seventh edge replaced by a copy
// of its predecessor when the two have the same size.
func boundaryResidual(h *Hypergraph) *Residual {
	edges := edgeList(h)
	slices.Reverse(edges)
	for i := 6; i < len(edges); i += 7 {
		if len(edges[i]) == len(edges[i-1]) {
			edges[i] = edges[i-1]
		}
	}
	return residualOf(h.N(), edges)
}

func sameEdges(t *testing.T, label string, a, b *Hypergraph) {
	t.Helper()
	if a.M() != b.M() {
		t.Fatalf("%s: %d edges vs %d", label, a.M(), b.M())
	}
	for i := range a.Edges() {
		if !equalEdge(a.Edge(i), b.Edge(i)) {
			t.Fatalf("%s: edge %d: %v vs %v", label, i, a.Edge(i), b.Edge(i))
		}
	}
}

// TestNextRoundParityAtScanThreshold compares the fused round transform
// against the pure DiscardTouching→Shrink pipeline at arena sizes
// threshold−1 / threshold / threshold+1, where the implementation
// switches from the sequential loops to the sharded passes, across
// engine degrees 1, 2 and 8. A multiset input of the same arena length
// must give the same residual at P 1 and P 4, byte for byte, holding
// the pipeline's edges once deduplicated.
func TestNextRoundParityAtScanThreshold(t *testing.T) {
	for _, arena := range []int{par.MinScanWork - 1, par.MinScanWork, par.MinScanWork + 1} {
		h := boundaryInstance(arena)
		red, blue := boundaryColors(h.N())

		// Pure-pipeline reference.
		ref, refEmptied := Shrink(DiscardTouching(h, has(red)), has(blue))

		for _, p := range []int{1, 2, 8} {
			label := fmt.Sprintf("arena=%d P=%d", arena, p)
			scr := &RoundScratch{Eng: par.Engine{P: p}}
			got, emptied := NextRoundBits(h, red, blue, scr, nil)
			if emptied != refEmptied {
				t.Fatalf("%s: NextRoundBits emptied %d want %d", label, emptied, refEmptied)
			}
			sameEdges(t, label, ref, got)
		}

		r := boundaryResidual(h)
		if r.ArenaLen() != arena {
			t.Fatalf("arena=%d: multiset arena %d", arena, r.ArenaLen())
		}
		rref, _ := Shrink(DiscardTouching(canonOf(r), has(red)), has(blue))
		seq, seqEmptied := NextResidual(r, red, blue, &RoundScratch{Eng: par.Engine{P: 1}}, nil)
		sameEdges(t, fmt.Sprintf("arena=%d multiset", arena), rref, canonOf(seq))
		got, emptied := NextResidual(r, red, blue, &RoundScratch{Eng: par.Engine{P: 4}}, nil)
		if emptied != seqEmptied {
			t.Fatalf("arena=%d: multiset emptied %d at P=4, %d at P=1", arena, emptied, seqEmptied)
		}
		sameResidual(t, fmt.Sprintf("arena=%d multiset P=4", arena), got, seq)
	}
}

// TestInduceParityAtScanThreshold does the same for the induce
// transform against the pure Induced. From a multiset of the same
// arena length, induced on a third of the vertices and on all of them
// (which sorts and deduplicates the whole arena), the result must be
// byte-identical at P 1 and P 4 and equal Induced on the canonical
// form.
func TestInduceParityAtScanThreshold(t *testing.T) {
	for _, arena := range []int{par.MinScanWork - 1, par.MinScanWork, par.MinScanWork + 1} {
		h := boundaryInstance(arena)
		in := bitset.New(h.N())
		for v := 0; v < h.N(); v++ {
			if v%3 != 1 {
				in.Add(v)
			}
		}
		ref := Induced(h, has(in))

		for _, p := range []int{1, 2, 8} {
			label := fmt.Sprintf("arena=%d P=%d", arena, p)
			scr := &RoundScratch{Eng: par.Engine{P: p}}
			sameEdges(t, label, ref, InduceIntoBits(h.Residual(), in, scr, nil))
		}

		r := boundaryResidual(h)
		all := bitset.New(h.N())
		all.SetAll(h.N())
		for _, set := range []bitset.Set{in, all} {
			label := fmt.Sprintf("arena=%d multiset |in|=%d", arena, set.Count())
			rref := Induced(canonOf(r), has(set))
			seq := InduceIntoBits(r, set, &RoundScratch{Eng: par.Engine{P: 1}}, nil)
			sameCSR(t, label+" P=1", seq, rref)
			sameCSR(t, label+" P=4", InduceIntoBits(r, set, &RoundScratch{Eng: par.Engine{P: 4}}, nil), rref)
		}
	}
}

// TestAssignSlotsParityAtEdgeCountThreshold targets the slot-assignment
// scan's own switchover, which triggers on edge count rather than arena
// size: m = threshold ± 1 edges, verified against the pure pipeline at
// several degrees.
func TestAssignSlotsParityAtEdgeCountThreshold(t *testing.T) {
	for _, m := range []int{par.MinScanWork - 1, par.MinScanWork, par.MinScanWork + 1} {
		h := boundaryInstance(2 * m) // m size-2 edges
		if h.M() != m {
			t.Fatalf("instance has %d edges, want %d", h.M(), m)
		}
		red, blue := boundaryColors(h.N())
		ref, _ := Shrink(DiscardTouching(h, has(red)), has(blue))
		for _, p := range []int{1, 3, 8} {
			scr := &RoundScratch{Eng: par.Engine{P: p}}
			got, _ := NextRoundBits(h, red, blue, scr, nil)
			sameEdges(t, fmt.Sprintf("m=%d P=%d", m, p), ref, got)
		}
	}
}

// canonInstance builds an instance, with the colors of its round, whose
// scattered round output holds exactly arena vertices before
// duplicates are dropped, and which exercises every canonicalization
// case. Key t has first vertex x = t and second vertex y(t); the blue
// vertices sort between them, so
//
//   - {x, β_i, y(t)} shrinks onto the unchanged {x, y(t)}, and two such
//     edges are two equal shrunk edges;
//   - {x, β_0, y(t+1)} precedes {x, y(t)} in the input but shrinks to
//     an edge that sorts after it (a reorder).
//
// The run of copies of {x, y(t)} is 2–7 long depending on t. Unchanged
// singletons on fresh vertices fill the arena to the exact size; a few
// edges through the red vertex die.
func canonInstance(arena int) (h *Hypergraph, red, blue bitset.Set) {
	const nBlue = 6
	keys := arena / 8
	n := 2*keys + nBlue + 2 + arena
	b := NewBuilder(n)
	y := func(t int) V { return V(keys + nBlue + t) }
	r := V(2*keys + nBlue + 1)
	filler := r + 1
	red, blue = bitset.New(n), bitset.New(n)
	red.Add(int(r))
	for i := 0; i < nBlue; i++ {
		blue.Add(keys + i)
	}
	used := 0
	for t := 0; t < keys; t++ {
		x := V(t)
		copies, reorder, unchanged := 2+t%5, t%2 == 0, t%3 != 0
		size := 2 * copies
		if reorder {
			size += 2
		}
		if unchanged {
			size += 2
		}
		if used+size > arena {
			break
		}
		used += size
		for i := 0; i < copies; i++ {
			b.AddEdge(x, V(keys+i), y(t))
		}
		if reorder {
			b.AddEdge(x, V(keys), y(t+1))
		}
		if unchanged {
			b.AddEdge(x, y(t))
		}
		if t%5 == 0 {
			b.AddEdge(x, r)
		}
	}
	for ; used < arena; used++ {
		b.AddEdge(filler)
		filler++
	}
	return b.MustBuild(), red, blue
}

// TestCanonicalizeParityAtThreshold pins the canonicalization (sort the
// shrunk edges, merge with dedupe, pack) on both sides of the
// par.MinScanWork switch-over of the round's other passes: instances
// whose round output holds threshold−1, threshold and threshold+1
// vertices, with reordering shrunk edges, shrunk edges equal to
// unchanged ones and equal shrunk edges, must match the pure
// DiscardTouching→Shrink pipeline at every degree.
func TestCanonicalizeParityAtThreshold(t *testing.T) {
	for _, arena := range []int{par.MinScanWork - 1, par.MinScanWork, par.MinScanWork + 1} {
		h, red, blue := canonInstance(arena)
		c := roundCases(h, red, blue)
		if !c.reorder || !c.dupUnchanged || !c.dupShrunk || c.arena != arena {
			t.Fatalf("arena=%d: instance misses a case: reorder=%v dupUnchanged=%v dupShrunk=%v arena=%d",
				arena, c.reorder, c.dupUnchanged, c.dupShrunk, c.arena)
		}
		ref, refEmptied := Shrink(DiscardTouching(h, has(red)), has(blue))
		for _, p := range []int{1, 2, 3, 8} {
			label := fmt.Sprintf("arena=%d P=%d", arena, p)
			scr := &RoundScratch{Eng: par.Engine{P: p}}
			got, emptied := NextRoundBits(h, red, blue, scr, nil)
			if emptied != refEmptied {
				t.Fatalf("%s: NextRoundBits emptied %d want %d", label, emptied, refEmptied)
			}
			if len(scr.spill) == 0 {
				t.Fatalf("%s: canonicalization did not run", label)
			}
			sameEdges(t, label, ref, got)
			checkEdges(t, label, got)
		}
	}
}

// TestVerifyMISParityAtScanThreshold pins VerifyMISOn's switchover: on
// arenas of threshold−1, threshold and threshold+1 vertices, a valid
// MIS, a set containing two edges and a set missing two addable
// vertices must get the same verdict and witness at P 1 and P 4.
func TestVerifyMISParityAtScanThreshold(t *testing.T) {
	for _, arena := range []int{par.MinScanWork - 1, par.MinScanWork, par.MinScanWork + 1} {
		h := boundaryInstance(arena)
		m := h.M()
		if shards := (par.Engine{P: 4}).NumShards(m); shards < 2 {
			t.Fatalf("arena=%d: %d edges give %d shards at P=4", arena, m, shards)
		}
		// Every vertex but the last of each edge: the edges are
		// disjoint, so this is a maximal independent set.
		valid := make([]bool, h.N())
		for v := range valid {
			valid[v] = true
		}
		for _, e := range h.Edges() {
			valid[e[len(e)-1]] = false
		}
		contained, nonMaximal := slices.Clone(valid), slices.Clone(valid)
		for _, i := range []int{m / 2, 3 * m / 4} {
			e := h.Edge(i)
			contained[e[len(e)-1]] = true
			nonMaximal[e[0]] = false
		}
		for _, c := range []struct {
			name string
			in   []bool
			want string // "" = no error, else a substring of it
		}{
			{"valid", valid, ""},
			{"contained", contained, "not independent"},
			{"non-maximal", nonMaximal, "not maximal"},
		} {
			label := fmt.Sprintf("arena=%d %s", arena, c.name)
			ref := VerifyMISOn(h, c.in, par.Engine{P: 1})
			if (ref == nil) != (c.want == "") || ref != nil && !strings.Contains(ref.Error(), c.want) {
				t.Fatalf("%s: P=1 verdict %v, want %q", label, ref, c.want)
			}
			if got := VerifyMISOn(h, c.in, par.Engine{P: 4}); fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Fatalf("%s: P=4 verdict %v, P=1 %v", label, got, ref)
			}
		}
	}
}

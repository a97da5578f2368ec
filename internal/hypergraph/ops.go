package hypergraph

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/par"
)

// This file implements the structural transformations the SBL and BL
// loops apply between rounds. All of them preserve canonical form
// (sorted, deduplicated edges) without re-running the Builder, and all
// of them copy surviving edges into a fresh CSR arena — outputs never
// alias their inputs. The filters list the indices of the edges they
// keep, a subsequence of the canonical list, and pack copies those
// edges once. The scratch-based, allocation-free variants the solver
// round loops use live in round.go.

// Induced returns the hypergraph H' = (V', E') of the paper's SBL round:
// same vertex universe, but only edges entirely contained in the set
// {v : in(v)}. (Vertices outside the set simply have no incident edges;
// identity of vertex IDs is preserved so colorings transfer back.)
func Induced(h *Hypergraph, in func(V) bool) *Hypergraph {
	return FilterEdges(h, func(e Edge) bool {
		for _, v := range e {
			if !in(v) {
				return false
			}
		}
		return true
	})
}

// FilterEdges keeps only edges satisfying keep. A subset of a canonical
// edge list is itself canonical, so the survivors are packed directly.
func FilterEdges(h *Hypergraph, keep func(Edge) bool) *Hypergraph {
	kept := make([]int32, 0, h.M())
	for i, e := range h.Edges() {
		if keep(e) {
			kept = append(kept, int32(i))
		}
	}
	return pack(&h.csr, kept)
}

// DiscardTouching removes every edge containing at least one vertex with
// touch(v) true. This is SBL line 13–17: edges meeting a red vertex
// (V' \ I') can never become fully blue and are dropped.
func DiscardTouching(h *Hypergraph, touch func(V) bool) *Hypergraph {
	return FilterEdges(h, func(e Edge) bool {
		for _, v := range e {
			if touch(v) {
				return false
			}
		}
		return true
	})
}

// Shrink removes the vertices with drop(v) true from every edge (SBL
// line 18–20 and BL line 13–15: e ← e \ I'). Edges that would become
// empty are reported via the second return value; for a correct MIS
// pipeline this never happens (an edge fully inside the independent set
// would contradict independence), so callers treat emptied > 0 as an
// invariant violation. It is the reference the round pipeline is
// property-tested against, so it shares no code with canonicalize or
// the Builder.
func Shrink(h *Hypergraph, drop func(V) bool) (*Hypergraph, int) {
	// Stage shrunk edges into one arena; removing vertices can break the
	// lexicographic edge order and create duplicates, so an index over
	// the staged edges is sorted and deduplicated before they are packed.
	staged := &Residual{n: h.n, verts: make([]V, 0, len(h.verts)), off: make([]int32, 1, len(h.off))}
	emptied := 0
	for _, e := range h.Edges() {
		start := len(staged.verts)
		for _, v := range e {
			if !drop(v) {
				staged.verts = append(staged.verts, v)
			}
		}
		if len(staged.verts) == start {
			emptied++
			continue
		}
		staged.off = append(staged.off, int32(len(staged.verts)))
	}
	idx := make([]int32, staged.M())
	for i := range idx {
		idx[i] = int32(i)
	}
	byEdge := func(x, y int32) int { return slices.Compare(staged.Edge(int(x)), staged.Edge(int(y))) }
	slices.SortFunc(idx, byEdge)
	idx = slices.CompactFunc(idx, func(x, y int32) bool { return byEdge(x, y) == 0 })
	return pack(staged, idx), emptied
}

// RemoveSupersets discards every edge that strictly contains another
// edge (BL line 16–20). Such supersets are redundant: any set containing
// the smaller edge already fails independence. It runs on the whole
// machine; RemoveSupersetsOn takes an explicit engine.
//
// For enumerable dimensions the check is: e survives iff no proper
// nonempty subset of e is an edge. That costs m·2^d set lookups, which
// is the regime BL runs in. Beyond maxEnumerableDim a pairwise check is
// used instead.
func RemoveSupersets(h *Hypergraph) *Hypergraph {
	return RemoveSupersetsOn(h, par.Engine{})
}

// RemoveSupersetsOn is RemoveSupersets on an explicit engine: the
// m·2^d dominated-edge checks shard over the engine's workers (the
// hashed edge index they probe is built once and read-only). The
// result is identical for any engine.
func RemoveSupersetsOn(h *Hypergraph, eng par.Engine) *Hypergraph {
	m := h.M()
	dominated := make([]bool, m)
	if h.Dim() <= maxEnumerableDim {
		present := newEdgeIndex(m)
		for i := range m {
			present.add(hashEdge(h.Edge(i)), int32(i))
		}
		lookup := func(x Edge) bool {
			return present.find(hashEdge(x), func(id int32) bool { return equalEdge(h.Edge(int(id)), x) }) >= 0
		}
		perItem := 1 << uint(min(h.Dim(), 30))
		shards := eng.ShardsFor(m, perItem)
		eng.ForShardsWork(nil, m, perItem, shards, func(_, lo, hi int) {
			var scratch Edge
			for i := lo; i < hi; i++ {
				e := h.Edge(i)
				k := len(e)
				full := uint32(1)<<uint(k) - 1
				for mask := uint32(1); mask < full; mask++ {
					scratch = scratch[:0]
					for b := 0; b < k; b++ {
						if mask&(1<<uint(b)) != 0 {
							scratch = append(scratch, e[b])
						}
					}
					if lookup(scratch) {
						dominated[i] = true
						break
					}
				}
			}
		})
	} else {
		// Pairwise fallback for very large dimension.
		for i, e := range h.Edges() {
			for j, f := range h.Edges() {
				if i != j && len(f) < len(e) && ContainsSorted(e, f) {
					dominated[i] = true
					break
				}
			}
		}
	}
	kept := make([]int32, 0, m)
	for i, d := range dominated {
		if !d {
			kept = append(kept, int32(i))
		}
	}
	return pack(&h.csr, kept)
}

// RemoveSingletons drops every singleton edge {v} and returns the
// affected vertices (BL line 21–24). A singleton edge means v can never
// join any independent set extension, so BL colors it red and removes it
// from the working vertex set.
func RemoveSingletons(h *Hypergraph) (*Hypergraph, []V) {
	var blocked []V
	kept := make([]int32, 0, h.M())
	for i, e := range h.Edges() {
		if len(e) == 1 {
			blocked = append(blocked, e[0])
			continue
		}
		kept = append(kept, int32(i))
	}
	if len(blocked) == 0 {
		return h, nil
	}
	// Any surviving edge containing a blocked vertex can never be fully
	// blue either; BL's next rounds would discard it when the vertex is
	// removed from V'. We keep such edges (they are harmless: the
	// blocked vertex is never marked again), matching the pseudocode,
	// which only deletes the singleton edges themselves.
	return pack(&h.csr, kept), blocked
}

// UsedVertices returns a mask of vertices appearing in at least one edge.
func (h *Hypergraph) UsedVertices() []bool {
	used := make([]bool, h.n)
	for _, v := range h.verts {
		used[v] = true
	}
	return used
}

// UsedVerticesInto writes the set of vertices appearing in at least one
// edge into dst (regrown to n bits), for callers that recycle the set
// across rounds.
func (h *Hypergraph) UsedVerticesInto(dst bitset.Set) bitset.Set {
	dst = dst.Grow(h.n)
	for _, v := range h.verts {
		dst.Add(int(v))
	}
	return dst
}

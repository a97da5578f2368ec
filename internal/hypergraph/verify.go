package hypergraph

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/par"
)

// IsIndependent reports whether the vertex set {v : in[v]} contains no
// edge of h. in must have length h.N().
func IsIndependent(h *Hypergraph, in []bool) bool {
	return firstContainedEdge(h, in, par.Engine{}) == -1
}

// firstContainedEdge returns the smallest index of an edge fully inside
// the set, or -1. Large instances shard the scan; the smallest matching
// index across shards is returned, so the witness is identical for any
// engine.
func firstContainedEdge(h *Hypergraph, in []bool, eng par.Engine) int {
	m := h.M()
	contained := func(e Edge) bool {
		for _, v := range e {
			if !in[v] {
				return false
			}
		}
		return true
	}
	shards := eng.NumShards(m)
	if len(h.verts) < par.MinScanWork || shards <= 1 {
		for i := range m {
			if contained(h.Edge(i)) {
				return i
			}
		}
		return -1
	}
	firsts := make([]int, shards)
	// Pre-fill with the no-witness sentinel: shards whose block is
	// empty are never invoked, and a zero there would read as "edge #0
	// fully contained".
	for s := range firsts {
		firsts[s] = -1
	}
	eng.ForShards(nil, m, shards, func(s, lo, hi int) {
		for i := lo; i < hi; i++ {
			if contained(h.Edge(i)) {
				firsts[s] = i
				return
			}
		}
	})
	for _, f := range firsts {
		if f >= 0 {
			return f
		}
	}
	return -1
}

// VerifyMIS checks independence and maximality and returns a descriptive
// error naming the violated invariant and a witness, or nil if the set
// is a maximal independent set of h. It runs on the whole machine;
// VerifyMISOn takes an explicit engine.
func VerifyMIS(h *Hypergraph, in []bool) error {
	return VerifyMISOn(h, in, par.Engine{})
}

// VerifyMISOn is VerifyMIS on an explicit engine. Large instances shard
// both passes: the independence scan reduces to the smallest witness
// index, and the maximality pass accumulates per-shard "completable"
// bitsets that are OR-merged word-parallel — so the verdict and the
// reported witness are identical for any engine.
func VerifyMISOn(h *Hypergraph, in []bool, eng par.Engine) error {
	if len(in) != h.n {
		return fmt.Errorf("verify: set has length %d, hypergraph has %d vertices", len(in), h.n)
	}
	if i := firstContainedEdge(h, in, eng); i != -1 {
		return fmt.Errorf("verify: not independent: edge #%d %v fully contained", i, h.Edge(i))
	}
	// Maximality: for each vertex u not in the set, adding u must make
	// some edge fully contained; equivalently some edge e ∋ u has all
	// other vertices in the set.
	m := h.M()
	markCompletes := func(completes bitset.Set, lo, hi int) {
		for i := lo; i < hi; i++ {
			missing := -1
			count := 0
			for _, v := range h.Edge(i) {
				if !in[v] {
					count++
					missing = int(v)
					if count > 1 {
						break
					}
				}
			}
			if count == 1 {
				completes.Add(missing)
			}
		}
	}
	completes := bitset.New(h.n)
	shards := eng.NumShards(m)
	if len(h.verts) < par.MinScanWork {
		shards = 1
	}
	bitset.UnionShards(eng, completes, h.n, m, shards, nil, markCompletes)
	for v := 0; v < h.n; v++ {
		if !in[v] && !completes.Has(v) {
			return fmt.Errorf("verify: not maximal: vertex %d can be added without creating a contained edge", v)
		}
	}
	return nil
}

// MaskFromList converts a vertex list into a boolean mask of length n.
func MaskFromList(n int, vs []V) []bool {
	mask := make([]bool, n)
	for _, v := range vs {
		mask[v] = true
	}
	return mask
}

// ListFromMask converts a boolean mask into a sorted vertex list.
func ListFromMask(mask []bool) []V {
	var vs []V
	for v, ok := range mask {
		if ok {
			vs = append(vs, V(v))
		}
	}
	return vs
}

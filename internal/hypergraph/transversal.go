package hypergraph

import "fmt"

// This file implements the classical duality the MIS problem lives in:
// S is an independent set of H iff its complement V\S is a transversal
// (hitting set) of H — every edge has a vertex outside S — and S is a
// *maximal* independent set iff V\S is a *minimal* transversal. The
// parallel MIS algorithms of the paper therefore double as parallel
// minimal-hitting-set algorithms, which is how several applications
// consume them.

// IsTransversal reports whether the set {v : in[v]} intersects every
// edge of h.
func IsTransversal(h *Hypergraph, in []bool) bool {
	for _, e := range h.Edges() {
		hit := false
		for _, v := range e {
			if in[v] {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// VerifyMinimalTransversal checks that the set is a transversal and
// that removing any of its vertices leaves some edge unhit. Returns nil
// on success or a descriptive error with a witness.
//
// Note that minimality here is with respect to the *covering* property
// only: vertices that belong to no edge are never needed, so a minimal
// transversal must not contain them.
func VerifyMinimalTransversal(h *Hypergraph, in []bool) error {
	if len(in) != h.n {
		return fmt.Errorf("transversal: set has length %d, hypergraph has %d vertices", len(in), h.n)
	}
	// Coverage, and per-edge count of chosen vertices (an edge hit
	// exactly once pins its chosen vertex as essential).
	essential := make([]bool, h.n)
	for i, e := range h.Edges() {
		hits := 0
		last := -1
		for _, v := range e {
			if in[v] {
				hits++
				last = int(v)
			}
		}
		if hits == 0 {
			return fmt.Errorf("transversal: edge #%d %v not hit", i, e)
		}
		if hits == 1 {
			essential[last] = true
		}
	}
	for v := 0; v < h.n; v++ {
		if in[v] && !essential[v] {
			return fmt.Errorf("transversal: vertex %d is redundant (every edge through it is multiply covered)", v)
		}
	}
	return nil
}

// ComplementMask returns the complement of a vertex mask.
func ComplementMask(in []bool) []bool {
	out := make([]bool, len(in))
	for i, b := range in {
		out[i] = !b
	}
	return out
}

// MinimalTransversalFromMIS converts a maximal independent set into the
// dual minimal transversal (its complement). The duality only holds for
// hypergraphs with no empty edge, which the Builder already guarantees.
func MinimalTransversalFromMIS(h *Hypergraph, mis []bool) ([]bool, error) {
	if err := VerifyMIS(h, mis); err != nil {
		return nil, fmt.Errorf("transversal: input is not a MIS: %w", err)
	}
	return ComplementMask(mis), nil
}

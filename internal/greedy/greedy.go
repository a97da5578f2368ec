// Package greedy implements sequential maximal-independent-set
// construction for hypergraphs: the "algorithm that takes time linear in
// the number of vertices" the paper invokes as the terminal solver once
// SBL has shrunk the instance below 1/p² vertices, and the reference
// oracle the parallel solvers are tested against.
//
// Greedy scans vertices in a given order and adds a vertex unless doing
// so would complete an edge (all other vertices of the edge already
// chosen). The result is always a maximal independent set. On a uniform
// random order this is also the sequential simulation of the
// random-permutation algorithm of Beame and Luby, conjectured in [2] to
// be parallelizable in RNC (the Shachnai–Srinivasan line of analysis).
package greedy

import (
	"repro/internal/hypergraph"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/solver"
)

// Result reports the constructed MIS and basic counters.
type Result struct {
	InIS     []bool // membership mask over the vertex universe
	Size     int    // number of vertices in the MIS
	Rejected int    // vertices that would have completed an edge
}

func init() {
	solver.Register(solver.Descriptor{
		Algo: solver.Greedy,
		Name: "greedy",
		Solve: func(req solver.Request) (solver.Outcome, error) {
			r := RunIn(req.H, nil, req.Ws)
			return solver.Outcome{InIS: r.InIS}, nil
		},
	})
}

// Run computes a MIS of h restricted to the active vertices, scanning in
// increasing vertex order. Inactive vertices are ignored entirely (not
// in the set, not blocking). active == nil means all vertices active.
// Edges containing inactive vertices can never be completed and are
// skipped via the same counting logic.
func Run(h *hypergraph.Hypergraph, active []bool) *Result {
	return RunIn(h, active, nil)
}

// RunIn is Run drawing its scan-order and per-edge counting buffers
// from a workspace (nil = fresh buffers), so repeated solves — SBL's
// greedy tail, pooled service jobs — allocate only the returned mask.
// Greedy is sequential by definition, so the workspace is reset to the
// inline engine rather than inheriting whatever degree the workspace's
// previous job ran at.
func RunIn(h *hypergraph.Hypergraph, active []bool, ws *solver.Workspace) *Result {
	if ws == nil {
		ws = solver.NewWorkspace()
	}
	ws.Reset(h.N(), par.Engine{P: 1})
	order := ws.Verts(0, h.N())[:0]
	for v := 0; v < h.N(); v++ {
		if active == nil || active[v] {
			order = append(order, hypergraph.V(v))
		}
	}
	return runOrder(h, active, order, ws)
}

// RunPerm computes a MIS scanning active vertices in a uniformly random
// order drawn from s.
func RunPerm(h *hypergraph.Hypergraph, active []bool, s *rng.Stream) *Result {
	var candidates []hypergraph.V
	for v := 0; v < h.N(); v++ {
		if active == nil || active[v] {
			candidates = append(candidates, hypergraph.V(v))
		}
	}
	perm := s.Perm(len(candidates))
	order := make([]hypergraph.V, len(candidates))
	for i, pi := range perm {
		order[i] = candidates[pi]
	}
	return RunOrder(h, active, order)
}

// RunOrder computes the greedy MIS over the given scan order. Every
// vertex in order must be active; vertices outside order are treated as
// permanently out of the set. The scan costs O(Σ|e| + n).
func RunOrder(h *hypergraph.Hypergraph, active []bool, order []hypergraph.V) *Result {
	return runOrder(h, active, order, solver.NewWorkspace())
}

// runOrder is RunOrder over workspace-supplied counting buffers.
func runOrder(h *hypergraph.Hypergraph, active []bool, order []hypergraph.V, ws *solver.Workspace) *Result {
	n := h.N()
	inIS := make([]bool, n)
	isActive := func(v hypergraph.V) bool { return active == nil || active[v] }

	// chosen[e] counts vertices of edge e already in the IS. An edge can
	// only ever be completed if all its vertices are active.
	chosen := ws.Int32s(0, h.M())
	completable := ws.Bools(0, h.M())
	if active == nil {
		for i := range completable {
			completable[i] = true
		}
	} else {
		for i, e := range h.Edges() {
			completable[i] = true
			for _, v := range e {
				if !active[v] {
					completable[i] = false
					break
				}
			}
		}
	}
	inc := h.Incidence()

	res := &Result{InIS: inIS}
	for _, v := range order {
		if !isActive(v) {
			continue
		}
		ok := true
		for _, ei := range inc[v] {
			if completable[ei] && int(chosen[ei]) == len(h.Edge(int(ei)))-1 {
				ok = false
				break
			}
		}
		if !ok {
			res.Rejected++
			continue
		}
		inIS[v] = true
		res.Size++
		for _, ei := range inc[v] {
			chosen[ei]++
		}
	}
	return res
}

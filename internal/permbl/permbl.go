// Package permbl implements the random-permutation MIS algorithm — the
// "other appealing algorithm" of Beame and Luby the paper's introduction
// discusses: draw a uniform random order π on the vertices and take the
// greedy MIS along π. Beame and Luby conjectured the natural parallel
// simulation works in RNC; Shachnai and Srinivasan (SIAM J. Discrete
// Math. 2004) made partial progress, and the question remains open —
// which makes its *measured* round complexity interesting (experiment
// material and a baseline for SBL).
//
// The output is by definition the sequential greedy MIS on π, computed
// here by parallel dependency resolution: a vertex's greedy decision
// depends only on the decisions of earlier vertices in its edges, so
// each round decides, in parallel, every vertex whose relevant
// predecessors are all decided. The number of rounds is the depth of
// the greedy dependency chain — the quantity the RNC conjecture is
// about (for graphs it is Θ(log n) w.h.p. by Blelloch–Fineman–Shun;
// for hypergraphs the answer is open).
//
// Decision rule being simulated (greedy along π): vertex v joins the IS
// unless some edge e ∋ v has every other vertex before v in π and all
// of them in the IS.
//
// The resolution loop runs on the shared solver runtime: context
// checks, the round budget and per-round telemetry go through
// solver.Loop, and the order/state arrays are drawn from a
// solver.Workspace.
package permbl

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/hypergraph"
	"repro/internal/mathx"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/solver"
)

// Options configures a run.
type Options struct {
	// Ctx, if non-nil, is checked at the top of every resolution round;
	// the run returns ctx.Err() as soon as the context is done.
	Ctx context.Context

	// Par bounds the worker parallelism of the resolution rounds (zero
	// value = whole machine). Output is identical for any engine.
	Par par.Engine

	// MaxRounds aborts when exceeded (0 = default n+1; the dependency
	// depth can never exceed n).
	MaxRounds int
	// CollectStats records per-round decided counts.
	CollectStats bool

	// Ws, if non-nil, supplies the run's reusable buffers (nil = a
	// fresh workspace). Must not be shared with a concurrent run.
	Ws *solver.Workspace

	// Observer, if non-nil, receives one telemetry record per round.
	Observer solver.RoundObserver
}

// RoundStat records one resolution round.
type RoundStat struct {
	Round   int
	Pending int // undecided vertices entering the round
	Decided int // vertices decided this round
}

// Result of a run.
type Result struct {
	InIS   []bool
	Rounds int // dependency-resolution rounds (the parallel depth)
	Stats  []RoundStat
}

// ErrRoundLimit is returned when MaxRounds is exceeded (cannot happen
// with the default limit: every round decides ≥ 1 vertex).
var ErrRoundLimit = errors.New("permbl: round limit exceeded")

func init() {
	solver.Register(solver.Descriptor{
		Algo: solver.PermBL,
		Name: "permbl",
		Solve: func(req solver.Request) (solver.Outcome, error) {
			r, err := Run(req.H, nil, req.Stream, req.Cost, Options{
				Ctx: req.Ctx, Par: req.Par, Ws: req.Ws, Observer: req.Observer,
			})
			if err != nil {
				return solver.Outcome{}, err
			}
			return solver.Outcome{InIS: r.InIS, Rounds: r.Rounds}, nil
		},
	})
}

// Run executes the permutation algorithm on the sub-hypergraph induced
// by active (nil = all). Edges must consist of active vertices only.
func Run(h *hypergraph.Hypergraph, active []bool, s *rng.Stream, cost *par.Cost, opts Options) (*Result, error) {
	n := h.N()
	if opts.MaxRounds == 0 {
		opts.MaxRounds = n + 1
	}
	ws := opts.Ws
	if ws == nil {
		ws = solver.NewWorkspace()
	}
	ws.Reset(n, opts.Par)
	act := func(v hypergraph.V) bool { return active == nil || active[v] }
	for _, e := range h.Edges() {
		for _, v := range e {
			if !act(v) {
				return nil, fmt.Errorf("permbl: edge %v contains inactive vertex %d", e, v)
			}
		}
	}

	// Random priorities: pos[v] = rank of v in π among active vertices.
	candidates := ws.Verts(0, n)[:0]
	for v := 0; v < n; v++ {
		if act(hypergraph.V(v)) {
			candidates = append(candidates, hypergraph.V(v))
		}
	}
	perm := ws.Ints(1, len(candidates))
	for i := range perm {
		perm[i] = i
	}
	s.Shuffle(perm)
	pos := ws.Ints(0, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, pi := range perm {
		pos[candidates[pi]] = i
	}
	par.ChargeAux(cost, int64(len(candidates)), int64(mathx.ILog2(len(candidates)+1)))

	const (
		undecided = 0
		inSet     = 1
		outSet    = 2
	)
	state := ws.Int8s(0, n)
	inc := h.Incidence()

	res := &Result{InIS: make([]bool, n)}
	eng := opts.Par
	next := ws.Int8s(1, n) // per-round decisions, reused across rounds
	pending := len(candidates)
	lp := &solver.Loop{
		Ctx:       opts.Ctx,
		Cost:      cost,
		MaxRounds: opts.MaxRounds,
		LimitErr:  ErrRoundLimit,
		Unit:      "round",
		Observer:  opts.Observer,
	}
	for pending > 0 {
		if err := lp.Begin(pending, h.M(), h.Dim()); err != nil {
			return nil, err
		}
		round := lp.Rounds()
		st := RoundStat{Round: round, Pending: pending}

		// For each undecided vertex, try to resolve its greedy decision
		// from the already-decided prefix-predecessors. next[v]:
		//  +1 join, -1 blocked, 0 still unknown.
		eng.For(cost, n, func(vi int) {
			next[vi] = 0
			v := hypergraph.V(vi)
			if !act(v) || state[vi] != undecided {
				return
			}
			decision := int8(1) // join unless blocked or unknown
			for _, ei := range inc[vi] {
				e := h.Edge(int(ei))
				// Classify this edge's predecessors of v.
				allPredIn := true  // every other vertex precedes v and is in the IS
				knownSafe := false // some predecessor is decided out, or some other vertex follows v
				unknown := false   // some predecessor still undecided
				for _, u := range e {
					if u == v {
						continue
					}
					if pos[u] > pos[v] {
						knownSafe = true
						continue
					}
					switch state[u] {
					case inSet:
						// contributes to allPredIn
					case outSet:
						knownSafe = true
						allPredIn = false
					default:
						unknown = true
						allPredIn = false
					}
				}
				if len(e) == 1 {
					// Singleton edge: v is blocked outright.
					decision = -1
					break
				}
				if knownSafe {
					continue // this edge can never block v
				}
				if allPredIn {
					decision = -1 // greedy would reject v here
					break
				}
				if unknown {
					decision = 0 // must wait for predecessors
				}
			}
			next[vi] = decision
		})

		decided := 0
		for v := 0; v < n; v++ {
			if state[v] != undecided || !act(hypergraph.V(v)) {
				continue
			}
			switch next[v] {
			case 1:
				state[v] = inSet
				res.InIS[v] = true
				decided++
			case -1:
				state[v] = outSet
				decided++
			}
		}
		par.ChargeStep(cost, n)
		pending -= decided
		st.Decided = decided
		if opts.CollectStats {
			res.Stats = append(res.Stats, st)
		}
		lp.End(decided)
		if decided == 0 && pending > 0 {
			return nil, fmt.Errorf("permbl: deadlock with %d pending (impossible: the minimum-position pending vertex is always decidable)", pending)
		}
	}
	res.Rounds = lp.Rounds()
	return res, nil
}

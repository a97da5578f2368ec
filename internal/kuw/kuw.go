// Package kuw implements the Karp–Upfal–Wigderson style parallel MIS
// algorithm for general hypergraphs: the O(√n)-round baseline the paper
// compares SBL against, and SBL's terminal solver once the residual
// instance has fewer than 1/p² vertices.
//
// Karp, Upfal and Wigderson (JCSS 1988) work in an independence-oracle
// model; the paper notes their algorithm "can be adapted to run in time
// O(√n)·(log n + log m) with high probability on mn processors". This
// package is that adaptation, using random-order prefix maximality:
//
// Each round has two phases, both essential to the O(√n) behaviour:
//
// Filter. Every candidate vertex v whose admission is already blocked —
// some residual edge has shrunk to the singleton {v}, i.e. S ∪ {v}
// would contain an edge — is discarded *in bulk*. (Without this step a
// blocked vertex would cost one round each and the round count would
// degrade to Θ(n − |MIS|).) The singleton edge is the maximality
// witness: all its other vertices are already in S.
//
// Extend. A uniform random order is drawn on the surviving candidates;
// in parallel over edges, the round finds the first position at which
// the prefix of the order, together with S, would fully contain an
// edge. All vertices strictly before that position join S (no edge
// completes inside the prefix, by minimality), and the vertex *at* the
// blocking position is discarded (its witness edge is in S ∪ prefix
// except for itself — the same certificate as the filter phase).
//
// With random orders the accepted prefix is ~k/√q for k candidates and
// q live edges, giving the O(√n·polylog) round behaviour measured in
// experiment F1. Per-round depth is O(log n + log m): a permutation, a
// per-edge max, and a min-reduction, all EREW-implementable.
//
// The round loop runs on the shared solver runtime: context checks,
// the round budget and per-round telemetry go through solver.Loop, and
// every buffer — colorings, the order/activation arrays, the CSR round
// arenas — is drawn from a solver.Workspace, so pooled service jobs
// and SBL's tail calls stop paying per-run arena allocations. The
// residual is an edge multiset (hypergraph.Residual): repeated edges
// change neither the singletons, nor the minimum activation position,
// nor which edges die or shrink, so the rounds never sort it.
package kuw

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bitset"
	"repro/internal/hypergraph"
	"repro/internal/mathx"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/solver"
)

// Options configures a KUW run.
type Options struct {
	// Ctx, if non-nil, is checked at the top of every round; the run
	// returns ctx.Err() as soon as the context is done.
	Ctx context.Context

	// Par bounds the worker parallelism of the per-round passes (zero
	// value = whole machine). Output is identical for any engine.
	Par par.Engine

	// MaxRounds aborts the run when exceeded (0 = default 10·n + 100).
	MaxRounds int
	// CollectStats records per-round counters.
	CollectStats bool

	// Ws, if non-nil, supplies the run's reusable buffers (nil = a
	// fresh workspace). Must not be shared with a concurrent run.
	Ws *solver.Workspace

	// Observer, if non-nil, receives one telemetry record per round.
	Observer solver.RoundObserver
}

// RoundStat records one round.
type RoundStat struct {
	Round     int // 0-based round index
	Undecided int // undecided vertices entering the round
	Edges     int // live edges entering the round, counting repeats
	Filtered  int // vertices bulk-discarded in the filter phase
	Accepted  int // vertices added to the IS (the safe prefix)
	Discarded int // vertices discarded red by the blocker step (0 or 1)
}

// Result of a KUW run.
type Result struct {
	InIS   []bool
	Red    []bool
	Rounds int
	Stats  []RoundStat
}

// ErrRoundLimit is returned when MaxRounds is exceeded.
var ErrRoundLimit = errors.New("kuw: round limit exceeded")

func init() {
	solver.Register(solver.Descriptor{
		Algo: solver.KUW,
		Name: "kuw",
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

// Run executes the algorithm on the sub-hypergraph induced by active
// (nil = all vertices). Edges of h must consist of active vertices only.
func Run(h *hypergraph.Hypergraph, active []bool, s *rng.Stream, cost *par.Cost, opts Options) (*Result, error) {
	return RunResidual(h.Residual(), active, s, cost, opts)
}

// RunResidual is Run on an edge multiset, SBL's residual instance.
func RunResidual(h *hypergraph.Residual, active []bool, s *rng.Stream, cost *par.Cost, opts Options) (*Result, error) {
	n := h.N()
	eng := opts.Par
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 10*n + 100
	}
	ws := opts.Ws
	if ws == nil {
		ws = solver.NewWorkspace()
	}
	ws.Reset(n, eng)
	live := ws.Bits(0)
	if active == nil {
		live.SetAll(n)
	} else {
		for i, a := range active {
			if a {
				live.Add(i)
			}
		}
	}
	par.ChargeStep(cost, n)
	for i := range h.M() {
		e := h.Edge(i)
		for _, v := range e {
			if !live.Has(int(v)) {
				return nil, fmt.Errorf("kuw: edge %v contains inactive vertex %d", e, v)
			}
		}
	}

	res := &Result{
		InIS: make([]bool, n),
		Red:  make([]bool, n),
	}
	// Cumulative colorings, packed: the fused end-of-round transform
	// tests membership by word probe.
	inISBits := ws.Bits(1)
	redBits := ws.Bits(2)
	words := len(live)
	cur := h
	pos := ws.Ints(0, n)             // position of each vertex in this round's order
	candidates := ws.Verts(0, n)[:0] // reused across rounds; cap n, so appends never grow it
	// Double-buffered CSR arenas for the fused end-of-round update.
	scratch := &ws.Scratch

	lp := &solver.Loop{
		Ctx:       opts.Ctx,
		Cost:      cost,
		MaxRounds: opts.MaxRounds,
		LimitErr:  ErrRoundLimit,
		Unit:      "round",
		Observer:  opts.Observer,
	}
	for {
		if err := lp.Check(); err != nil {
			return nil, err
		}
		st := RoundStat{Round: lp.Rounds()}

		// Filter phase: bulk-discard every candidate already blocked by
		// a singleton residual edge, then drop edges touching them.
		cur, st.Filtered = filter(cur, live, redBits, inISBits, res.Red, scratch)
		if st.Filtered > 0 {
			par.ChargeStep(cost, cur.M())
		}

		// Candidate list: the live set, ascending (stream compaction).
		candidates = candidates[:0]
		live.ForEach(func(v int) { candidates = append(candidates, hypergraph.V(v)) })
		par.ChargeReduce(cost, n) // flag+scan+scatter compaction
		k := len(candidates)
		if k == 0 {
			res.Rounds = lp.Rounds()
			return res, nil
		}
		if err := lp.Begin(k, cur.M(), cur.Dim()); err != nil {
			return nil, err
		}

		st.Undecided = k
		st.Edges = cur.M()

		// No live edges: everything remaining is independent.
		if cur.M() == 0 {
			for _, v := range candidates {
				res.InIS[v] = true
			}
			live.Reset()
			par.ChargeStep(cost, k)
			st.Accepted = k
			if opts.CollectStats {
				res.Stats = append(res.Stats, st)
			}
			lp.End(st.Filtered + k)
			res.Rounds = lp.Rounds()
			return res, nil
		}

		// Random order on candidates; pos[v] = rank. A permutation is
		// O(log n) depth on an EREW PRAM (sort of random keys). The
		// identity-fill + Fisher–Yates pass below draws exactly what
		// Stream.Perm would, into a workspace buffer.
		perm := ws.Ints(1, k)
		for i := range perm {
			perm[i] = i
		}
		s.Child(uint64(st.Round)).Shuffle(perm)
		// Each pass below runs inline under par.MinScanWork: a closure
		// handed to the engine would be the warm round's one allocation.
		// The closures capture copies of candidates and cur, so that the
		// loop's own variables stay on the stack.
		if k < par.MinScanWork {
			rank(pos, candidates, perm, 0, k)
			par.ChargeStep(cost, k)
		} else {
			cand := candidates
			eng.ForBlocked(cost, k, func(lo, hi int) { rank(pos, cand, perm, lo, hi) })
		}
		par.ChargeAux(cost, int64(k), int64(mathx.ILog2(k))) // permutation generation

		// Activation position of each edge: the rank of its last vertex.
		// Edges here contain only undecided vertices (S-vertices were
		// shrunk away, red-touching edges discarded).
		act := ws.Ints(2, cur.M())
		var minAct int
		if cur.ArenaLen() < par.MinScanWork {
			activate(cur, pos, act, 0, len(act))
			par.ChargeStep(cost, len(act))
			minAct = min(k, slices.Min(act))
			par.ChargeReduce(cost, len(act))
		} else {
			c := cur
			eng.ForBlocked(cost, len(act), func(lo, hi int) { activate(c, pos, act, lo, hi) })
			minAct = par.ReduceOn(eng, cost, act, k, func(a, b int) int { return min(a, b) })
		}

		// Accept the safe prefix [0, minAct); discard the blocker. Each
		// worker owns a disjoint word range of every vertex-indexed set,
		// so the parallel pass is write-race-free and deterministic.
		if n < par.MinScanWork {
			accept(live, inISBits, redBits, res, pos, minAct, 0, words)
		} else {
			eng.ForBlocked(nil, words, func(lo, hi int) { accept(live, inISBits, redBits, res, pos, minAct, lo, hi) })
		}
		par.ChargeStep(cost, k)
		st.Accepted = minAct
		if minAct < k {
			st.Discarded = 1
		}

		// Update the working hypergraph: discard red-touching edges and
		// shrink the survivors by the accepted prefix, fused into one
		// scratch-buffered pass. (A fully-accepted edge cannot touch a
		// red vertex — each vertex gets one color — so the emptied count
		// matches the unfused Shrink→DiscardTouching order.)
		next, emptied := hypergraph.NextResidual(cur, redBits, inISBits, scratch, cost)
		if emptied > 0 {
			return nil, fmt.Errorf("kuw: %d edges fully accepted at round %d (independence broken)", emptied, st.Round)
		}
		cur = next

		if opts.CollectStats {
			res.Stats = append(res.Stats, st)
		}
		lp.End(st.Filtered + st.Accepted + st.Discarded)
	}
}

// rank writes pos[v] = i for the candidates v = candidates[perm[i]] of
// order positions [lo, hi).
func rank(pos []int, candidates []hypergraph.V, perm []int, lo, hi int) {
	for i := lo; i < hi; i++ {
		pos[candidates[perm[i]]] = i
	}
}

// activate writes, for each edge i of [lo, hi), its activation
// position act[i]: the largest rank among its vertices.
func activate(cur *hypergraph.Residual, pos, act []int, lo, hi int) {
	for i := lo; i < hi; i++ {
		m := -1
		for _, v := range cur.Edge(i) {
			m = max(m, pos[v])
		}
		act[i] = m
	}
}

// accept colors the live vertices of bitset words [lo, hi): a vertex
// ranked before minAct joins the IS, the one ranked at minAct turns
// red, and both leave live.
func accept(live, inIS, red bitset.Set, res *Result, pos []int, minAct, lo, hi int) {
	for wi := lo; wi < hi; wi++ {
		base := wi << 6
		for w := live[wi]; w != 0; w &= w - 1 {
			v := base + bits.TrailingZeros64(w)
			switch {
			case pos[v] < minAct:
				res.InIS[v] = true
				inIS.Add(v)
				live.Del(v)
			case pos[v] == minAct:
				res.Red[v] = true
				red.Add(v)
				live.Del(v)
			}
		}
	}
}

// filter is a round's filter phase: every singleton edge {v} of cur
// blocks v, which turns red (in red and redMask) and leaves live. When
// any vertex was blocked, one residual round with the cumulative red
// set then drops the edges that touch red, the singletons among them.
// cur's edges hold live vertices only, so inIS, the round's blue set,
// shrinks none of them. It returns the filtered residual and the
// number of vertices blocked.
func filter(cur *hypergraph.Residual, live, red, inIS bitset.Set, redMask []bool, scr *hypergraph.RoundScratch) (*hypergraph.Residual, int) {
	blocked := 0
	for i := range cur.M() {
		if e := cur.Edge(i); len(e) == 1 && live.Has(int(e[0])) {
			live.Del(int(e[0]))
			red.Add(int(e[0]))
			redMask[e[0]] = true
			blocked++
		}
	}
	if blocked > 0 {
		cur, _ = hypergraph.NextResidual(cur, red, inIS, scr, nil)
	}
	return cur, blocked
}

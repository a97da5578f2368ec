package hypermis

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/solver"

	// The solver packages register themselves with the internal/solver
	// registry at init time; importing them here is what populates the
	// dispatch table (core pulls in bl, kuw and greedy itself, but each
	// is named explicitly so the registration set is visible at a
	// glance).
	_ "repro/internal/bl"
	_ "repro/internal/core"
	_ "repro/internal/greedy"
	_ "repro/internal/kuw"
	_ "repro/internal/luby"
	_ "repro/internal/permbl"
)

// Algorithm selects which MIS solver Solve uses. It aliases the
// internal registry's algorithm type: every constant below resolves to
// a registered solver descriptor (see internal/solver), and the
// registry — not a switch — performs dispatch, naming and
// auto-selection.
type Algorithm = solver.Algorithm

const (
	// AlgAuto picks by instance shape: Luby for dimension ≤ 2, BL for
	// dimension within the SBL cap, SBL otherwise. The default.
	AlgAuto = solver.Auto
	// AlgSBL is the paper's sampling algorithm (Algorithm 1) — for
	// general hypergraphs of unbounded dimension.
	AlgSBL = solver.SBL
	// AlgBL is the Beame–Luby marking algorithm (Algorithm 2) — RNC for
	// small dimension; slow for large dimension (marking probability
	// 2^{−(d+1)}/Δ).
	AlgBL = solver.BL
	// AlgKUW is the Karp–Upfal–Wigderson O(√n)-round algorithm.
	AlgKUW = solver.KUW
	// AlgLuby is Luby's graph algorithm — dimension ≤ 2 only.
	AlgLuby = solver.Luby
	// AlgGreedy is the sequential linear-time baseline.
	AlgGreedy = solver.Greedy
	// AlgPermBL is the random-permutation Beame–Luby algorithm (the one
	// conjectured in RNC, partially analyzed by Shachnai–Srinivasan),
	// simulated by parallel dependency resolution. Its output equals
	// sequential greedy on a random order; Result.Rounds is the greedy
	// dependency depth — the open quantity.
	AlgPermBL = solver.PermBL
)

// AlgorithmNames lists every name ParseAlgorithm accepts, in menu
// order ("" is also accepted as an alias for "auto"). It is derived
// from the solver registry, so it can never drift from the dispatch.
var AlgorithmNames = append([]string{"auto"}, solver.Names()...)

// ParseAlgorithm converts a name ("auto", "sbl", "bl", "kuw", "luby",
// "greedy", "permbl") to an Algorithm.
func ParseAlgorithm(name string) (Algorithm, error) {
	if name == "" || name == "auto" {
		return AlgAuto, nil
	}
	if d, ok := solver.LookupName(name); ok {
		return d.Algo, nil
	}
	return 0, fmt.Errorf("hypermis: unknown algorithm %q", name)
}

// ParPool is a persistent pool of parallel worker goroutines shared
// across Solve calls (it aliases the internal engine's pool type).
// Solvers dispatch their sharded round passes onto the pool's parked
// workers instead of spawning goroutines per pass; a steady-state
// caller running many solves — the hypermisd scheduler keeps one per
// server — amortizes all worker startup across jobs. A pool never
// affects results, only scheduling. Close releases the workers.
type ParPool = par.Pool

// NewParPool starts a pool of the given number of worker goroutines
// for Options.ParPool (workers <= 0 means runtime.GOMAXPROCS). The
// caller owns its lifetime and must Close it.
func NewParPool(workers int) *ParPool { return par.NewPool(workers) }

// Workspace is the reusable per-job buffer bundle of the solver
// runtime: the CSR round arenas, packed decision masks and per-vertex
// slices every solver draws from. Passing one workspace to sequential
// Solve calls (via Options.Workspace) lets a steady-state caller — the
// hypermisd scheduler pools them per worker — solve with ~zero arena
// allocations. A workspace must not be shared by concurrent solves.
type Workspace = solver.Workspace

// NewWorkspace returns an empty Workspace ready for Options.Workspace.
func NewWorkspace() *Workspace { return solver.NewWorkspace() }

// RoundTrace is one per-round telemetry record: the residual instance
// shape entering the round, the number of vertices the round decided,
// and its wall time. Collected into Result.Trace when Options.Trace is
// set, and streamed to Options.RoundObserver when non-nil.
type RoundTrace = solver.Round

// Options configures Solve.
type Options struct {
	// Algorithm selects the solver (default AlgAuto).
	Algorithm Algorithm
	// Seed makes the run deterministic; runs with equal seeds and
	// inputs produce identical MISs regardless of host parallelism.
	Seed uint64
	// Parallelism caps the number of worker goroutines the solver's
	// sharded round passes may use (0 = runtime.GOMAXPROCS, i.e. the
	// whole machine; 1 = fully sequential). The result is bit-identical
	// for any value — per-vertex randomness is index-addressed and every
	// parallel reduction is exact — so this is purely a scheduling
	// knob: the service scheduler sets it per job to keep concurrent
	// jobs from oversubscribing the host.
	Parallelism int
	// Alpha is SBL's sampling exponent (p = n^{−α}); 0 means the
	// measurable default 0.25. The paper's asymptotic choice is
	// α = 1/log log log n — see core.PaperParams for why that
	// degenerates at practical n.
	Alpha float64
	// UseGreedyTail makes SBL finish with the sequential solver instead
	// of KUW once the residual is below 1/p² vertices (both are allowed
	// by the paper).
	UseGreedyTail bool
	// CollectCost accounts idealized EREW PRAM work/depth into
	// Result.Depth and Result.Work.
	CollectCost bool
	// Trace collects one RoundTrace per outer solver round into
	// Result.Trace (telemetry only: it never affects the MIS).
	Trace bool
	// RoundObserver, if non-nil, receives each RoundTrace as the round
	// completes — the streaming form of Trace, used by the service for
	// aggregate round counters. It runs on the solving goroutine and
	// must be cheap.
	RoundObserver func(RoundTrace)
	// Workspace, if non-nil, supplies the solve's reusable buffers and
	// is left warm for the caller to reuse (nil = fresh buffers). It
	// must not be shared by concurrent solves.
	Workspace *Workspace
	// ParPool, if non-nil, supplies the persistent worker pool the
	// solve's parallel passes dispatch onto; unlike a Workspace it may
	// be shared by concurrent solves. nil dispatches onto a process-wide
	// pool, started the first time a solve needs more than one worker
	// and never closed. Pools never affect results.
	ParPool *ParPool
}

// Result of a Solve call.
type Result struct {
	// MIS is the maximal independent set as a vertex mask.
	MIS []bool
	// Size is the number of vertices in the MIS.
	Size int
	// Algorithm that actually ran (resolves AlgAuto).
	Algorithm Algorithm
	// Rounds is the solver's outer round/stage count (0 for greedy).
	Rounds int
	// Depth and Work are the accounted PRAM costs (CollectCost only).
	Depth, Work int64
	// Trace holds the per-round telemetry (Options.Trace only).
	Trace []RoundTrace
}

// ErrDimension is returned when a dimension-restricted algorithm is
// applied to an instance outside its class.
var ErrDimension = errors.New("hypermis: instance dimension outside the algorithm's class")

// ResolveAlgorithm maps AlgAuto to the concrete solver Solve would use
// for h (Luby for dimension ≤ 2, BL for dimension ≤ 5, SBL otherwise —
// the auto roles the registered descriptors declare); any other
// algorithm is returned unchanged.
func ResolveAlgorithm(h *Hypergraph, algo Algorithm) Algorithm {
	return solver.Resolve(h.Dim(), algo)
}

// Solve computes a maximal independent set of h.
func Solve(h *Hypergraph, opts Options) (*Result, error) {
	return SolveCtx(context.Background(), h, opts)
}

// SolveCtx is Solve with cooperative cancellation: the context is
// checked before dispatch and at the top of every outer round/stage of
// the SBL, BL, KUW, Luby and PermBL solvers, and ctx.Err() is returned
// as soon as it is done. Completed rounds are discarded, not rolled
// back. The sequential greedy solver runs to completion once started
// (it is linear time); an already-done context still fails fast.
func SolveCtx(ctx context.Context, h *Hypergraph, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	algo := ResolveAlgorithm(h, opts.Algorithm)
	desc, ok := solver.Lookup(algo)
	if !ok {
		return nil, fmt.Errorf("hypermis: unknown algorithm %v", algo)
	}
	if desc.MaxDim > 0 && h.Dim() > desc.MaxDim {
		return nil, fmt.Errorf("%w: dim %d > %d for %s", ErrDimension, h.Dim(), desc.MaxDim, desc.Name)
	}
	var cost *par.Cost
	if opts.CollectCost {
		cost = &par.Cost{}
	}
	ws := opts.Workspace
	if ws == nil {
		ws = solver.NewWorkspace()
	}

	res := &Result{Algorithm: algo}
	var observer solver.RoundObserver
	if opts.Trace {
		observer = func(r solver.Round) { res.Trace = append(res.Trace, r) }
	}
	observer = solver.Tee(observer, solver.RoundObserver(opts.RoundObserver))

	// Parallel passes dispatch onto a persistent pool: the caller's, or
	// the process-wide one. The pool never changes results — see
	// Options.Parallelism.
	eng := par.Engine{P: opts.Parallelism}
	if opts.ParPool != nil {
		eng = opts.ParPool.Engine(opts.Parallelism)
	}

	out, err := desc.Solve(solver.Request{
		H:          h,
		Stream:     rng.New(opts.Seed),
		Cost:       cost,
		Ws:         ws,
		Ctx:        ctx,
		Par:        eng,
		Observer:   observer,
		Alpha:      opts.Alpha,
		GreedyTail: opts.UseGreedyTail,
	})
	if err != nil {
		return nil, err
	}
	res.MIS = out.InIS
	res.Rounds = out.Rounds
	for _, in := range res.MIS {
		if in {
			res.Size++
		}
	}
	if cost != nil {
		res.Depth = cost.Depth()
		res.Work = cost.Work()
	}
	return res, nil
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/bl"
	"repro/internal/greedy"
	"repro/internal/hypergraph"
	"repro/internal/kuw"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/solver"
)

// TailSolver selects the algorithm SBL finishes with once the residual
// instance has fewer than Params.MinVertices undecided vertices.
type TailSolver int

const (
	// TailKUW uses the Karp–Upfal–Wigderson parallel algorithm (the
	// paper's default on line 23 of Algorithm 1).
	TailKUW TailSolver = iota
	// TailGreedy uses the sequential linear-time solver (the paper's
	// stated alternative: "the algorithm that takes time linear in the
	// number of vertices").
	TailGreedy
)

// FailPolicy selects how an event-B failure (a sampled edge larger than
// Params.D) is handled.
type FailPolicy int

const (
	// RetryRound redraws the round's sample (up to Options.RetryLimit
	// times). Event B has probability ≤ 1/n per run, so retries are
	// rare; this policy keeps completed rounds.
	RetryRound FailPolicy = iota
	// RestartAll discards all progress and restarts from the input
	// hypergraph — the literal reading of the paper's "we declare
	// failure and start over".
	RestartAll
	// FailHard returns ErrEventB immediately (used by the failure-rate
	// experiment T10 to measure the raw event probability).
	FailHard
)

// Options configures an SBL run.
type Options struct {
	// Ctx, if non-nil, is checked at the top of every sampling round and
	// propagated into the BL subroutine and the KUW tail; the run returns
	// ctx.Err() as soon as the context is done.
	Ctx context.Context

	// Par bounds the worker parallelism of the per-round passes and is
	// propagated into the BL subroutine and the KUW tail (zero value =
	// whole machine). Output is identical for any engine.
	Par par.Engine

	// Params overrides the algorithm parameters; the zero value derives
	// them via DeriveParams(n, m, 0.25).
	Params Params
	// Alpha is used instead of 0.25 when Params is zero and Alpha > 0.
	Alpha float64
	// Tail selects the finishing solver (default TailKUW).
	Tail TailSolver
	// OnEventB selects failure handling (default RetryRound).
	OnEventB FailPolicy
	// RetryLimit bounds per-round retries under RetryRound and total
	// restarts under RestartAll (0 = default 64).
	RetryLimit int
	// MaxRounds bounds sampling rounds (0 = default 4·ExpectedRounds +
	// 64); exceeding it returns ErrRoundLimit.
	MaxRounds int
	// BL configures the subroutine (zero value = bl.DefaultOptions()).
	BL bl.Options
	// CollectStats records per-round counters.
	CollectStats bool
	// VerifyEachRound re-checks invariant I3 (the running independent
	// set is independent in the *original* hypergraph) after every
	// round. O(m·d) per round; meant for tests.
	VerifyEachRound bool

	// Ws, if non-nil, supplies the run's reusable buffers: the sampling
	// masks, the round arenas, and — through Ws.Sub() — the BL
	// subroutine's and the KUW tail's buffers (nil = a fresh workspace).
	// Must not be shared with a concurrent run.
	Ws *solver.Workspace

	// Observer, if non-nil, receives one telemetry record per sampling
	// round (the BL subroutine's stages are not observed).
	Observer solver.RoundObserver
}

// RoundStat records one sampling round.
type RoundStat struct {
	Round      int     // 0-based round index
	Undecided  int     // undecided vertices entering the round (n_i)
	Edges      int     // residual edges entering the round, counting repeats
	Sampled    int     // |V'|
	SampledDim int     // dimension of H' (after retries)
	SampledM   int     // edges of H'
	Blue       int     // vertices BL added to the IS
	Red        int     // sampled vertices decided out
	BLStages   int     // stages the BL subroutine took
	Retries    int     // event-B retries consumed this round
	EventA     bool    // true if the round removed fewer than p·n_i/2 vertices
	P          float64 // sampling probability in effect
}

// Result of an SBL run.
type Result struct {
	InIS       []bool      // the maximal independent set
	Rounds     int         // sampling rounds executed (excluding tail)
	TailUsed   TailSolver  // which tail solver ran
	TailSize   int         // undecided vertices handed to the tail solver
	TailRounds int         // rounds/stages the tail solver took (0 for greedy)
	DirectBL   bool        // input dimension ≤ d: BL ran directly (line 26)
	EventBs    int         // total event-B occurrences observed
	Restarts   int         // full restarts under RestartAll
	Stats      []RoundStat // per-round records if Options.CollectStats
	Params     Params      // parameters in effect
}

// ErrEventB is returned under FailHard when a sampled edge exceeds d.
var ErrEventB = errors.New("sbl: event B (sampled edge exceeds dimension cap)")

// ErrRoundLimit is returned when MaxRounds is exceeded.
var ErrRoundLimit = errors.New("sbl: round limit exceeded")

// ErrRetryLimit is returned when event-B retries/restarts are exhausted.
var ErrRetryLimit = errors.New("sbl: retry limit exceeded")

func init() {
	solver.Register(solver.Descriptor{
		Algo:        solver.SBL,
		Name:        "sbl",
		AutoDefault: true,
		Solve: func(req solver.Request) (solver.Outcome, error) {
			tail := TailKUW
			if req.GreedyTail {
				tail = TailGreedy
			}
			r, err := Run(req.H, req.Stream, req.Cost, Options{
				Ctx:      req.Ctx,
				Par:      req.Par,
				Alpha:    req.Alpha,
				Tail:     tail,
				Ws:       req.Ws,
				Observer: req.Observer,
			})
			if err != nil {
				return solver.Outcome{}, err
			}
			return solver.Outcome{InIS: r.InIS, Rounds: r.Rounds}, nil
		},
	})
}

// Run executes Algorithm 1 on h. All randomness comes from s; cost, if
// non-nil, accumulates work-depth charges across SBL and its
// subroutines.
func Run(h *hypergraph.Hypergraph, s *rng.Stream, cost *par.Cost, opts Options) (*Result, error) {
	n := h.N()
	params := opts.Params
	if params.P == 0 {
		alpha := opts.Alpha
		if alpha == 0 {
			alpha = 0.25
		}
		params = DeriveParams(n, h.M(), alpha)
	}
	if opts.RetryLimit == 0 {
		opts.RetryLimit = 64
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = int(4*ExpectedRounds(n, params.P)) + 64
	}
	ws := opts.Ws
	if ws == nil {
		ws = solver.NewWorkspace()
	}
	// The workspace round scratch double-buffers the residual
	// hypergraph's CSR arenas across rounds (and across RestartAll
	// attempts), so a round costs no allocations once the buffers are
	// warm. The BL subroutine and the KUW tail run on the sub-workspace
	// — their buffers are distinct from the sampling masks and arenas,
	// which stay live across the subcalls.
	ws.Reset(n, opts.Par)
	blOpts := opts.BL
	if blOpts.MaxStages == 0 {
		blOpts = bl.DefaultOptions()
		blOpts.CollectStats = opts.BL.CollectStats
		blOpts.Ws = opts.BL.Ws
	}
	if blOpts.Ctx == nil {
		blOpts.Ctx = opts.Ctx
	}
	blOpts.Par = opts.Par
	if blOpts.Ws == nil {
		blOpts.Ws = ws.Sub()
	}

	for attempt := 0; ; attempt++ {
		res, err := runOnce(h, s.Child(uint64(attempt)), cost, opts, params, blOpts, ws)
		if err == nil {
			res.Restarts = attempt
			return res, nil
		}
		if opts.OnEventB == RestartAll && errors.Is(err, ErrEventB) && attempt < opts.RetryLimit {
			continue
		}
		return nil, err
	}
}

func runOnce(h *hypergraph.Hypergraph, s *rng.Stream, cost *par.Cost, opts Options, params Params, blOpts bl.Options, ws *solver.Workspace) (*Result, error) {
	n := h.N()
	res := &Result{
		InIS:   make([]bool, n),
		Params: params,
	}

	// Line 3 / 25–27: if the input dimension is already within the cap,
	// run BL directly on the whole hypergraph.
	if h.Dim() <= params.D {
		blRes, err := bl.Run(h, nil, s.Child(1_000_000), cost, blOpts)
		if err != nil {
			return nil, fmt.Errorf("sbl: direct BL: %w", err)
		}
		copy(res.InIS, blRes.InIS)
		res.DirectBL = true
		res.TailRounds = blRes.Stages
		return res, nil
	}

	eng := opts.Par
	scratch := &ws.Scratch
	undecided := ws.Bits(0)
	undecided.SetAll(n)
	par.ChargeStep(cost, n)
	// The residual is an edge multiset: the rounds never sort it or drop
	// repeats (see hypergraph.NextResidual); only H′ is made canonical,
	// because only BL reads it as a simple hypergraph.
	cur := h.Residual()
	// sampled is kept both packed (for the induce/commit word passes)
	// and as a mask (the BL subroutine's active-set contract).
	sampled := ws.Bits(1)
	sampledMask := ws.Bools(0, n)
	blueBits := ws.Bits(2)
	redBits := ws.Bits(3)
	words := len(undecided)

	lp := &solver.Loop{
		Ctx:       opts.Ctx,
		Cost:      cost,
		MaxRounds: opts.MaxRounds,
		LimitErr:  ErrRoundLimit,
		Unit:      "round",
		Observer:  opts.Observer,
	}
	// |undecided| is carried across rounds: SetAll makes it exactly n
	// here, and the fused discard below maintains it — no per-round
	// Count sweep.
	remaining := n
	for {
		if err := lp.Check(); err != nil {
			return nil, err
		}
		par.ChargeReduce(cost, n)
		// Line 4: while |V| ≥ 1/p².
		if remaining < params.MinVertices {
			break
		}
		if err := lp.Begin(remaining, cur.M(), cur.Dim()); err != nil {
			return nil, err
		}
		round := lp.Rounds()

		st := RoundStat{Round: round, Undecided: remaining, Edges: cur.M(), P: params.P}

		// Lines 6–9: sample V' and induce H'; event B retries.
		roundStream := s.Child(uint64(round))
		var sub *hypergraph.Hypergraph
		var sampledCount int
		try := 0
		for {
			// One RNG stream per try; the per-vertex coin flips draw
			// through BernoulliAt, which derives the per-index child on
			// the stack — no per-vertex stream construction. Only
			// undecided vertices draw (dead words are skipped): the same
			// index-addressed draws for any engine, so the sample is
			// deterministic at any parallelism degree. Each worker owns
			// a disjoint word range of the packed set and the [64·lo,
			// 64·hi) range of the mask — no write overlap.
			tryStream := roundStream.Child(uint64(try))
			eng.ForBlocked(nil, words, func(lo, hi int) {
				for wi := lo; wi < hi; wi++ {
					uw := undecided[wi]
					var sw uint64
					base := wi << 6
					for w := uw; w != 0; w &= w - 1 {
						b := bits.TrailingZeros64(w)
						if tryStream.BernoulliAt(uint64(base+b), params.P) {
							sw |= 1 << uint(b)
						}
					}
					sampled[wi] = sw
					end := base + 64
					if end > n {
						end = n
					}
					for v := base; v < end; v++ {
						sampledMask[v] = sw&(1<<uint(v-base)) != 0
					}
				}
			})
			par.ChargeStep(cost, n)
			sampledCount = sampled.Count()
			par.ChargeReduce(cost, n)
			sub = hypergraph.InduceIntoBits(cur, sampled, scratch, cost)
			par.ChargeStep(cost, cur.M())
			if sub.Dim() <= params.D {
				break
			}
			res.EventBs++
			switch opts.OnEventB {
			case FailHard:
				return nil, fmt.Errorf("%w: dim %d > %d at round %d", ErrEventB, sub.Dim(), params.D, round)
			case RestartAll:
				return nil, fmt.Errorf("%w: dim %d > %d at round %d", ErrEventB, sub.Dim(), params.D, round)
			default: // RetryRound
				try++
				st.Retries++
				if try > opts.RetryLimit {
					return nil, fmt.Errorf("%w: event B persisted %d retries at round %d", ErrRetryLimit, try, round)
				}
			}
		}
		st.Sampled = sampledCount
		st.SampledDim = sub.Dim()
		st.SampledM = sub.M()

		// Line 11: run BL on H'. Every sampled vertex comes back colored
		// blue (in I') or red.
		blRes, err := bl.Run(sub, sampledMask, roundStream.Child(1_000_003), cost, blOpts)
		if err != nil {
			return nil, fmt.Errorf("sbl: BL at round %d: %w", round, err)
		}
		st.BLStages = blRes.Stages

		// Line 12: commit. I ∪= I'; V \= V'. The packed blue/red sets
		// feed the fused round transform below.
		blueBits.Reset()
		redBits.Reset()
		blue, red := 0, 0
		sampled.ForEach(func(v int) {
			if blRes.InIS[v] {
				res.InIS[v] = true
				blueBits.Add(v)
				blue++
			} else {
				redBits.Add(v)
				red++
			}
		})
		// Discard the sampled vertices and pick up the next round's
		// |undecided| from the same fused sweep.
		remaining = bitset.AndNotInto(undecided, undecided, sampled)
		par.ChargeStep(cost, n)
		st.Blue = blue
		st.Red = red
		st.EventA = float64(sampledCount) < params.P*float64(remaining)/2

		// Lines 13–20, fused: drop edges meeting a red vertex and shrink
		// the survivors by I' in one pass into the scratch's other
		// buffer (NextResidual's distinct edges are exactly those of
		// DiscardTouching → Shrink; property-tested).
		next, emptied := hypergraph.NextResidual(cur, redBits, blueBits, scratch, cost)
		if emptied > 0 {
			return nil, fmt.Errorf("sbl: %d edges became fully blue at round %d (independence broken)", emptied, round)
		}
		cur = next

		if opts.VerifyEachRound {
			if !hypergraph.IsIndependent(h, res.InIS) {
				return nil, fmt.Errorf("sbl: invariant I3 violated at round %d", round)
			}
		}
		if opts.CollectStats {
			res.Stats = append(res.Stats, st)
		}
		lp.End(blue + red)
	}
	res.Rounds = lp.Rounds()

	// Lines 23–24: tail solver on the residual instance. remaining is
	// |undecided|, maintained by the fused discard.
	res.TailSize = remaining
	par.ChargeReduce(cost, n)
	res.TailUsed = opts.Tail
	undecidedMask := sampledMask // recycle: the sampling buffer is dead now
	undecided.WriteBools(undecidedMask)
	switch opts.Tail {
	case TailGreedy:
		// Greedy reads a canonical hypergraph. Every residual edge lies
		// inside the undecided set, so inducing on it canonicalizes the
		// whole residual; the charge below covers the sequential tail.
		g := greedy.RunIn(hypergraph.InduceIntoBits(cur, undecided, scratch, nil), undecidedMask, ws.Sub())
		for v := 0; v < n; v++ {
			if g.InIS[v] {
				res.InIS[v] = true
			}
		}
		par.ChargeAux(cost, int64(res.TailSize), int64(res.TailSize))
	default:
		k, err := kuw.RunResidual(cur, undecidedMask, s.Child(2_000_003), cost, kuw.Options{Ctx: opts.Ctx, Par: eng, Ws: ws.Sub()})
		if err != nil {
			return nil, fmt.Errorf("sbl: KUW tail: %w", err)
		}
		for v := 0; v < n; v++ {
			if k.InIS[v] {
				res.InIS[v] = true
			}
		}
		res.TailRounds = k.Rounds
	}
	return res, nil
}

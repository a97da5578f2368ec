// Package bl implements the Beame–Luby (BL) marking algorithm for
// hypergraph MIS (Algorithm 2 of the paper, originally from Beame &
// Luby, SODA 1990), with the per-stage instrumentation Kelsen's analysis
// — and Theorem 2's extension of it to super-constant dimension — is
// phrased in.
//
// Each stage:
//
//  1. every live vertex marks itself independently with probability
//     p = 1/(2^{d+1}·Δ(H)), where Δ(H) is the maximum normalized degree;
//  2. every fully-marked edge unmarks all of its vertices;
//  3. surviving marked vertices join the independent set and leave the
//     vertex set; edges shrink by the new IS vertices;
//  4. cleanup: edges that now contain another edge are discarded, and
//     singleton edges delete their vertex (it can never join the IS).
//
// The package records, per stage, the quantities the analysis tracks:
// Δ_i(H), the edge-migration matrix (how many edges moved from size k to
// size j, the phenomenon bounded by Kelsen's Corollary 2 and sharpened
// by the paper's Corollary 4), mark/unmark counts, and survival
// statistics for Lemma 2 (Pr[E_X | C_X] < 1/2).
//
// Implementation notes: stages in which no vertex joins the set leave
// the hypergraph untouched, so the degree structures are cached and only
// recomputed after stages that made progress. The live/marked/unmarked
// vertex sets are packed bitsets — the marking pass skips dead words
// and counts are popcounts — and every structural pass (degree table,
// superset removal, the fused shrink) shards over Options.Par's worker
// pool. Neither changes anything observable: the stage sequence and the
// per-vertex randomness (index-addressed rng.At draws) are identical
// for any engine, so a fixed seed produces bit-identical output at any
// parallelism degree.
//
// The stage loop runs on the shared solver runtime: context checks,
// the stage budget and per-stage telemetry go through solver.Loop, and
// every buffer (masks, shard sets, CSR round arenas) is drawn from a
// solver.Workspace so repeated runs — SBL's per-round subcalls, pooled
// service jobs — allocate nothing once the buffers are warm.
package bl

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/hypergraph"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/solver"
)

// Options configures a BL run.
type Options struct {
	// Ctx, if non-nil, is checked at the top of every stage; the run
	// returns ctx.Err() as soon as the context is done. Completed stages
	// are not rolled back — the partial coloring is simply discarded.
	Ctx context.Context

	// Par bounds the worker parallelism of the per-stage passes (zero
	// value = whole machine). Output is identical for any engine.
	Par par.Engine

	// MaxStages aborts the run when exceeded (0 = default 1000000).
	// Theorem 2 guarantees O((log n)^{(d+4)!}) stages w.h.p.; the cap
	// exists to convert an analysis failure into an error instead of an
	// unbounded loop.
	MaxStages int

	// RecomputeDelta recomputes Δ(H) — and hence the marking probability
	// — after every stage that changed the hypergraph (Kelsen's
	// per-stage p = 1/(a·Δ)). When false, the initial probability is
	// used throughout, exactly as in the pseudocode of Algorithm 2.
	// Recomputation is the default: it is the variant the analysis of
	// Section 3.1 tracks and it terminates much faster at finite n.
	RecomputeDelta bool

	// AddIsolatedImmediately moves vertices with no incident edges into
	// the IS as soon as they become isolated instead of waiting for them
	// to be marked. This does not change the output distribution's
	// support (isolated vertices always eventually join) but removes a
	// Θ(1/p)-stage coupon-collector tail irrelevant to the analysis.
	// Disable for pseudocode-exact staging.
	AddIsolatedImmediately bool

	// CollectStats enables the per-stage instrumentation (degree
	// vectors, migration matrices).
	CollectStats bool

	// Ws, if non-nil, supplies every reusable buffer of the run — the
	// stage masks, the per-shard unmark sets and the CSR round arenas.
	// Callers that invoke BL repeatedly (SBL's sampling rounds, pooled
	// service jobs) pass one workspace so stages stop allocating across
	// calls; it must not be shared with a concurrent run. nil = a fresh
	// workspace per run.
	Ws *solver.Workspace

	// Observer, if non-nil, receives one telemetry record per stage
	// (residual shape, decided count, stage wall time).
	Observer solver.RoundObserver
}

// DefaultOptions is the configuration used by SBL and the experiments.
func DefaultOptions() Options {
	return Options{
		MaxStages:              1000000,
		RecomputeDelta:         true,
		AddIsolatedImmediately: true,
	}
}

// StageStat records one stage of the algorithm.
type StageStat struct {
	Stage      int       // 0-based stage index
	LiveBefore int       // live vertices entering the stage
	Edges      int       // edges entering the stage
	Dim        int       // dimension entering the stage
	Delta      float64   // Δ(H) used for the marking probability
	P          float64   // marking probability
	Marked     int       // vertices marked (C_v = 1)
	Unmarked   int       // vertices unmarked by fully-marked edges (E_v = 1)
	Added      int       // vertices added to the IS this stage (A_v = 1)
	Isolated   int       // isolated vertices fast-pathed into the IS
	Singletons int       // vertices deleted red via singleton edges
	Supersets  int       // edges discarded as supersets
	Emptied    int       // edges that became empty when shrinking (invariant: 0)
	Deltas     []float64 // Δ_i(H) by dimension i (CollectStats only)
	// Migration[k][j] counts edges that entered the stage with size k
	// and left with size j < k (CollectStats only, nil on empty stages).
	Migration [][]int
}

// Result of a BL run.
type Result struct {
	InIS   []bool      // blue vertices (the MIS of the input)
	Red    []bool      // vertices decided out (red)
	Stages int         // stages executed
	Stats  []StageStat // per-stage records if Options.CollectStats
}

// ErrStageLimit is returned when MaxStages is exceeded.
var ErrStageLimit = errors.New("bl: stage limit exceeded")

func init() {
	solver.Register(solver.Descriptor{
		Algo:       solver.BL,
		Name:       "bl",
		AutoMaxDim: 5,
		Solve: func(req solver.Request) (solver.Outcome, error) {
			opts := DefaultOptions()
			opts.Ctx = req.Ctx
			opts.Par = req.Par
			opts.Ws = req.Ws
			opts.Observer = req.Observer
			r, err := Run(req.H, nil, req.Stream, req.Cost, opts)
			if err != nil {
				return solver.Outcome{}, err
			}
			return solver.Outcome{InIS: r.InIS, Rounds: r.Stages}, nil
		},
	})
}

// Run executes BL on the sub-hypergraph of h induced by the active
// vertices. Every edge of h must consist solely of active vertices
// (callers pass the already-induced hypergraph; SBL does). On return
// every active vertex is colored: blue (InIS) or red.
//
// The stream s provides all randomness; cost, if non-nil, accumulates
// the work-depth charges of the parallel primitives used by one
// EREW-implementable staging of the algorithm.
func Run(h *hypergraph.Hypergraph, active []bool, s *rng.Stream, cost *par.Cost, opts Options) (*Result, error) {
	n := h.N()
	eng := opts.Par
	if opts.MaxStages == 0 {
		opts.MaxStages = 1000000
	}
	ws := opts.Ws
	if ws == nil {
		ws = solver.NewWorkspace()
	}
	ws.Reset(n, eng)
	live := ws.Bits(0)
	if active == nil {
		live.SetAll(n)
		par.ChargeStep(cost, n)
	} else {
		for i, a := range active {
			if a {
				live.Add(i)
			}
		}
		par.ChargeStep(cost, n)
	}
	for _, e := range h.Edges() {
		for _, v := range e {
			if !live.Has(int(v)) {
				return nil, fmt.Errorf("bl: edge %v contains inactive vertex %d", e, v)
			}
		}
	}

	res := &Result{
		InIS: make([]bool, n),
		Red:  make([]bool, n),
	}

	// Normalize the input once: discard supersets, then delete singleton
	// edges (their vertices are red) and edges touching those vertices.
	// The per-stage cleanup maintains this normal form thereafter.
	cur := hypergraph.RemoveSupersetsOn(h, eng)
	cur, _ = dropSingletons(cur, live, res, eng)
	par.ChargeAux(cost, int64(h.M())<<uint(min(h.Dim(), 30)), 1)

	marked := ws.Bits(1)
	unmark := ws.Bits(2)
	blue := ws.Bits(3)
	words := len(live)
	// Scratch arenas for the fused per-stage shrink; the result is
	// consumed (copied) by RemoveSupersets before the next stage writes
	// the buffers again, so reuse across runs is safe.
	scratch := &ws.Scratch
	// Per-shard unmark sets for the parallel fully-marked-edge pass.
	shardUnmark := ws.ShardSets()

	// Cached degree structure; rebuilt only after stages that changed
	// the hypergraph.
	dirty := true
	var cachedDelta float64
	var cachedDeltas []float64
	usedBits := ws.Bits(4)
	p := 1.0

	lp := &solver.Loop{
		Ctx:       opts.Ctx,
		Cost:      cost,
		MaxRounds: opts.MaxStages,
		LimitErr:  ErrStageLimit,
		Unit:      "stage",
		Observer:  opts.Observer,
	}
	for {
		if err := lp.Check(); err != nil {
			return nil, err
		}
		liveCount := live.Count()
		par.ChargeReduce(cost, n)
		if liveCount == 0 {
			res.Stages = lp.Rounds()
			return res, nil
		}
		if err := lp.Begin(liveCount, cur.M(), cur.Dim()); err != nil {
			return nil, err
		}
		stage := lp.Rounds()

		st := StageStat{
			Stage:      stage,
			LiveBefore: liveCount,
			Edges:      cur.M(),
			Dim:        cur.Dim(),
		}

		// Fast path: if no edges remain, every live vertex is free.
		if cur.M() == 0 {
			live.ForEach(func(v int) { res.InIS[v] = true })
			live.Reset()
			par.ChargeStep(cost, n)
			st.Added = liveCount
			st.Isolated = liveCount
			if opts.CollectStats {
				res.Stats = append(res.Stats, st)
			}
			lp.End(liveCount)
			res.Stages = lp.Rounds()
			return res, nil
		}

		// Optional isolated-vertex fast path. The isolated set can only
		// change when the edge set changed.
		if opts.AddIsolatedImmediately {
			if dirty {
				usedBits = cur.UsedVerticesInto(usedBits)
			}
			iso := 0
			for wi := 0; wi < words; wi++ {
				cand := live[wi] &^ usedBits[wi]
				if cand == 0 {
					continue
				}
				iso += bits.OnesCount64(cand)
				base := wi << 6
				for w := cand; w != 0; w &= w - 1 {
					res.InIS[base+bits.TrailingZeros64(w)] = true
				}
				live[wi] &^= cand
			}
			par.ChargeStep(cost, n)
			st.Isolated = iso
		}

		// Marking probability from the degree structure. With
		// RecomputeDelta (the analyzed variant) Δ and p follow the
		// current hypergraph; otherwise the stage-0 values persist,
		// matching Algorithm 2's pseudocode.
		if dirty && (opts.RecomputeDelta || stage == 0 || opts.CollectStats) {
			tab := hypergraph.BuildDegreeTableOn(cur, eng)
			cachedDelta = tab.Delta()
			cachedDeltas = tab.AllDeltas()
			if opts.RecomputeDelta || stage == 0 {
				d := cur.Dim()
				p = 1.0
				if cachedDelta > 0 {
					a := float64(int64(1) << uint(min(d+1, 62)))
					p = 1.0 / (a * cachedDelta)
				}
				if p > 1 {
					p = 1
				}
			}
			// Charge the degree-table build: O(m·2^d) work, O(log) depth
			// on a PRAM (per-subset counting via sorting/hashing).
			par.ChargeAux(cost, int64(cur.M())<<uint(min(cur.Dim(), 30)), 1)
		}
		dirty = false
		st.Delta = cachedDelta
		st.P = p
		if opts.CollectStats {
			st.Deltas = cachedDeltas
		}

		// Step 1: independent marking. Randomness is drawn from a
		// per-(stage, vertex) child stream so results are independent of
		// iteration order; BernoulliAt derives the per-vertex child on
		// the stack, so a stage constructs one heap stream, not n. Only
		// live vertices draw (dead words are skipped), exactly the draws
		// the mask-based staging performed. Workers own disjoint word
		// ranges, so the parallel pass is write-race-free and the marks
		// are identical for any engine.
		stageStream := s.Child(uint64(stage))
		eng.ForBlocked(nil, words, func(lo, hi int) {
			for wi := lo; wi < hi; wi++ {
				lw := live[wi]
				var mw uint64
				base := wi << 6
				for w := lw; w != 0; w &= w - 1 {
					b := bits.TrailingZeros64(w)
					if stageStream.BernoulliAt(uint64(base+b), p) {
						mw |= 1 << uint(b)
					}
				}
				marked[wi] = mw
			}
		})
		par.ChargeStep(cost, n)
		st.Marked = marked.Count()
		par.ChargeReduce(cost, n)

		// Step 2: unmark every vertex of every fully-marked edge,
		// evaluated against the original marking (parallel semantics:
		// E_v is a function of the C_u's).
		unmark.Reset()
		if st.Marked > 0 {
			m := cur.M()
			shards := eng.NumShards(m)
			if cur.ArenaLen() < par.MinScanWork {
				shards = 1
			}
			// Per-shard scratch sets, OR-merged word-parallel (the union
			// is order-independent, so the result is identical to the
			// sequential pass); shards==1 writes unmark directly.
			bitset.UnionShards(eng, unmark, n, m, shards, shardUnmark, func(local bitset.Set, lo, hi int) {
				markFullEdges(cur, lo, hi, marked, local)
			})
			par.ChargeStep(cost, m)
			st.Unmarked = bitset.AndCount(marked, unmark)
			par.ChargeReduce(cost, n)
		}

		// Step 3: survivors join the IS. blue = marked \ unmark and its
		// size come out of one fused sweep (Copy+AndNot+Count would walk
		// the words three times).
		added := bitset.AndNotInto(blue, marked, unmark)
		blue.ForEach(func(v int) {
			res.InIS[v] = true
		})
		live.AndNot(blue)
		par.ChargeStep(cost, n)
		st.Added += added

		// A stage with no survivors leaves the hypergraph untouched:
		// skip the structural updates entirely.
		if added == 0 {
			if opts.CollectStats {
				res.Stats = append(res.Stats, st)
			}
			lp.End(st.Isolated)
			continue
		}

		// Shrink edges by the new IS vertices, tracking migration.
		if opts.CollectStats {
			migration := make([][]int, cur.Dim()+1)
			for k := range migration {
				migration[k] = make([]int, cur.Dim()+1)
			}
			for _, e := range cur.Edges() {
				k := len(e)
				j := 0
				for _, v := range e {
					if !blue.Has(int(v)) {
						j++
					}
				}
				if j < k {
					migration[k][j]++
				}
			}
			st.Migration = migration
		}
		next, emptied := hypergraph.NextRoundBits(cur, nil, blue, scratch, cost)
		st.Emptied = emptied
		if emptied > 0 {
			return nil, fmt.Errorf("bl: %d edges became fully blue at stage %d (independence broken)", emptied, stage)
		}

		// Cleanup: discard supersets, then delete singleton edges and
		// their vertices (red).
		mBefore := next.M()
		next = hypergraph.RemoveSupersetsOn(next, eng)
		st.Supersets = mBefore - next.M()
		par.ChargeAux(cost, int64(mBefore)<<uint(min(next.Dim(), 30)), 1)

		var newlyRed int
		next, newlyRed = dropSingletons(next, live, res, eng)
		st.Singletons = newlyRed
		par.ChargeStep(cost, next.M())

		cur = next
		dirty = true
		if opts.CollectStats {
			res.Stats = append(res.Stats, st)
		}
		lp.End(st.Isolated + added + newlyRed)
	}
}

// markFullEdges sets, in unmark, every vertex of every fully-marked
// edge of h's edges [lo, hi).
func markFullEdges(h *hypergraph.Hypergraph, lo, hi int, marked, unmark bitset.Set) {
	for i := lo; i < hi; i++ {
		e := h.Edge(i)
		full := true
		for _, v := range e {
			if !marked.Has(int(v)) {
				full = false
				break
			}
		}
		if full {
			for _, v := range e {
				unmark.Add(int(v))
			}
		}
	}
}

// dropSingletons removes singleton edges, colors their vertices red
// (removing them from live), and discards edges touching those vertices
// (BL lines 21–24: V' ← V' \ {v}).
func dropSingletons(cur *hypergraph.Hypergraph, live bitset.Set, res *Result, eng par.Engine) (*hypergraph.Hypergraph, int) {
	next, blocked := hypergraph.RemoveSingletons(cur)
	if len(blocked) == 0 {
		return next, 0
	}
	newlyRed := 0
	for _, v := range blocked {
		if live.Has(int(v)) {
			live.Del(int(v))
			res.Red[v] = true
			newlyRed++
		}
	}
	return hypergraph.DiscardTouching(next, func(v hypergraph.V) bool {
		return !live.Has(int(v)) && !res.InIS[v]
	}), newlyRed
}

package par

import (
	"sync/atomic"
	"time"
)

// Shard-grain autotuning. The grain — the minimum number of
// elementwise operations each worker's chunk must amortize — decides
// when a pass fans out and how many workers it gets. A static grain is
// wrong in both directions: cheap bitset passes need huge chunks
// before a handoff pays for itself, while expensive per-edge passes
// (2^d subset enumerations) are worth splitting at a few hundred
// items. The Tuner learns ns/op per pass class from the dispatch
// timings the engine already takes, and converts a target chunk
// duration into a grain. A second input — per-round wall times fed by
// the solver's RoundObserver plumbing — collapses dispatch to serial
// when rounds get so short that any fan-out is overhead (the endgame
// of a solve, when the residual instance is tiny).
//
// The tuner adjusts only worker counts, never block partitions or
// results: NumShards/ShardsFor outputs change, but every caller sizes
// its per-shard accumulators from the same call it passes to
// ForShards, and the (n, shards) partition stays a pure function. The
// determinism property tests pin this.

const (
	// defaultGrain is the grain used with no tuner or before the first
	// sample — the historical static constant.
	defaultGrain = 2048
	// minGrain bounds how small a learned grain may get; below this,
	// per-block closure overhead dominates even for expensive items.
	minGrain = 256
	// maxGrain is the collapse-to-serial grain: larger than any
	// realistic pass, so workersFor yields 1.
	maxGrain = 1 << 21

	// targetChunkNs is how much work a handoff should buy: with ~1µs
	// to wake a parked worker, 25µs chunks keep dispatch overhead in
	// the few-percent range.
	targetChunkNs = 25_000
	// tunerFix is the fixed-point scale for the stored ns/op EWMAs
	// (sub-nanosecond per-op costs are the common case).
	tunerFix = 1024
	// measureFloor is the minimum total ops before a dispatch timing
	// is fed to the tuner; timing tinier passes measures the clock.
	measureFloor = 1 << 12

	// shortRoundNs classifies a solver round as "short": a round whose
	// whole wall time is under this is pure overhead territory.
	shortRoundNs = 100_000
	// shortRoundStreak is how many consecutive short rounds trigger
	// the collapse to serial. One long round resets the streak.
	shortRoundStreak = 3
)

// Pass classes bucket per-item work so cheap elementwise passes and
// expensive per-edge passes learn separate ns/op estimates.
const (
	classElem  = iota // perItem == 1: bitset words, flag scans
	classMid          // perItem in [2, 64): short adjacency walks
	classHeavy        // perItem >= 64: subset enumeration, heavy edges
	numClasses
)

func classOf(perItem int) int {
	switch {
	case perItem <= 1:
		return classElem
	case perItem < 64:
		return classMid
	default:
		return classHeavy
	}
}

// Tuner adapts the shard grain of the engines it is attached to
// (Engine.WithTuner). Create one per solve: grain estimates are
// per-(algorithm, run), and round feedback only makes sense within one
// round loop. The zero value is NOT meaningful; use NewTuner. All
// methods are safe for concurrent use and nil-safe; updates are
// intentionally lossy under contention (the tuner is a heuristic,
// never a correctness input).
type Tuner struct {
	// nsPerOp[class] is an EWMA of serial ns/op × tunerFix; 0 means no
	// sample yet.
	nsPerOp [numClasses]atomic.Int64
	// short is the current consecutive-short-round streak.
	short  atomic.Int32
	rounds atomic.Int64
}

// NewTuner returns a tuner with no samples: engines behave exactly as
// with the static default grain until measurements arrive.
func NewTuner() *Tuner { return &Tuner{} }

// grainFor returns the current grain for a pass class.
func (t *Tuner) grainFor(class int) int {
	if t == nil {
		return defaultGrain
	}
	if t.short.Load() >= shortRoundStreak {
		return maxGrain
	}
	ns := t.nsPerOp[class].Load()
	if ns == 0 {
		return defaultGrain
	}
	g := int(int64(targetChunkNs) * tunerFix / ns)
	if g < minGrain {
		return minGrain
	}
	if g > maxGrain {
		return maxGrain
	}
	return g
}

// observe folds one timed dispatch into the class EWMA: ops operations
// took elapsed wall nanoseconds spread over w workers, so serial ns/op
// is estimated as elapsed·w/ops.
func (t *Tuner) observe(class int, ops, elapsedNs int64, w int) {
	if t == nil || ops <= 0 || elapsedNs <= 0 {
		return
	}
	sample := elapsedNs * int64(w) * tunerFix / ops
	if sample < 1 {
		sample = 1
	}
	old := t.nsPerOp[class].Load()
	if old == 0 {
		t.nsPerOp[class].Store(sample)
	} else {
		t.nsPerOp[class].Store(old + (sample-old)/8)
	}
}

// ObserveRound feeds one completed solver round's wall time. Wire it
// into the solve's RoundObserver chain; shortRoundStreak consecutive
// rounds under shortRoundNs collapse subsequent dispatch to serial,
// and any long round restores fan-out.
func (t *Tuner) ObserveRound(d time.Duration) {
	if t == nil {
		return
	}
	t.rounds.Add(1)
	if d > 0 && d < shortRoundNs*time.Nanosecond {
		if s := t.short.Add(1); s > 1<<20 {
			// Clamp a pathological streak so it can never wrap.
			t.short.Store(shortRoundStreak)
		}
	} else {
		t.short.Store(0)
	}
}

// Collapsed reports whether the tuner is currently forcing serial
// dispatch because of a short-round streak.
func (t *Tuner) Collapsed() bool {
	return t != nil && t.short.Load() >= shortRoundStreak
}

// Rounds returns how many round timings have been observed.
func (t *Tuner) Rounds() int64 {
	if t == nil {
		return 0
	}
	return t.rounds.Load()
}

// Package par implements the data-parallel primitives the paper's PRAM
// algorithms are expressed in: parallel for, map, reduce, prefix sums
// (scan), and stream compaction (pack/filter).
//
// Each primitive has two roles:
//
//  1. It executes on real goroutines, chunked over a worker pool, so
//     the solvers get genuine multicore speedups.
//  2. It charges an idealized EREW PRAM cost to an optional Cost
//     accumulator: Work is the total number of primitive operations and
//     Depth is the parallel time assuming one processor per element
//     (O(1) for elementwise steps, O(log n) for reductions and scans).
//
// The cost model is the standard work-depth model; combined with Brent's
// theorem it reproduces the "time T on poly(m,n) processors" statements
// in the paper. Goroutine scheduling never affects results: primitives
// are deterministic functions of their inputs, and every result is
// bit-identical for any worker count (reductions over integers are
// exact, prefix sums are exact, and shard boundaries only partition
// work, never reorder it).
//
// # Engines
//
// An Engine bounds how many worker goroutines the primitives may use.
// The zero Engine uses runtime.GOMAXPROCS — the whole machine — which
// is what the package-level functions run on. Multi-tenant callers
// (the service scheduler) construct one Engine per job with the degree
// the scheduler granted, so concurrent jobs never oversubscribe the
// host; Engine{P: 1} makes every primitive run inline with no
// goroutines at all.
//
// # Dispatch
//
// Multi-worker passes run on a persistent Pool when the engine carries
// one (Pool.Engine): long-lived workers parked on a task channel take
// closures by handoff instead of a fresh goroutine per pass, which
// amortizes spawn cost across the thousands of short rounds a solve
// executes. Engines without a pool (plain Engine{P: n} literals) fall
// back to spawning, with the calling goroutine always acting as worker
// 0. How many workers a pass gets is decided by the grain — minimum
// operations per chunk — which is either the static default or, when a
// Tuner is attached (Engine.WithTuner), learned per pass class from
// dispatch timings and per-round wall times. None of this affects
// results: pool, tuner, and worker count are scheduling decisions
// only, and the block partition stays a pure function of (n, shards).
package par

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Cost accumulates work-depth charges across primitive invocations. The
// zero value is ready to use. Cost methods are safe for concurrent use by
// the primitives themselves (each primitive performs one atomic update).
type Cost struct {
	work  atomic.Int64
	depth atomic.Int64
	steps atomic.Int64
}

// Charge adds a parallel step of the given work and depth.
func (c *Cost) Charge(work, depth int64) {
	if c == nil {
		return
	}
	c.work.Add(work)
	c.depth.Add(depth)
	c.steps.Add(1)
}

// Work returns total accumulated work (operation count).
func (c *Cost) Work() int64 {
	if c == nil {
		return 0
	}
	return c.work.Load()
}

// Depth returns total accumulated parallel depth (time on unboundedly
// many processors).
func (c *Cost) Depth() int64 {
	if c == nil {
		return 0
	}
	return c.depth.Load()
}

// Steps returns the number of charged primitive invocations.
func (c *Cost) Steps() int64 {
	if c == nil {
		return 0
	}
	return c.steps.Load()
}

// Add merges another cost into c.
func (c *Cost) Add(o *Cost) {
	if c == nil || o == nil {
		return
	}
	c.work.Add(o.Work())
	c.depth.Add(o.Depth())
	c.steps.Add(o.Steps())
}

// Reset zeroes the accumulator.
func (c *Cost) Reset() {
	if c == nil {
		return
	}
	c.work.Store(0)
	c.depth.Store(0)
	c.steps.Store(0)
}

// log2Ceil returns ceil(log2(n)) for n >= 1, and 0 for n <= 1.
func log2Ceil(n int) int64 {
	if n <= 1 {
		return 0
	}
	return int64(bits.Len(uint(n - 1)))
}

// Engine bounds the parallelism of the primitives. P is the maximum
// number of worker goroutines; P <= 0 means runtime.GOMAXPROCS. The
// zero value is ready to use and runs on the whole machine. Engines
// are values: copy freely, no state is shared beyond the optional
// pool/tuner they reference.
//
// Results never depend on P, on whether a pool or tuner is attached,
// or on scheduling — primitives partition work without reordering it —
// so an Engine choice is purely a scheduling decision.
type Engine struct {
	P int

	// pool, when set, supplies persistent workers for multi-worker
	// dispatch (see Pool.Engine). nil engines spawn per pass.
	pool *Pool
	// tune, when set, adapts the shard grain (see Tuner). nil engines
	// use the static defaultGrain.
	tune *Tuner
}

// WithTuner returns a copy of the engine whose shard grain is driven
// by t. A nil t returns the engine unchanged.
func (e Engine) WithTuner(t *Tuner) Engine {
	if t != nil {
		e.tune = t
	}
	return e
}

// Procs returns the engine's parallelism bound.
func (e Engine) Procs() int {
	if e.P > 0 {
		return e.P
	}
	return runtime.GOMAXPROCS(0)
}

// workersFor returns the number of workers to use for n items whose
// per-item cost is roughly perItem elementwise operations. Workers are
// capped so each processes at least ~grain operations, where the grain
// is the tuner's current estimate for the pass class (or the static
// default without a tuner).
func (e Engine) workersFor(n, perItem int) int {
	w := e.Procs()
	if w <= 1 {
		return 1
	}
	if perItem < 1 {
		perItem = 1
	}
	grain := e.tune.grainFor(classOf(perItem))
	minPer := 1
	if perItem < grain {
		minPer = grain / perItem
	}
	if max := (n + minPer - 1) / minPer; w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// dispatch runs body(g) for every g in [0, w): on the persistent pool
// when the engine has one, otherwise spawning w-1 goroutines. The
// calling goroutine is always worker 0; w <= 1 runs inline.
func (e Engine) dispatch(w int, body func(g int)) {
	if w <= 1 {
		body(0)
		return
	}
	if e.pool != nil {
		e.pool.run(w, body)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for g := 1; g < w; g++ {
		go func(g int) {
			defer wg.Done()
			body(g)
		}(g)
	}
	body(0)
	wg.Wait()
}

// timed is dispatch plus tuner feedback: when a tuner is attached and
// the pass is large enough to time meaningfully, the measured wall
// time is folded into the pass class's ns/op estimate.
func (e Engine) timed(n, perItem, w int, body func(g int)) {
	ops := int64(n) * int64(perItem)
	if e.tune == nil || ops < measureFloor {
		e.dispatch(w, body)
		return
	}
	start := time.Now()
	e.dispatch(w, body)
	e.tune.observe(classOf(perItem), ops, time.Since(start).Nanoseconds(), w)
}

// NumShards returns the recommended number of blocks for ForShards
// over n elementwise items — the same worker count the other
// primitives use. Callers size their per-shard accumulator slices with
// it and pass the same value to ForShards.
func (e Engine) NumShards(n int) int { return e.workersFor(n, 1) }

// ShardsFor is NumShards with a per-item work hint: use it when each
// of the n items costs far more than one operation (e.g. 2^d subset
// enumerations per edge), so that small n still shards when the total
// work is large.
func (e Engine) ShardsFor(n, perItem int) int { return e.workersFor(n, perItem) }

// For runs body(i) for every i in [0, n), in parallel. It charges n work
// and depth 1 (an elementwise PRAM step). body must not write to shared
// locations indexed by anything other than i (EREW discipline); the pram
// package's auditor can verify this for instrumented programs.
func (e Engine) For(c *Cost, n int, body func(i int)) {
	c.Charge(int64(n), 1)
	w := e.workersFor(n, 1)
	if w == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	chunk := (n + w - 1) / w
	e.timed(n, 1, w, func(g int) {
		lo := g * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForBlocked runs body(lo, hi) over disjoint contiguous blocks covering
// [0, n). It charges the same PRAM cost as For; it exists so callers can
// amortize per-element closure overhead when the body is tiny. The
// block partitioner is ForShards with the shard index dropped; the
// single-worker case runs body inline over the whole range without
// wrapping it (the wrapper closure would heap-allocate on every call —
// measurable across thousands of solver rounds at degree 1).
func (e Engine) ForBlocked(c *Cost, n int, body func(lo, hi int)) {
	w := e.workersFor(n, 1)
	if w <= 1 {
		c.Charge(int64(n), 1)
		if n > 0 {
			body(0, n)
		}
		return
	}
	e.ForShards(c, n, w, func(_, lo, hi int) { body(lo, hi) })
}

// ForShards runs body(shard, lo, hi) over disjoint contiguous blocks
// covering [0, n), passing the block index so callers can write to
// per-shard accumulators without synchronization. The partition is a
// pure function of (n, shards) — block s is [s·ceil(n/shards),
// (s+1)·ceil(n/shards)) clamped to n — and every non-empty block is
// invoked exactly once, regardless of how many goroutines actually run
// (the engine only decides how blocks are distributed over workers).
// Two ForShards calls with equal (n, shards) therefore see identical
// boundaries even if GOMAXPROCS changes between them, which the
// two-pass tally/assign callers rely on. Trailing shards are empty
// (and not invoked) only when s·ceil(n/shards) ≥ n. Charges like an
// elementwise step.
func (e Engine) ForShards(c *Cost, n, shards int, body func(shard, lo, hi int)) {
	c.Charge(int64(n), 1)
	e.runShards(n, 1, shards, body)
}

// ForShardsWork is ForShards for items whose per-item cost is roughly
// perItem elementwise operations: the worker count scales with total
// work, so a short slice of expensive items still fans out. The block
// partition is the same pure function of (n, shards).
func (e Engine) ForShardsWork(c *Cost, n, perItem, shards int, body func(shard, lo, hi int)) {
	if perItem < 1 {
		perItem = 1
	}
	c.Charge(int64(n)*int64(perItem), 1)
	e.runShards(n, perItem, shards, body)
}

// runShards invokes body over the deterministic (n, shards) block
// partition, distributing blocks round-robin over up to
// workersFor(n, perItem) workers.
func (e Engine) runShards(n, perItem, shards int, body func(shard, lo, hi int)) {
	if shards < 1 {
		shards = 1
	}
	chunk := (n + shards - 1) / shards
	if chunk < 1 {
		chunk = 1
	}
	w := e.workersFor(n, perItem)
	if w > shards {
		w = shards
	}
	if w <= 1 {
		for s := 0; s < shards; s++ {
			lo := s * chunk
			if lo >= n {
				break
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			body(s, lo, hi)
		}
		return
	}
	e.timed(n, perItem, w, func(g int) {
		for s := g; s < shards; s += w {
			lo := s * chunk
			if lo >= n {
				return
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			body(s, lo, hi)
		}
	})
}

// Count returns the number of indices in [0, n) for which pred holds.
// Charges like a reduction.
func (e Engine) Count(c *Cost, n int, pred func(i int) bool) int {
	c.Charge(int64(n), log2Ceil(n))
	w := e.workersFor(n, 1)
	if w == 1 {
		total := 0
		for i := 0; i < n; i++ {
			if pred(i) {
				total++
			}
		}
		return total
	}
	partial := make([]int, w)
	chunk := (n + w - 1) / w
	e.timed(n, 1, w, func(g int) {
		lo := g * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		t := 0
		for i := lo; i < hi; i++ {
			if pred(i) {
				t++
			}
		}
		partial[g] = t
	})
	total := 0
	for _, t := range partial {
		total += t
	}
	return total
}

// And reports whether pred holds for all i in [0, n). Cost of a
// reduction. (No short-circuiting across blocks: PRAM ANDs are
// single-step reductions, and determinism matters more than the
// constant factor here.)
func (e Engine) And(c *Cost, n int, pred func(i int) bool) bool {
	return e.Count(c, n, func(i int) bool { return !pred(i) }) == 0
}

// Or reports whether pred holds for any i in [0, n).
func (e Engine) Or(c *Cost, n int, pred func(i int) bool) bool {
	return e.Count(c, n, pred) > 0
}

// MapOn applies f elementwise on engine e producing a new slice.
// Charges n work, depth 1.
func MapOn[T, U any](e Engine, c *Cost, in []T, f func(T) U) []U {
	out := make([]U, len(in))
	e.ForBlocked(c, len(in), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f(in[i])
		}
	})
	return out
}

// ReduceOn combines the elements of in with an associative operation op
// and identity id on engine e. Charges n work and ceil(log2 n) depth,
// matching a balanced binary reduction tree on an EREW PRAM.
func ReduceOn[T any](e Engine, c *Cost, in []T, id T, op func(a, b T) T) T {
	n := len(in)
	c.Charge(int64(n), log2Ceil(n))
	if n == 0 {
		return id
	}
	w := e.workersFor(n, 1)
	if w == 1 {
		acc := id
		for _, v := range in {
			acc = op(acc, v)
		}
		return acc
	}
	partial := make([]T, w)
	chunk := (n + w - 1) / w
	e.timed(n, 1, w, func(g int) {
		lo := g * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		acc := id
		for i := lo; i < hi; i++ {
			acc = op(acc, in[i])
		}
		partial[g] = acc
	})
	acc := id
	for g := 0; g < w; g++ {
		if g*chunk >= n {
			break
		}
		acc = op(acc, partial[g])
	}
	return acc
}

// ExclusiveScanOn computes the exclusive prefix sums of in on engine e:
// out[i] = in[0] + ... + in[i-1], and returns (out, total). Charges 2n
// work and 2*ceil(log2 n) depth — the standard two-phase
// (upsweep/downsweep) EREW scan.
func ExclusiveScanOn(e Engine, c *Cost, in []int) ([]int, int) {
	n := len(in)
	c.Charge(2*int64(n), 2*log2Ceil(n))
	out := make([]int, n)
	if n == 0 {
		return out, 0
	}
	w := e.workersFor(n, 1)
	if w == 1 {
		run := 0
		for i, v := range in {
			out[i] = run
			run += v
		}
		return out, run
	}
	// Phase 1: per-block sums.
	chunk := (n + w - 1) / w
	blockSum := make([]int, w)
	e.timed(n, 1, w, func(g int) {
		lo := g * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		s := 0
		for i := lo; i < hi; i++ {
			s += in[i]
		}
		blockSum[g] = s
	})
	// Phase 2: sequential scan of block sums (w is tiny).
	run := 0
	blockOff := make([]int, w)
	for g := 0; g < w; g++ {
		blockOff[g] = run
		run += blockSum[g]
	}
	// Phase 3: per-block exclusive scans with offsets.
	e.dispatch(w, func(g int) {
		lo := g * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		s := blockOff[g]
		for i := lo; i < hi; i++ {
			out[i] = s
			s += in[i]
		}
	})
	return out, run
}

// PackOn returns the elements of in whose index satisfies keep,
// preserving order, on engine e. This is stream compaction: flag, scan,
// scatter. Charges accordingly (one elementwise pass plus a scan plus a
// scatter).
func PackOn[T any](e Engine, c *Cost, in []T, keep func(i int) bool) []T {
	n := len(in)
	flags := make([]int, n)
	e.ForBlocked(c, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if keep(i) {
				flags[i] = 1
			}
		}
	})
	off, total := ExclusiveScanOn(e, c, flags)
	out := make([]T, total)
	e.ForBlocked(c, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if flags[i] == 1 {
				out[off[i]] = in[i]
			}
		}
	})
	return out
}

// PackIndicesOn returns the indices in [0, n) satisfying pred,
// ascending, on engine e.
func PackIndicesOn(e Engine, c *Cost, n int, pred func(i int) bool) []int {
	idx := make([]int, n)
	e.ForBlocked(c, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			idx[i] = i
		}
	})
	return PackOn(e, c, idx, pred)
}

// FillOn sets dst[i] = v for all i on engine e.
func FillOn[T any](e Engine, c *Cost, dst []T, v T) {
	e.ForBlocked(c, len(dst), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = v
		}
	})
}

// ----------------------------------------------------------------------
// Package-level wrappers: the historical API, running on the zero
// Engine (whole machine). New code that must respect a per-job
// parallelism degree calls the Engine methods / *On functions instead.

// For runs body(i) for every i in [0, n) on the default engine.
func For(c *Cost, n int, body func(i int)) { Engine{}.For(c, n, body) }

// ForBlocked runs body(lo, hi) over blocks covering [0, n) on the
// default engine.
func ForBlocked(c *Cost, n int, body func(lo, hi int)) { Engine{}.ForBlocked(c, n, body) }

// NumShards returns the default engine's recommended shard count for n
// elements.
func NumShards(n int) int { return Engine{}.NumShards(n) }

// ForShards runs body over disjoint blocks with shard indices on the
// default engine.
func ForShards(c *Cost, n, shards int, body func(shard, lo, hi int)) {
	Engine{}.ForShards(c, n, shards, body)
}

// Map applies f elementwise producing a new slice. Charges n work,
// depth 1.
func Map[T, U any](c *Cost, in []T, f func(T) U) []U { return MapOn(Engine{}, c, in, f) }

// Reduce combines the elements of in with an associative operation op
// and identity id.
func Reduce[T any](c *Cost, in []T, id T, op func(a, b T) T) T {
	return ReduceOn(Engine{}, c, in, id, op)
}

// SumInt is Reduce specialized to integer addition.
func SumInt(c *Cost, in []int) int {
	return Reduce(c, in, 0, func(a, b int) int { return a + b })
}

// MaxInt returns the maximum of in, or identity if empty.
func MaxInt(c *Cost, in []int, identity int) int {
	return Reduce(c, in, identity, func(a, b int) int {
		if a > b {
			return a
		}
		return b
	})
}

// Count returns the number of indices in [0, n) for which pred holds.
func Count(c *Cost, n int, pred func(i int) bool) int { return Engine{}.Count(c, n, pred) }

// ExclusiveScan computes the exclusive prefix sums of in.
func ExclusiveScan(c *Cost, in []int) ([]int, int) { return ExclusiveScanOn(Engine{}, c, in) }

// Pack returns the elements of in whose index satisfies keep, preserving
// order.
func Pack[T any](c *Cost, in []T, keep func(i int) bool) []T { return PackOn(Engine{}, c, in, keep) }

// PackIndices returns the indices in [0, n) satisfying pred, ascending.
func PackIndices(c *Cost, n int, pred func(i int) bool) []int {
	return PackIndicesOn(Engine{}, c, n, pred)
}

// Fill sets dst[i] = v for all i.
func Fill[T any](c *Cost, dst []T, v T) { FillOn(Engine{}, c, dst, v) }

// And reports whether pred holds for all i in [0, n).
func And(c *Cost, n int, pred func(i int) bool) bool { return Engine{}.And(c, n, pred) }

// Or reports whether pred holds for any i in [0, n).
func Or(c *Cost, n int, pred func(i int) bool) bool { return Engine{}.Or(c, n, pred) }

// ChargeStep records the cost of one elementwise parallel step over n
// items that the caller performed inline (outside the primitives).
func ChargeStep(c *Cost, n int) { c.Charge(int64(n), 1) }

// ChargeReduce records the cost of one reduction over n items performed
// inline (e.g. a bitset population count standing in for a Count).
func ChargeReduce(c *Cost, n int) { c.Charge(int64(n), log2Ceil(n)) }

// ChargeSortMerge records sorting k items and merging them into a
// sorted list of n: k·⌈log₂ k⌉ + n work and ⌈log₂ k⌉ + ⌈log₂ n⌉ depth.
// The sort term is the idealized EREW bound of Cole's merge sort, not
// the depth of a sort built from pairwise merge levels, each with its
// own co-rank search (Θ(log² k)); the merge term is one Merge Path
// merge, whose co-rank searches are the logarithmic step.
func ChargeSortMerge(c *Cost, k, n int) {
	c.Charge(int64(k)*log2Ceil(k)+int64(n), log2Ceil(k)+log2Ceil(n))
}

// ChargeAux records an arbitrary work/depth charge for an operation
// performed outside the primitives (e.g. hash-table or degree-table
// builds whose PRAM realization is a known sorting/hashing routine).
func ChargeAux(c *Cost, work, depth int64) { c.Charge(work, depth) }

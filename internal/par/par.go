// Package par implements the data-parallel primitives the paper's PRAM
// algorithms are expressed in, as far as the solvers use them:
// elementwise passes (For, ForBlocked), block-sharded passes with
// per-shard accumulators (ForShards, ForShardsWork) and one reduction
// (ReduceOn).
//
// Each primitive has two roles:
//
//  1. It executes on real goroutines, chunked over a worker pool, so
//     the solvers get genuine multicore speedups.
//  2. It charges an idealized EREW PRAM cost to an optional Cost
//     accumulator: Work is the total number of primitive operations and
//     Depth is the parallel time assuming one processor per element
//     (O(1) for elementwise steps, O(log n) for reductions).
//
// The cost model is the standard work-depth model; combined with Brent's
// theorem it reproduces the "time T on poly(m,n) processors" statements
// in the paper. Goroutine scheduling never affects results: primitives
// are deterministic functions of their inputs, and every result is
// bit-identical for any worker count (reductions over integers are
// exact, and shard boundaries only partition work, never reorder it).
//
// # Engines
//
// An Engine bounds how many worker goroutines the primitives may use.
// The zero Engine uses runtime.GOMAXPROCS — the whole machine.
// Multi-tenant callers (the service scheduler) construct one Engine per
// job with the degree the scheduler granted, so concurrent jobs never
// oversubscribe the host; Engine{P: 1} makes every primitive run inline
// with no goroutines at all.
//
// # Dispatch
//
// Every primitive runs over one block loop: the (n, shards) partition
// of BlockLen-sized blocks. Multi-worker passes run on a persistent
// Pool: the engine's own (Pool.Engine) or, for engines without one, a
// process-wide pool started on first use. Long-lived workers parked on
// a task channel take closures by handoff instead of a fresh goroutine
// per pass, which amortizes spawn cost across the thousands of short
// rounds a solve executes; the calling goroutine always acts as worker
// 0. One static rule, kept in this package, decides whether a pass
// fans out: the primitives give each worker about defaultGrain
// operations or more, and callers run their sharded scans inline below
// MinScanWork. Neither affects results: pool and worker count are
// scheduling decisions only, and the block partition stays a pure
// function of (n, shards).
package par

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// defaultGrain is about the fewest elementwise operations
	// workersFor gives each worker of a pass.
	defaultGrain = 2048

	// MinScanWork is the scan work below which callers run a sharded
	// pass inline: the round pipeline's classify, slot-assignment and
	// scatter passes, the verifier's two scans, BL's unmark pass and
	// KUW's rank, activation and accept passes. Each caller compares
	// the measure it scans: arena vertices, edges for slot assignment,
	// vertices for KUW's rank and accept passes. Below it the
	// sequential loops win, and they allocate nothing.
	MinScanWork = 1 << 14
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
// are values: copy freely, no state is shared beyond the pool they
// reference.
//
// Results never depend on P, on which pool is attached, or on
// scheduling — primitives partition work without reordering it — so an
// Engine choice is purely a scheduling decision.
type Engine struct {
	P int

	// pool, when set, supplies the workers for multi-worker dispatch
	// (see Pool.Engine). nil engines dispatch onto the shared pool.
	pool *Pool
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
// capped so each processes at least ~defaultGrain operations.
func (e Engine) workersFor(n, perItem int) int {
	w := e.Procs()
	if w <= 1 {
		return 1
	}
	if perItem < 1 {
		perItem = 1
	}
	minPer := 1
	if perItem < defaultGrain {
		minPer = defaultGrain / perItem
	}
	if max := (n + minPer - 1) / minPer; w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// dispatch runs body(g) for every g in [0, w) on the engine's pool, or
// on the shared pool when it has none. The calling goroutine is always
// worker 0; w <= 1 runs inline.
func (e Engine) dispatch(w int, body func(g int)) {
	if w <= 1 {
		body(0)
		return
	}
	p := e.pool
	if p == nil {
		p = sharedPool()
	}
	p.run(w, body)
}

var (
	sharedOnce sync.Once
	shared     *Pool
)

// sharedPool returns the process-wide pool that engines without a pool
// dispatch onto, starting it on first use; it is never closed. It is
// sized by runtime.NumCPU rather than GOMAXPROCS, which callers may
// raise after the first use. An engine of higher degree still gets all
// its blocks run: the dispatcher claims whatever no worker took.
func sharedPool() *Pool {
	sharedOnce.Do(func() { shared = NewPool(runtime.NumCPU()) })
	return shared
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
	e.dispatch(w, func(g int) {
		blocks(n, w, g, w, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				body(i)
			}
		})
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
// per-shard accumulators without synchronization. The partition is the
// pure function of (n, shards) that BlockLen describes, and every
// non-empty block is invoked exactly once, regardless of how many
// goroutines actually run (the engine only decides how blocks are
// distributed over workers). Two ForShards calls with equal (n, shards)
// therefore see identical boundaries even if GOMAXPROCS changes between
// them, which the two-pass tally/assign callers rely on. Empty trailing
// blocks are not invoked. Charges like an elementwise step.
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

// BlockLen returns the block length of the (n, shards) partition every
// primitive runs over: block s is [s·BlockLen, (s+1)·BlockLen) clamped
// to n, so only trailing blocks are short or empty. It is
// ceil(n/shards), at least 1; shards < 1 counts as 1.
func BlockLen(n, shards int) int {
	shards = max(shards, 1)
	return max(1, (n+shards-1)/shards)
}

// runShards invokes body over the deterministic (n, shards) block
// partition, distributing blocks round-robin over up to
// workersFor(n, perItem) workers.
func (e Engine) runShards(n, perItem, shards int, body func(shard, lo, hi int)) {
	shards = max(shards, 1)
	w := min(e.workersFor(n, perItem), shards)
	if w <= 1 {
		blocks(n, shards, 0, 1, body)
		return
	}
	e.dispatch(w, func(g int) { blocks(n, shards, g, w, body) })
}

// blocks invokes body on the non-empty blocks g, g+stride, g+2·stride, …
// of the (n, shards) partition: worker g's share when stride workers
// split it round-robin. body does not escape, so a primitive that
// adapts its own body here allocates no second closure per pass.
func blocks(n, shards, g, stride int, body func(shard, lo, hi int)) {
	chunk := BlockLen(n, shards)
	for s := g; s < shards && s*chunk < n; s += stride {
		body(s, s*chunk, min(s*chunk+chunk, n))
	}
}

// ReduceOn combines the elements of in with an associative operation op
// and identity id on engine e. Charges n work and ceil(log2 n) depth,
// matching a balanced binary reduction tree on an EREW PRAM.
func ReduceOn[T any](e Engine, c *Cost, in []T, id T, op func(a, b T) T) T {
	n := len(in)
	c.Charge(int64(n), log2Ceil(n))
	shards := e.workersFor(n, 1)
	if shards == 1 {
		acc := id
		for _, v := range in {
			acc = op(acc, v)
		}
		return acc
	}
	// Trailing blocks of the (n, shards) partition may be empty and are
	// never invoked; their partials keep the identity.
	partial := make([]T, shards)
	for s := range partial {
		partial[s] = id
	}
	e.dispatch(shards, func(g int) {
		blocks(n, shards, g, shards, func(s, lo, hi int) {
			acc := id
			for _, v := range in[lo:hi] {
				acc = op(acc, v)
			}
			partial[s] = acc
		})
	})
	acc := id
	for _, p := range partial {
		acc = op(acc, p)
	}
	return acc
}

// ChargeStep records the cost of one elementwise parallel step over n
// items that the caller performed inline (outside the primitives).
func ChargeStep(c *Cost, n int) { c.Charge(int64(n), 1) }

// ChargeReduce records the cost of one reduction over n items performed
// inline (e.g. a bitset population count standing in for a Count).
func ChargeReduce(c *Cost, n int) { c.Charge(int64(n), log2Ceil(n)) }

// ChargeSortMerge records sorting k items and merging them into a
// sorted list of n: k·⌈log₂ k⌉ + n work and ⌈log₂ k⌉ + ⌈log₂ n⌉ depth.
// The sort term is the idealized EREW bound of Cole's merge sort and
// the merge term a merge by co-rank search; both are model charges, and
// the round pipeline runs its sort and merge serially.
func ChargeSortMerge(c *Cost, k, n int) {
	c.Charge(int64(k)*log2Ceil(k)+int64(n), log2Ceil(k)+log2Ceil(n))
}

// ChargeAux records an arbitrary work/depth charge for an operation
// performed outside the primitives (e.g. hash-table or degree-table
// builds whose PRAM realization is a known sorting/hashing routine).
func ChargeAux(c *Cost, work, depth int64) { c.Charge(work, depth) }

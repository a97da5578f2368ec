package par

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, defaultGrain - 1, defaultGrain, defaultGrain + 1, 10 * defaultGrain} {
		hit := make([]bool, n)
		Engine{}.For(nil, n, func(i int) { hit[i] = true })
		for i, h := range hit {
			if !h {
				t.Fatalf("n=%d: index %d not visited", n, i)
			}
		}
	}
}

func TestForBlockedCoversDisjointly(t *testing.T) {
	for _, n := range []int{0, 1, 100, 3 * defaultGrain} {
		count := make([]int, n)
		Engine{}.ForBlocked(nil, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				count[i]++
			}
		})
		for i, c := range count {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func sum(a, b int) int { return a + b }

func TestReduceMatchesSequential(t *testing.T) {
	s := rng.New(1)
	check := func(seed uint32, sz uint16) bool {
		n := int(sz % 5000)
		in := make([]int, n)
		for i := range in {
			in[i] = s.Intn(1000) - 500
		}
		want := 0
		for _, v := range in {
			want += v
		}
		return ReduceOn(Engine{}, nil, in, 0, sum) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func maxOf(a, b int) int { return max(a, b) }

// TestReduceEmpty: an empty input, and the empty trailing blocks of a
// partition with more shards than full blocks, contribute the identity.
func TestReduceEmpty(t *testing.T) {
	if got := ReduceOn(Engine{}, nil, []int(nil), 0, sum); got != 0 {
		t.Fatalf("sum of empty = %d", got)
	}
	if got := ReduceOn(Engine{}, nil, []int(nil), -7, maxOf); got != -7 {
		t.Fatalf("max of empty = %d, want identity -7", got)
	}
	// 4096 shards over 4096·defaultGrain + 1 items are defaultGrain + 1
	// long, so the last block is empty; a zero partial would beat every
	// input. P only bounds the worker count: the shared pool still runs
	// the blocks on its NumCPU workers.
	e := Engine{P: 4096}
	n := 4096*defaultGrain + 1
	shards := e.NumShards(n)
	if (shards-1)*BlockLen(n, shards) < n {
		t.Fatalf("%d shards over %d items leave no block empty", shards, n)
	}
	in := make([]int16, n)
	for i := range in {
		in[i] = int16(-1 - i%1000)
	}
	maxOf16 := func(a, b int16) int16 { return max(a, b) }
	if got := ReduceOn(e, nil, in, math.MinInt16, maxOf16); got != -1 {
		t.Fatalf("max with empty trailing blocks = %d, want -1", got)
	}
}

func TestMaxInt(t *testing.T) {
	in := make([]int, 10000)
	for i := range in {
		in[i] = i % 997
	}
	in[7777] = 100000
	if got := ReduceOn(Engine{}, nil, in, 0, maxOf); got != 100000 {
		t.Fatalf("max = %d", got)
	}
}

func TestCostAccounting(t *testing.T) {
	var c Cost
	Engine{}.For(&c, 1000, func(int) {})
	if c.Work() != 1000 || c.Depth() != 1 || c.Steps() != 1 {
		t.Fatalf("For cost: work=%d depth=%d steps=%d", c.Work(), c.Depth(), c.Steps())
	}
	c.Reset()
	in := make([]int, 1024)
	ReduceOn(Engine{}, &c, in, 0, sum)
	if c.Work() != 1024 || c.Depth() != 10 {
		t.Fatalf("Reduce cost: work=%d depth=%d", c.Work(), c.Depth())
	}
}

func TestCostNilSafe(t *testing.T) {
	var c *Cost
	c.Charge(1, 1)
	c.Add(nil)
	c.Reset()
	if c.Work() != 0 || c.Depth() != 0 || c.Steps() != 0 {
		t.Fatal("nil Cost should report zeros")
	}
}

func TestCostAdd(t *testing.T) {
	var a, b Cost
	a.Charge(10, 2)
	b.Charge(5, 3)
	a.Add(&b)
	if a.Work() != 15 || a.Depth() != 5 || a.Steps() != 2 {
		t.Fatalf("Add: work=%d depth=%d steps=%d", a.Work(), a.Depth(), a.Steps())
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int64{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := log2Ceil(n); got != want {
			t.Fatalf("log2Ceil(%d) = %d want %d", n, got, want)
		}
	}
}

func BenchmarkReduce1M(b *testing.B) {
	in := make([]int, 1<<20)
	for i := range in {
		in[i] = i & 7
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReduceOn(Engine{}, nil, in, 0, sum)
	}
}

func TestForShardsCoversDisjointly(t *testing.T) {
	for _, n := range []int{0, 1, 7, defaultGrain, 10 * defaultGrain} {
		seen := make([]int32, n)
		shards := Engine{}.NumShards(n)
		hit := make([]bool, shards)
		Engine{}.ForShards(nil, n, shards, func(s, lo, hi int) {
			if s < 0 || s >= shards {
				t.Errorf("shard index %d out of [0,%d)", s, shards)
			}
			hit[s] = true
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, c)
			}
		}
		if n > 0 && !hit[0] {
			t.Fatalf("n=%d: shard 0 never ran", n)
		}
	}
}

func TestForShardsRespectsShardBound(t *testing.T) {
	// The explicit shards parameter must bound the indices even when the
	// worker count at run time exceeds the caller's sizing (the
	// GOMAXPROCS-raced case the parameter exists for).
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	n := 10 * defaultGrain
	const shards = 2
	seen := make([]int32, n)
	Engine{}.ForShards(nil, n, shards, func(s, lo, hi int) {
		if s < 0 || s >= shards {
			t.Errorf("shard index %d out of [0,%d)", s, shards)
		}
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

// --- Engine tests -----------------------------------------------------

func TestEngineProcsBound(t *testing.T) {
	if got := (Engine{P: 3}).Procs(); got != 3 {
		t.Fatalf("Procs=%d want 3", got)
	}
	if got := (Engine{}).Procs(); got < 1 {
		t.Fatalf("default Procs=%d", got)
	}
	if got := (Engine{P: -2}).Procs(); got < 1 {
		t.Fatalf("negative P Procs=%d", got)
	}
}

// primitiveOutputs runs every primitive over in on e and concatenates
// the results: ReduceOn's sum, For's elementwise image, and the
// per-block sums of ForShards over the fixed (n, 7) partition.
func primitiveOutputs(e Engine, in []int) []int {
	n := len(in)
	out := make([]int, 1+n+7)
	out[0] = ReduceOn(e, nil, in, 0, sum)
	e.For(nil, n, func(i int) { out[1+i] = 3*in[i] + 1 })
	blocks := out[1+n:]
	e.ForShards(nil, n, len(blocks), func(s, lo, hi int) {
		for _, v := range in[lo:hi] {
			blocks[s] += v
		}
	})
	return out
}

// requireSameOutputs fails at the first slot where got differs from ref.
func requireSameOutputs(t *testing.T, label string, got, ref []int) {
	t.Helper()
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("%s: output %d = %d, want %d", label, i, got[i], ref[i])
		}
	}
}

func determinismInput() []int {
	in := make([]int, 100_000)
	for i := range in {
		in[i] = (i*2654435761 + 12345) % 1000
	}
	return in
}

// TestEngineDeterminism: every primitive must return bit-identical
// results for any worker bound.
func TestEngineDeterminism(t *testing.T) {
	in := determinismInput()
	ref := primitiveOutputs(Engine{P: 1}, in)
	for _, p := range []int{2, 3, 8, 64} {
		requireSameOutputs(t, fmt.Sprintf("P=%d", p), primitiveOutputs(Engine{P: p}, in), ref)
	}
}

// TestEngineP1Inline: a degree-1 engine must never spawn goroutines —
// bodies observe a single contiguous block.
func TestEngineP1Inline(t *testing.T) {
	e := Engine{P: 1}
	calls := 0
	e.ForBlocked(nil, 1_000_000, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 1_000_000 {
			t.Fatalf("P=1 block [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("P=1 invoked %d blocks", calls)
	}
	shards := e.NumShards(1 << 20)
	if shards != 1 {
		t.Fatalf("P=1 NumShards=%d", shards)
	}
}

// TestShardsForWorkHint: expensive items shard even when n is small.
func TestShardsForWorkHint(t *testing.T) {
	e := Engine{P: 8}
	if got := e.NumShards(100); got != 1 {
		t.Fatalf("NumShards(100)=%d want 1 (below defaultGrain)", got)
	}
	if got := e.ShardsFor(100, 1<<12); got != 8 {
		t.Fatalf("ShardsFor(100, 4096)=%d want 8", got)
	}
	// ForShardsWork must respect the shard bound and cover the range.
	var mu sync.Mutex
	seen := make([]bool, 100)
	maxShard := 0
	e.ForShardsWork(nil, 100, 1<<12, 8, func(s, lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		if s > maxShard {
			maxShard = s
		}
		for i := lo; i < hi; i++ {
			if seen[i] {
				t.Errorf("index %d covered twice", i)
			}
			seen[i] = true
		}
	})
	if maxShard >= 8 {
		t.Fatalf("shard index %d out of bound", maxShard)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("index %d not covered", i)
		}
	}
}

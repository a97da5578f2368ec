package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolDispatchCoversAllWorkers: every worker index in [0, w) runs
// exactly once per dispatch, for degrees above and below the pool size.
func TestPoolDispatchCoversAllWorkers(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, w := range []int{1, 2, 4, 7, 16} {
		var hits [16]atomic.Int32
		p.run(w, func(g int) { hits[g].Add(1) })
		for g := 0; g < w; g++ {
			if got := hits[g].Load(); got != 1 {
				t.Fatalf("w=%d: worker %d ran %d times", w, g, got)
			}
		}
		for g := w; g < len(hits); g++ {
			if hits[g].Load() != 0 {
				t.Fatalf("w=%d: phantom worker %d ran", w, g)
			}
		}
	}
}

// TestPoolEngineDeterminism: primitives on a pooled engine must return
// bit-identical results to the inline engine at any degree.
func TestPoolEngineDeterminism(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	in := determinismInput()
	ref := primitiveOutputs(Engine{P: 1}, in)
	for _, deg := range []int{1, 2, 3, 8, 64} {
		e := p.Engine(deg)
		requireSameOutputs(t, fmt.Sprintf("deg=%d", deg), primitiveOutputs(e, in), ref)
	}
}

// TestPoolSharedByConcurrentEngines is the -race stress test: many
// engines of mixed degree hammer one pool concurrently; every result
// must still be exact.
func TestPoolSharedByConcurrentEngines(t *testing.T) {
	p := NewPool(runtime.GOMAXPROCS(0))
	defer p.Close()
	const n = 20_000
	in := make([]int, n)
	want := 0
	for i := range in {
		in[i] = i % 97
		want += in[i]
	}
	var wg sync.WaitGroup
	errs := make(chan int, 64)
	for i := 0; i < 16; i++ {
		deg := 1 + i%8
		wg.Add(1)
		go func(deg int) {
			defer wg.Done()
			e := p.Engine(deg)
			for iter := 0; iter < 30; iter++ {
				if got := ReduceOn(e, nil, in, 0, sum); got != want {
					errs <- got
					return
				}
				zeros := make([]int, e.NumShards(n))
				e.ForShards(nil, n, len(zeros), func(s, lo, hi int) {
					for _, v := range in[lo:hi] {
						if v == 0 {
							zeros[s]++
						}
					}
				})
				if got := ReduceOn(Engine{P: 1}, nil, zeros, 0, sum); got != (n+96)/97 {
					errs <- got
					return
				}
			}
		}(deg)
	}
	wg.Wait()
	close(errs)
	for got := range errs {
		t.Fatalf("concurrent engine returned %d", got)
	}
}

// TestPoolCloseInlineFallback: dispatch after Close must still cover
// every worker index (inline on the caller) rather than hang or drop.
func TestPoolCloseInlineFallback(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // idempotent
	var hits [4]atomic.Int32
	p.run(4, func(g int) { hits[g].Add(1) })
	for g := range hits {
		if hits[g].Load() != 1 {
			t.Fatalf("post-close worker %d ran %d times", g, hits[g].Load())
		}
	}
	if st := p.Stats(); st.Handoffs != 0 || st.Inline != 1 {
		t.Fatalf("post-close stats: %+v", st)
	}
}

// TestPoolNoGoroutineLeak: Close returns the process to its goroutine
// baseline (goleak-style manual check with retries for runtime lag).
func TestPoolNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(8)
	e := p.Engine(8)
	e.For(nil, 1<<16, func(int) {})
	if runtime.NumGoroutine() <= base {
		t.Fatalf("pool started no goroutines (base %d)", base)
	}
	p.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d > baseline %d after Close", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPoolStatsCounters: handoffs accrue on pooled dispatch, inline on
// degree-1-effective passes through a closed or saturated pool.
func TestPoolStatsCounters(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	if st := p.Stats(); st.Workers != 4 || st.Busy != 0 {
		t.Fatalf("fresh stats: %+v", st)
	}
	for i := 0; i < 50; i++ {
		p.run(4, func(g int) { time.Sleep(10 * time.Microsecond) })
	}
	st := p.Stats()
	if st.Handoffs+st.Inline == 0 {
		t.Fatalf("no dispatch recorded: %+v", st)
	}
	if st.Busy != 0 {
		t.Fatalf("busy gauge stuck at %d", st.Busy)
	}
}

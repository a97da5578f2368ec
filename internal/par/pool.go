package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a set of long-lived worker goroutines that engines dispatch
// parallel passes onto. Solvers run thousands of short sharded passes
// per solve; spawning goroutines per pass pays scheduler wakeup and
// stack setup every time, while a pool parks its workers on a task
// channel once and reuses them for every round. One Pool can back any
// number of Engines concurrently (the service shares one across jobs).
//
// Handing work to the pool never blocks: if no worker is parked when a
// pass is dispatched, the dispatching goroutine runs the remaining
// blocks itself. That makes dispatch deadlock-free by construction —
// including against a concurrent Close — and means an undersized pool
// degrades to inline execution rather than queueing.
//
// The pool is pure scheduling: which goroutine runs a block never
// affects the block partition or any result (see the package comment's
// determinism contract).
type Pool struct {
	workers int
	tasks   chan *task
	stop    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once

	busy     atomic.Int64
	handoffs atomic.Int64
	inline   atomic.Int64
}

// task is one dispatched parallel pass. Worker indices in [1, w) are
// claimed from next by whoever is running — parked pool workers that
// received the task, and the dispatcher itself once its own block is
// done — so a slow wakeup never stalls the pass.
type task struct {
	body func(g int)
	w    int
	next atomic.Int64
	done sync.WaitGroup
}

// run claims unclaimed worker indices until none remain. busy, when
// non-nil, counts the claimed block while it runs, and drops before
// the block's Done so that the dispatcher never returns while busy
// still counts one of its blocks.
func (t *task) run(busy *atomic.Int64) {
	for {
		g := int(t.next.Add(1))
		if g >= t.w {
			return
		}
		if busy != nil {
			busy.Add(1)
		}
		t.body(g)
		if busy != nil {
			busy.Add(-1)
		}
		t.done.Done()
	}
}

// NewPool starts a pool of the given number of worker goroutines.
// workers <= 0 means runtime.GOMAXPROCS. Callers own the pool's
// lifetime and must Close it to release the workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		tasks:   make(chan *task),
		stop:    make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Engine returns an engine of parallelism degree deg whose primitives
// dispatch onto the pool. deg <= 0 means GOMAXPROCS, as in Engine{P: deg}.
func (p *Pool) Engine(deg int) Engine { return Engine{P: deg, pool: p} }

// Close releases the worker goroutines and waits for them to exit.
// Workers finish the pass they are on; passes dispatched after Close
// run inline on their caller. Close is idempotent.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// PoolStats is a snapshot of pool activity counters.
type PoolStats struct {
	Workers  int   // pool size
	Busy     int64 // workers currently running a block (gauge)
	Handoffs int64 // blocks handed to parked workers (cumulative)
	Inline   int64 // multi-worker passes that found no parked worker (cumulative)
}

// Stats returns a snapshot of the pool's activity counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers:  p.workers,
		Busy:     p.busy.Load(),
		Handoffs: p.handoffs.Load(),
		Inline:   p.inline.Load(),
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case t := <-p.tasks:
			t.run(&p.busy)
		case <-p.stop:
			return
		}
	}
}

// run executes body(g) for every g in [0, w), with the calling
// goroutine acting as worker 0. It offers the task to up to w-1 parked
// workers without blocking, runs its own block, then claims whatever
// blocks no worker picked up, and finally waits for the claimed blocks
// to finish.
func (p *Pool) run(w int, body func(g int)) {
	t := &task{body: body, w: w}
	t.done.Add(w - 1)
	handed := 0
	for i := 1; i < w; i++ {
		if !p.trySubmit(t) {
			break
		}
		handed++
	}
	if handed > 0 {
		p.handoffs.Add(int64(handed))
	} else {
		p.inline.Add(1)
	}
	body(0)
	t.run(nil)
	t.done.Wait()
}

// trySubmit offers t to a parked worker; it never blocks, and always
// fails once the pool is closed.
func (p *Pool) trySubmit(t *task) bool {
	select {
	case <-p.stop:
		return false
	default:
	}
	select {
	case p.tasks <- t:
		return true
	default:
		return false
	}
}

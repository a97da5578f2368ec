package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	hypermis "repro"
	"repro/internal/durable"
	"repro/internal/hgio"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/service"
)

// The traced run measures each layer from outside, by timing calls into
// its public functions, in two phases of half the run each:
//
//   - replay: a sample of the workload's own items goes through every
//     layer's entry point (parse, digest and key, solve at degree 1 and
//     nproc, verify, complement, coloring, encode, batch decode and
//     framing, and, for workloads without a durable tier, a probe store);
//   - service: the workload's own traffic runs again against the live
//     set-up, half untraced and half with the service's flight recorder
//     harvested every 100ms, bracketed by Stats and runtime/metrics
//     readings.
//
// Every call and every harvested server span is kept as a span and
// written out as JSON at exit.

// span is one timed interval. Start and End are nanoseconds since the
// run began; Parent indexes the enclosing span (-1 for a root); Req
// names the request the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
}

// spanLog keeps a run's spans in memory.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(s span) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

// start opens a span and returns its index; end closes it.
func (l *spanLog) start(name string, parent int, req string) int {
	return l.add(span{Name: name, Start: int64(time.Since(l.t0)), Parent: parent, Req: req})
}

func (l *spanLog) end(i int) {
	l.mu.Lock()
	l.spans[i].End = int64(time.Since(l.t0))
	l.mu.Unlock()
}

// timed runs f inside a span.
func (l *spanLog) timed(name string, parent int, req string, f func() error) error {
	start := time.Since(l.t0)
	err := f()
	l.add(span{Name: name, Start: int64(start), End: int64(time.Since(l.t0)), Parent: parent, Req: req})
	return err
}

// server adds a trace the service recorded: a root span for the request
// and one child per server span.
func (l *spanLog) server(rec obs.TraceRecord) {
	start := rec.Start.Sub(l.t0)
	root := l.add(span{Name: rec.Endpoint, Start: int64(start), End: int64(start) + int64(rec.DurationMs*1e6), Parent: -1, Req: rec.TraceID})
	for _, s := range rec.Spans {
		b := int64(start) + int64(s.StartUs*1e3)
		l.add(span{Name: "server." + s.Name, Start: b, End: b + int64(s.DurUs*1e3), Parent: root, Req: rec.TraceID})
	}
}

// micros returns the durations of every span with the given name, in
// microseconds.
func (l *spanLog) micros(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

func (l *spanLog) median(name string) float64 { return median(l.micros(name)) }

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// replayItem is one item of the workload's stream as the replay sees
// it; first marks an item that carries its instance in a batch (the
// others ref it).
type replayItem struct {
	it    item
	first bool
}

// replayer holds the replay's solver state and the counts it gathers.
type replayer struct {
	e      *env
	insts  []*hypermis.Hypergraph
	encs   []encoded
	degree int // the workload's own solve parallelism
	pool   *hypermis.ParPool
	ws     *hypermis.Workspace
	parser *service.BatchParser
	probe  *durable.Store // nil when the workload has a live durable tier

	readAllocs         []float64
	rounds             []float64 // per-round µs
	solves, roundCount int
	classes            []float64
	depth, work        []float64
	handoffs, inline   int64
	probeKeys          []string
}

// replay pushes items through every layer for budget (at least one
// item). Items that were answered are recorded for the checker.
func (e *env) replay(insts []*hypermis.Hypergraph, encs []encoded, degree int, probe bool, next func(k int) replayItem, budget time.Duration) (*replayer, error) {
	r := &replayer{e: e, insts: insts, encs: encs, degree: degree, pool: hypermis.NewParPool(e.nproc), ws: hypermis.NewWorkspace()}
	defer r.pool.Close()
	var dir string
	if probe {
		var err error
		if dir, err = os.MkdirTemp(e.dir, "probe-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if r.probe, err = durable.Open(durable.Config{Dir: dir}); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < budget; k++ {
		if err := r.one(k, next(k)); err != nil {
			return nil, errors.Join(err, r.probe.Close())
		}
	}
	if probe {
		return r, r.probeReads(dir)
	}
	return r, nil
}

// probeReads times the probe store's recovery and reads: the store is
// closed, reopened (recovery) and every key written is read back.
func (r *replayer) probeReads(dir string) error {
	if err := r.probe.Close(); err != nil {
		return err
	}
	start := time.Now()
	store, err := durable.Open(durable.Config{Dir: dir})
	if err != nil {
		return err
	}
	r.e.rep.add("durable.recover_s", time.Since(start).Seconds(), "s")
	for i, key := range r.probeKeys {
		err = r.e.spans.timed("durable.lookup", -1, fmt.Sprintf("probe%d", i), func() error {
			if _, ok := store.Get(key); !ok {
				return fmt.Errorf("durable probe lost key %s", key)
			}
			return nil
		})
		if err != nil {
			break
		}
	}
	c := store.Counters()
	r.e.rep.add("durable.write_errors", float64(c.WriteErrors), "count")
	return errors.Join(err, store.Close())
}

func (r *replayer) one(k int, ri replayItem) error {
	sp := r.e.spans
	it := ri.it
	h, enc := r.insts[it.inst], r.encs[it.inst]
	req := fmt.Sprintf("replay%d", k)
	root := sp.start("replay", -1, req)
	defer sp.end(root)
	timed := func(name string, f func() error) error { return sp.timed(name, root, req, f) }
	ctx := context.Background()

	// Decode, digest and cache key. Allocation counts need a
	// stop-the-world read, so only the first items take them.
	var m0, m1 runtime.MemStats
	if k < 64 {
		runtime.ReadMemStats(&m0)
	}
	err := timed("hgio.read_binary", func() error { _, err := hgio.ReadBinary(bytes.NewReader(enc.bin)); return err })
	if k < 64 {
		runtime.ReadMemStats(&m1)
		r.readAllocs = append(r.readAllocs, float64(m1.Mallocs-m0.Mallocs))
	}
	if err == nil {
		err = timed("hgio.read_text", func() error { _, err := hgio.ReadText(bytes.NewReader(enc.text)); return err })
	}
	if err != nil {
		return err
	}
	_ = timed("hgio.digest", func() error { hgio.Digest(h); return nil })
	opts := hypermis.Options{Seed: it.seed, Workspace: r.ws, ParPool: r.pool}
	var key string
	_ = timed("service.workkey", func() error { key = service.WorkKey(service.WorkKind(it.kind.String()), h, opts); return nil })

	// Solve at degree 1 and at nproc; the workload's own degree supplies
	// the round telemetry.
	var res *hypermis.Result
	degrees := []int{1, r.e.nproc}
	if k%2 == 1 {
		// Alternate which degree solves first, so neither always finds
		// the instance warm in the CPU caches.
		degrees[0], degrees[1] = degrees[1], degrees[0]
	}
	for _, p := range degrees {
		o := opts
		o.Parallelism = p
		if p == r.degree {
			o.RoundObserver = func(rt hypermis.RoundTrace) {
				r.rounds = append(r.rounds, float64(rt.Elapsed)/1e3)
				r.roundCount++
			}
		}
		before := r.pool.Stats()
		var got *hypermis.Result
		err := timed(fmt.Sprintf("solver.solve_p%d", p), func() (err error) {
			got, err = hypermis.SolveCtx(ctx, h, o)
			return err
		})
		if err != nil {
			return err
		}
		if p > 1 {
			after := r.pool.Stats()
			r.handoffs += after.Handoffs - before.Handoffs
			r.inline += after.Inline - before.Inline
		}
		if p == r.degree {
			res = got
		}
	}
	r.solves++
	if len(r.depth) < 2 {
		o := opts
		o.Parallelism, o.CollectCost = r.degree, true
		c, err := hypermis.SolveCtx(ctx, h, o)
		if err != nil {
			return err
		}
		r.depth = append(r.depth, float64(c.Depth))
		r.work = append(r.work, float64(c.Work))
	}

	// Verify, complement and color on the workload's instance.
	if err := timed("hypergraph.verify_mis", func() error { return hypermis.VerifyMIS(h, res.MIS) }); err != nil {
		return err
	}
	var tmask []bool
	if err := timed("hypergraph.complement", func() (err error) {
		tmask, err = hypergraph.MinimalTransversalFromMIS(h, res.MIS)
		return err
	}); err != nil {
		return err
	}
	var col *hypermis.ColorResult
	if err := timed("coloring.color", func() (err error) {
		o := opts
		o.Parallelism = r.degree
		col, err = hypermis.ColorByMISCtx(ctx, h, o)
		return err
	}); err != nil {
		return err
	}
	r.classes = append(r.classes, float64(col.NumColors))

	// Encode the item's own kind, then frame it as a batch item.
	bi := service.BatchItemResult{Index: k}
	switch it.kind {
	case kindColor:
		bi.Color = service.ColorResponseFor(h, col, false, 0)
		r.e.chk.setColors(it, col.Colors, col.NumColors)
	case kindTransversal:
		tv := &hypermis.TransversalResult{Transversal: tmask, Size: h.N() - res.Size, MISSize: res.Size, Algorithm: res.Algorithm, Rounds: res.Rounds}
		bi.Transversal = service.TransversalResponseFor(h, tv, false, 0)
		r.e.chk.setMask(it, tmask)
	default:
		bi.Solve = service.SolveResponseFor(h, res, false, 0)
		r.e.chk.setMask(it, res.MIS)
	}
	_ = timed("service.encode", func() error {
		var err error
		switch {
		case bi.Color != nil:
			_, err = json.Marshal(bi.Color)
		case bi.Transversal != nil:
			_, err = json.Marshal(bi.Transversal)
		default:
			_, err = json.Marshal(bi.Solve)
		}
		return err
	})
	if ri.first {
		r.parser = service.NewBatchParser()
	}
	line := service.BatchItem{Ref: "h"}
	if ri.first {
		line = service.BatchItem{ID: "h", InstanceB64: enc.b64}
	}
	if err := timed("service.batch_parse", func() error { _, err := r.parser.Instance(&line); return err }); err != nil {
		return err
	}
	_ = timed("service.batch_flush", func() error { return json.NewEncoder(&bytes.Buffer{}).Encode(bi) })

	if r.probe != nil {
		_ = timed("durable.fill", func() error { r.probe.Put(key, res); return nil })
		r.probeKeys = append(r.probeKeys, key)
	}
	return nil
}

// report adds the replay's per-layer metrics.
func (r *replayer) report() {
	e := r.e
	add := func(metric, span string) { e.rep.add(metric, e.spans.median(span), "us") }
	add("hgio.read_binary_us", "hgio.read_binary")
	e.rep.add("hgio.read_allocs", median(r.readAllocs), "count")
	add("hgio.read_text_us", "hgio.read_text")
	add("hgio.digest_us", "hgio.digest")
	add("service.workkey_us", "service.workkey")
	add("service.encode_us", "service.encode")
	// Only a batch's first item decodes an instance; the rest ref it, so
	// the decode cost per item is a mean, not a median.
	e.rep.add("service.batch_parse_us", mean(e.spans.micros("service.batch_parse")), "us")
	add("service.batch_flush_us", "service.batch_flush")
	add("coloring.color_us", "coloring.color")
	e.rep.add("coloring.classes_per_item", mean(r.classes), "count")
	add("hypergraph.complement_us", "hypergraph.complement")
	add("hypergraph.verify_mis_us", "hypergraph.verify_mis")
	add("solver.solve_us", fmt.Sprintf("solver.solve_p%d", r.degree))
	e.rep.add("solver.rounds_per_solve", float64(r.roundCount)/float64(r.solves), "count")
	e.rep.add("solver.round_p50_us", median(r.rounds), "us")
	e.rep.add("solver.pram_depth", mean(r.depth), "count")
	e.rep.add("solver.pram_work", mean(r.work), "count")
	p1 := sum(e.spans.micros("solver.solve_p1"))
	pn := sum(e.spans.micros(fmt.Sprintf("solver.solve_p%d", e.nproc)))
	e.rep.add("par.speedup_2", p1/pn, "ratio")
	e.rep.add("par.inline_ratio", float64(r.inline)/float64(max(1, r.inline+r.handoffs)), "ratio")
	e.rep.add("par.handoffs_per_solve", float64(r.handoffs)/float64(r.solves), "count")
	if r.probe != nil {
		add("durable.lookup_us", "durable.lookup")
		add("durable.fill_us", "durable.fill")
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(max(1, len(xs))) }

// rtSampler brackets the service phase with runtime/metrics readings
// and samples the live heap every 50ms for its peak.
type rtSampler struct {
	start []metrics.Sample
	stop  chan struct{}
	done  chan struct{}
	peak  uint64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startRuntime() *rtSampler {
	s := &rtSampler{start: readRuntime(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			s.peak = max(s.peak, readRuntime()[4].Value.Uint64())
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and reports the runtime metrics per operation.
func (s *rtSampler) finish(e *env, ops int) {
	close(s.stop)
	<-s.done
	end := readRuntime()
	per := float64(max(1, ops))
	e.rep.add("runtime.allocs_per_op", float64(end[0].Value.Uint64()-s.start[0].Value.Uint64())/per, "count")
	e.rep.add("runtime.alloc_bytes_per_op", float64(end[1].Value.Uint64()-s.start[1].Value.Uint64())/per, "B")
	gc := end[2].Value.Float64() - s.start[2].Value.Float64()
	total := end[3].Value.Float64() - s.start[3].Value.Float64()
	e.rep.add("runtime.gc_cpu_fraction", gc/max(total, 1e-9), "ratio")
	e.rep.add("runtime.heap_peak_mb", float64(s.peak)/(1<<20), "MiB")
}

// harvester pulls the flight recorder every 100ms and keeps each trace
// once.
type harvester struct {
	e    *env
	cl   *client
	seen map[string]bool
	// attributed is each harvested request's server-side span total, in
	// µs, for the unattributed-time residual.
	attributed []float64
	stop, done chan struct{}
	err        error
}

func (e *env) harvest(addr string) *harvester {
	h := &harvester{e: e, cl: newClient(addr, 1), seen: map[string]bool{}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				h.pull()
				return
			case <-t.C:
				h.pull()
			}
		}
	}()
	return h
}

func (h *harvester) pull() {
	var resp struct {
		Recent []obs.TraceRecord `json:"recent"`
	}
	if err := h.cl.get("/v1/debug/requests?limit=1000", &resp); err != nil {
		h.err = err
		return
	}
	for _, rec := range resp.Recent {
		if !h.seen[rec.TraceID] && rec.Status == 200 {
			h.seen[rec.TraceID] = true
			h.keep(rec)
		}
	}
}

func (h *harvester) keep(rec obs.TraceRecord) {
	h.e.spans.server(rec)
	h.attributed = append(h.attributed, spanMicros(rec))
}

// spanMicros is the total duration of a trace's spans, in µs.
func spanMicros(rec obs.TraceRecord) float64 {
	total := 0.0
	for _, s := range rec.Spans {
		total += s.DurUs
	}
	return total
}

func (h *harvester) finish() error {
	close(h.stop)
	<-h.done
	h.cl.close()
	return h.err
}

// serviceSpans reports the service-layer span metrics harvested in the
// service phase, and the counter deltas between two Stats readings.
func (e *env) serviceSpans(before, after service.Stats, durableLive bool) {
	for _, m := range []struct{ metric, span string }{
		{"service.cache_lookup_us", "server.cache-lookup"},
		{"service.queue_wait_us", "server.queue-wait"},
		{"service.checkout_us", "server.workspace-checkout"},
	} {
		e.rep.add(m.metric, e.spans.median(m.span), "us")
	}
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	e.rep.add("service.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	dh, dm := after.DurableHits-before.DurableHits, after.DurableMisses-before.DurableMisses
	e.rep.add("durable.hit_ratio", ratio(dh, dh+dm), "ratio")
	if durableLive {
		e.rep.add("durable.lookup_us", e.spans.median("server.durable-lookup"), "us")
		e.rep.add("durable.fill_us", e.spans.median("server.durable-fill"), "us")
		e.rep.add("durable.write_errors", float64(after.DurableWriteErrors-before.DurableWriteErrors), "count")
	}
	rejected := after.Rejected - before.Rejected + after.AdmissionRejected - before.AdmissionRejected + after.RateLimited - before.RateLimited
	e.rep.add("admit.rejected", float64(rejected), "count")
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// loadgenChecks reports the service phase's tail latency (from its
// untraced half) and the generator's validity checks: lag p99, the
// sample count, and the harvested half's p50 excess over the untraced
// half. A percentile too few samples support is reported as the
// maximum.
func (e *env) loadgenChecks(untraced, traced loopStats) {
	tail := func(xs []float64, q float64) float64 {
		v, ok, _ := percentile(xs, q)
		if !ok {
			v, _, _ = percentile(xs, 1)
		}
		return v
	}
	e.rep.add("loadgen.p90_ms", tail(untraced.lat, 0.9), "ms")
	e.rep.add("loadgen.p99_ms", tail(untraced.lat, 0.99), "ms")
	e.rep.add("loadgen.lag_p99_ms", tail(append(append([]float64(nil), untraced.lag...), traced.lag...), 0.99), "ms")
	e.rep.add("loadgen.samples", float64(len(untraced.lat)+len(traced.lat)), "count")
	base, on := median(untraced.lat), median(traced.lat)
	e.rep.add("loadgen.trace_overhead_pct", 100*(on-base)/base, "%")
}

// traceSingle is the traced run of serve-small and serve-repeat.
func (e *env) traceSingle(s *single, l *life, insts []*hypermis.Hypergraph, encs []encoded, durableLive bool) error {
	r, err := e.replay(insts, encs, 1, !durableLive, func(k int) replayItem { return replayItem{s.item(k), true} }, e.dur/2)
	if err != nil {
		return err
	}
	r.report()
	before := l.srv.Stats()
	rt := startRuntime()
	send := func(first int) func(i int) error {
		return func(i int) error { return s.send(e, l, first+i) }
	}
	untraced := openLoop(poissonSchedule(mix(e.seed, 10, 0), s.rate, e.dur/4), e.dur/4, e.nproc, send(0))
	h := e.harvest(l.cl.addr)
	traced := openLoop(poissonSchedule(mix(e.seed, 10, 1), s.rate, e.dur/4), e.dur/4, e.nproc, send(untraced.calls))
	herr := h.finish()
	rt.finish(e, untraced.ops+traced.ops)
	e.serviceSpans(before, l.srv.Stats(), durableLive)
	e.loadgenChecks(untraced, traced)
	e.rep.add("service.unattributed_us", 1e3*median(traced.lat)-median(h.attributed)-e.spans.median("service.workkey"), "us")
	e.count(untraced, traced)
	return herr
}

// traceBatch is the traced run of batch-mixed.
func (e *env) traceBatch(b *batch, l *life, insts []*hypermis.Hypergraph) error {
	r, err := e.replay(insts, b.encs, 1, true, func(k int) replayItem {
		return replayItem{b.items(k / batchItems)[k%batchItems], k%batchItems == 0}
	}, e.dur/2)
	if err != nil {
		return err
	}
	r.report()
	before := l.srv.Stats()
	rt := startRuntime()
	send := func(op int) ([]float64, int) { return b.send(e, l, op) }
	untraced := e.closed(e.nproc, e.dur/4, 0, send)
	h := e.harvest(l.cl.addr)
	traced := e.closed(e.nproc, e.dur/4, untraced.calls, send)
	herr := h.finish()
	rt.finish(e, untraced.ops+traced.ops)
	e.serviceSpans(before, l.srv.Stats(), false)
	e.loadgenChecks(untraced, traced)
	// Batch items overlap inside a request, so the residual subtracts the
	// replayed per-item layers along a 2:1:1 item mix instead of
	// per-request server span totals.
	sp := e.spans
	path := sp.median("service.batch_parse") + sp.median("service.workkey") + sp.median("server.cache-lookup") +
		sp.median("server.queue-wait") + sp.median("server.workspace-checkout") +
		0.75*sp.median("solver.solve_p1") + 0.25*sp.median("coloring.color") + 0.25*sp.median("hypergraph.complement") +
		sp.median("service.encode") + sp.median("service.batch_flush")
	e.rep.add("service.unattributed_us", 1e3*median(untraced.lat)-path, "us")
	e.count(untraced, traced)
	return herr
}

// traceSolver is the traced run of solve-large. It has no server, so
// its service phase runs the same solves through an in-process
// service.Server (no HTTP), recording the service's spans directly.
func (e *env) traceSolver(s *solver, insts []*hypermis.Hypergraph, encs []encoded) error {
	r, err := e.replay(insts, encs, e.nproc, true, func(k int) replayItem { return replayItem{s.item(k), true} }, e.dur/2)
	if err != nil {
		return err
	}
	r.report()
	srv := service.New(defaultConfig())
	defer srv.Close()
	// unattributed is each traced solve's latency minus its service
	// spans, in µs.
	var unattributed []float64
	solve := func(traced bool) func(op int) ([]float64, int) {
		return func(op int) ([]float64, int) {
			it := item{seed: freshSeed(op), kind: kindSolve}
			ctx := context.Background()
			var tr *obs.Trace
			if traced {
				tr = obs.NewTrace("library solve")
				ctx = obs.With(ctx, tr)
			}
			start := time.Now()
			res, _, err := srv.Solve(ctx, s.h, hypermis.Options{Algorithm: hypermis.AlgSBL, Seed: it.seed, Parallelism: e.nproc})
			lat := ms(time.Since(start))
			if err != nil {
				return nil, 1
			}
			e.chk.setMask(it, res.MIS)
			if traced {
				tr.Finish(200)
				rec := tr.Snapshot()
				e.spans.server(rec)
				unattributed = append(unattributed, 1e3*lat-spanMicros(rec))
			}
			return []float64{lat}, 0
		}
	}
	before := srv.Stats()
	rt := startRuntime()
	untraced := e.closed(1, e.dur/4, 0, solve(false))
	traced := e.closed(1, e.dur/4, untraced.calls, solve(true))
	rt.finish(e, untraced.ops+traced.ops)
	e.serviceSpans(before, srv.Stats(), false)
	e.loadgenChecks(untraced, traced)
	e.rep.add("service.unattributed_us", median(unattributed)-e.spans.median("service.workkey"), "us")
	e.count(untraced, traced)
	return nil
}

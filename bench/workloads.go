package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	hypermis "repro"
	"repro/internal/durable"
	"repro/internal/hgio"
	"repro/internal/service"
)

// sizes are the workload dimensions that set how long set-up and a
// single large solve take; the smoke test shrinks them.
type sizes struct {
	largeN, largeM int // solve-large instance
	hotKeys        int // serve-repeat hot (instance, seed) keys
}

var fullSizes = sizes{largeN: 50000, largeM: 100000, hotKeys: 1024}

// Fixed traffic shapes. The open-loop rates are half the two-connection
// capacity each workload measured when the benchmark was defined, so
// queues stay short and latency reflects service time, not overload.
const (
	serveSmallRate  = 1800 // requests/s
	serveRepeatRate = 700  // requests/s
	batchItems      = 32
	memCacheEntries = 128 // serve-repeat memory LRU
	solveSeedCycle  = 64  // solve-large solver seeds, so answers repeat
	setupLives      = 31  // set-ups per run of a serving workload
	setupSolves     = 3   // set-ups per run of solve-large
)

// freshSeed is the solver seed of request i in streams whose seeds
// never repeat; hot seeds stay far below it.
func freshSeed(i int) uint64 { return 1<<32 + uint64(i) }

// setupIndex numbers the requests set-up sends, apart from the stream.
func setupIndex(life int) int { return 1<<30 + life }

// runConfig is one invocation of a workload.
type runConfig struct {
	seed  uint64
	dur   time.Duration
	trace bool
	dir   string // scratch space for durable segments and the span file
	sizes sizes
}

// env carries one workload run's inputs and results.
type env struct {
	runConfig
	nproc int
	rep   report
	chk   *checker
	spans *spanLog // traced runs only

	attempted, failed int
}

// mix hashes (seed, salt, i) to a uniform 64-bit value (splitmix64), so
// a stream's i-th request is a pure function of the seed however many
// client goroutines draw from it.
func mix(seed, salt uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 ^ salt<<32 ^ uint64(i)
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// encoded is an instance in every wire form the workloads send.
type encoded struct {
	bin, text []byte
	b64       string
}

// instances generates n instances with per-instance seeds drawn from
// the run seed, plus their encodings. Generation is benchmark input and
// is never timed.
func (e *env) instances(n int, salt uint64, gen func(seed uint64) *hypermis.Hypergraph) ([]*hypermis.Hypergraph, []encoded, error) {
	insts := make([]*hypermis.Hypergraph, n)
	encs := make([]encoded, n)
	for i := range insts {
		h := gen(mix(e.seed, salt, i))
		var bin, text bytes.Buffer
		if err := hgio.WriteBinary(&bin, h); err != nil {
			return nil, nil, err
		}
		if err := hgio.WriteText(&text, h); err != nil {
			return nil, nil, err
		}
		insts[i] = h
		encs[i] = encoded{bin.Bytes(), text.Bytes(), base64.StdEncoding.EncodeToString(bin.Bytes())}
	}
	var err error
	e.chk, err = newChecker(insts)
	return insts, encs, err
}

// setUp builds the system k times, timing each build from its first
// step to its first successful answer, and keeps the last build; the
// earlier ones are stopped. It returns the median build time.
func setUp[T any](k int, build func(i int) (T, error), stop func(T) error) (T, float64, error) {
	var cur T
	times := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		if i > 0 {
			if err := stop(cur); err != nil {
				return cur, 0, err
			}
			// Collect the stopped build before the next one allocates, so
			// repeated set-ups do not raise the peak RSS of the run.
			runtime.GC()
		}
		start := time.Now()
		var err error
		if cur, err = build(i); err != nil {
			return cur, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return cur, median(times), nil
}

// defaultConfig is hypermisd's configuration when no flag is given,
// including its per-request text log (written to io.Discard, so the
// logging cost is paid and nothing is kept).
func defaultConfig() service.Config {
	return service.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
}

// life is one running server: the service behind a real loopback
// listener, its durable store if it has one, and a client for it.
type life struct {
	srv   *service.Server
	store *durable.Store
	hs    *http.Server
	done  chan error
	cl    *client
}

func startLife(cfg service.Config, conns int) (*life, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := service.New(cfg)
	l := &life{
		srv:   srv,
		store: cfg.Durable,
		hs:    &http.Server{Handler: service.NewHandler(srv), ReadHeaderTimeout: 10 * time.Second},
		done:  make(chan error, 1),
		cl:    newClient(ln.Addr().String(), conns),
	}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// stop shuts down in hypermisd's order: stop serving, drain the
// scheduler, then flush and close the durable store.
func (l *life) stop() error {
	l.cl.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, l.srv.Drain(10*time.Second), l.store.Close())
}

// record hands one reply to the checker.
func (e *env) record(it item, r *reply) {
	switch it.kind {
	case kindColor:
		e.chk.setColors(it, r.Colors, r.NumColors)
	case kindTransversal:
		e.chk.setMembers(it, r.Transversal)
	default:
		e.chk.setMembers(it, r.MIS)
	}
}

// single describes a workload of one-instance POST /v1/solve requests
// under Poisson arrivals: serve-small and serve-repeat.
type single struct {
	rate  float64
	ctype string
	body  func(inst int) []byte
	item  func(i int) item
}

// send posts stream request i and records its answer.
func (s *single) send(e *env, l *life, i int) error {
	it := s.item(i)
	var r reply
	if err := l.cl.post("/v1/solve?seed="+strconv.FormatUint(it.seed, 10), s.ctype, s.body(it.inst), &r); err != nil {
		return err
	}
	e.record(it, &r)
	return nil
}

// measure runs the timed window of a single-request workload: two
// thirds open loop at the fixed rate, one third closed loop on nproc
// connections.
func (s *single) measure(e *env, l *life) {
	open := openLoop(poissonSchedule(e.seed, s.rate, e.dur*2/3), e.dur*2/3, e.nproc, func(i int) error {
		return s.send(e, l, i)
	})
	closed := e.closed(e.nproc, e.dur/3, open.calls, func(i int) ([]float64, int) {
		start := time.Now()
		if s.send(e, l, i) != nil {
			return nil, 1
		}
		return []float64{ms(time.Since(start))}, 0
	})
	e.latency(open)
	e.capacity(closed)
	e.count(open, closed)
}

// latency reports the e2e percentiles of one loop, each only where at
// least minBeyond samples lie beyond it.
func (e *env) latency(st loopStats) {
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.5}, {"p90_ms", 0.9}, {"p99_ms", 0.99}} {
		if v, ok := st.percentile(p.q); ok {
			e.rep.add(p.name, v, "ms")
		}
	}
	e.rep.add("samples", float64(len(st.lat)), "count")
}

// capacity reports a closed loop's completions per second, the median
// over its windows.
func (e *env) capacity(st loopStats) {
	e.rep.add("capacity_rps", median(st.rates), "1/s")
}

// closed runs a closed loop whose operations are numbered from first,
// one window at a time; the answers of each window are verified and
// dropped before the next starts, and the pauses are not measured.
func (e *env) closed(conns int, dur time.Duration, first int, do func(op int) ([]float64, int)) loopStats {
	var st loopStats
	n, win := windows(dur)
	for k := 0; k < n; k++ {
		base := first + st.calls
		st.merge(closedLoop(conns, win, func(op int) ([]float64, int) { return do(base + op) }))
		e.chk.verify()
	}
	return st
}

func (e *env) count(loops ...loopStats) {
	for _, st := range loops {
		e.attempted += st.attempted
		e.failed += st.failed
	}
}

func serveSmall(e *env) error {
	insts, encs, err := e.instances(8, 1, func(s uint64) *hypermis.Hypergraph {
		return hypermis.RandomGraph(s, 1000, 3000)
	})
	if err != nil {
		return err
	}
	s := &single{
		rate:  serveSmallRate,
		ctype: service.ContentTypeBinary,
		body:  func(inst int) []byte { return encs[inst].bin },
		item: func(i int) item {
			return item{inst: int(mix(e.seed, 2, i) % uint64(len(insts))), seed: freshSeed(i), kind: kindSolve}
		},
	}
	l, setup, err := setUp(setupLives, func(life int) (*life, error) {
		l, err := startLife(defaultConfig(), e.nproc)
		if err != nil {
			return nil, err
		}
		return l, s.send(e, l, setupIndex(life))
	}, (*life).stop)
	if err != nil {
		return err
	}
	e.rep.add("setup_s", setup, "s")
	if e.trace {
		err = e.traceSingle(s, l, insts, encs, false)
	} else {
		s.measure(e, l)
	}
	return errors.Join(err, l.stop())
}

// zipfCDF is the cumulative Zipf(s) distribution over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

func serveRepeat(e *env) error {
	const nInst = 64
	insts, encs, err := e.instances(nInst, 3, func(s uint64) *hypermis.Hypergraph {
		return hypermis.RandomMixed(s, 1000, 2000, 2, 12)
	})
	if err != nil {
		return err
	}
	// Hot key k is (instance k mod 64, seed 1 + k/64); popularity ranks
	// are a seeded permutation of the keys, so the most popular keys
	// spread over the instances.
	hot := rand.New(rand.NewPCG(e.seed, 4)).Perm(e.sizes.hotKeys)
	hotItem := func(rank int) item {
		k := hot[rank]
		return item{inst: k % nInst, seed: 1 + uint64(k/nInst), kind: kindSolve}
	}
	cdf := zipfCDF(e.sizes.hotKeys, 1.1)
	s := &single{
		rate:  serveRepeatRate,
		ctype: service.ContentTypeText,
		body:  func(inst int) []byte { return encs[inst].text },
		item: func(i int) item {
			if i >= setupIndex(0) {
				// Set-up asks for the most popular key: a durable hit in
				// every life, so set-up writes nothing to the store.
				return hotItem(0)
			}
			u := mix(e.seed, 5, i)
			if u%10 < 7 {
				r := float64(u>>11) / (1 << 53)
				return hotItem(min(sort.SearchFloat64s(cdf, r), len(cdf)-1))
			}
			return item{inst: int(u>>32) % nInst, seed: freshSeed(i), kind: kindSolve}
		},
	}
	dir, err := os.MkdirTemp(e.dir, "durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := func(store *durable.Store) service.Config {
		c := defaultConfig()
		c.CacheSize = memCacheEntries
		c.Durable = store
		return c
	}
	// An untimed earlier server life solves the hot set, so the store
	// every timed set-up recovers holds it.
	if err := preseed(dir, cfg, insts, hotItem, e.sizes.hotKeys, e.nproc); err != nil {
		return err
	}
	var recovery []float64
	l, setup, err := setUp(setupLives, func(life int) (*life, error) {
		start := time.Now()
		store, err := durable.Open(durable.Config{Dir: dir})
		if err != nil {
			return nil, err
		}
		recovery = append(recovery, time.Since(start).Seconds())
		l, err := startLife(cfg(store), e.nproc)
		if err != nil {
			return nil, errors.Join(err, store.Close())
		}
		return l, s.send(e, l, setupIndex(life))
	}, (*life).stop)
	if err != nil {
		return err
	}
	e.rep.add("setup_s", setup, "s")
	if e.trace {
		e.rep.add("durable.recover_s", median(recovery), "s")
		err = e.traceSingle(s, l, insts, encs, true)
	} else {
		s.measure(e, l)
	}
	return errors.Join(err, l.stop())
}

// preseed runs one server life on dir that solves every hot key, then
// closes it so the durable store holds the whole hot set.
func preseed(dir string, cfg func(*durable.Store) service.Config, insts []*hypermis.Hypergraph, hotItem func(int) item, n, conns int) error {
	store, err := durable.Open(durable.Config{Dir: dir})
	if err != nil {
		return err
	}
	srv := service.New(cfg(store))
	errs := make(chan error, conns)
	for w := 0; w < conns; w++ {
		go func() {
			var err error
			for k := w; k < n && err == nil; k += conns {
				it := hotItem(k)
				_, _, err = srv.Solve(context.Background(), insts[it.inst], hypermis.Options{Seed: it.seed})
			}
			errs <- err
		}()
	}
	for w := 0; w < conns; w++ {
		err = errors.Join(err, <-errs)
	}
	return errors.Join(err, srv.Drain(time.Minute), store.Close())
}

// batch describes batch-mixed: NDJSON POST /v1/batch requests of
// batchItems items over one instance each.
type batch struct {
	encs []encoded
	seed uint64
}

// items are request op's items: the instance, and kinds
// solve:color:transversal = 2:1:1 in a seeded order, all seeds fresh.
func (b *batch) items(op int) []item {
	inst := int(mix(b.seed, 6, op) % uint64(len(b.encs)))
	its := make([]item, batchItems)
	for k := range its {
		its[k] = item{inst: inst, seed: freshSeed(op*batchItems + k), kind: kind(max(0, k%4-1))}
	}
	r := rand.New(rand.NewPCG(b.seed, mix(b.seed, 7, op)))
	r.Shuffle(len(its), func(i, j int) { its[i], its[j] = its[j], its[i] })
	return its
}

// body frames items as NDJSON: the first carries the instance, the rest
// ref it.
func (b *batch) body(its []item) []byte {
	var sb strings.Builder
	for k, it := range its {
		fmt.Fprintf(&sb, `{"kind":%q,"seed":%d`, it.kind, it.seed)
		if k == 0 {
			fmt.Fprintf(&sb, `,"id":"h","instance_b64":%q}`+"\n", b.encs[it.inst].b64)
		} else {
			sb.WriteString(`,"ref":"h"}` + "\n")
		}
	}
	return []byte(sb.String())
}

// send posts request op and records every item's answer; it returns
// the per-item latencies (send to line arrival) and how many items got
// no answer.
func (b *batch) send(e *env, l *life, op int) ([]float64, int) {
	its := b.items(op)
	lat := make([]float64, 0, len(its))
	start := time.Now()
	// A failed request or a malformed line leaves items without a
	// latency, which is how they are counted as failed.
	_ = l.cl.postLines("/v1/batch", service.ContentTypeNDJSON, b.body(its), func(raw []byte) {
		arrived := ms(time.Since(start))
		var ln batchLine
		if json.Unmarshal(raw, &ln) != nil || ln.Error != "" || ln.Index < 0 || ln.Index >= len(its) {
			return
		}
		r := ln.Solve
		switch its[ln.Index].kind {
		case kindColor:
			r = ln.Color
		case kindTransversal:
			r = ln.Transversal
		}
		if r == nil {
			return
		}
		e.record(its[ln.Index], r)
		lat = append(lat, arrived)
	})
	return lat, len(its) - len(lat)
}

func batchMixed(e *env) error {
	insts, encs, err := e.instances(16, 8, func(s uint64) *hypermis.Hypergraph {
		return hypermis.RandomGraph(s, 1000, 3000)
	})
	if err != nil {
		return err
	}
	b := &batch{encs: encs, seed: e.seed}
	l, setup, err := setUp(setupLives, func(life int) (*life, error) {
		l, err := startLife(defaultConfig(), e.nproc)
		if err != nil {
			return nil, err
		}
		if _, bad := b.send(e, l, setupIndex(life)); bad > 0 {
			return l, fmt.Errorf("%d batch items failed", bad)
		}
		return l, nil
	}, (*life).stop)
	if err != nil {
		return err
	}
	e.rep.add("setup_s", setup, "s")
	if e.trace {
		err = e.traceBatch(b, l, insts)
	} else {
		st := e.closed(e.nproc, e.dur, 0, func(op int) ([]float64, int) { return b.send(e, l, op) })
		e.latency(st)
		e.capacity(st)
		e.count(st)
	}
	return errors.Join(err, l.stop())
}

// solver is solve-large's caller state: one shared pool, one warm
// workspace.
type solver struct {
	h    *hypermis.Hypergraph
	pool *hypermis.ParPool
	ws   *hypermis.Workspace
	par  int
}

func (s *solver) item(op int) item {
	return item{seed: 1 + uint64(op%solveSeedCycle), kind: kindSolve}
}

func (s *solver) solve(e *env, op int) error {
	it := s.item(op)
	res, err := hypermis.SolveCtx(context.Background(), s.h, hypermis.Options{
		Algorithm: hypermis.AlgSBL, Seed: it.seed, Parallelism: s.par, ParPool: s.pool, Workspace: s.ws,
	})
	if err != nil {
		return err
	}
	e.chk.setMask(it, res.MIS)
	return nil
}

func solveLarge(e *env) error {
	insts, encs, err := e.instances(1, 9, func(s uint64) *hypermis.Hypergraph {
		return hypermis.RandomMixed(s, e.sizes.largeN, e.sizes.largeM, 2, 12)
	})
	if err != nil {
		return err
	}
	s, setup, err := setUp(setupSolves, func(int) (*solver, error) {
		s := &solver{h: insts[0], pool: hypermis.NewParPool(e.nproc), ws: hypermis.NewWorkspace(), par: e.nproc}
		return s, s.solve(e, 0)
	}, func(s *solver) error { s.pool.Close(); return nil })
	if err != nil {
		return err
	}
	defer s.pool.Close()
	e.rep.add("setup_s", setup, "s")
	if e.trace {
		return e.traceSolver(s, insts, encs)
	}
	st := e.closed(1, e.dur, 0, func(op int) ([]float64, int) {
		start := time.Now()
		if s.solve(e, op) != nil {
			return nil, 1
		}
		return []float64{ms(time.Since(start))}, 0
	})
	e.latency(st)
	e.capacity(st)
	e.count(st)
	return nil
}

// peakRSS is the process's resident-set high-water mark in MiB
// (getrusage's ru_maxrss, which Linux reports in KiB).
func peakRSS() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil
}

// workloads in report order.
var workloads = []struct {
	name string
	run  func(*env) error
}{
	{"serve-small", serveSmall},
	{"serve-repeat", serveRepeat},
	{"batch-mixed", batchMixed},
	{"solve-large", solveLarge},
}

// result is one workload run's outcome.
type result struct {
	rep               report
	wrong             int
	attempted, failed int
}

// runWorkload runs one workload and verifies every answer it got.
func runWorkload(name string, rc runConfig) (*result, error) {
	e := &env{runConfig: rc, nproc: nproc(), rep: report{workload: name}}
	var run func(*env) error
	for _, w := range workloads {
		if w.name == name {
			run = w.run
		}
	}
	if run == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if rc.trace {
		e.spans = newSpanLog()
	}
	err := run(e)
	if e.chk != nil {
		defer e.chk.close()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if !rc.trace {
		rss, err := peakRSS()
		if err != nil {
			return nil, err
		}
		e.rep.add("peak_rss_mb", rss, "MiB")
	}
	wrong, werr := e.chk.finish()
	if werr != nil {
		fmt.Fprintf(os.Stderr, "%s: wrong answer: %v\n", name, werr)
	}
	if rc.trace {
		if err := e.spans.write(filepath.Join(rc.dir, "spans-"+name+".json")); err != nil {
			return nil, err
		}
	} else if e.attempted > 0 {
		e.rep.add("error_rate", float64(e.failed+wrong)/float64(e.attempted), "ratio")
	}
	return &result{rep: e.rep, wrong: wrong, attempted: e.attempted, failed: e.failed + wrong}, nil
}

package service

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/admit"
)

// histBuckets is the number of power-of-two latency buckets; bucket b
// counts durations in [2^b, 2^{b+1}) microseconds, so the range spans
// 1µs to ~2^40µs ≈ 13 days — beyond any per-job deadline.
const histBuckets = 41

// Histogram is a lock-free log₂-bucketed latency histogram. The zero
// value is ready to use. Shared by the service metrics and the load
// generator's client-side report.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	max    atomic.Int64 // nanoseconds
	sum    atomic.Int64 // nanoseconds, for Prometheus _sum
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := d.Microseconds()
	b := 0
	for us > 1 && b < histBuckets-1 {
		us >>= 1
		b++
	}
	h.counts[b].Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Max reports the largest observed duration.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Sum reports the total of all observed durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Buckets snapshots the per-bucket counts. Bucket b counts durations
// in [2^b, 2^{b+1}) microseconds (bucket 0 starts at 0); the log₂
// geometry maps directly onto cumulative Prometheus `le` buckets — see
// BucketUpperBound and the /metrics exposition.
func (h *Histogram) Buckets() [histBuckets]int64 {
	var out [histBuckets]int64
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// BucketUpperBound reports bucket b's exclusive upper bound — the
// Prometheus `le` value of the cumulative bucket it feeds.
func BucketUpperBound(b int) time.Duration {
	return time.Duration(uint64(1)<<uint(b+1)) * time.Microsecond
}

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation inside the containing bucket, clamped to the exact
// observed maximum (so sparse histograms never report a quantile above
// their max). Zero observations yield 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	if math.IsNaN(q) {
		return 0
	}
	q = math.Max(0, math.Min(1, q))
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for b := 0; b < histBuckets; b++ {
		c := float64(h.counts[b].Load())
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo := float64(uint64(1) << uint(b)) // µs lower bound (bucket 0 starts at 0)
			if b == 0 {
				lo = 0
			}
			hi := float64(uint64(1) << uint(b+1))
			frac := (rank - seen) / c
			est := time.Duration((lo + frac*(hi-lo)) * float64(time.Microsecond))
			if max := h.Max(); est > max {
				est = max
			}
			return est
		}
		seen += c
	}
	return h.Max()
}

// Metrics is the scheduler's counter set. All fields are updated
// atomically; read a consistent-enough view via snapshot.
type Metrics struct {
	Enqueued     atomic.Int64
	Solves       atomic.Int64 // completed without error
	Errors       atomic.Int64
	Rejected     atomic.Int64 // queue-full sheds
	CacheHits    atomic.Int64
	CacheMisses  atomic.Int64
	Verifies     atomic.Int64 // HTTP layer
	Generates    atomic.Int64 // HTTP layer
	WideJobs     atomic.Int64 // jobs granted parallelism degree > 1
	ParGranted   atomic.Int64 // sum of granted degrees across jobs
	SolveLatency Histogram    // job wall time, all workload kinds
	// Dual-problem workloads (POST /v1/color, /v1/transversal): completed
	// colorings and the color classes they peeled, completed minimal
	// transversals, and per-kind failures. Solves/Errors above stay
	// solve-only so their long-standing meaning survives the new kinds.
	Colorings         atomic.Int64
	ColorClasses      atomic.Int64
	ColorErrors       atomic.Int64
	Transversals      atomic.Int64
	TransversalErrors atomic.Int64
	// Aggregate per-round solver telemetry, fed by the per-job
	// RoundObserver: outer rounds executed across all jobs, vertices
	// decided in those rounds, and total in-round wall time.
	SolverRounds       atomic.Int64
	SolverRoundDecided atomic.Int64
	SolverRoundNs      atomic.Int64
	// Batch pipeline: requests, items carried (batch_items_total),
	// per-item failures, and the read-to-flush streaming latency of
	// each item's result line.
	BatchRequests    atomic.Int64
	BatchItems       atomic.Int64
	BatchItemErrors  atomic.Int64
	BatchItemLatency Histogram
	// Async jobs: submissions and terminal-state counts; cancel
	// requests count DELETEs accepted (the job may already be terminal).
	JobsSubmitted     atomic.Int64
	JobsDone          atomic.Int64
	JobsFailed        atomic.Int64
	JobsCanceled      atomic.Int64
	JobCancelRequests atomic.Int64
	// QoS / overload robustness: deadline-aware admission rejections,
	// per-client rate-limit rejections (429s), backoff sleeps taken by
	// the blocking submit path (batch items and async jobs), and queued
	// jobs failed fast by a graceful drain.
	AdmissionRejected atomic.Int64
	RateLimited       atomic.Int64
	BatchBackoff      atomic.Int64
	DrainedJobs       atomic.Int64

	// perPrio holds one counter set per admit priority class, indexed
	// by the class value.
	perPrio [admit.NumPriorities]prioCounters

	// perAlg holds the per-algorithm labeled counters behind the
	// hypermisd_algo_* Prometheus families. The map is built once from
	// the solver registry (initPerAlg) and never mutated afterwards, so
	// lock-free reads of its atomic values are safe.
	perAlg map[string]*algCounters
}

// algCounters is one algorithm's labeled counter set: completed
// solves, solve errors, and outer solver rounds executed.
type algCounters struct {
	Solves atomic.Int64
	Errors atomic.Int64
	Rounds atomic.Int64
}

// prioCounters is one priority class's counter set: jobs accepted into
// its queue, jobs shed (queue-full or admission), solves completed.
type prioCounters struct {
	Enqueued atomic.Int64
	Rejected atomic.Int64
	Solves   atomic.Int64
}

// prio returns the counter set for a priority class (clamped, so a
// corrupt value cannot index out of bounds).
func (m *Metrics) prio(p admit.Priority) *prioCounters {
	if int(p) >= admit.NumPriorities {
		p = admit.Background
	}
	return &m.perPrio[p]
}

// initPerAlg installs one counter set per registered solver name.
// Must be called before the metrics are shared (New does).
func (m *Metrics) initPerAlg(names []string) {
	m.perAlg = make(map[string]*algCounters, len(names))
	for _, n := range names {
		m.perAlg[n] = &algCounters{}
	}
}

// alg returns the counter set for a resolved algorithm name (nil for
// names outside the registry — callers nil-check and drop).
func (m *Metrics) alg(name string) *algCounters {
	return m.perAlg[name]
}

// AlgStats is the JSON form of one algorithm's counters in Stats.
type AlgStats struct {
	Solves int64 `json:"solves"`
	Errors int64 `json:"errors"`
	Rounds int64 `json:"rounds"`
}

// PrioStats is the JSON form of one priority class's counters in
// Stats: lifetime accepted/shed/completed plus the class queue's
// current depth.
type PrioStats struct {
	Enqueued   int64 `json:"enqueued"`
	Rejected   int64 `json:"rejected"`
	Solves     int64 `json:"solves"`
	QueueDepth int   `json:"queue_depth"`
}

// Stats is a JSON-ready snapshot of the service state — the payload of
// GET /v1/stats and of the daemon's expvar export.
type Stats struct {
	Workers     int   `json:"workers"`
	QueueDepth  int   `json:"queue_depth"`
	QueueCap    int   `json:"queue_cap"`
	Enqueued    int64 `json:"enqueued"`
	Solves      int64 `json:"solves"`
	Errors      int64 `json:"errors"`
	Rejected    int64 `json:"rejected"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CacheSize   int   `json:"cache_size"`
	CacheCap    int   `json:"cache_cap"`
	CacheBytes  int64 `json:"cache_bytes"`
	Verifies    int64 `json:"verifies"`
	Generates   int64 `json:"generates"`
	// Dual-problem workloads: completed colorings (colorings_total), the
	// color classes peeled across them (color_classes_total /
	// colorings_total ≈ mean palette size), completed minimal
	// transversals, and per-kind failures. The solves/errors fields above
	// remain MIS-solve-only.
	Colorings         int64 `json:"colorings_total"`
	ColorClasses      int64 `json:"color_classes_total"`
	ColorErrors       int64 `json:"color_errors_total"`
	Transversals      int64 `json:"transversals_total"`
	TransversalErrors int64 `json:"transversal_errors_total"`
	// Per-job parallelism: the token-pool capacity (the aggregate
	// degree bound), how many tokens running jobs hold right now, the
	// per-job degree cap, the number of jobs granted degree > 1, and
	// the sum of granted degrees (par_granted_total / solves ≈ mean
	// degree).
	ParCap            int   `json:"par_cap"`
	ParInUse          int   `json:"par_in_use"`
	MaxJobParallelism int   `json:"max_job_parallelism"`
	WideJobs          int64 `json:"jobs_wide"`
	ParGranted        int64 `json:"par_granted_total"`
	// Persistent parallel worker pool (shared by every job's solve):
	// pool size, workers running a pass right now, cumulative pass
	// handoffs to parked workers, and multi-worker passes that found no
	// parked worker and ran inline on the dispatcher. A rising inline
	// share under load means the pool is undersized. Passes sized to
	// one worker never reach the pool and count in neither.
	ParPoolWorkers int   `json:"par_pool_workers"`
	ParWorkersBusy int64 `json:"par_workers_busy"`
	ParHandoffs    int64 `json:"par_handoffs_total"`
	ParInline      int64 `json:"par_inline_total"`
	// Aggregate solver-round telemetry: total outer rounds across all
	// solves, vertices decided inside them, and the summed in-round
	// wall time (solver_round_ms_total / solver_rounds_total ≈ mean
	// round latency).
	SolverRounds       int64   `json:"solver_rounds_total"`
	SolverRoundDecided int64   `json:"solver_round_decided_total"`
	SolverRoundMs      float64 `json:"solver_round_ms_total"`
	LatencyP50Ms       float64 `json:"latency_p50_ms"`
	LatencyP90Ms       float64 `json:"latency_p90_ms"`
	LatencyP99Ms       float64 `json:"latency_p99_ms"`
	LatencyMaxMs       float64 `json:"latency_max_ms"`
	// Batch pipeline: request/item/error totals, the configured per-
	// request item cap, and streaming latency quantiles — the time from
	// reading an item off the request stream to flushing its result
	// line.
	BatchRequests   int64   `json:"batch_requests"`
	BatchItems      int64   `json:"batch_items_total"`
	BatchItemErrors int64   `json:"batch_item_errors"`
	MaxBatchItems   int     `json:"max_batch_items"`
	BatchStreamP50  float64 `json:"batch_stream_p50_ms"`
	BatchStreamP99  float64 `json:"batch_stream_p99_ms"`
	BatchStreamMax  float64 `json:"batch_stream_max_ms"`
	// Async jobs: lifetime totals by terminal state, cancel requests,
	// the store's live occupancy (jobs_active = non-terminal jobs,
	// job_store_size includes retained terminal jobs) and retention
	// configuration.
	JobsSubmitted     int64   `json:"jobs_submitted"`
	JobsDone          int64   `json:"jobs_done"`
	JobsFailed        int64   `json:"jobs_failed"`
	JobsCanceled      int64   `json:"jobs_canceled"`
	JobCancelRequests int64   `json:"job_cancel_requests"`
	JobsActive        int     `json:"jobs_active"`
	JobStoreSize      int     `json:"job_store_size"`
	JobStoreCap       int     `json:"job_store_cap"`
	JobTTLSeconds     float64 `json:"job_ttl_seconds"`
	// QoS & overload robustness: deadline-aware admission rejections,
	// 429s from the per-client rate limiter (plus the tracked client
	// count), backoff sleeps taken by the blocking submit path, queued
	// jobs failed fast by a drain, whether a drain is in progress, and
	// the jobs inside run() right now.
	AdmissionRejected int64 `json:"admission_rejected_total"`
	RateLimited       int64 `json:"ratelimited_total"`
	RateLimitClients  int   `json:"ratelimit_clients"`
	BatchBackoff      int64 `json:"batch_backoff_total"`
	DrainedJobs       int64 `json:"drained_jobs_total"`
	Draining          bool  `json:"draining"`
	RunningJobs       int   `json:"running_jobs"`
	// Fault injection (all zero unless the server runs with -chaos).
	ChaosErrors     int64 `json:"chaos_injected_errors,omitempty"`
	ChaosDelays     int64 `json:"chaos_injected_delays,omitempty"`
	ChaosQueueFulls int64 `json:"chaos_injected_queuefulls,omitempty"`
	// Durable cache tier (internal/durable; all zero and durable_enabled
	// false unless the server runs with -cachedir). Counters are store
	// lifetime; entries/segments/bytes are current occupancy.
	DurableEnabled        bool  `json:"durable_enabled"`
	DurableHits           int64 `json:"durable_hits_total"`
	DurableMisses         int64 `json:"durable_misses_total"`
	DurableWrites         int64 `json:"durable_writes_total"`
	DurableWriteErrors    int64 `json:"durable_write_errors_total"`
	DurableRecovered      int64 `json:"durable_recovered_total"`
	DurableCorruptSkipped int64 `json:"durable_corrupt_skipped_total"`
	DurableCompactions    int64 `json:"durable_compactions_total"`
	DurableVerifyFailed   int64 `json:"durable_verify_failed_total"`
	DurableEntries        int   `json:"durable_entries"`
	DurableSegments       int   `json:"durable_segments"`
	DurableBytes          int64 `json:"durable_bytes"`
	// Per-priority counters keyed by class name (interactive / batch /
	// background).
	PerPriority map[string]PrioStats `json:"per_priority,omitempty"`
	// Per-algorithm counters keyed by resolved solver name (AlgAuto
	// resolves before counting, so "auto" never appears).
	PerAlgorithm map[string]AlgStats `json:"per_algorithm,omitempty"`
	// Flight recorder: traces recorded since start (0 when tracing is
	// disabled).
	TracesRecorded uint64 `json:"traces_recorded"`
}

func (m *Metrics) snapshot() Stats {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var perAlg map[string]AlgStats
	if m.perAlg != nil {
		perAlg = make(map[string]AlgStats, len(m.perAlg))
		for name, c := range m.perAlg {
			perAlg[name] = AlgStats{
				Solves: c.Solves.Load(),
				Errors: c.Errors.Load(),
				Rounds: c.Rounds.Load(),
			}
		}
	}
	perPrio := make(map[string]PrioStats, admit.NumPriorities)
	for p := 0; p < admit.NumPriorities; p++ {
		c := &m.perPrio[p]
		perPrio[admit.Priority(p).String()] = PrioStats{
			Enqueued: c.Enqueued.Load(),
			Rejected: c.Rejected.Load(),
			Solves:   c.Solves.Load(),
		}
	}
	return Stats{
		PerAlgorithm:       perAlg,
		PerPriority:        perPrio,
		AdmissionRejected:  m.AdmissionRejected.Load(),
		RateLimited:        m.RateLimited.Load(),
		BatchBackoff:       m.BatchBackoff.Load(),
		DrainedJobs:        m.DrainedJobs.Load(),
		Enqueued:           m.Enqueued.Load(),
		Solves:             m.Solves.Load(),
		Errors:             m.Errors.Load(),
		Rejected:           m.Rejected.Load(),
		CacheHits:          m.CacheHits.Load(),
		CacheMisses:        m.CacheMisses.Load(),
		Verifies:           m.Verifies.Load(),
		Generates:          m.Generates.Load(),
		Colorings:          m.Colorings.Load(),
		ColorClasses:       m.ColorClasses.Load(),
		ColorErrors:        m.ColorErrors.Load(),
		Transversals:       m.Transversals.Load(),
		TransversalErrors:  m.TransversalErrors.Load(),
		WideJobs:           m.WideJobs.Load(),
		ParGranted:         m.ParGranted.Load(),
		SolverRounds:       m.SolverRounds.Load(),
		SolverRoundDecided: m.SolverRoundDecided.Load(),
		SolverRoundMs:      float64(m.SolverRoundNs.Load()) / float64(time.Millisecond),
		LatencyP50Ms:       ms(m.SolveLatency.Quantile(0.50)),
		LatencyP90Ms:       ms(m.SolveLatency.Quantile(0.90)),
		LatencyP99Ms:       ms(m.SolveLatency.Quantile(0.99)),
		LatencyMaxMs:       ms(m.SolveLatency.Max()),
		BatchRequests:      m.BatchRequests.Load(),
		BatchItems:         m.BatchItems.Load(),
		BatchItemErrors:    m.BatchItemErrors.Load(),
		BatchStreamP50:     ms(m.BatchItemLatency.Quantile(0.50)),
		BatchStreamP99:     ms(m.BatchItemLatency.Quantile(0.99)),
		BatchStreamMax:     ms(m.BatchItemLatency.Max()),
		JobsSubmitted:      m.JobsSubmitted.Load(),
		JobsDone:           m.JobsDone.Load(),
		JobsFailed:         m.JobsFailed.Load(),
		JobsCanceled:       m.JobsCanceled.Load(),
		JobCancelRequests:  m.JobCancelRequests.Load(),
	}
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns the send offsets of a Poisson arrival process
// with the given rate (per second) over dur. Equal seeds give equal
// schedules.
func poissonSchedule(seed uint64, rate float64, dur time.Duration) []time.Duration {
	r := rand.New(rand.NewPCG(seed, 0x5ced))
	var sched []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return sched
		}
		sched = append(sched, time.Duration(t*float64(time.Second)))
	}
}

// maxWindow bounds the time span over which a loop's statistics are
// taken separately; reporting medians across windows keeps a passing
// disturbance of the host from moving a whole run's result.
const maxWindow = time.Second

// windows splits dur into the fewest equal windows of at most
// maxWindow.
func windows(dur time.Duration) (int, time.Duration) {
	n := max(1, int((dur+maxWindow-1)/maxWindow))
	return n, dur / time.Duration(n)
}

// loopStats is what one load loop measured. Latencies and lags are in
// milliseconds; lat[cuts[k-1]:cuts[k]] are the latencies of window k,
// and rates the completions per second of each window of a closed
// loop. calls counts the operations issued (requests or solves);
// attempted, failed and ops (completed) count units of work, which for
// a batch are its items.
type loopStats struct {
	lat, lag  []float64
	cuts      []int
	rates     []float64
	calls     int
	ops       int
	attempted int
	failed    int
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s *loopStats) merge(o loopStats) {
	for _, c := range o.cuts {
		s.cuts = append(s.cuts, len(s.lat)+c)
	}
	s.rates = append(s.rates, o.rates...)
	s.lat = append(s.lat, o.lat...)
	s.lag = append(s.lag, o.lag...)
	s.calls += o.calls
	s.ops += o.ops
	s.attempted += o.attempted
	s.failed += o.failed
}

// openLoop sends operation i at start+sched[i] from conns senders that
// take operations in schedule order; dur is the span the schedule
// covers. Latency runs from the scheduled send time, so a stall also
// counts against every operation that fell due during it; lag is how
// late each send actually left. Failed operations count as attempted
// and failed and add no latency sample.
func openLoop(sched []time.Duration, dur time.Duration, conns int, do func(i int) error) loopStats {
	lat := make([]float64, len(sched))
	lag := make([]float64, len(sched))
	failed := make([]bool, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i])
				from := due
				if d := time.Until(due); d > 0 {
					// The sender was idle when the operation fell due, so
					// any lateness now is the OS timer's wake-up granularity
					// (about 1ms when the process idles), not the system's:
					// latency runs from the actual send. A sender still busy
					// at due time counts from due, which is what charges a
					// stall to every operation waiting behind it.
					time.Sleep(d)
					from = time.Now()
				}
				sent := time.Now()
				failed[i] = do(i) != nil
				lat[i] = ms(time.Since(from))
				lag[i] = ms(sent.Sub(due))
			}
		}()
	}
	wg.Wait()
	st := loopStats{lag: lag, calls: len(sched), attempted: len(sched)}
	_, win := windows(dur)
	for i, f := range failed {
		for sched[i] >= win*time.Duration(len(st.cuts)+1) {
			st.cuts = append(st.cuts, len(st.lat))
		}
		if f {
			st.failed++
		} else {
			st.lat = append(st.lat, lat[i])
		}
	}
	st.cuts = append(st.cuts, len(st.lat))
	st.ops = st.attempted - st.failed
	return st
}

// percentile is the median over the loop's windows of each window's
// q-quantile, taken over the windows that have minBeyond samples
// beyond it; with fewer than three such windows it is the q-quantile of
// all samples.
func (s *loopStats) percentile(q float64) (float64, bool) {
	var per []float64
	lo := 0
	for _, hi := range s.cuts {
		if v, ok, _ := percentile(s.lat[lo:hi], q); ok {
			per = append(per, v)
		}
		lo = hi
	}
	if len(per) >= 3 {
		return median(per), true
	}
	v, ok, _ := percentile(s.lat, q)
	return v, ok
}

// closedLoop runs conns callers for dur; each sends its next operation
// as soon as the previous one returns. do performs operation op and
// returns the latencies of the units it completed (one for a request or
// a solve, one per item for a batch) and how many units failed. The lag
// of a closed loop is the caller's own turnaround between one operation
// returning and the next being sent.
func closedLoop(conns int, dur time.Duration, do func(op int) ([]float64, int)) loopStats {
	var next atomic.Int64
	var mu sync.Mutex
	var st loopStats
	var wg sync.WaitGroup
	start := time.Now()
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine loopStats
			prev := time.Now()
			for time.Since(start) < dur {
				sent := time.Now()
				mine.lag = append(mine.lag, ms(sent.Sub(prev)))
				lat, failed := do(int(next.Add(1) - 1))
				prev = time.Now()
				mine.calls++
				mine.lat = append(mine.lat, lat...)
				mine.ops += len(lat)
				mine.attempted += len(lat) + failed
				mine.failed += failed
			}
			mu.Lock()
			st.merge(mine)
			mu.Unlock()
		}()
	}
	wg.Wait()
	st.cuts = []int{len(st.lat)}
	st.rates = []float64{float64(st.ops) / time.Since(start).Seconds()}
	return st
}

// client is the load generator's HTTP side: at most conns connections
// to one server, reused across requests.
type client struct {
	addr string // host:port
	tr   *http.Transport
	hc   *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &client{addr: addr, tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// reply is the subset of the service's solve, color and transversal
// responses the checker needs.
type reply struct {
	MIS         []int `json:"mis"`
	Transversal []int `json:"transversal"`
	Colors      []int `json:"colors"`
	NumColors   int   `json:"num_colors"`
}

// batchLine is one NDJSON line of a batch response.
type batchLine struct {
	Index       int    `json:"index"`
	Error       string `json:"error"`
	Solve       *reply `json:"solve"`
	Color       *reply `json:"color"`
	Transversal *reply `json:"transversal"`
}

// post sends body and decodes a 200 JSON reply into out.
func (c *client) post(path, ctype string, body []byte, out any) error {
	resp, err := c.hc.Post("http://"+c.addr+path, ctype, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %.200s", path, resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}

// postLines sends body and hands each response line to line as it
// arrives, so per-line arrival times can be taken.
func (c *client) postLines(path, ctype string, body []byte, line func([]byte)) error {
	resp, err := c.hc.Post("http://"+c.addr+path, ctype, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: status %d: %.200s", path, resp.StatusCode, raw)
	}
	br := bufio.NewReader(resp.Body)
	for {
		b, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(b)) > 0 {
			line(b)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func (c *client) get(path string, out any) error {
	resp, err := c.hc.Get("http://" + c.addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

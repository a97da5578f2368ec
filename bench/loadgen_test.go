package main

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPoissonScheduleRepeatsPerSeed(t *testing.T) {
	a := poissonSchedule(7, 1800, 2*time.Second)
	if b := poissonSchedule(7, 1800, 2*time.Second); !slices.Equal(a, b) {
		t.Fatal("equal seeds gave different schedules")
	}
	if c := poissonSchedule(8, 1800, 2*time.Second); slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 3400 || n > 3800 {
		t.Fatalf("%d arrivals in 2s at 1800/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("arrival %d at %v is out of order or past the window", i, a[i])
		}
	}
}

// TestOpenLoopChargesStalls stalls a server once for 50ms and checks
// that every request that fell due during the stall is charged the
// wait, which only timing from the scheduled send does, and that the
// generator's lag p99 shows the stall.
func TestOpenLoopChargesStalls(t *testing.T) {
	const stall = 50 * time.Millisecond
	var mu sync.Mutex
	var stallAt time.Time
	t0 := time.Now()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if stallAt.IsZero() && time.Since(t0) > 200*time.Millisecond {
			stallAt = time.Now()
			time.Sleep(stall)
		}
		mu.Unlock()
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	cl := newClient(strings.TrimPrefix(srv.URL, "http://"), 2)
	defer cl.close()

	sched := poissonSchedule(1, 2000, 600*time.Millisecond)
	start := time.Now()
	st := openLoop(sched, 600*time.Millisecond, 2, func(int) error {
		var r reply
		return cl.post("/", "text/plain", nil, &r)
	})
	if st.failed > 0 || len(st.lat) != len(sched) {
		t.Fatalf("%d of %d requests failed", st.failed, len(sched))
	}
	if stallAt.IsZero() {
		t.Fatal("the server never stalled")
	}
	end := stallAt.Add(stall)
	charged := 0
	for i, off := range sched {
		due := start.Add(off)
		if due.Before(stallAt) || !due.Before(end.Add(-5*time.Millisecond)) {
			continue
		}
		charged++
		// The wait until the stall ends, less the 1ms timer slack an
		// idle sender may add before it sends.
		if want := ms(end.Sub(due)) - 2; st.lat[i] < want {
			t.Errorf("request due %v into the stall: latency %.2fms, want at least %.2fms", due.Sub(stallAt), st.lat[i], want)
		}
	}
	if charged < 20 {
		t.Fatalf("only %d requests fell due during the stall", charged)
	}
	e := &env{}
	e.loadgenChecks(st, st)
	if lag, _ := e.rep.get("loadgen.lag_p99_ms"); lag < 10 {
		t.Errorf("loadgen.lag_p99_ms = %.2f, want the stall to show (>= 10ms)", lag)
	}
}

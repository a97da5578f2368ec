package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// TestSmoke runs every workload untraced and traced for under a second
// each, on a smaller solve-large instance and hot set, and checks that
// every metric of the JSON result is emitted and every answer is right.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	small := sizes{largeN: 400, largeM: 800, hotKeys: 64}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w.name, runConfig{seed: 1, dur: 800 * time.Millisecond, trace: trace, dir: t.TempDir(), sizes: small})
			if err != nil {
				t.Fatal(err)
			}
			if res.failed > 0 || res.attempted == 0 {
				t.Errorf("%s trace=%t: %d of %d failed", w.name, trace, res.failed, res.attempted)
			}
			names := endToEnd
			if trace {
				names = perLayer
			}
			for _, name := range names {
				if v, ok := res.rep.get(name); !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%t: %s = %v (emitted: %t)", w.name, trace, name, v, ok)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workload and metric
// names equal to the ones the benchmark emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	var ws []string
	for _, w := range workloads {
		ws = append(ws, w.name)
	}
	if got := names(spec.Workloads); !slices.Equal(got, ws) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, ws)
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark emits %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark emits %v", got, perLayer)
	}
}

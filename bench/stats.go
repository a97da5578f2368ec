package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: below that, the percentile is one or two outliers, not
// a property of the run.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs, whether at
// least minBeyond samples lie beyond it, and the sample count. xs is
// left untouched.
func percentile(xs []float64, q float64) (v float64, ok bool, n int) {
	n = len(xs)
	if n == 0 {
		return 0, false, 0
	}
	if !sort.Float64sAreSorted(xs) {
		xs = append([]float64(nil), xs...)
		sort.Float64s(xs)
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	return xs[rank], n-1-rank >= minBeyond, n
}

// median is the 50th percentile regardless of sample count (set-up
// times come from a handful of repetitions).
func median(xs []float64) float64 {
	v, _, _ := percentile(xs, 0.5)
	return v
}

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// report collects a workload's metrics in emission order.
type report struct {
	workload string
	metrics  []metric
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// get returns the value of the named metric.
func (r *report) get(name string) (float64, bool) {
	i := r.find(name)
	if i < 0 {
		return 0, false
	}
	return r.metrics[i].value, true
}

func (r *report) find(name string) int {
	return slices.IndexFunc(r.metrics, func(m metric) bool { return m.name == name })
}

// writeLines prints one "workload metric value unit" line per metric.
func (r *report) writeLines(w io.Writer) {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
}

// writeResult prints the one-line JSON result: the metrics whose names
// are listed (every one must be present and finite), plus the
// correctness verdict and the operation counts.
func (r *report) writeResult(w io.Writer, names []string, correct bool, attempted, failed int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(names))
	for _, name := range names {
		i := r.find(name)
		if i < 0 {
			return fmt.Errorf("metric %s was not measured (a percentile needs %d samples beyond it: run longer)", name, minBeyond)
		}
		m := r.metrics[i]
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.value)
		}
		out[name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

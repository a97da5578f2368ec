package main

import (
	"math"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{0, 0.5, false},
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
	} {
		// Descending input: the helper must sort a copy, not the caller's
		// slice.
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i)
		}
		v, ok, n := percentile(xs, c.q)
		if n != c.n || ok != c.ok {
			t.Errorf("n=%d q=%g: got ok=%t n=%d, want ok=%t n=%d", c.n, c.q, ok, n, c.ok, c.n)
		}
		if c.n > 0 {
			// Nearest rank: the ceil(q·n)-th smallest of 1..n.
			if want := math.Ceil(c.q * float64(c.n)); v != want {
				t.Errorf("n=%d q=%g: value %g, want %g", c.n, c.q, v, want)
			}
			if xs[0] != float64(c.n) {
				t.Errorf("n=%d: input was reordered", c.n)
			}
		}
	}
}

// Package stats provides the summary statistics the experiment harness
// reports: means, deviations, quantiles, and least-squares
// growth-exponent fits on log-log data (the tool that turns "SBL depth
// grows like n^0.2, KUW like n^0.5" into a number).
package stats

import (
	"math"
	"sort"
)

// Summary holds the moments and quantiles of a sample.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	P25, P50, P75 float64
	P95           float64
	Sum           float64
}

// Summarize computes a Summary of xs. An empty sample returns a zero
// Summary with N == 0.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	for _, x := range sorted {
		s.Sum += x
	}
	s.Mean = s.Sum / float64(s.N)
	varsum := 0.0
	for _, x := range sorted {
		d := x - s.Mean
		varsum += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(varsum / float64(s.N-1))
	}
	s.P25 = Quantile(sorted, 0.25)
	s.P50 = Quantile(sorted, 0.50)
	s.P75 = Quantile(sorted, 0.75)
	s.P95 = Quantile(sorted, 0.95)
	return s
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted
// sample by linear interpolation.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= n {
		hi = n - 1
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Fit is a least-squares line y = Slope·x + Intercept with goodness R².
type Fit struct {
	Slope, Intercept, R2 float64
}

// LinearFit fits y = a·x + b by ordinary least squares. Needs ≥ 2
// points with distinct x; otherwise returns NaN slope.
func LinearFit(xs, ys []float64) Fit {
	n := float64(len(xs))
	if len(xs) != len(ys) || len(xs) < 2 {
		return Fit{Slope: math.NaN(), Intercept: math.NaN(), R2: math.NaN()}
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Fit{Slope: math.NaN(), Intercept: math.NaN(), R2: math.NaN()}
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	// R² = 1 − SSres/SStot.
	meanY := sy / n
	var ssRes, ssTot float64
	for i := range xs {
		pred := slope*xs[i] + intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{Slope: slope, Intercept: intercept, R2: r2}
}

// GrowthExponent fits y ≈ c·x^e on positive data by regressing
// log y on log x and returns e with R². This is the number experiments
// compare against the paper's exponents (0.5 for KUW, o(1) for SBL).
func GrowthExponent(xs, ys []float64) Fit {
	lx := make([]float64, 0, len(xs))
	ly := make([]float64, 0, len(ys))
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log2(xs[i]))
			ly = append(ly, math.Log2(ys[i]))
		}
	}
	return LinearFit(lx, ly)
}

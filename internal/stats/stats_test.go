package stats

import (
	"math"
	"testing"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Sum != 15 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std = %v", s.Std)
	}
	if s.P50 != 3 {
		t.Fatalf("median = %v", s.P50)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatal("empty summary should have N=0")
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.P50 != 7 || s.P95 != 7 {
		t.Fatalf("%+v", s)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{0, 10}
	if got := Quantile(sorted, 0.5); got != 5 {
		t.Fatalf("interpolated median = %v", got)
	}
	if got := Quantile(sorted, 0); got != 0 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(sorted, 1); got != 10 {
		t.Fatalf("q1 = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	f := LinearFit(xs, ys)
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-1) > 1e-12 {
		t.Fatalf("fit %+v", f)
	}
	if math.Abs(f.R2-1) > 1e-12 {
		t.Fatalf("R² = %v", f.R2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if !math.IsNaN(LinearFit([]float64{1}, []float64{2}).Slope) {
		t.Fatal("single point fit should be NaN")
	}
	if !math.IsNaN(LinearFit([]float64{1, 1}, []float64{2, 3}).Slope) {
		t.Fatal("vertical data fit should be NaN")
	}
}

func TestGrowthExponentRecoversPower(t *testing.T) {
	xs := []float64{16, 64, 256, 1024, 4096}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 0.5)
	}
	f := GrowthExponent(xs, ys)
	if math.Abs(f.Slope-0.5) > 1e-9 {
		t.Fatalf("exponent = %v, want 0.5", f.Slope)
	}
	if f.R2 < 0.999 {
		t.Fatalf("R² = %v", f.R2)
	}
}

func TestGrowthExponentSkipsNonPositive(t *testing.T) {
	f := GrowthExponent([]float64{0, 2, 4, 8}, []float64{-1, 2, 4, 8})
	if math.Abs(f.Slope-1) > 1e-9 {
		t.Fatalf("exponent = %v, want 1 after filtering", f.Slope)
	}
}

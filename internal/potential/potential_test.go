package potential

import (
	"math"
	"testing"
)

func TestKelsenTableValues(t *testing.T) {
	// f(2) = 7, F(2) = 7; f(3) = 2·7 + 7 = 21, F(3) = 28;
	// f(4) = 3·28 + 7 = 91, F(4) = 119. (F(i) = i·F(i−1)+7.)
	tab := KelsenTable(4)
	if tab.FVals[2] != 7 || tab.F[2] != 7 {
		t.Fatalf("f(2)=%v F(2)=%v", tab.FVals[2], tab.F[2])
	}
	if tab.FVals[3] != 21 || tab.F[3] != 28 {
		t.Fatalf("f(3)=%v F(3)=%v", tab.FVals[3], tab.F[3])
	}
	if tab.FVals[4] != 91 || tab.F[4] != 119 {
		t.Fatalf("f(4)=%v F(4)=%v", tab.FVals[4], tab.F[4])
	}
}

func TestFRecurrenceIdentity(t *testing.T) {
	// F(i) = i·F(i−1) + c for both tables.
	for _, tab := range []*FTable{KelsenTable(8), PaperTable(8)} {
		for i := 2; i <= 8; i++ {
			want := float64(i)*tab.F[i-1] + tab.Constant
			if math.Abs(tab.F[i]-want) > 1e-6*want {
				t.Fatalf("c=%v: F(%d)=%v, want %v", tab.Constant, i, tab.F[i], want)
			}
		}
	}
}

func TestPaperTableConstant(t *testing.T) {
	tab := PaperTable(5)
	if tab.Constant != 25 {
		t.Fatalf("constant = %v, want d²=25", tab.Constant)
	}
}

func TestLambdaShrinks(t *testing.T) {
	if Lambda(1<<30) >= Lambda(1<<10) {
		t.Fatal("λ(n) must shrink with n")
	}
	if Lambda(1<<20) <= 0 {
		t.Fatal("λ must be positive")
	}
}

func TestMigrationExponentKelsenAtAdjacentLevels(t *testing.T) {
	// The paper: with the +7 recurrence, k = j+1 gives exponent −1.
	tab := KelsenTable(10)
	for j := 2; j < 10; j++ {
		got := tab.MigrationExponent(j, j+1)
		if math.Abs(got-(-1)) > 1e-9 {
			t.Fatalf("j=%d: exponent = %v, want −1", j, got)
		}
	}
}

func TestMigrationExponentPaperAtAdjacentLevels(t *testing.T) {
	// With +d²: k = j+1 gives 2² + 2 − d² + F(j) − F(j) = 6 − d².
	d := 6
	tab := PaperTable(d)
	for j := 2; j < d; j++ {
		got := tab.MigrationExponent(j, j+1)
		want := 6 - float64(d*d)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("j=%d: exponent = %v, want %v", j, got, want)
		}
	}
}

func TestLemma6HoldsForPaperTable(t *testing.T) {
	for _, d := range []int{4, 5, 6, 8, 10} {
		tab := PaperTable(d)
		ok, j, k := tab.Lemma6Holds(d)
		if !ok {
			t.Fatalf("d=%d: Lemma 6 violated at (j,k)=(%d,%d)", d, j, k)
		}
	}
}

func TestKelsenBreakpointAlwaysFails(t *testing.T) {
	// 2^{d(d+1)} ≤ logn/(logn+2loglogn) < 1 is false for every d ≥ 1 —
	// the reason the paper replaces the constant. Arguments are log₂n.
	for _, logN := range []float64{10, 20, 100, 1 << 20} {
		for _, d := range []int{1, 3, 6} {
			if KelsenBreakpoint(logN, d) {
				t.Fatalf("logN=%v d=%d: Kelsen reduced claim unexpectedly holds", logN, d)
			}
		}
	}
}

func TestDimensionCondition(t *testing.T) {
	// d(d+1) ≤ loglog n · (d²−8). For d=4: 20 ≤ 8·loglog n needs
	// loglog n ≥ 2.5, i.e. log n ≥ 2^2.5 ≈ 5.7 — easily satisfied.
	if !DimensionCondition(200, 4) {
		t.Fatal("d=4 at log n=200 should satisfy the condition")
	}
	// For d=3 the RHS is loglog n·1: fails when loglog n < 12.
	if DimensionCondition(4, 3) {
		t.Fatal("d=3 at log n=4 should fail (12 > 2)")
	}
	// d ≤ 2 makes d²−8 negative: must fail.
	if DimensionCondition(100, 2) {
		t.Fatal("d=2 must fail (negative RHS)")
	}
}

func TestTheoremDBoundGrows(t *testing.T) {
	if TheoremDBound(1e30) <= TheoremDBound(100) {
		t.Fatal("dimension cap must grow with n")
	}
}

func TestFactorialBoundHolds(t *testing.T) {
	for _, d := range []int{3, 5, 8, 12} {
		tab := PaperTable(d)
		if !tab.FactorialBoundHolds(d) {
			t.Fatalf("d=%d: F(i) ≤ d²(i+2)! violated", d)
		}
	}
}

func TestFeasibilityLogSpace(t *testing.T) {
	// Verify the inequality mechanics at log n = 4096 and d = 4: the
	// paper's LHS must be far below Kelsen's, and Kelsen's claim fails.
	logN := 4096.0
	dp := PaperTable(4)
	dk := KelsenTable(4)
	lhsP := dp.FeasibilityLHS(logN, 4, 2)
	lhsK := dk.FeasibilityLHS(logN, 4, 2)
	if lhsP >= lhsK {
		t.Fatalf("paper LHS (log₂=%v) not below Kelsen LHS (log₂=%v)", lhsP, lhsK)
	}
	// At k = j+1 Kelsen's exponent is −1, so its LHS ≈ 2^{d(d+1)}/log n:
	// log₂ ≈ 20 − 12 = 8 > RHS (negative). The claim fails for Kelsen.
	if dk.Feasible(logN, 4) {
		t.Fatal("Kelsen table should be infeasible at d=4")
	}
}

func TestFeasiblePaperAtLargeScale(t *testing.T) {
	// The paper's induction needs (log n)^{d²−6} to beat 2^{d(d+1)}·d.
	// For d=4: exponent d²−6 = 10, and log n = 4096 gives 10·12 = 120
	// bits ≫ the 20+2 bits of 2^{d(d+1)}·d. Must be feasible.
	if !PaperTable(4).Feasible(4096, 4) {
		t.Fatal("paper table should be feasible at d=4, log n = 4096")
	}
	// At small log n the claim can still fail: for d=3 the dominant
	// exponent is 6−d² = −3, so the LHS is 2^{12}/(log n)³ — at
	// log n = 8 that is 2^{12−9} = 8 ≫ RHS. The asymptotic nature of
	// Theorem 2, made quantitative.
	if PaperTable(3).Feasible(8, 3) {
		t.Fatal("paper table should be infeasible at d=3, log n = 8")
	}
}

func TestStageBoundLogAstronomical(t *testing.T) {
	// (log n)^{(d+4)!} for d=4, n=2^16: log₂ = 8!·log₂16 = 40320·4.
	got := StageBoundLog(1<<16, 4)
	if math.Abs(got-40320*4) > 1 {
		t.Fatalf("got %v", got)
	}
}

func TestVValuesLogChain(t *testing.T) {
	// deltas: Δ_2 = 4, Δ_3 = 2, d = 3, n = 2^16 (log n = 16, log₂ log n = 4).
	tab := PaperTable(3)
	deltas := []float64{0, 0, 4, 2}
	v := tab.VValuesLog(1<<16, deltas)
	if math.Abs(v[3]-1) > 1e-9 { // log2(2)
		t.Fatalf("v_3 = %v", v[3])
	}
	// v_2 = max(Δ_2, (log n)^{f(2)}·v_3): f(2) = 9 (d²=9), so candidate
	// log₂ = 9·4 + 1 = 37 ≫ log₂4 = 2.
	if math.Abs(v[2]-37) > 1e-9 {
		t.Fatalf("v_2 = %v, want 37", v[2])
	}
}

func TestVValuesLogZeroDeltas(t *testing.T) {
	tab := PaperTable(3)
	v := tab.VValuesLog(1<<16, []float64{0, 0, 0, 0})
	if !math.IsInf(v[2], -1) || !math.IsInf(v[3], -1) {
		t.Fatalf("zero deltas should give −Inf: %v", v)
	}
}

func TestSection41MinimalF(t *testing.T) {
	// Factorial-type tables satisfy F(j) ≥ j·F(j−1)+5.
	if bad := Section41MinimalF(PaperTable(8).F); bad != 0 {
		t.Fatalf("paper table violates §4.1 condition at j=%d", bad)
	}
	if bad := Section41MinimalF(KelsenTable(8).F); bad != 0 {
		t.Fatalf("Kelsen table violates §4.1 condition at j=%d", bad)
	}
	// Polynomial growth violates it immediately.
	poly := make([]float64, 9)
	for i := range poly {
		poly[i] = float64(i * i)
	}
	if bad := Section41MinimalF(poly); bad == 0 {
		t.Fatal("quadratic F should violate the §4.1 necessary condition")
	}
}

// Package potential implements the potential-function machinery of
// Kelsen's analysis and the paper's Section 3.1 modification of it: the
// recurrences f and F, the per-dimension values v_i(H), and the
// feasibility inequalities that decide whether the induction goes
// through — including the paper's
// demonstration that Kelsen's original constant (+7) *fails* for
// super-constant dimension while the modified constant (+d²) succeeds,
// and the Section 4.1 lower-bound argument that F must stay roughly
// factorial no matter how sharp the concentration bound is.
//
// Everything here is numeric (no randomness): experiment T8 sweeps these
// functions over n and d and regenerates the paper's inequalities as
// tables.
package potential

import (
	"math"

	"repro/internal/mathx"
)

// FTable holds the recurrence values f(i) and their partial sums
// F(i) = Σ_{j=2..i} f(j), indexed by i (entries 0 and 1 are zero;
// F(1) = 0 by convention).
type FTable struct {
	Constant float64   // the additive constant: 7 (Kelsen) or d² (paper)
	F        []float64 // F[i], i = 0..d
	FVals    []float64 // f[i], i = 0..d
}

// NewFTable builds the recurrence f(2) = c, f(i) = (i−1)·Σ_{j<i} f(j) + c
// up to dimension d. Equivalently F(i) = i·F(i−1) + c with F(1) = 0.
// Values grow factorially and may overflow to +Inf for large d; that is
// the honest value of the bound at those parameters.
func NewFTable(d int, c float64) *FTable {
	t := &FTable{Constant: c, F: make([]float64, d+1), FVals: make([]float64, d+1)}
	for i := 2; i <= d; i++ {
		t.FVals[i] = float64(i-1)*t.F[i-1] + c
		t.F[i] = t.F[i-1] + t.FVals[i]
	}
	return t
}

// KelsenTable returns Kelsen's original recurrence (+7).
func KelsenTable(d int) *FTable { return NewFTable(d, 7) }

// PaperTable returns the paper's modified recurrence (+d²).
func PaperTable(d int) *FTable { return NewFTable(d, float64(d*d)) }

// Lambda returns λ(n) = 2·log log n / log n — the slack factor in
// Lemma 5's threshold v_j(H_s) ≤ T_j·(1+λ(n)).
func Lambda(n float64) float64 {
	return 2 * mathx.LogLog2(n) / mathx.Log2(n)
}

// MigrationExponent returns the exponent of log n in the k-summand of
// the feasibility claim:
//
//	2^{k−j+1} + 2 − c + F(j) − F(k−1)
//
// where c is the recurrence constant (via F(j) = j·F(j−1) + c this
// equals the paper's 2^{k−j+1} + F(j−1)·j − F(k−1) + 2 form). For the
// induction to go through the sum of (log n)^exponent over k > j,
// multiplied by 2^{d(d+1)}, must stay below 2/(log n + 2·log log n).
func (t *FTable) MigrationExponent(j, k int) float64 {
	return math.Pow(2, float64(k-j+1)) + 2 - t.Constant + t.F[j] - t.F[k-1]
}

// Lemma6Holds verifies the paper's Lemma 6 for this table: for every
// j ≥ 2 and k > j+1 (up to dimension d), the migration exponent is at
// most 6 − c, i.e. the k = j+1 term dominates the sum. It returns the
// first violating pair, or (0,0) when the lemma holds.
func (t *FTable) Lemma6Holds(d int) (ok bool, badJ, badK int) {
	limit := 6 - t.Constant
	for j := 2; j <= d; j++ {
		for k := j + 2; k <= d; k++ {
			if t.MigrationExponent(j, k) > limit+1e-9 {
				return false, j, k
			}
		}
	}
	return true, 0, 0
}

// FeasibilityLHS returns the left-hand side of the induction claim for
// level j at size n with logN = log₂ n:
//
//	2^{d(d+1)} · Σ_{k=j+1..d} (log n)^{MigrationExponent(j,k)}
//
// computed in log₂-space to survive the astronomical intermediate
// values, returned as log₂(LHS). Taking logN (not n) keeps the sweep
// meaningful in the asymptotic regime where n itself overflows float64.
func (t *FTable) FeasibilityLHS(logN float64, d, j int) float64 {
	logLogN := math.Log2(math.Max(logN, 2))
	// log2 of each summand: exponent · log2(log n).
	maxTerm := math.Inf(-1)
	var terms []float64
	for k := j + 1; k <= d; k++ {
		lt := t.MigrationExponent(j, k) * logLogN
		terms = append(terms, lt)
		if lt > maxTerm {
			maxTerm = lt
		}
	}
	if len(terms) == 0 {
		return math.Inf(-1)
	}
	// log-sum-exp in base 2.
	sum := 0.0
	for _, lt := range terms {
		sum += math.Exp2(lt - maxTerm)
	}
	logSum := maxTerm + math.Log2(sum)
	return float64(d*(d+1)) + logSum
}

// FeasibilityRHS returns log₂ of the right-hand side
// 2/(log n + 2·log log n), given logN = log₂ n.
func FeasibilityRHS(logN float64) float64 {
	logLogN := math.Log2(math.Max(logN, 2))
	return 1 - math.Log2(logN+2*logLogN)
}

// Feasible reports whether the induction inequality holds for every
// j ∈ [2, d): LHS ≤ RHS (both in log₂-space), given logN = log₂ n.
func (t *FTable) Feasible(logN float64, d int) bool {
	rhs := FeasibilityRHS(logN)
	for j := 2; j < d; j++ {
		if t.FeasibilityLHS(logN, d, j) > rhs {
			return false
		}
	}
	return true
}

// KelsenBreakpoint evaluates the inequality the paper shows fails for
// Kelsen's constant at k = j+1: with the +7 recurrence the k = j+1
// exponent is −1 and the claim reduces to
//
//	2^{d(d+1)} ≤ log n / (log n + 2·log log n) < 1,
//
// which is false for every d ≥ 1. Returns true when the reduced claim
// holds (it never does for d ≥ 1 — the point of the paper's fix).
// logN = log₂ n.
func KelsenBreakpoint(logN float64, d int) bool {
	logLogN := math.Log2(math.Max(logN, 2))
	lhs := float64(d * (d + 1)) // log2 of 2^{d(d+1)}
	rhs := math.Log2(logN / (logN + 2*logLogN))
	return lhs <= rhs
}

// DimensionCondition checks d(d+1) ≤ (log log n)·(d² − 8): the final
// inequality in the proof of Theorem 2, which holds for
// d < log(2)n/(4·log(3)n) (and requires d ≥ 3 for a positive RHS).
// logN = log₂ n.
func DimensionCondition(logN float64, d int) bool {
	logLogN := math.Log2(math.Max(logN, 2))
	return float64(d*(d+1)) <= logLogN*float64(d*d-8)
}

// TheoremDBound returns the paper's dimension cap log(2)n/(4·log(3)n)
// for logN = log₂ n.
func TheoremDBound(logN float64) float64 {
	logLogN := math.Max(math.Log2(math.Max(logN, 2)), 1)
	logLogLogN := math.Max(math.Log2(logLogN), 1)
	return logLogN / (4 * logLogLogN)
}

// FactorialBoundHolds verifies F(i) ≤ d²·(i+2)! for all i ≤ d — the
// inductive step used to conclude q_d ≤ (log n)^{(d+4)!−1}.
func (t *FTable) FactorialBoundHolds(d int) bool {
	dd := t.Constant // for the paper's table c = d²
	for i := 2; i <= d; i++ {
		bound := dd * mathx.Factorial(i+2)
		if !(t.F[i] <= bound || math.IsInf(bound, 1)) {
			return false
		}
	}
	return true
}

// StageBoundLog returns log₂ of the Theorem 2 stage bound
// (log n)^{(d+4)!} — astronomically loose by design; experiments report
// it alongside measured stages.
func StageBoundLog(n float64, d int) float64 {
	return mathx.Factorial(d+4) * math.Log2(mathx.Log2(n))
}

// --- v_i values (computed in log₂-space) ---

// VValuesLog computes log₂ v_i(H) for i = 2..d from the measured
// normalized degrees Δ_i(H) (deltas indexed by i, as returned by
// hypergraph.(*DegreeTable).AllDeltas):
//
//	v_d = Δ_d,   v_i = max(Δ_i, (log n)^{f(i)}·v_{i+1}).
//
// Zero deltas contribute log₂ 0 = −Inf. The returned slice is indexed
// by i with entries below 2 set to −Inf.
func (t *FTable) VValuesLog(n float64, deltas []float64) []float64 {
	d := len(deltas) - 1
	out := make([]float64, d+1)
	for i := range out {
		out[i] = math.Inf(-1)
	}
	logLogN := math.Log2(mathx.Log2(n))
	if d >= 2 {
		out[d] = math.Log2(deltas[d])
	}
	for i := d - 1; i >= 2; i-- {
		cand := t.FVals[i]*logLogN + out[i+1]
		di := math.Log2(deltas[i])
		if di > cand {
			out[i] = di
		} else {
			out[i] = cand
		}
	}
	return out
}

// Section41MinimalF reports the §4.1 lower-bound argument: even with the
// Kim–Vu migration factor (log n)^{2(k−j)}, the feasibility claim forces
// F(j) ≥ F(j−1)·j + 5. Given a candidate F table, it returns the first
// level j at which the table violates that necessary condition (0 if
// none). Tables growing slower than factorially (e.g. polynomial F)
// always violate it — the paper's point that no improvement to the
// concentration bound alone can beat roughly-factorial exponents.
func Section41MinimalF(F []float64) (badJ int) {
	for j := 3; j < len(F); j++ {
		if F[j] < F[j-1]*float64(j)+5 {
			return j
		}
	}
	return 0
}

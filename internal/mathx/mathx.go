// Package mathx collects the small numeric helpers shared by the
// algorithm parameterizations: iterated binary logarithms (the paper's
// log n, log(2) n = log log n, log(3) n = log log log n), guarded for the
// finite n of experiments, and factorials for the (d+4)! stage bounds.
//
// The paper's asymptotic parameters involve quantities like
// log(3) n that are ≤ 0 for small n; every helper clamps so that the
// derived probabilities and dimensions stay in their sensible ranges at
// experimental scales. Logarithms are base 2 throughout, matching the
// convention that makes log(2) 2^16 = 4 exact.
package mathx

import (
	"math"
	"math/bits"
)

// ILog2 returns floor(log₂ n) for n ≥ 1 and 0 for n ≤ 1 — the integer
// logarithm the round-budget and PRAM-depth charges use (a permutation
// of k keys costs ~log₂ k depth).
func ILog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n)) - 1
}

// BitLen returns the number of bits needed to represent n (0 for
// n ≤ 0): BitLen(n) = ILog2(n)+1 for n ≥ 1. Round-count defaults of
// the form c·log₂ n use it so that BitLen(1) = 1 keeps tiny instances
// from degenerating to a zero budget.
func BitLen(n int) int {
	if n <= 0 {
		return 0
	}
	return bits.Len(uint(n))
}

// Log2 returns log₂(x), clamped to a minimum argument of 1 (so the
// result is never negative or NaN for the sizes used here).
func Log2(x float64) float64 {
	if x < 1 {
		x = 1
	}
	return math.Log2(x)
}

// Log2Clamped returns max(lo, log₂ x).
func Log2Clamped(x, lo float64) float64 {
	l := Log2(x)
	if l < lo {
		return lo
	}
	return l
}

// LogLog2 returns log₂ log₂ x, with the inner log clamped to 2 so the
// result is at least 1. (For n ≤ 4 the asymptotic formulas are
// meaningless; the clamp keeps finite-n parameterizations monotone.)
func LogLog2(x float64) float64 {
	return Log2Clamped(Log2Clamped(x, 2), 1)
}

// LogLogLog2 returns log₂ log₂ log₂ x with the same inner clamping, so
// the result is at least 1.
func LogLogLog2(x float64) float64 {
	return Log2Clamped(LogLog2(x), 1)
}

// Factorial returns n! as a float64 (exact up to 22!, then best-effort;
// +Inf beyond float64 range). Used only for the loose (d+4)! exponent
// bounds, where overflow to +Inf is an acceptable answer ("bound is
// astronomically loose").
func Factorial(n int) float64 {
	if n < 0 {
		return math.NaN()
	}
	f := 1.0
	for i := 2; i <= n; i++ {
		f *= float64(i)
		if math.IsInf(f, 1) {
			return f
		}
	}
	return f
}

// PowInt returns x^k for integer k ≥ 0 by binary exponentiation.
func PowInt(x float64, k int) float64 {
	if k < 0 {
		return 1 / PowInt(x, -k)
	}
	r := 1.0
	for k > 0 {
		if k&1 == 1 {
			r *= x
		}
		x *= x
		k >>= 1
	}
	return r
}

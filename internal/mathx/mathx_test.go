package mathx

import (
	"math"
	"testing"
)

func TestILog2(t *testing.T) {
	cases := []struct{ n, want int }{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{1023, 9}, {1024, 10}, {1025, 10}, {1 << 30, 30}, {1<<30 + 1, 30},
	}
	for _, c := range cases {
		if got := ILog2(c.n); got != c.want {
			t.Errorf("ILog2(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestBitLen(t *testing.T) {
	cases := []struct{ n, want int }{
		{-1, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{255, 8}, {256, 9}, {1 << 20, 21},
	}
	for _, c := range cases {
		if got := BitLen(c.n); got != c.want {
			t.Errorf("BitLen(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// Invariant the round budgets rely on: BitLen(n) = ILog2(n)+1 for n ≥ 1.
	for n := 1; n < 10000; n++ {
		if BitLen(n) != ILog2(n)+1 {
			t.Fatalf("BitLen(%d) != ILog2(%d)+1", n, n)
		}
	}
}

func TestLog2(t *testing.T) {
	if Log2(8) != 3 {
		t.Fatalf("Log2(8) = %v", Log2(8))
	}
	if Log2(0.5) != 0 {
		t.Fatal("Log2 below 1 must clamp to 0")
	}
	if Log2(0) != 0 {
		t.Fatal("Log2(0) must clamp")
	}
}

func TestLog2Clamped(t *testing.T) {
	if Log2Clamped(2, 5) != 5 {
		t.Fatal("clamp not applied")
	}
	if Log2Clamped(1024, 5) != 10 {
		t.Fatal("clamp applied when not needed")
	}
}

func TestIteratedLogs(t *testing.T) {
	// n = 2^16: log = 16, loglog = 4, logloglog = 2.
	n := float64(1 << 16)
	if LogLog2(n) != 4 {
		t.Fatalf("LogLog2 = %v", LogLog2(n))
	}
	if LogLogLog2(n) != 2 {
		t.Fatalf("LogLogLog2 = %v", LogLogLog2(n))
	}
	// Tiny n clamps to ≥ 1.
	if LogLog2(2) < 1 || LogLogLog2(2) < 1 {
		t.Fatal("iterated logs must clamp to ≥ 1")
	}
}

func TestFactorial(t *testing.T) {
	cases := map[int]float64{0: 1, 1: 1, 5: 120, 10: 3628800}
	for n, want := range cases {
		if got := Factorial(n); got != want {
			t.Fatalf("%d! = %v", n, got)
		}
	}
	if !math.IsInf(Factorial(200), 1) {
		t.Fatal("200! should overflow to +Inf")
	}
	if !math.IsNaN(Factorial(-1)) {
		t.Fatal("(-1)! should be NaN")
	}
}

func TestPowInt(t *testing.T) {
	if PowInt(2, 10) != 1024 {
		t.Fatalf("2^10 = %v", PowInt(2, 10))
	}
	if PowInt(3, 0) != 1 {
		t.Fatal("x^0 != 1")
	}
	if got := PowInt(2, -2); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("2^-2 = %v", got)
	}
	if got := PowInt(0.5, 3); math.Abs(got-0.125) > 1e-12 {
		t.Fatalf("0.5^3 = %v", got)
	}
}

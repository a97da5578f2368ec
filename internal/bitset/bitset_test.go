package bitset

import (
	"math/bits"
	"math/rand"

	"repro/internal/par"
	"testing"
)

// AndNotCount returns |a \ b|.
func AndNotCount(a, b Set) int {
	c := 0
	for i, w := range a {
		c += bits.OnesCount64(w &^ b[i])
	}
	return c
}

func TestBasicOps(t *testing.T) {
	s := New(200)
	if len(s) != Words(200) || Words(200) != 4 {
		t.Fatalf("Words(200)=%d len=%d", Words(200), len(s))
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if s.Has(i) {
			t.Fatalf("fresh set has bit %d", i)
		}
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("Add(%d) not visible", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count=%d want 8", got)
	}
	s.Del(64)
	if s.Has(64) || s.Count() != 7 {
		t.Fatalf("Del(64): has=%v count=%d", s.Has(64), s.Count())
	}
	s.Reset()
	if s.Any() || s.Count() != 0 {
		t.Fatal("Reset left bits")
	}
}

func TestSetAllTail(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128, 200} {
		s := New(n)
		s.SetAll(n)
		if got := s.Count(); got != n {
			t.Fatalf("SetAll(%d): count %d", n, got)
		}
		for i := 0; i < n; i++ {
			if !s.Has(i) {
				t.Fatalf("SetAll(%d): bit %d clear", n, i)
			}
		}
	}
}

// TestAgainstBools drives the set algebra against a []bool reference
// over random operations.
func TestAgainstBools(t *testing.T) {
	const n = 517 // non-multiple of 64 on purpose
	r := rand.New(rand.NewSource(42))
	a, b := New(n), New(n)
	ra, rb := make([]bool, n), make([]bool, n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			a.Add(i)
			ra[i] = true
		}
		if r.Intn(3) == 0 {
			b.Add(i)
			rb[i] = true
		}
	}
	check := func(name string, s Set, ref []bool) {
		t.Helper()
		cnt := 0
		for i := 0; i < n; i++ {
			if s.Has(i) != ref[i] {
				t.Fatalf("%s: bit %d = %v want %v", name, i, s.Has(i), ref[i])
			}
			if ref[i] {
				cnt++
			}
		}
		if s.Count() != cnt {
			t.Fatalf("%s: count %d want %d", name, s.Count(), cnt)
		}
	}
	andc, andnotc := 0, 0
	for i := 0; i < n; i++ {
		if ra[i] && rb[i] {
			andc++
		}
		if ra[i] && !rb[i] {
			andnotc++
		}
	}
	if got := AndCount(a, b); got != andc {
		t.Fatalf("AndCount=%d want %d", got, andc)
	}
	if got := AndNotCount(a, b); got != andnotc {
		t.Fatalf("AndNotCount=%d want %d", got, andnotc)
	}

	d := New(n)
	d.Copy(a)
	d.AndNot(b)
	refD := make([]bool, n)
	for i := range refD {
		refD[i] = ra[i] && !rb[i]
	}
	check("andnot", d, refD)

	back := make([]bool, n)
	a.WriteBools(back)
	for i := range back {
		if back[i] != ra[i] {
			t.Fatalf("WriteBools bit %d", i)
		}
	}
}

func TestForEachOrder(t *testing.T) {
	s := New(300)
	want := []int{0, 5, 63, 64, 130, 191, 192, 299}
	for _, i := range want {
		s.Add(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach[%d]=%d want %d (ascending order)", i, got[i], want[i])
		}
	}
	// Word-range form sees exactly the bits of its words.
	var mid []int
	s.ForEachInWords(1, 3, func(i int) { mid = append(mid, i) })
	wantMid := []int{64, 130, 191}
	if len(mid) != len(wantMid) {
		t.Fatalf("ForEachInWords got %v want %v", mid, wantMid)
	}
	for i := range wantMid {
		if mid[i] != wantMid[i] {
			t.Fatalf("ForEachInWords got %v want %v", mid, wantMid)
		}
	}
}

func TestGrow(t *testing.T) {
	s := New(64)
	s.Add(3)
	s = s.Grow(1000) // reallocates
	if len(s) != Words(1000) || s.Any() {
		t.Fatalf("Grow(1000): len=%d any=%v", len(s), s.Any())
	}
	s.Add(999)
	s = s.Grow(100) // reslices and zeroes
	if len(s) != Words(100) || s.Any() {
		t.Fatalf("Grow(100): len=%d any=%v", len(s), s.Any())
	}
}

// TestUnionShards drives the parallel-scatter helper against a direct
// union, including pooled reuse where stale shard sets must not leak.
func TestUnionShards(t *testing.T) {
	const n, m = 500, 3000
	item := func(i int) int { return (i * 7) % n } // item i marks vertex (7i mod n)
	for _, shards := range []int{1, 2, 5, 16} {
		var pool []Set
		for call := 0; call < 3; call++ {
			// Shrinking m across calls leaves trailing pooled shards
			// uninvoked — their old bits must not appear in the union.
			mCall := m / (call + 1)
			want := New(n)
			for i := 0; i < mCall; i++ {
				want.Add(item(i))
			}
			got := New(n)
			UnionShards(par.Engine{P: 4}, got, n, mCall, shards, &pool, func(local Set, lo, hi int) {
				for i := lo; i < hi; i++ {
					local.Add(item(i))
				}
			})
			for v := 0; v < n; v++ {
				if got.Has(v) != want.Has(v) {
					t.Fatalf("shards=%d call=%d: bit %d = %v want %v", shards, call, v, got.Has(v), want.Has(v))
				}
			}
		}
	}
}

// TestFusedKernels checks AndNotInto against AndNotCount and the
// word-wise difference, including the dst==a aliasing case AndNotInto
// documents.
func TestFusedKernels(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 63, 64, 65, 500, 4096} {
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if r.Intn(3) != 0 {
				a.Add(i)
			}
			if r.Intn(2) == 0 {
				b.Add(i)
			}
		}
		// AndNotInto with a distinct destination.
		wantDiff := AndNotCount(a, b)
		d := New(n)
		if c := AndNotInto(d, a, b); c != wantDiff {
			t.Fatalf("n=%d: AndNotInto=%d want %d", n, c, wantDiff)
		}
		for i := range d {
			if d[i] != a[i]&^b[i] {
				t.Fatalf("n=%d: AndNotInto word %d wrong", n, i)
			}
		}
		// Aliased in-place form (dst == a).
		inPlace := New(n)
		inPlace.Copy(a)
		if c := AndNotInto(inPlace, inPlace, b); c != wantDiff {
			t.Fatalf("n=%d: aliased AndNotInto=%d want %d", n, c, wantDiff)
		}
		for i := range inPlace {
			if inPlace[i] != d[i] {
				t.Fatalf("n=%d: aliased AndNotInto word %d wrong", n, i)
			}
		}
	}
}

func benchPair(n int) (Set, Set) {
	a, b := New(n), New(n)
	for i := 0; i < n; i += 3 {
		a.Add(i)
	}
	for i := 0; i < n; i += 2 {
		b.Add(i)
	}
	return a, b
}

func BenchmarkCopyAndNotCount1M(b *testing.B) {
	x, y := benchPair(1 << 20)
	dst := New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Copy(x)
		dst.AndNot(y)
		_ = dst.Count()
	}
}

func BenchmarkAndNotInto1M(b *testing.B) {
	x, y := benchPair(1 << 20)
	dst := New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = AndNotInto(dst, x, y)
	}
}

package hypergraph

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNCountSimple(t *testing.T) {
	// Edges {0,1,2}, {0,1,3}, {0,4}: N_1({0,1}) has {2},{3} → 2;
	// N_1({0}) has {4} → 1; N_2({0}) has {1,2},{1,3} → 2.
	h := NewBuilder(5).AddEdge(0, 1, 2).AddEdge(0, 1, 3).AddEdge(0, 4).MustBuild()
	tab := BuildDegreeTable(h)
	if got := tab.NCount(Edge{0, 1}, 1); got != 2 {
		t.Fatalf("N_1({0,1}) = %d, want 2", got)
	}
	if got := tab.NCount(Edge{0}, 1); got != 1 {
		t.Fatalf("N_1({0}) = %d, want 1", got)
	}
	if got := tab.NCount(Edge{0}, 2); got != 2 {
		t.Fatalf("N_2({0}) = %d, want 2", got)
	}
	if got := tab.NCount(Edge{4}, 1); got != 1 {
		t.Fatalf("N_1({4}) = %d, want 1", got)
	}
	if got := tab.NCount(Edge{2, 3}, 1); got != 0 {
		t.Fatalf("N_1({2,3}) = %d, want 0", got)
	}
}

func TestNCountOutOfRangeJ(t *testing.T) {
	h := NewBuilder(3).AddEdge(0, 1).MustBuild()
	tab := BuildDegreeTable(h)
	if tab.NCount(Edge{0}, 0) != 0 || tab.NCount(Edge{0}, 5) != 0 {
		t.Fatal("out-of-range j should give 0")
	}
}

func TestNormDegree(t *testing.T) {
	// 4 edges of size 3 containing {0}: d_2({0}) = 4^{1/2} = 2.
	h := NewBuilder(9).
		AddEdge(0, 1, 2).AddEdge(0, 3, 4).AddEdge(0, 5, 6).AddEdge(0, 7, 8).
		MustBuild()
	tab := BuildDegreeTable(h)
	if got := tab.NormDegree(Edge{0}, 2); math.Abs(got-2) > 1e-12 {
		t.Fatalf("d_2({0}) = %v, want 2", got)
	}
}

func TestDeltaMatchesDirect(t *testing.T) {
	s := rng.New(11)
	for trial := 0; trial < 20; trial++ {
		n := 10 + s.Intn(20)
		m := 5 + s.Intn(25)
		d := 2 + s.Intn(3)
		h := RandomMixed(s, n, m, 2, d+1)
		tab := BuildDegreeTable(h)
		got := tab.Delta()
		want := DeltaDirect(h)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (%v): Delta table %v != direct %v", trial, h, got, want)
		}
	}
}

func TestNCountMatchesDirectProperty(t *testing.T) {
	s := rng.New(13)
	check := func(seed uint16) bool {
		st := s.Child(uint64(seed))
		h := RandomMixed(st, 15, 20, 2, 4)
		tab := BuildDegreeTable(h)
		// For every subset of every edge, table and direct must agree.
		for _, e := range h.Edges() {
			k := len(e)
			for mask := uint32(1); mask < uint32(1)<<uint(k)-1; mask++ {
				var x Edge
				for b := 0; b < k; b++ {
					if mask&(1<<uint(b)) != 0 {
						x = append(x, e[b])
					}
				}
				for j := 1; j <= h.Dim(); j++ {
					if tab.NCount(x, j) != NjDirect(h, x, j) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaIValues(t *testing.T) {
	// Star with hub 0: m edges of size 3 through 0.
	s := rng.New(17)
	h := Star(s, 60, 16, 3)
	tab := BuildDegreeTable(h)
	d3 := tab.DeltaI(3)
	// d_2({0}) = m^{1/2} = 4 dominates Δ_3 (pairs have degree ≤ small).
	if math.Abs(d3-math.Sqrt(float64(h.M()))) > 1e-9 {
		t.Fatalf("Δ_3 = %v, want sqrt(%d)", d3, h.M())
	}
	if tab.DeltaI(1) != 0 || tab.DeltaI(99) != 0 {
		t.Fatal("Δ_i out of range should be 0")
	}
}

func TestAllDeltasConsistent(t *testing.T) {
	s := rng.New(19)
	h := RandomMixed(s, 40, 60, 2, 5)
	tab := BuildDegreeTable(h)
	deltas := tab.AllDeltas()
	for i := 2; i <= h.Dim(); i++ {
		if math.Abs(deltas[i]-tab.DeltaI(i)) > 1e-9 {
			t.Fatalf("AllDeltas[%d]=%v, DeltaI=%v", i, deltas[i], tab.DeltaI(i))
		}
	}
	// Delta() must equal max of AllDeltas.
	best := 0.0
	for _, d := range deltas {
		if d > best {
			best = d
		}
	}
	if math.Abs(best-tab.Delta()) > 1e-9 {
		t.Fatalf("Delta=%v, max(AllDeltas)=%v", tab.Delta(), best)
	}
}

func TestEmptyTable(t *testing.T) {
	h := NewBuilder(5).MustBuild()
	tab := BuildDegreeTable(h)
	if tab.Delta() != 0 {
		t.Fatalf("Delta of edgeless = %v", tab.Delta())
	}
}

func TestHashedKeyCollisionChain(t *testing.T) {
	// The hashed index must never trust the hash alone: distinct subsets
	// forced into the same bucket chain and resolve by vertex-set
	// equality. getOrAdd takes the hash as a parameter precisely so this
	// worst case is testable.
	tab := newDegreeTable(4, 0)
	a, b, c := Edge{0, 7}, Edge{1 << 20}, Edge{0, 7, 9}
	const clash = uint64(0xdeadbeef)
	ia := tab.getOrAdd(clash, a)
	ib := tab.getOrAdd(clash, b)
	ic := tab.getOrAdd(clash, c)
	if ia == ib || ib == ic || ia == ic {
		t.Fatalf("colliding subsets shared an entry: %d %d %d", ia, ib, ic)
	}
	if got := tab.getOrAdd(clash, b); got != ib {
		t.Fatalf("re-lookup of chained subset gave %d, want %d", got, ib)
	}
	for i, want := range []Edge{a, b, c} {
		if !equalEdge(tab.subset(int32(i)), want) {
			t.Fatalf("entry %d stores %v, want %v", i, tab.subset(int32(i)), want)
		}
	}
}

func TestHashEdgeDistinguishesSets(t *testing.T) {
	// Not a collision-freeness claim (collisions are legal and chained),
	// just a smoke test that the hash actually varies with content and
	// is deterministic.
	sets := []Edge{{0}, {1}, {0, 1}, {1, 2}, {0, 1, 2}, {2, 1<<20 + 1}}
	seen := make(map[uint64]Edge)
	for _, x := range sets {
		h := hashEdge(x)
		if h != hashEdge(x) {
			t.Fatalf("hashEdge(%v) not deterministic", x)
		}
		if prev, ok := seen[h]; ok {
			t.Fatalf("surprising collision between %v and %v", prev, x)
		}
		seen[h] = x
	}
}

func BenchmarkBuildDegreeTable(b *testing.B) {
	s := rng.New(1)
	h := RandomUniform(s, 1000, 2000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildDegreeTable(h)
	}
}

// TestBuildDegreeTableShardedMatchesSerial forces the sharded build
// (several workers, per-shard tables merged) and checks it against a
// serial build of the same instance.
func TestBuildDegreeTableShardedMatchesSerial(t *testing.T) {
	s := rng.New(46)
	h := RandomUniform(s, 2000, 3*2048, 4)
	serial := newDegreeTable(h.Dim(), h.M())
	serial.scan(h, 0, h.M())

	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	sharded := BuildDegreeTable(h)

	if sharded.entries() != serial.entries() {
		t.Fatalf("sharded build has %d entries, serial %d", sharded.entries(), serial.entries())
	}
	for id := 0; id < serial.entries(); id++ {
		x := serial.subset(int32(id))
		other := sharded.lookup(x)
		if other < 0 {
			t.Fatalf("subset %v missing from sharded table", x)
		}
		wantRow := serial.row(int32(id))
		gotRow := sharded.row(other)
		for j := range wantRow {
			if gotRow[j] != wantRow[j] {
				t.Fatalf("subset %v level %d: count %d, want %d", x, j, gotRow[j], wantRow[j])
			}
		}
	}
	if got, want := sharded.Delta(), serial.Delta(); got != want {
		t.Fatalf("Delta %v, want %v", got, want)
	}
}

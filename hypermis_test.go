package hypermis

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestSolveQuickstart(t *testing.T) {
	h, err := NewBuilder(6).AddEdge(0, 1, 2).AddEdge(2, 3, 4).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMIS(h, res.MIS); err != nil {
		t.Fatal(err)
	}
	if res.Size == 0 {
		t.Fatal("empty MIS")
	}
}

func TestSolveAllAlgorithmsOnGraph(t *testing.T) {
	h := RandomGraph(3, 200, 500)
	for _, algo := range []Algorithm{AlgAuto, AlgSBL, AlgBL, AlgKUW, AlgLuby, AlgGreedy} {
		res, err := Solve(h, Options{Algorithm: algo, Seed: 5})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if err := VerifyMIS(h, res.MIS); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
	}
}

func TestSolveAllAlgorithmsOnHypergraph(t *testing.T) {
	h := RandomMixed(4, 150, 250, 2, 5)
	for _, algo := range []Algorithm{AlgAuto, AlgSBL, AlgBL, AlgKUW, AlgGreedy} {
		res, err := Solve(h, Options{Algorithm: algo, Seed: 6})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if err := VerifyMIS(h, res.MIS); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
	}
}

func TestSolveLubyRejectsHypergraph(t *testing.T) {
	h := RandomUniform(1, 30, 40, 3)
	if _, err := Solve(h, Options{Algorithm: AlgLuby}); !errors.Is(err, ErrDimension) {
		t.Fatalf("got %v, want ErrDimension", err)
	}
}

func TestSolveAutoSelection(t *testing.T) {
	g := RandomGraph(7, 50, 80)
	res, err := Solve(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgLuby {
		t.Fatalf("auto picked %v for a graph", res.Algorithm)
	}
	h3 := RandomUniform(8, 50, 80, 3)
	res, err = Solve(h3, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgBL {
		t.Fatalf("auto picked %v for d=3", res.Algorithm)
	}
	hBig := RandomMixed(9, 100, 100, 2, 12)
	res, err = Solve(hBig, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgSBL {
		t.Fatalf("auto picked %v for d=12", res.Algorithm)
	}
}

func TestSolveDeterministic(t *testing.T) {
	h := RandomMixed(10, 120, 200, 2, 6)
	a, err := Solve(h, Options{Algorithm: AlgSBL, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(h, Options{Algorithm: AlgSBL, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.MIS {
		if a.MIS[i] != b.MIS[i] {
			t.Fatal("same seed, different MIS")
		}
	}
}

func TestSolveCollectCost(t *testing.T) {
	h := RandomUniform(11, 100, 150, 3)
	res, err := Solve(h, Options{Algorithm: AlgBL, Seed: 1, CollectCost: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth <= 0 || res.Work < res.Depth {
		t.Fatalf("cost: depth=%d work=%d", res.Depth, res.Work)
	}
	// Without CollectCost the fields stay zero.
	res2, err := Solve(h, Options{Algorithm: AlgBL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Depth != 0 || res2.Work != 0 {
		t.Fatal("cost collected without CollectCost")
	}
}

func TestSolveGreedyTail(t *testing.T) {
	h := RandomMixed(12, 200, 250, 2, 10)
	res, err := Solve(h, Options{Algorithm: AlgSBL, Seed: 2, UseGreedyTail: true, Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMIS(h, res.MIS); err != nil {
		t.Fatal(err)
	}
}

func TestParseAlgorithmRoundTrip(t *testing.T) {
	for _, a := range []Algorithm{AlgAuto, AlgSBL, AlgBL, AlgKUW, AlgLuby, AlgGreedy} {
		got, err := ParseAlgorithm(a.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != a {
			t.Fatalf("round trip %v -> %v", a, got)
		}
	}
	if _, err := ParseAlgorithm("nonsense"); err == nil {
		t.Fatal("bad name accepted")
	}
	if a, err := ParseAlgorithm(""); err != nil || a != AlgAuto {
		t.Fatal("empty name should be auto")
	}
}

func TestMaskHelpers(t *testing.T) {
	mask := MaskFromList(5, []V{1, 3})
	if !mask[1] || !mask[3] || mask[0] {
		t.Fatal("MaskFromList broken")
	}
	vs := ListFromMask(mask)
	if len(vs) != 2 || vs[0] != 1 || vs[1] != 3 {
		t.Fatal("ListFromMask broken")
	}
}

func TestGeneratorsViaFacade(t *testing.T) {
	if h := Linear(1, 100, 20, 3); h.M() == 0 {
		t.Fatal("Linear produced nothing")
	}
	if h := Sunflower(2, 50, 2, 3, 5); h.M() != 5 {
		t.Fatal("Sunflower wrong count")
	}
	h := PlantedMIS(3, 60, 100, 3, 20)
	mask := make([]bool, 60)
	for i := 0; i < 20; i++ {
		mask[i] = true
	}
	if !IsIndependent(h, mask) {
		t.Fatal("planted set dependent")
	}
	if h := BlockPartition(4, 100, 10, 3, 3); h.M() == 0 {
		t.Fatal("BlockPartition produced nothing")
	}
}

// Property: Solve with every algorithm yields a verified MIS across
// random small instances.
func TestSolvePropertyAllValid(t *testing.T) {
	check := func(seed uint16, algoPick uint8) bool {
		algos := []Algorithm{AlgSBL, AlgBL, AlgKUW, AlgGreedy}
		algo := algos[int(algoPick)%len(algos)]
		h := RandomMixed(uint64(seed)+500, 40, 60, 2, 4)
		res, err := Solve(h, Options{Algorithm: algo, Seed: uint64(seed)})
		if err != nil {
			return false
		}
		return VerifyMIS(h, res.MIS) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSolvePermBL(t *testing.T) {
	h := RandomMixed(21, 150, 250, 2, 5)
	res, err := Solve(h, Options{Algorithm: AlgPermBL, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMIS(h, res.MIS); err != nil {
		t.Fatal(err)
	}
	if res.Rounds <= 0 {
		t.Fatal("permbl should report its dependency depth")
	}
	// permbl output is exactly greedy on a random order — sizes should
	// be reasonable (nonzero, below n).
	if res.Size == 0 || res.Size >= h.N() {
		t.Fatalf("size = %d", res.Size)
	}
}

func TestMinimalTransversalFacade(t *testing.T) {
	h := RandomMixed(22, 100, 200, 2, 5)
	tr, err := MinimalTransversal(h, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !IsTransversal(h, tr) {
		t.Fatal("not a transversal")
	}
	if err := VerifyMinimalTransversal(h, tr); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdges(t *testing.T) {
	h, err := FromEdges(4, []Edge{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if h.M() != 2 {
		t.Fatalf("m = %d", h.M())
	}
	if _, err := FromEdges(2, []Edge{{}}); err == nil {
		t.Fatal("empty edge accepted")
	}
}

func TestColorByMIS(t *testing.T) {
	h := RandomMixed(33, 200, 400, 2, 5)
	col, err := ColorByMIS(h, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyColoring(h, col); err != nil {
		t.Fatal(err)
	}
	if col.NumColors < 2 {
		t.Fatalf("suspiciously few colors: %d", col.NumColors)
	}
	total := 0
	for _, sz := range col.ClassSizes {
		total += sz
	}
	if total != h.N() {
		t.Fatalf("classes cover %d of %d", total, h.N())
	}
}

func TestColorByMISAllSolvers(t *testing.T) {
	h := RandomUniform(34, 120, 240, 3)
	for _, algo := range []Algorithm{AlgSBL, AlgBL, AlgKUW, AlgGreedy, AlgPermBL} {
		col, err := ColorByMIS(h, Options{Algorithm: algo, Seed: 6, Alpha: 0.3})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if err := VerifyColoring(h, col); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
	}
}

func TestSteinerFacade(t *testing.T) {
	h, err := SteinerTripleSystem(15)
	if err != nil {
		t.Fatal(err)
	}
	if h.M() != 35 { // 15·14/6
		t.Fatalf("STS(15) has %d triples, want 35", h.M())
	}
	res, err := Solve(h, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMIS(h, res.MIS); err != nil {
		t.Fatal(err)
	}
	if _, err := SteinerTripleSystem(10); err == nil {
		t.Fatal("STS(10) should be rejected")
	}
}

// TestWarmKUWSolveZeroAllocLoopState pins that a warm KUW solve keeps
// its round loop's state on the stack: on the SolveKUW_n1000 instance
// with a reused Workspace, a solve allocates at most 6 times. When the
// sharded passes' closures captured the residual and the candidate list
// themselves, both moved to the heap and a solve allocated 7 times.
func TestWarmKUWSolveZeroAllocLoopState(t *testing.T) {
	h := RandomMixed(3, 1000, 2000, 2, 12)
	opts := Options{Algorithm: AlgKUW, Seed: 1, Parallelism: 1, Workspace: NewWorkspace()}
	solve := func() {
		if _, err := Solve(h, opts); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	if allocs := testing.AllocsPerRun(10, solve); allocs > 6 {
		t.Fatalf("warm KUW solve made %v allocations, want at most 6", allocs)
	}
}

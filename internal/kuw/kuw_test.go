package kuw

import (
	"errors"
	"testing"

	"repro/internal/bitset"
	"repro/internal/hypergraph"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/solver"
)

func run(t *testing.T, h *hypergraph.Hypergraph, seed uint64) *Result {
	t.Helper()
	res, err := Run(h, nil, rng.New(seed), nil, Options{})
	if err != nil {
		t.Fatalf("KUW failed: %v", err)
	}
	return res
}

func TestKUWTriangle(t *testing.T) {
	h := hypergraph.NewBuilder(3).AddEdge(0, 1, 2).MustBuild()
	res := run(t, h, 1)
	if err := hypergraph.VerifyMIS(h, res.InIS); err != nil {
		t.Fatal(err)
	}
	size := 0
	for _, in := range res.InIS {
		if in {
			size++
		}
	}
	if size != 2 {
		t.Fatalf("triangle MIS size %d, want 2", size)
	}
}

func TestKUWEdgeless(t *testing.T) {
	h := hypergraph.NewBuilder(8).MustBuild()
	res := run(t, h, 2)
	for v, in := range res.InIS {
		if !in {
			t.Fatalf("vertex %d missing from MIS of edgeless hypergraph", v)
		}
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}

func TestKUWSingleton(t *testing.T) {
	h := hypergraph.NewBuilder(3).AddEdge(1).MustBuild()
	res := run(t, h, 3)
	if res.InIS[1] {
		t.Fatal("singleton-edge vertex joined")
	}
	if err := hypergraph.VerifyMIS(h, res.InIS); err != nil {
		t.Fatal(err)
	}
}

func TestKUWAlwaysMIS(t *testing.T) {
	s := rng.New(4)
	for trial := 0; trial < 40; trial++ {
		n := 10 + s.Intn(60)
		h := hypergraph.RandomMixed(s, n, 1+s.Intn(100), 2, 5)
		res := run(t, h, uint64(trial))
		if err := hypergraph.VerifyMIS(h, res.InIS); err != nil {
			t.Fatalf("trial %d (%v): %v", trial, h, err)
		}
	}
}

func TestKUWBlueRedPartition(t *testing.T) {
	s := rng.New(5)
	h := hypergraph.RandomUniform(s, 50, 80, 3)
	res := run(t, h, 6)
	for v := 0; v < 50; v++ {
		if res.InIS[v] && res.Red[v] {
			t.Fatalf("vertex %d both blue and red", v)
		}
		if !res.InIS[v] && !res.Red[v] {
			t.Fatalf("vertex %d undecided at termination", v)
		}
	}
}

func TestKUWActiveSubset(t *testing.T) {
	s := rng.New(6)
	full := hypergraph.RandomUniform(s, 40, 60, 3)
	active := make([]bool, 40)
	for v := 0; v < 20; v++ {
		active[v] = true
	}
	sub := hypergraph.Induced(full, func(v hypergraph.V) bool { return active[v] })
	res, err := Run(sub, active, rng.New(7), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 20; v < 40; v++ {
		if res.InIS[v] || res.Red[v] {
			t.Fatalf("inactive vertex %d decided", v)
		}
	}
	if !hypergraph.IsIndependent(sub, res.InIS) {
		t.Fatal("not independent")
	}
}

func TestKUWRejectsForeignEdge(t *testing.T) {
	h := hypergraph.NewBuilder(3).AddEdge(0, 2).MustBuild()
	active := []bool{true, true, false}
	if _, err := Run(h, active, rng.New(1), nil, Options{}); err == nil {
		t.Fatal("edge with inactive vertex accepted")
	}
}

func TestKUWDeterministic(t *testing.T) {
	s := rng.New(8)
	h := hypergraph.RandomMixed(s, 60, 90, 2, 4)
	a := run(t, h, 55)
	b := run(t, h, 55)
	for v := range a.InIS {
		if a.InIS[v] != b.InIS[v] {
			t.Fatal("same seed, different output")
		}
	}
}

func TestKUWRoundLimit(t *testing.T) {
	s := rng.New(9)
	h := hypergraph.RandomUniform(s, 60, 100, 3)
	_, err := Run(h, nil, rng.New(2), nil, Options{MaxRounds: 1})
	if err == nil {
		t.Skip("finished in one round (rare)")
	}
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("wrong error: %v", err)
	}
}

func TestKUWStats(t *testing.T) {
	s := rng.New(10)
	h := hypergraph.RandomUniform(s, 60, 100, 3)
	res, err := Run(h, nil, rng.New(3), nil, Options{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != res.Rounds {
		t.Fatalf("stats %d != rounds %d", len(res.Stats), res.Rounds)
	}
	decided := 0
	for _, st := range res.Stats {
		if st.Accepted+st.Discarded+st.Filtered == 0 {
			t.Fatalf("round %d decided nothing", st.Round)
		}
		decided += st.Accepted + st.Discarded + st.Filtered
	}
	if decided != 60 {
		t.Fatalf("decided %d of 60 vertices", decided)
	}
}

func TestKUWProgressEachRound(t *testing.T) {
	// MaxRounds = n always suffices: every round decides ≥ 1 vertex.
	s := rng.New(11)
	for trial := 0; trial < 10; trial++ {
		h := hypergraph.RandomMixed(s, 40, 80, 2, 5)
		if _, err := Run(h, nil, rng.New(uint64(trial)), nil, Options{MaxRounds: 41}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestKUWCost(t *testing.T) {
	s := rng.New(12)
	h := hypergraph.RandomUniform(s, 50, 70, 3)
	var cost par.Cost
	if _, err := Run(h, nil, rng.New(4), &cost, Options{}); err != nil {
		t.Fatal(err)
	}
	if cost.Work() == 0 || cost.Depth() == 0 || cost.Work() < cost.Depth() {
		t.Fatalf("bad cost: work=%d depth=%d", cost.Work(), cost.Depth())
	}
}

func TestKUWCompleteHypergraph(t *testing.T) {
	h := hypergraph.Complete(10, 10, 4)
	res := run(t, h, 13)
	if err := hypergraph.VerifyMIS(h, res.InIS); err != nil {
		t.Fatal(err)
	}
	size := 0
	for _, in := range res.InIS {
		if in {
			size++
		}
	}
	if size != 3 {
		t.Fatalf("MIS of complete 4-uniform K10 has size %d, want 3", size)
	}
}

func BenchmarkKUW(b *testing.B) {
	s := rng.New(1)
	h := hypergraph.RandomMixed(s, 2000, 4000, 2, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(h, nil, rng.New(uint64(i)), nil, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFilterWarmWorkspaceZeroAlloc pins a KUW round's filter phase on
// a warm workspace: on a residual multiset with singleton edges, some
// repeated, it blocks each singleton's vertex once, drops every edge
// touching red, and allocates nothing.
func TestFilterWarmWorkspaceZeroAlloc(t *testing.T) {
	h := hypergraph.RandomMixed(rng.New(9), 400, 800, 2, 4)
	n := h.N()
	// One round that shrinks by a blue set leaves singletons, repeated
	// where two edges shrink onto the same vertex.
	red0, blue0 := bitset.New(n), bitset.New(n)
	for v := 0; v < n; v += 3 {
		blue0.Add(v)
	}
	r, _ := hypergraph.NextResidual(h.Residual(), red0, blue0, &hypergraph.RoundScratch{}, nil)
	live0 := bitset.New(n)
	live0.SetAll(n)
	live0.AndNot(blue0)
	singles := map[hypergraph.V]int{}
	for i := range r.M() {
		if e := r.Edge(i); len(e) == 1 {
			singles[e[0]]++
		}
	}
	repeated := 0
	for _, k := range singles {
		if k > 1 {
			repeated++
		}
	}
	if len(singles) == 0 || repeated == 0 {
		t.Fatalf("residual has %d singleton vertices, %d repeated", len(singles), repeated)
	}

	scr := &hypergraph.RoundScratch{Eng: par.Engine{P: 1}}
	live, red := bitset.New(n), bitset.New(n)
	redMask := make([]bool, n)
	var out *hypergraph.Residual
	var blocked int
	filterOnce := func() {
		copy(live, live0)
		red.Reset()
		clear(redMask)
		out, blocked = filter(r, live, red, blue0, redMask, scr)
	}
	filterOnce()
	if blocked != len(singles) || red.Count() != len(singles) {
		t.Fatalf("blocked %d, red %d, want %d", blocked, red.Count(), len(singles))
	}
	for i := range out.M() {
		for _, v := range out.Edge(i) {
			if red.Has(int(v)) || !live.Has(int(v)) {
				t.Fatalf("filtered edge %v keeps red or decided vertex %d", out.Edge(i), v)
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, filterOnce); allocs != 0 {
		t.Fatalf("warm filter phase allocated %v times, want 0", allocs)
	}
}

// TestWarmSolveZeroAllocPerRound pins that a warm KUW round allocates
// nothing: with a warm workspace, a solve that runs several times as
// many rounds as another on the same vertex count allocates exactly as
// often, at degree 1 and 4. What a solve does allocate (its Result and
// masks) is per solve, not per round.
func TestWarmSolveZeroAllocPerRound(t *testing.T) {
	const n = 1000
	few := hypergraph.RandomMixed(rng.New(12), n, 10, 2, 3)
	many := hypergraph.RandomMixed(rng.New(12), n, 5000, 2, 3)
	for _, p := range []int{1, 4} {
		ws := solver.NewWorkspace()
		opts := Options{Par: par.Engine{P: p}, Ws: ws}
		solve := func(h *hypergraph.Hypergraph) (allocs float64, rounds int) {
			once := func() {
				res, err := Run(h, nil, rng.New(3), nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				rounds = res.Rounds
			}
			once()
			return testing.AllocsPerRun(10, once), rounds
		}
		solve(many) // size the workspace for the larger instance
		aFew, rFew := solve(few)
		aMany, rMany := solve(many)
		if rMany < 3*rFew {
			t.Fatalf("P=%d: %d rounds against %d, want at least three times as many", p, rMany, rFew)
		}
		if aMany != aFew {
			t.Fatalf("P=%d: %v allocations in %d rounds, %v in %d: a warm round allocates", p, aMany, rMany, aFew, rFew)
		}
		t.Logf("P=%d: %v allocations per solve in %d and in %d rounds", p, aFew, rFew, rMany)
	}
}

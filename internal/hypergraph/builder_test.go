package hypergraph

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
)

// naiveCanon canonicalizes an edge list the slow, obvious way: copy
// each edge, sort it, drop repeated vertices, then sort and dedupe the
// list. Build must produce exactly this.
func naiveCanon(n int, edges []Edge) *Hypergraph {
	canon := make([]Edge, len(edges))
	for i, e := range edges {
		c := append(Edge(nil), e...)
		sort.Slice(c, func(a, b int) bool { return c[a] < c[b] })
		canon[i] = slices.Compact(c)
	}
	return packCanon(n, dedupEdges(canon))
}

// dedupEdges sorts edges lexicographically and removes exact duplicates.
func dedupEdges(edges []Edge) []Edge {
	slices.SortFunc(edges, func(a, b Edge) int { return slices.Compare(a, b) })
	return slices.CompactFunc(edges, equalEdge)
}

// packCanon copies an already-canonical edge list (each edge sorted and
// strictly increasing, list lex-sorted and deduplicated) into a fresh
// CSR arena. The input edges are only read.
func packCanon(n int, canon []Edge) *Hypergraph {
	total, dim := 0, 0
	for _, e := range canon {
		total += len(e)
		if len(e) > dim {
			dim = len(e)
		}
	}
	verts := make([]V, total)
	off := make([]int32, len(canon)+1)
	pos := 0
	for i, e := range canon {
		off[i] = int32(pos)
		copy(verts[pos:], e)
		pos += len(e)
	}
	off[len(canon)] = int32(total)
	return &Hypergraph{csr{n: n, dim: dim, verts: verts, off: off}}
}

func sameHypergraph(a, b *Hypergraph) bool {
	return a.n == b.n && a.dim == b.dim && slices.Equal(a.verts, b.verts) &&
		slices.Equal(a.off, b.off)
}

// TestBuilderMatchesNaiveCanon builds random edge lists, both whole and
// a vertex at a time, and compares Build with naiveCanon. The lists mix
// sorted and unsorted edges, repeated vertices, duplicate edges, edges
// past insertion sort's 32, and edges long enough that their repeats
// are compacted before they end.
func TestBuilderMatchesNaiveCanon(t *testing.T) {
	s := rng.New(11)
	for trial := 0; trial < 200; trial++ {
		st := s.Child(uint64(trial))
		n := 1 + st.Intn(60)
		var edges []Edge
		for i := st.Intn(40); i >= 0; i-- {
			var e Edge
			switch st.Intn(10) {
			case 0: // long, with many repeats
				e = make(Edge, 3*minCompact+st.Intn(minCompact))
			case 1, 2: // past insertion sort
				e = make(Edge, 33+st.Intn(40))
			default:
				e = make(Edge, 1+st.Intn(6))
			}
			for j := range e {
				e[j] = V(st.Intn(n))
			}
			if st.Intn(2) == 0 {
				slices.Sort(e)
				e = slices.Compact(e)
			}
			edges = append(edges, e)
			if st.Intn(4) == 0 { // a duplicate edge, possibly reordered
				d := slices.Clone(e)
				slices.Reverse(d)
				edges = append(edges, d)
			}
		}
		if st.Intn(3) == 0 {
			sort.Slice(edges, func(a, b int) bool { return lessEdge(edges[a], edges[b]) })
		}
		want := naiveCanon(n, edges)

		whole := NewBuilder(n)
		pushed := NewBuilder(n)
		for _, e := range edges {
			whole.AddEdgeSlice(e)
			for _, v := range e {
				pushed.Push(v)
			}
			pushed.EndEdge()
		}
		for name, b := range map[string]*Builder{"AddEdgeSlice": whole, "Push": pushed} {
			got, err := b.Build()
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if !sameHypergraph(got, want) {
				t.Fatalf("trial %d %s: Build gives %v, want %v", trial, name, edgeList(got), edgeList(want))
			}
		}
	}
}

// TestBuilderCompactsOpenEdge: an open edge that repeats a few
// vertices stays near their number in the arena, however long it
// grows.
func TestBuilderCompactsOpenEdge(t *testing.T) {
	b := NewBuilder(7)
	for i := 0; i < 1_000_000; i++ {
		b.Push(V(i % 7))
	}
	if c := cap(b.verts); c > 4*minCompact {
		t.Fatalf("arena capacity %d after a million pushes of 7 ids", c)
	}
	b.EndEdge()
	h := b.MustBuild()
	if h.M() != 1 || !h.HasEdge(0, 1, 2, 3, 4, 5, 6) {
		t.Fatalf("built %v", edgeList(h))
	}
}

// TestBuilderKeepsCanonicalArena: a canonical edge list passes to the
// Hypergraph without a copy; Build allocates only the Hypergraph
// itself.
func TestBuilderKeepsCanonicalArena(t *testing.T) {
	src := RandomMixed(rng.New(12), 500, 800, 2, 9)
	const runs = 20
	builders := make([]*Builder, runs+1) // AllocsPerRun adds a warm-up run
	for i := range builders {
		builders[i] = NewBuilder(src.N())
		for _, e := range src.Edges() {
			builders[i].AddEdgeSlice(e)
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		b := builders[next]
		next++
		h := b.MustBuild()
		if &h.verts[0] != &b.verts[0] {
			t.Fatal("canonical arena copied")
		}
	})
	if allocs > 1 {
		t.Fatalf("Build of a canonical edge list made %v allocations, want 1", allocs)
	}
}

// TestBuilderAfterBuild: edges added after Build land past the part of
// the arena the built Hypergraph reads, so it is unchanged, and a
// second Build sees every edge.
func TestBuilderAfterBuild(t *testing.T) {
	b := NewBuilder(6).AddEdge(0, 1).AddEdge(2, 3)
	h1 := b.MustBuild()
	b.AddEdge(4, 5).AddEdge(1, 0)
	h2 := b.MustBuild()
	if h1.M() != 2 || h1.ArenaLen() != 4 || !h1.HasEdge(0, 1) || !h1.HasEdge(2, 3) {
		t.Fatalf("first build changed: %v", edgeList(h1))
	}
	if h2.M() != 3 || !h2.HasEdge(4, 5) {
		t.Fatalf("second build: %v", edgeList(h2))
	}
}

// TestBuilderCopiesEdges: AddEdgeSlice copies, so the caller may reuse
// its slice.
func TestBuilderCopiesEdges(t *testing.T) {
	e := Edge{0, 1}
	b := NewBuilder(4).AddEdgeSlice(e)
	e[0], e[1] = 2, 3
	b.AddEdgeSlice(e)
	h := b.MustBuild()
	if h.M() != 2 || !h.HasEdge(0, 1) || !h.HasEdge(2, 3) {
		t.Fatalf("built %v", edgeList(h))
	}
}

// TestBuilderErrorOrder: Build reports the first bad edge, naming its
// smallest bad vertex, and refuses an edge that was never ended.
// TestBuilderRejectsEmptyEdge and TestBuilderRejectsOutOfRange cover
// each kind of bad edge alone.
func TestBuilderErrorOrder(t *testing.T) {
	_, err := NewBuilder(3).AddEdge(0, 1).AddEdge(9, 4, 0).AddEdge().Build()
	if err == nil || err.Error() != "hypergraph: vertex 4 out of range [0,3)" {
		t.Errorf("Build error %v, want the first bad edge's smallest bad vertex, 4", err)
	}
	b := NewBuilder(3)
	b.Push(1)
	if _, err := b.Build(); err == nil {
		t.Error("Build with an open edge accepted")
	}
}

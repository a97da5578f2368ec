// Package hypergraph implements the hypergraph representation shared by
// every algorithm in this repository, together with the structural
// quantities Kelsen's analysis of the Beame–Luby algorithm is phrased in
// (the neighbourhood counts N_j(x,H), normalized degrees d_j(x,H) and
// maximum normalized degrees Δ_i(H), Δ(H)), the trimming operations the
// SBL and BL loops perform each round, random instance generators, and
// verification of independence and maximality.
//
// Terminology follows the paper: a hypergraph H = (V, E) has n vertices
// and m edges, each edge being a subset of V; the dimension is the
// maximum edge size. A vertex set is independent if it contains no edge,
// and a maximal independent set (MIS) is an independent set contained in
// no larger one.
//
// # Representation
//
// A Hypergraph stores its edges in flat CSR (compressed sparse row)
// form: one contiguous vertex arena and an offsets array, and serves
// each public Edge value as a subslice of the arena, read through the
// offsets (Edge(i), or the Edges iterator):
//
//	verts []V      one arena holding every edge's vertices back to back
//	off   []int32  len M()+1; edge i is verts[off[i]:off[i+1]]
//
// Edges are kept in canonical order (lexicographically sorted,
// deduplicated, each edge internally sorted and strictly increasing),
// so edge i < edge i+1 under lessEdge and binary search over the edge
// list is valid. A Hypergraph always keeps that promise.
//
// A Residual is the same CSR arena without the promise: an edge
// multiset, each edge still sorted and strictly increasing, but the
// edges in no order and possibly repeated. It is the residual instance
// SBL's and KUW's round loops carry, because their rounds never need
// the order; a Hypergraph is its embedded Residual plus the promise,
// Hypergraph.Residual views one as such, and InduceIntoBits turns the
// part BL reads back into a canonical Hypergraph (see round.go).
//
// Ownership rules: a Hypergraph and every Edge it serves are immutable
// after construction — callers must never write through the served
// slices, and the package never does. The pure
// transformations in ops.go always copy surviving vertices into a
// fresh arena, so their results share no storage with their inputs.
// The scratch-based round pipeline in round.go is the one exception:
// it recycles caller-owned arenas (see RoundScratch for its aliasing
// contract).
package hypergraph

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
)

// V is a vertex identifier: an index in [0, N).
type V = int32

// Edge is a set of vertices stored as a strictly increasing slice.
type Edge []V

// Hypergraph is an immutable hypergraph on the vertex set {0, …, N-1}.
// Edges are deduplicated, sorted subslices of one flat CSR vertex arena
// (see the package comment for the layout). Construct via Builder or
// the generator functions; algorithms never mutate a Hypergraph in
// place.
type Hypergraph struct {
	csr // n, dim and the CSR arena, in canonical order; Residual views it
}

// Residual is an edge multiset in CSR form, the residual instance the
// SBL and KUW round loops carry: each edge is sorted and strictly
// increasing, but the edges are in no order and may repeat. Only the
// round pipeline produces one (see NextResidual); a Hypergraph's
// canonical edge list is a valid multiset, so Hypergraph.Residual views
// one without a copy.
type Residual struct {
	n     int
	dim   int
	verts []V     // CSR arena: all edges' vertices, back to back
	off   []int32 // len M()+1; edge i is verts[off[i]:off[i+1]]
}

// csr names the Residual a Hypergraph embeds, keeping the field
// unexported.
type csr = Residual

// Residual returns h's edges as a Residual, sharing h's arena.
func (h *Hypergraph) Residual() *Residual { return &h.csr }

// N returns the number of vertices.
func (r *Residual) N() int { return r.n }

// M returns the number of edges, counting repeats (a Hypergraph has
// none).
func (r *Residual) M() int { return max(len(r.off)-1, 0) }

// Dim returns the dimension (maximum edge size); 0 if there are no edges.
func (r *Residual) Dim() int { return r.dim }

// ArenaLen returns the total number of vertex slots over all edges (the
// CSR arena length) — the cost of one full edge-list pass, which the
// solvers use to decide whether a pass is worth sharding.
func (r *Residual) ArenaLen() int { return len(r.verts) }

// Edge returns edge i. Callers must not mutate it.
func (r *Residual) Edge(i int) Edge { return r.verts[r.off[i]:r.off[i+1]:r.off[i+1]] }

// pack copies the edges of r that idx lists, in that order, into a
// fresh CSR arena of exactly their size. The listed edges must already
// be in canonical order and distinct; r is only read.
func pack(r *Residual, idx []int32) *Hypergraph {
	total, dim := 0, 0
	for _, i := range idx {
		k := int(r.off[i+1] - r.off[i])
		total += k
		dim = max(dim, k)
	}
	verts := make([]V, total)
	off := make([]int32, len(idx)+1)
	w := 0
	for j, i := range idx {
		w += copy(verts[w:], r.Edge(int(i)))
		off[j+1] = int32(w)
	}
	return &Hypergraph{csr{n: r.n, dim: dim, verts: verts, off: off}}
}

// NewBuilder returns a builder for a hypergraph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("hypergraph: negative vertex count")
	}
	return &Builder{n: n, compactAt: minCompact}
}

// Builder accumulates edges straight into one CSR arena, the layout the
// built Hypergraph keeps, and produces a canonical Hypergraph:
//
//   - Each edge is canonicalized in place when it ends. It is sorted and
//     its repeated vertices dropped only if it is not already strictly
//     increasing.
//   - Each ending edge is compared with the one before it. Build sorts
//     and deduplicates the edge list only if some edge was not greater
//     than its predecessor. Input that is already canonical, such as
//     hgio's WriteBinary and WriteText output, is never sorted, and its
//     arena passes to the Hypergraph without a copy.
//
// Edges are added whole (AddEdge, AddEdgeSlice) or one vertex at a time
// (Push, then EndEdge), which is how the hgio readers decode into the
// arena without building an Edge per edge. An empty edge or a vertex
// outside [0, n) makes Build fail: an empty edge makes every set
// dependent and no MIS exists.
type Builder struct {
	n     int
	verts []V     // the ended edges back to back, then the open edge
	off   []int32 // empty, or 0 and then the end of each ended edge
	open  int     // where the open edge starts in verts
	dim   int
	// unsorted records that some edge ended no greater than the one
	// before it, so Build must sort the edge list.
	unsorted bool
	// compactAt is the open-edge length at which a full arena
	// canonicalizes the open edge before it grows.
	compactAt int
	err       error // the first bad edge's
}

const (
	// minCompact is the open-edge length below which the open edge is
	// only canonicalized when it ends.
	minCompact = 1 << 10
	// minArena is the smallest capacity grow allocates.
	minArena = 64
)

// AddEdge appends an edge given as a vertex list; see AddEdgeSlice.
func (b *Builder) AddEdge(vs ...V) *Builder {
	return b.AddEdgeSlice(vs)
}

// AddEdgeSlice copies e's vertices into the open edge and ends it. The
// caller keeps e. Vertices out of range cause Build to fail.
func (b *Builder) AddEdgeSlice(e Edge) *Builder {
	b.makeRoom(len(e))
	b.verts = append(b.verts, e...)
	b.EndEdge()
	return b
}

// Push appends v to the open edge; EndEdge ends it.
func (b *Builder) Push(v V) {
	if len(b.verts) == cap(b.verts) {
		b.makeRoom(1)
	}
	b.verts = append(b.verts, v)
}

// Grow reserves arena room for edges more edges holding verts more
// vertices in total, so a caller that knows the size up front fills the
// arena without reallocating it.
func (b *Builder) Grow(edges, verts int) {
	b.verts = grow(b.verts, verts)
	b.off = grow(b.off, edges+1)
}

// makeRoom makes room for k more vertices. When the open edge has
// doubled since it was last canonicalized, it is canonicalized first,
// which bounds an edge that repeats its vertices by twice its distinct
// ones; then the arena grows if the room is still short.
func (b *Builder) makeRoom(k int) {
	if cap(b.verts)-len(b.verts) >= k {
		return
	}
	if len(b.verts)-b.open >= b.compactAt {
		b.verts = b.verts[:b.open+len(canonEdge(b.verts[b.open:]))]
		b.compactAt = max(2*(len(b.verts)-b.open), minCompact)
	}
	b.verts = grow(b.verts, k)
}

// grow returns s with room for k more elements. When it must reallocate
// it at least doubles the capacity, so an array filled an element at a
// time allocates about twice its final size in total; append's 1.25×
// growth of large slices allocates about five times.
func grow[T any](s []T, k int) []T {
	if cap(s)-len(s) >= k {
		return s
	}
	t := make([]T, len(s), max(2*cap(s), len(s)+k, minArena))
	copy(t, s)
	return t
}

// EndEdge ends the open edge: it canonicalizes the edge in place and
// checks it. A bad edge is dropped, and Build then fails with its
// error.
func (b *Builder) EndEdge() {
	e := canonEdge(b.verts[b.open:])
	b.verts = b.verts[:b.open+len(e)]
	b.compactAt = minCompact
	if err := b.check(e); err != nil {
		if b.err == nil {
			b.err = err
		}
		b.verts = b.verts[:b.open]
		return
	}
	if len(b.off) == 0 {
		b.off = append(grow(b.off, 2), 0)
	}
	b.off = grow(b.off, 1)
	if m := len(b.off) - 1; m > 0 && !b.unsorted && slices.Compare(b.verts[b.off[m-1]:b.open], e) >= 0 {
		b.unsorted = true
	}
	b.off = append(b.off, int32(len(b.verts)))
	b.open = len(b.verts)
	b.dim = max(b.dim, len(e))
}

// check validates a canonical edge ending at the arena's end.
func (b *Builder) check(e Edge) error {
	switch {
	case len(e) == 0:
		return fmt.Errorf("hypergraph: empty edge (no independent set can exist)")
	case e[0] < 0:
		return fmt.Errorf("hypergraph: vertex %d out of range [0,%d)", e[0], b.n)
	case int(e[len(e)-1]) >= b.n:
		i := slices.IndexFunc(e, func(v V) bool { return int(v) >= b.n })
		return fmt.Errorf("hypergraph: vertex %d out of range [0,%d)", e[i], b.n)
	case len(b.verts) > math.MaxInt32:
		return fmt.Errorf("hypergraph: more than %d vertex slots over all edges", math.MaxInt32)
	}
	return nil
}

// canonEdge canonicalizes e in place and returns its canonical prefix:
// only if e is not already strictly increasing, it is sorted and its
// repeated vertices are dropped.
func canonEdge(e Edge) Edge {
	i := 1
	for i < len(e) && e[i-1] < e[i] {
		i++
	}
	if i >= len(e) {
		return e
	}
	sortEdge(e)
	return slices.Compact(e)
}

// Build returns the canonical hypergraph. Unless the edge list must be
// sorted, the arena passes to it without a copy; otherwise canonicalize
// sorts an index over the edges and packs every distinct edge once
// into fresh arrays of exactly their size. The Builder may go on adding
// edges: they land past the arena's part the Hypergraph reads.
func (b *Builder) Build() (*Hypergraph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.verts) > b.open {
		return nil, fmt.Errorf("hypergraph: Build with an open edge (Push without EndEdge)")
	}
	verts, off := b.verts, b.off
	if len(off) == 0 {
		off = []int32{0}
	}
	if b.unsorted {
		idx := make([]int32, len(off)-1)
		for i := range idx {
			idx[i] = int32(i)
		}
		verts, off = canonicalize(verts, off, nil, idx, idx, nil, nil)
	}
	return &Hypergraph{csr{n: b.n, dim: b.dim, verts: verts, off: off}}, nil
}

// sortEdge sorts a vertex slice ascending. Small edges (the common
// case: dimension is polylogarithmic) use insertion sort.
func sortEdge(e Edge) {
	if len(e) <= 32 {
		for i := 1; i < len(e); i++ {
			v := e[i]
			j := i - 1
			for j >= 0 && e[j] > v {
				e[j+1] = e[j]
				j--
			}
			e[j+1] = v
		}
		return
	}
	slices.Sort(e)
}

// MustBuild is Build that panics on error; for tests and generators
// whose construction cannot fail.
func (b *Builder) MustBuild() *Hypergraph {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}

func lessEdge(a, b Edge) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func equalEdge(a, b Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FromEdges builds a hypergraph from an edge list, canonicalized as
// Builder does. The edges are copied; the caller keeps them.
func FromEdges(n int, edges []Edge) (*Hypergraph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdgeSlice(e)
	}
	return b.Build()
}

// Edges returns an iterator over the edges in canonical order, yielding
// each edge's index and the edge as Edge serves it. Callers must not
// mutate the edges.
func (h *Hypergraph) Edges() iter.Seq2[int, Edge] {
	return func(yield func(int, Edge) bool) {
		for i := range h.M() {
			if !yield(i, h.Edge(i)) {
				return
			}
		}
	}
}

// HasEdge reports whether the exact edge (as a vertex set) is present.
// The canonical edge list is lex-sorted, so this is a binary search:
// O(d·log m) rather than a scan of every edge.
func (h *Hypergraph) HasEdge(vs ...V) bool {
	e := append(Edge(nil), vs...)
	sortEdge(e)
	i := sort.Search(h.M(), func(i int) bool { return !lessEdge(h.Edge(i), e) })
	return i < h.M() && equalEdge(h.Edge(i), e)
}

// Incidence returns, for each vertex, the indices of edges containing
// it. The per-vertex rows are subslices of one flat backing array (CSR
// over vertices), so the whole structure costs three allocations.
func (h *Hypergraph) Incidence() [][]int32 {
	inc := make([][]int32, h.n)
	deg := make([]int32, h.n+1)
	for _, v := range h.verts {
		deg[v+1]++
	}
	for v := 1; v <= h.n; v++ {
		deg[v] += deg[v-1]
	}
	flat := make([]int32, len(h.verts))
	for i, e := range h.Edges() {
		for _, v := range e {
			flat[deg[v]] = int32(i)
			deg[v]++
		}
	}
	start := int32(0)
	for v := 0; v < h.n; v++ {
		inc[v] = flat[start:deg[v]:deg[v]]
		start = deg[v]
	}
	return inc
}

// VertexDegrees returns the number of edges containing each vertex.
func (h *Hypergraph) VertexDegrees() []int {
	deg := make([]int, h.n)
	for _, e := range h.Edges() {
		for _, v := range e {
			deg[v]++
		}
	}
	return deg
}

// DegreeSummary returns the largest vertex degree and the number of
// vertices in no edge. It counts runs in a sorted copy of the arena, so
// it allocates in proportion to the edges, never to n; VertexDegrees
// is the per-vertex reference.
func (h *Hypergraph) DegreeSummary() (maxDeg, isolated int) {
	vs := slices.Clone(h.verts)
	slices.Sort(vs)
	distinct := 0
	for i := 0; i < len(vs); {
		j := i + 1
		for j < len(vs) && vs[j] == vs[i] {
			j++
		}
		maxDeg = max(maxDeg, j-i)
		distinct++
		i = j
	}
	return maxDeg, h.n - distinct
}

// DimHistogram returns counts of edges by size, indexed by size
// (index 0 unused).
func (h *Hypergraph) DimHistogram() []int {
	hist := make([]int, h.dim+1)
	for _, e := range h.Edges() {
		hist[len(e)]++
	}
	return hist
}

// String summarizes the hypergraph.
func (h *Hypergraph) String() string {
	return fmt.Sprintf("Hypergraph{n=%d, m=%d, dim=%d}", h.n, h.M(), h.dim)
}

// Clone returns a deep copy. Useful when callers need to hold onto a
// hypergraph across mutating pipelines built from raw edge slices.
func (h *Hypergraph) Clone() *Hypergraph {
	verts := append([]V(nil), h.verts...)
	off := append([]int32(nil), h.off...)
	return &Hypergraph{csr{n: h.n, dim: h.dim, verts: verts, off: off}}
}

// ContainsSorted reports whether sorted edge e contains sorted subset x.
func ContainsSorted(e, x Edge) bool {
	if len(x) > len(e) {
		return false
	}
	i := 0
	for _, v := range x {
		for i < len(e) && e[i] < v {
			i++
		}
		if i >= len(e) || e[i] != v {
			return false
		}
		i++
	}
	return true
}

// IntersectionSize returns |a ∩ b| for sorted edges.
func IntersectionSize(a, b Edge) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// DiffSorted returns e \ s for sorted slices, allocating a new slice.
func DiffSorted(e, s Edge) Edge {
	out := make(Edge, 0, len(e))
	j := 0
	for _, v := range e {
		for j < len(s) && s[j] < v {
			j++
		}
		if j < len(s) && s[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

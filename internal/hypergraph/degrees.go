package hypergraph

import (
	"encoding/binary"
	"math"

	"repro/internal/par"
)

// This file computes the degree structures from Section 3 of the paper.
// For a nonempty vertex set x and 1 ≤ j ≤ d − |x|:
//
//	N_j(x,H) = { y ⊆ V : x ∪ y ∈ E, x ∩ y = ∅, |y| = j }
//	d_j(x,H) = |N_j(x,H)|^{1/j}            (normalized degree)
//	Δ_i(H)   = max{ d_{i−|x|}(x,H) : x ⊆ V, 0 < |x| < i }
//	Δ(H)     = max{ Δ_i(H) : 2 ≤ i ≤ d }
//
// Only subsets x that are contained in at least one edge can have a
// nonzero degree, so the table enumerates, for every edge e, every
// nonempty proper subset x ⊂ e, and counts edges of each size that
// contain x. This is Θ(m·2^d) work, which is the regime BL operates in
// (d ≤ log log n / (4 log log log n), so 2^d is polylogarithmic).

// maxEnumerableDim bounds the edge size for subset enumeration; above
// this, 2^d blows up and the degree table refuses to build.
const maxEnumerableDim = 22

// subsetKey canonically encodes a sorted vertex set. It survives only
// as the key of the brute-force reference DeltaDirect; the production
// structures (DegreeTable, RemoveSupersets) key on hashEdge
// instead, which does not allocate.
func subsetKey(x Edge) string {
	buf := make([]byte, 4*len(x))
	for i, v := range x {
		binary.BigEndian.PutUint32(buf[4*i:], uint32(v))
	}
	return string(buf)
}

// DegreeTable holds, for every vertex subset x contained in some edge,
// the counts |N_j(x,H)| for each j ≥ 1. It answers the Δ queries used by
// the BL marking probability p = 1/(2^{d+1}·Δ(H)).
//
// Entries live in flat struct-of-arrays storage: subsets are spans of
// one []V arena, count rows are spans of one []int32 arena, and the
// shared edgeIndex chains hash-colliding entries. Iteration over all
// entries is therefore a linear arena walk, not a map traversal.
type DegreeTable struct {
	dim int
	ix  edgeIndex // hashEdge(x) → chain of entry ids
	// Per-entry arenas, indexed by entry id:
	xoff   []int32 // len entries+1; entry i's subset is xs[xoff[i]:xoff[i+1]]
	xs     []V     // subset vertex arena
	counts []int32 // row i is counts[i*(dim+1):(i+1)*(dim+1)]; index 0 unused
	zeros  []int32 // dim+1 zeros, appended to counts on insert
}

func newDegreeTable(dim int, capHint int) *DegreeTable {
	return &DegreeTable{
		dim:   dim,
		ix:    newEdgeIndex(capHint),
		xoff:  append(make([]int32, 0, capHint+1), 0),
		zeros: make([]int32, dim+1),
	}
}

// entries returns the number of distinct subsets recorded.
func (t *DegreeTable) entries() int { return t.ix.size() }

// subset returns entry i's vertex set (a view into the arena).
func (t *DegreeTable) subset(i int32) Edge { return t.xs[t.xoff[i]:t.xoff[i+1]] }

// row returns entry i's count vector (index j = |N_j(x,H)|).
func (t *DegreeTable) row(i int32) []int32 {
	w := t.dim + 1
	return t.counts[int(i)*w : (int(i)+1)*w]
}

// lookup returns the entry id for subset x, or -1.
func (t *DegreeTable) lookup(x Edge) int32 {
	return t.ix.find(hashEdge(x), func(id int32) bool { return equalEdge(t.subset(id), x) })
}

// getOrAdd returns the entry id for subset x under the given hash,
// inserting a fresh zero-count entry if absent. The hash is a parameter
// (rather than computed here) so callers that already have it avoid
// rehashing and tests can force collision chains.
func (t *DegreeTable) getOrAdd(hash uint64, x Edge) int32 {
	if id := t.ix.find(hash, func(id int32) bool { return equalEdge(t.subset(id), x) }); id >= 0 {
		return id
	}
	id := int32(t.ix.size())
	t.xs = append(t.xs, x...)
	t.xoff = append(t.xoff, int32(len(t.xs)))
	t.counts = append(t.counts, t.zeros...)
	t.ix.add(hash, id)
	return id
}

// scan enumerates the proper nonempty subsets of edges [lo, hi) and
// accumulates their counts.
func (t *DegreeTable) scan(h *Hypergraph, lo, hi int) {
	var scratch Edge
	for i := lo; i < hi; i++ {
		e := h.Edge(i)
		k := len(e)
		full := uint32(1)<<uint(k) - 1
		for mask := uint32(1); mask < full; mask++ {
			scratch = scratch[:0]
			for b := 0; b < k; b++ {
				if mask&(1<<uint(b)) != 0 {
					scratch = append(scratch, e[b])
				}
			}
			j := k - len(scratch)
			t.row(t.getOrAdd(hashEdge(scratch), scratch))[j]++
		}
	}
}

// merge folds other's entries into t.
func (t *DegreeTable) merge(other *DegreeTable) {
	for i := 0; i < other.entries(); i++ {
		x := other.subset(int32(i))
		dst := t.row(t.getOrAdd(hashEdge(x), x))
		for j, c := range other.row(int32(i)) {
			dst[j] += c
		}
	}
}

// buildShardThreshold is the subset-enumeration work (m·2^d) below
// which a sharded build is not worth the merge cost. It is not
// par.MinScanWork: it prices merging the per-shard hash tables, not a
// scan, and at 2^14 more of BL's small stage tables would shard.
const buildShardThreshold = 1 << 15

// BuildDegreeTable enumerates all edge subsets on the whole machine;
// BuildDegreeTableOn takes an explicit engine. It panics if the
// dimension exceeds maxEnumerableDim (callers control dimension: BL is
// only invoked on small-dimension hypergraphs, by construction in SBL).
func BuildDegreeTable(h *Hypergraph) *DegreeTable {
	return BuildDegreeTableOn(h, par.Engine{})
}

// BuildDegreeTableOn builds the degree table on an explicit engine,
// sharding the subset scan when the m·2^d work is large enough to pay
// for it (the shard count scales with the per-edge 2^d work, so small
// edge lists of large dimension still fan out). Per-shard tables are
// combined by parallel pairwise merging — ceil(log2 shards) rounds —
// since counts are additive. The table's query results (counts, Δ
// vectors) are identical for any engine; only entry iteration order
// can differ between shard counts.
func BuildDegreeTableOn(h *Hypergraph, eng par.Engine) *DegreeTable {
	if h.Dim() > maxEnumerableDim {
		panic("hypergraph: dimension too large for degree enumeration")
	}
	m := h.M()
	perItem := 1 << uint(h.Dim()) // Dim ≤ maxEnumerableDim, checked above
	work := m * perItem
	shards := eng.ShardsFor(m, perItem)
	if shards <= 1 || work < buildShardThreshold {
		t := newDegreeTable(h.Dim(), m)
		t.scan(h, 0, m)
		return t
	}
	locals := make([]*DegreeTable, shards)
	eng.ForShardsWork(nil, m, perItem, shards, func(s, lo, hi int) {
		lt := newDegreeTable(h.Dim(), hi-lo)
		lt.scan(h, lo, hi)
		locals[s] = lt
	})
	// Parallel pairwise merge: in round k, table i absorbs table i+2^k.
	// Each pair merges independently, so the round fans out over the
	// engine; the fold order is fixed by the index arithmetic, not by
	// scheduling.
	for step := 1; step < shards; step <<= 1 {
		pairs := 0
		for i := 0; i+step < shards; i += 2 * step {
			pairs++
		}
		eng.ForShardsWork(nil, pairs, perItem*(m/max(pairs, 1)+1), pairs, func(_, lo, hi int) {
			for p := lo; p < hi; p++ {
				i := p * 2 * step
				a, b := locals[i], locals[i+step]
				switch {
				case a == nil:
					locals[i] = b
				case b == nil:
					// nothing to fold
				default:
					a.merge(b)
				}
			}
		})
	}
	t := locals[0]
	if t == nil {
		t = newDegreeTable(h.Dim(), 0)
	}
	return t
}

// NCount returns |N_j(x,H)| for the sorted set x.
func (t *DegreeTable) NCount(x Edge, j int) int {
	if j < 1 || j > t.dim {
		return 0
	}
	id := t.lookup(x)
	if id < 0 {
		return 0
	}
	return int(t.row(id)[j])
}

// NormDegree returns d_j(x,H) = |N_j(x,H)|^{1/j}.
func (t *DegreeTable) NormDegree(x Edge, j int) float64 {
	c := t.NCount(x, j)
	if c == 0 {
		return 0
	}
	return math.Pow(float64(c), 1/float64(j))
}

// DeltaI returns Δ_i(H): the maximum normalized degree with respect to
// dimension-i edges, i.e. max over subsets x with 0 < |x| < i of
// d_{i−|x|}(x,H). Returns 0 when i < 2 or i > dim.
func (t *DegreeTable) DeltaI(i int) float64 {
	if i < 2 || i > t.dim {
		return 0
	}
	best := 0.0
	for id := 0; id < t.entries(); id++ {
		xlen := int(t.xoff[id+1] - t.xoff[id])
		j := i - xlen
		if j < 1 || j > t.dim {
			continue
		}
		c := t.row(int32(id))[j]
		if c == 0 {
			continue
		}
		d := math.Pow(float64(c), 1/float64(j))
		if d > best {
			best = d
		}
	}
	return best
}

// Delta returns Δ(H) = max_{2 ≤ i ≤ d} Δ_i(H) — the maximum entry of
// AllDeltas. For an edgeless hypergraph it returns 0.
func (t *DegreeTable) Delta() float64 {
	best := 0.0
	for _, d := range t.AllDeltas() {
		if d > best {
			best = d
		}
	}
	return best
}

// AllDeltas returns the vector [Δ_2(H), …, Δ_d(H)] indexed by i
// (index < 2 unused). Computed in one pass over the table.
func (t *DegreeTable) AllDeltas() []float64 {
	deltas := make([]float64, t.dim+1)
	for id := 0; id < t.entries(); id++ {
		xlen := int(t.xoff[id+1] - t.xoff[id])
		row := t.row(int32(id))
		for j := 1; j < len(row); j++ {
			if row[j] == 0 {
				continue
			}
			i := xlen + j
			if i < 2 || i > t.dim {
				continue
			}
			d := math.Pow(float64(row[j]), 1/float64(j))
			if d > deltas[i] {
				deltas[i] = d
			}
		}
	}
	return deltas
}

// NjDirect computes |N_j(x,H)| by scanning all edges — the reference
// implementation the table is property-tested against.
func NjDirect(h *Hypergraph, x Edge, j int) int {
	count := 0
	for _, e := range h.Edges() {
		if len(e) == len(x)+j && ContainsSorted(e, x) {
			count++
		}
	}
	return count
}

// DeltaDirect computes Δ(H) by brute force over all subsets of all
// edges, independently of DegreeTable (including its hashing);
// reference for property tests.
func DeltaDirect(h *Hypergraph) float64 {
	if h.Dim() > maxEnumerableDim {
		panic("hypergraph: dimension too large")
	}
	seen := make(map[string]bool)
	best := 0.0
	var scratch Edge
	for _, e := range h.Edges() {
		k := len(e)
		full := uint32(1)<<uint(k) - 1
		for mask := uint32(1); mask < full; mask++ {
			scratch = scratch[:0]
			for b := 0; b < k; b++ {
				if mask&(1<<uint(b)) != 0 {
					scratch = append(scratch, e[b])
				}
			}
			key := subsetKey(scratch)
			if seen[key] {
				continue
			}
			seen[key] = true
			for j := 1; j <= h.Dim()-len(scratch); j++ {
				c := NjDirect(h, scratch, j)
				if c == 0 {
					continue
				}
				i := len(scratch) + j
				if i < 2 {
					continue
				}
				d := math.Pow(float64(c), 1/float64(j))
				if d > best {
					best = d
				}
			}
		}
	}
	return best
}

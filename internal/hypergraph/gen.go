package hypergraph

import (
	"fmt"

	"repro/internal/rng"
)

// This file provides the instance generators used by the test suite and
// the experiment harness. There is no public corpus of hard parallel
// hypergraph-MIS instances (the paper is purely theoretical), so each
// generator targets the regime a specific lemma or experiment stresses;
// see DESIGN.md §1 for the substitution rationale.

// sampleDistinct draws k distinct vertices from [0, n) into a sorted edge.
func sampleDistinct(s *rng.Stream, n, k int) Edge {
	if k > n {
		panic(fmt.Sprintf("hypergraph: cannot sample %d distinct of %d", k, n))
	}
	// For small k relative to n, rejection sampling is fast.
	if k*4 <= n {
		e := make(Edge, 0, k)
		if k <= 16 {
			// Duplicate check by linear scan of the partial edge: for the
			// small edge sizes the generators draw, this beats a map and
			// allocates nothing beyond the edge itself.
			for len(e) < k {
				v := V(s.Intn(n))
				dup := false
				for _, u := range e {
					if u == v {
						dup = true
						break
					}
				}
				if !dup {
					e = append(e, v)
				}
			}
		} else {
			seen := make(map[V]bool, k)
			for len(e) < k {
				v := V(s.Intn(n))
				if !seen[v] {
					seen[v] = true
					e = append(e, v)
				}
			}
		}
		sortEdge(e)
		return e
	}
	// Otherwise partial Fisher–Yates over the universe.
	perm := s.Perm(n)
	e := make(Edge, k)
	for i := 0; i < k; i++ {
		e[i] = V(perm[i])
	}
	sortEdge(e)
	return e
}

// RandomUniform generates a hypergraph with m random d-uniform edges on
// n vertices (duplicates dropped, so M() ≤ m).
func RandomUniform(s *rng.Stream, n, m, d int) *Hypergraph {
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdgeSlice(sampleDistinct(s, n, d))
	}
	return b.MustBuild()
}

// RandomMixed generates m edges whose sizes are uniform in
// [minSize, maxSize]. This is the "general hypergraph" input for SBL:
// the input dimension is unrestricted (only the sampled sub-hypergraph
// needs small dimension).
func RandomMixed(s *rng.Stream, n, m, minSize, maxSize int) *Hypergraph {
	if minSize < 1 || maxSize < minSize || maxSize > n {
		panic("hypergraph: bad size range")
	}
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		k := minSize + s.Intn(maxSize-minSize+1)
		b.AddEdgeSlice(sampleDistinct(s, n, k))
	}
	return b.MustBuild()
}

// RandomGraph generates an ordinary graph (2-uniform hypergraph) with m
// random edges; the d = 2 special case solved by Luby's algorithm.
func RandomGraph(s *rng.Stream, n, m int) *Hypergraph {
	return RandomUniform(s, n, m, 2)
}

// Linear generates a linear hypergraph: any two edges intersect in at
// most one vertex (the Łuczak–Szymańska class, in RNC). Edges are drawn
// d-uniform and rejected if they violate linearity; generation aborts
// with fewer edges if the space is exhausted (attempts capped).
func Linear(s *rng.Stream, n, m, d int) *Hypergraph {
	b := NewBuilder(n)
	var accepted []Edge
	attempts := 0
	maxAttempts := 50*m + 1000
	for len(accepted) < m && attempts < maxAttempts {
		attempts++
		e := sampleDistinct(s, n, d)
		ok := true
		for _, f := range accepted {
			if IntersectionSize(e, f) > 1 {
				ok = false
				break
			}
		}
		if ok {
			accepted = append(accepted, e)
			b.AddEdgeSlice(e)
		}
	}
	return b.MustBuild()
}

// PlantedMIS generates an instance with a planted independent set:
// vertices [0, plantedSize) are the plant, and every edge includes at
// least one non-plant vertex, so the plant is independent by
// construction. Used to validate that solvers find *some* MIS and to
// give tests a known independent certificate.
func PlantedMIS(s *rng.Stream, n, m, d, plantedSize int) *Hypergraph {
	if plantedSize >= n {
		panic("hypergraph: planted set must leave outside vertices")
	}
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		e := sampleDistinct(s, n, d)
		inPlant := true
		for _, v := range e {
			if int(v) >= plantedSize {
				inPlant = false
				break
			}
		}
		if inPlant {
			// Swap one vertex for a non-plant vertex; the Builder
			// re-sorts the edge and drops a colliding duplicate.
			e[len(e)-1] = V(plantedSize + s.Intn(n-plantedSize))
		}
		b.AddEdgeSlice(e)
	}
	return b.MustBuild()
}

// Sunflower generates a sunflower: `petals` edges, each the union of a
// common core of size coreSize and a private petal of size petalSize.
// This is the edge-migration adversary: when petal vertices enter the
// independent set, all edges simultaneously shrink toward the core,
// spiking N_j(core) for small j — the phenomenon Kelsen's Corollary 2
// and the paper's Corollary 4 bound (experiment F2).
func Sunflower(s *rng.Stream, n, coreSize, petalSize, petals int) *Hypergraph {
	need := coreSize + petals*petalSize
	if need > n {
		panic(fmt.Sprintf("hypergraph: sunflower needs %d vertices, have %d", need, n))
	}
	perm := s.Perm(n)
	core := make(Edge, coreSize)
	for i := range core {
		core[i] = V(perm[i])
	}
	b := NewBuilder(n)
	next := coreSize
	for p := 0; p < petals; p++ {
		e := append(Edge(nil), core...)
		for j := 0; j < petalSize; j++ {
			e = append(e, V(perm[next]))
			next++
		}
		b.AddEdgeSlice(e)
	}
	return b.MustBuild()
}

// LayeredMigration builds a hypergraph with edges of sizes k = lo..hi,
// countPer of each, all sharing a common core of size coreSize, with
// petals drawn from disjoint vertex pools per layer when possible. It
// stresses migration from many dimensions at once (experiment F2/T7).
func LayeredMigration(s *rng.Stream, n, coreSize, lo, hi, countPer int) *Hypergraph {
	if lo <= coreSize {
		panic("hypergraph: layer size must exceed core size")
	}
	perm := s.Perm(n)
	core := make(Edge, coreSize)
	for i := range core {
		core[i] = V(perm[i])
	}
	rest := perm[coreSize:]
	b := NewBuilder(n)
	for k := lo; k <= hi; k++ {
		for c := 0; c < countPer; c++ {
			e := append(Edge(nil), core...)
			for j := 0; j < k-coreSize; j++ {
				e = append(e, V(rest[s.Intn(len(rest))]))
			}
			b.AddEdgeSlice(e)
		}
	}
	return b.MustBuild()
}

// BlockPartition divides vertices into blocks of the given size and adds
// every within-block d-subset as an edge (up to perBlock edges sampled
// per block). MIS structure is then per-block, giving instances with
// many independent local subproblems — good for speedup benches.
func BlockPartition(s *rng.Stream, n, blockSize, d, perBlock int) *Hypergraph {
	if blockSize < d {
		panic("hypergraph: block smaller than edge size")
	}
	b := NewBuilder(n)
	for start := 0; start+blockSize <= n; start += blockSize {
		for c := 0; c < perBlock; c++ {
			local := sampleDistinct(s, blockSize, d)
			e := make(Edge, d)
			for i, v := range local {
				e[i] = v + V(start)
			}
			b.AddEdgeSlice(e)
		}
	}
	return b.MustBuild()
}

// Complete builds the complete d-uniform hypergraph on the first k
// vertices of an n-vertex universe: every d-subset of [0,k) is an edge.
// A MIS of it is any (d-1)-subset of [0,k) together with all vertices
// ≥ k. Exponential in k; keep k small. Used as a worst-density test.
func Complete(n, k, d int) *Hypergraph {
	if d > k {
		panic("hypergraph: d > k")
	}
	b := NewBuilder(n)
	idx := make([]int, d)
	for i := range idx {
		idx[i] = i
	}
	for {
		e := make(Edge, d)
		for i, x := range idx {
			e[i] = V(x)
		}
		b.AddEdgeSlice(e)
		// Next combination.
		i := d - 1
		for i >= 0 && idx[i] == k-d+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < d; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return b.MustBuild()
}

// Star places every edge through a single hub vertex 0 with d−1 random
// others: a degenerate high-degree instance (Δ concentrates on the hub).
func Star(s *rng.Stream, n, m, d int) *Hypergraph {
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		others := sampleDistinct(s, n-1, d-1)
		e := make(Edge, 0, d)
		e = append(e, 0)
		for _, v := range others {
			e = append(e, v+1)
		}
		b.AddEdgeSlice(e)
	}
	return b.MustBuild()
}

package hypergraph

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/par"
)

// This file implements the allocation-free round pipeline: the
// per-round hypergraph transforms of the SBL/BL/KUW loops, fused into
// single passes over the flat CSR arenas and double-buffered through a
// caller-owned RoundScratch so that a round costs zero heap allocations
// once the buffers are warm. Results are edge-set-identical to the pure
// pipeline in ops.go (property-tested in round_test.go).
//
// SBL's and KUW's loops carry a Residual (an edge multiset), since no
// step of theirs needs the edges ordered or distinct; NextResidual
// leaves them as the scatter wrote them. Only BL reads a canonical
// Hypergraph, so InduceIntoBits canonicalizes just the sampled H′, a
// few hundred edges a round, and BL's NextRoundBits its own output.
// Both round kinds run the same classify, slot-assignment and scatter
// passes.
//
// Every pass is sharded over the scratch's engine when its scan reaches
// par.MinScanWork (arena vertices; edges for slot assignment), and runs
// inline below it: classification and scatter split the edge list into
// blocks, and slot assignment runs as per-shard tallies + an exact
// prefix sum over the shards, so the assigned slots — and therefore
// the output arenas — are bit-identical to the sequential scan for any
// worker count.
//
// Canonicalization (canonicalize) sorts the edges that may be out of
// place (the shrunk ones after a round, all of H′ after an induce),
// merges them with the ones known to be in order while dropping
// duplicates, and packs each kept edge once into the spill arena. It
// runs inline, in one serial pass: only H′ and BL's stage output reach
// it, and no benchmark workload canonicalizes an arena anywhere near
// par.MinScanWork, the size at which the sharded passes start to pay.
// Builder.Build packs out-of-order input with the same function.

// resize returns s with length n, reallocating only when its capacity
// is insufficient.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// csrBuf is one reusable CSR arena, grown in place, and the Hypergraph
// served from it; a Residual served from it is that Hypergraph's
// embedded one.
type csrBuf struct{ Hypergraph }

// grow reslices the arena and offsets to the requested sizes,
// reallocating only when capacity is insufficient.
func (b *csrBuf) grow(nVerts, nEdges int) {
	b.verts = resize(b.verts, nVerts)
	b.off = resize(b.off, nEdges+1)
}

// finish sets the shape of the Hypergraph over the buffer's arena and
// returns it; every edge is then served from the offsets.
func (b *csrBuf) finish(n, dim int) *Hypergraph {
	b.n, b.dim = n, dim
	return &b.Hypergraph
}

// RoundScratch holds the reusable arenas of the fused round pipeline.
// NextResidual and NextRoundBits double-buffer through ring: each call
// writes the buffer the input does not occupy, so the result of call k
// is valid exactly until call k+2 — callers thread
// `cur = NextResidual(cur, …)` and must not retain older rounds (Clone
// what must survive). InduceIntoBits has a dedicated buffer,
// overwritten by the next InduceIntoBits only, so an induced
// sub-hypergraph stays valid across interleaved rounds. The zero value
// is ready to use; a RoundScratch must not be shared between concurrent
// solvers.
//
// Eng bounds the parallelism of the sharded passes (zero value = whole
// machine, on the shared pool); outputs are bit-identical for any
// engine, so Eng is purely a scheduling knob — the service sets it to
// the degree the job was granted, on its own pool.
type RoundScratch struct {
	Eng par.Engine

	ring    [2]csrBuf
	ringIdx int
	sample  csrBuf
	// Per input edge: output edge index, or -1 dropped. Canonicalization
	// lists the kept edges in it, in canonical order.
	keep []int32
	// Per input edge: output arena offset.
	pos []int32
	// Output edge indices: the unchanged edges ascending at the front,
	// the shrunk ones at the back (ascending before the sort).
	// Induction shrinks nothing, so it lists every output edge in order.
	split []int32
	// Arena and offsets canonicalization packs into; swapped with the
	// output's, so the old ones become the next round's spill.
	spill    []V
	spillOff []int32

	// Per-shard tallies, plus one slot for the totals (see scanTallies).
	tally []shardTally
}

// shardTally is one shard's counts in a tally/prefix-sum pass; after
// scanTallies, edges/verts/shrunk hold the shard's exclusive bases.
type shardTally struct {
	edges, verts, shrunk, dim, emptied int32
}

// Poison overwrites every arena the scratch has ever grown with
// garbage. The round pipeline fully rewrites whatever it reads back
// (classify writes every keep/pos slot, slot assignment every split
// slot it hands out, grow+scatter+canonicalize every arena cell of the
// output shape), so a poisoned scratch must still produce identical
// rounds — the workspace-pooling property tests call this between jobs
// to prove no stale state leaks through. Hypergraphs previously served
// from the scratch are invalidated, since they read the poisoned arenas
// and offsets.
func (scr *RoundScratch) Poison() {
	bufs := []*csrBuf{&scr.ring[0], &scr.ring[1], &scr.sample}
	for _, b := range bufs {
		for i := range b.verts {
			b.verts[i] = V(-1)
		}
		for i := range b.off {
			b.off[i] = -1
		}
	}
	for _, s := range [][]int32{scr.keep, scr.pos, scr.split, scr.spillOff} {
		for i := range s {
			s[i] = -7
		}
	}
	for i := range scr.spill {
		scr.spill[i] = V(-1)
	}
	for i := range scr.tally {
		scr.tally[i] = shardTally{-7, -7, -7, -7, -7}
	}
}

// target returns the ring buffer a round may write: the one cur does
// not occupy.
func (scr *RoundScratch) target(cur *Residual) *csrBuf {
	idx := scr.ringIdx
	if cur == &scr.ring[idx].csr {
		idx = 1 - idx
	}
	scr.ringIdx = idx
	return &scr.ring[idx]
}

func (scr *RoundScratch) growClassify(m int) {
	scr.keep = resize(scr.keep, m)
	scr.pos = resize(scr.pos, m)
	scr.split = resize(scr.split, m)
}

// growTallies returns shards+1 zeroed tally slots. Zeroing matters:
// trailing shards whose block is empty are never invoked by ForShards,
// and the prefix sum reads every slot — a recycled slot must not leak
// a previous pass's counts.
func (scr *RoundScratch) growTallies(shards int) []shardTally {
	scr.tally = resize(scr.tally, shards+1)
	clear(scr.tally)
	return scr.tally
}

// scanTallies turns the per-shard counts in t[:len(t)-1] into exclusive
// prefix sums (each shard's first output slot) and stores the totals —
// with the maximum dim and the summed emptied count — in t[len(t)-1],
// which it also returns. Shards are few, so the scan is sequential.
func scanTallies(t []shardTally) shardTally {
	var sum shardTally
	last := len(t) - 1
	for s := range t[:last] {
		c := t[s]
		t[s].edges, t[s].verts, t[s].shrunk = sum.edges, sum.verts, sum.shrunk
		sum.edges += c.edges
		sum.verts += c.verts
		sum.shrunk += c.shrunk
		sum.dim = max(sum.dim, c.dim)
		sum.emptied += c.emptied
	}
	t[last] = sum
	return sum
}

// assignSlots turns the classify pass's keep array (−1 = dead, else
// post-transform size; 0 counts as emptied and is demoted to −1) into
// output slot assignments: keep[i] becomes the output edge index and
// pos[i] the output arena offset for every surviving edge. It also
// splits the output edges by whether they shrank (size below input
// edge i): split[:edges−shrunk] lists the unchanged ones and
// split[m−shrunk:m] the shrunk ones, both ascending. It returns the
// output totals. Large edge lists run as per-shard tallies plus an
// exact prefix sum over the shards, which assigns the same slots as
// the sequential scan for any worker count.
func (scr *RoundScratch) assignSlots(h *Residual) shardTally {
	m := h.M()
	keep, pos, split, off := scr.keep, scr.pos, scr.split, h.off
	shards := scr.Eng.NumShards(m)
	if m < par.MinScanWork || shards <= 1 {
		var tot shardTally
		for i := 0; i < m; i++ {
			k := keep[i]
			switch {
			case k < 0:
				continue
			case k == 0:
				tot.emptied++
				keep[i] = -1
				continue
			}
			if k < off[i+1]-off[i] {
				tot.shrunk++
				split[int32(m)-tot.shrunk] = tot.edges
			} else {
				split[tot.edges-tot.shrunk] = tot.edges
			}
			keep[i] = tot.edges
			pos[i] = tot.verts
			tot.edges++
			tot.verts += k
			tot.dim = max(tot.dim, k)
		}
		slices.Reverse(split[int32(m)-tot.shrunk:])
		return tot
	}
	t := scr.growTallies(shards)
	scr.Eng.ForShards(nil, m, shards, func(s, lo, hi int) {
		var c shardTally
		for i := lo; i < hi; i++ {
			k := keep[i]
			switch {
			case k < 0:
				continue
			case k == 0:
				c.emptied++
				keep[i] = -1
				continue
			}
			if k < off[i+1]-off[i] {
				c.shrunk++
			}
			c.edges++
			c.verts += k
			c.dim = max(c.dim, k)
		}
		t[s] = c
	})
	tot := scanTallies(t)
	shrunkBase := int32(m) - tot.shrunk
	scr.Eng.ForShards(nil, m, shards, func(s, lo, hi int) {
		e, v, ks := t[s].edges, t[s].verts, t[s].shrunk
		for i := lo; i < hi; i++ {
			k := keep[i]
			if k < 0 {
				continue
			}
			if k < off[i+1]-off[i] {
				split[shrunkBase+ks] = e
				ks++
			} else {
				split[e-ks] = e
			}
			keep[i] = e
			pos[i] = v
			e++
			v += k
		}
	})
	return tot
}

// canonical finishes dst as a canonical Hypergraph on n vertices of
// dimension dim, given its edges as two ascending index lists: sorted,
// in canonical order and distinct, and unsorted, possibly out of place.
// When one of unsorted is, it canonicalizes the arena into the spill
// buffers, swaps them in (no allocation once warm) and charges the sort
// and merge to c.
func (scr *RoundScratch) canonical(dst *csrBuf, sorted, unsorted []int32, n, dim int, c *par.Cost) *Hypergraph {
	if len(unsorted) > 0 && !shrunkInOrder(dst, unsorted) {
		scr.spill, scr.spillOff = canonicalize(dst.verts, dst.off, sorted, unsorted, scr.keep, scr.spill, scr.spillOff)
		dst.verts, scr.spill = scr.spill, dst.verts
		dst.off, scr.spillOff = scr.spillOff, dst.off
		par.ChargeSortMerge(c, len(unsorted), len(sorted)+len(unsorted))
	}
	return dst.finish(n, dim)
}

// InduceIntoBits is Induced on scratch storage, with the induced set
// given as a bitset: it returns the canonical sub-hypergraph of h's
// edges that lie fully inside in, built in the scratch's dedicated
// sample buffer. The result is valid until the next InduceIntoBits call
// on the same scratch and must not be retained beyond it. h must not
// itself view the previous InduceIntoBits result. Induction never
// shrinks an edge, so the induced edges are sorted and deduplicated,
// and the sort charged to c, only when they are not already strictly
// increasing, as they are from a canonical Hypergraph's view.
func InduceIntoBits(h *Residual, in bitset.Set, scr *RoundScratch, c *par.Cost) *Hypergraph {
	m := h.M()
	scr.growClassify(m)
	keep := scr.keep
	if len(h.verts) >= par.MinScanWork {
		scr.Eng.ForBlocked(nil, m, func(lo, hi int) { induceClassifyBits(h, in, keep, lo, hi) })
	} else {
		induceClassifyBits(h, in, keep, 0, m)
	}
	tot := scr.assignSlots(h)
	outEdges, outVerts := int(tot.edges), int(tot.verts)
	dst := &scr.sample
	dst.grow(outVerts, outEdges)
	pos := scr.pos
	if outVerts >= par.MinScanWork {
		scr.Eng.ForBlocked(nil, m, func(lo, hi int) { induceScatter(h, keep, pos, dst, lo, hi) })
	} else {
		induceScatter(h, keep, pos, dst, 0, m)
	}
	dst.off[outEdges] = int32(outVerts)
	return scr.canonical(dst, nil, scr.split[:outEdges], h.n, int(tot.dim), c)
}

// induceClassifyBits marks edges [lo, hi): keep[i] = the edge's size if
// it lies fully inside the induced set, else -1.
func induceClassifyBits(h *Residual, in bitset.Set, keep []int32, lo, hi int) {
	off, verts := h.off, h.verts
	for i := lo; i < hi; i++ {
		keep[i] = off[i+1] - off[i]
		for _, v := range verts[off[i]:off[i+1]] {
			if !in.Has(int(v)) {
				keep[i] = -1
				break
			}
		}
	}
}

// induceScatter copies surviving edges of [lo, hi) into their assigned
// arena slots.
func induceScatter(h *Residual, keep, pos []int32, dst *csrBuf, lo, hi int) {
	off, verts := h.off, h.verts
	for i := lo; i < hi; i++ {
		if keep[i] < 0 {
			continue
		}
		dst.off[keep[i]] = pos[i]
		copy(dst.verts[pos[i]:], verts[off[i]:off[i+1]])
	}
}

// round runs the passes every round shares on cur — classify, slot
// assignment, scatter — into the ring buffer cur does not occupy: edges
// touching a red vertex die (DiscardTouching) and surviving edges
// shrink by the blue vertices (Shrink). A nil red set means no vertex
// is red (the BL stages); blue must be non-nil and disjoint from red.
// It charges one elementwise step over cur's edges to c and returns the
// output buffer with the output totals.
func (scr *RoundScratch) round(cur *Residual, red, blue bitset.Set, c *par.Cost) (*csrBuf, shardTally) {
	m := cur.M()
	scr.growClassify(m)
	keep := scr.keep
	// Pass 1: classify every edge — dead on a red vertex, else its
	// post-shrink size (0 = emptied).
	if len(cur.verts) >= par.MinScanWork {
		scr.Eng.ForBlocked(nil, m, func(lo, hi int) { roundClassifyBits(cur, red, blue, keep, lo, hi) })
	} else {
		roundClassifyBits(cur, red, blue, keep, 0, m)
	}
	tot := scr.assignSlots(cur)
	outEdges, outVerts := int(tot.edges), int(tot.verts)
	dst := scr.target(cur)
	dst.grow(outVerts, outEdges)
	pos := scr.pos
	// Pass 2: scatter surviving vertices.
	if outVerts >= par.MinScanWork {
		scr.Eng.ForBlocked(nil, m, func(lo, hi int) { roundScatterBits(cur, blue, keep, pos, dst, lo, hi) })
	} else {
		roundScatterBits(cur, blue, keep, pos, dst, 0, m)
	}
	dst.off[outEdges] = int32(outVerts)
	par.ChargeStep(c, m)
	return dst, tot
}

// NextResidual applies one fused solver round to the multiset cur (see
// round) and leaves the survivors in scatter order, repeats and all.
// The second return value counts edges that became empty (fully blue),
// an independence violation for a correct pipeline. Which edges die,
// how far each shrinks, whether one empties and the dimension are
// per-edge facts, so the distinct edges of the result are exactly the
// canonical pipeline's. The sequential path calls every pass directly,
// so a warm round allocates nothing. The result occupies scratch
// storage and is valid until the next-but-one round on the same
// scratch (double buffering): callers thread it as the next round's
// cur and never retain older rounds.
func NextResidual(cur *Residual, red, blue bitset.Set, scr *RoundScratch, c *par.Cost) (*Residual, int) {
	dst, tot := scr.round(cur, red, blue, c)
	return dst.finish(cur.n, int(tot.dim)).Residual(), int(tot.emptied)
}

// NextRoundBits is the round of NextResidual on a canonical Hypergraph,
// with the result restored to canonical order; BL's stages run it. Only
// a shrunk edge can be out of place or a duplicate, since the unchanged
// ones are a subsequence of the canonical input, so when one is, it
// sorts the shrunk edges, merges them in and packs the result, and
// charges that sort and merge to c as well.
func NextRoundBits(cur *Hypergraph, red, blue bitset.Set, scr *RoundScratch, c *par.Cost) (*Hypergraph, int) {
	dst, tot := scr.round(&cur.csr, red, blue, c)
	m, L, k := cur.M(), int(tot.edges), int(tot.shrunk)
	return scr.canonical(dst, scr.split[:L-k], scr.split[m-k:m], cur.n, int(tot.dim), c), int(tot.emptied)
}

// roundClassifyBits computes, for each edge of [lo, hi), -1 if it
// touches a red vertex, else its post-shrink size (0 = would become
// empty); a nil red set skips the red test entirely.
func roundClassifyBits(cur *Residual, red, blue bitset.Set, keep []int32, lo, hi int) {
	off, verts := cur.off, cur.verts
	if red == nil {
		for i := lo; i < hi; i++ {
			size := int32(0)
			for _, v := range verts[off[i]:off[i+1]] {
				if !blue.Has(int(v)) {
					size++
				}
			}
			keep[i] = size
		}
		return
	}
	for i := lo; i < hi; i++ {
		size := int32(0)
		for _, v := range verts[off[i]:off[i+1]] {
			if red.Has(int(v)) {
				size = -1
				break
			}
			if !blue.Has(int(v)) {
				size++
			}
		}
		keep[i] = size
	}
}

// roundScatterBits writes the non-blue vertices of surviving edges of
// [lo, hi) into their assigned arena slots.
func roundScatterBits(cur *Residual, blue bitset.Set, keep, pos []int32, dst *csrBuf, lo, hi int) {
	off, verts := cur.off, cur.verts
	for i := lo; i < hi; i++ {
		if keep[i] < 0 {
			continue
		}
		dst.off[keep[i]] = pos[i]
		w := pos[i]
		for _, v := range verts[off[i]:off[i+1]] {
			if !blue.Has(int(v)) {
				dst.verts[w] = v
				w++
			}
		}
	}
}

// shrunkInOrder reports whether dst's edges are strictly increasing,
// given that every pair of adjacent edges without a member in shr (an
// ascending index list) already is: only pairs with a member in shr
// are compared, each once.
func shrunkInOrder(dst *csrBuf, shr []int32) bool {
	last := int32(len(dst.off) - 2)
	for x, j := range shr {
		if j > 0 && (x == 0 || shr[x-1] != j-1) && slices.Compare(dst.Edge(int(j-1)), dst.Edge(int(j))) >= 0 {
			return false
		}
		if j < last && slices.Compare(dst.Edge(int(j)), dst.Edge(int(j+1))) >= 0 {
			return false
		}
	}
	return true
}

// sortByEdge sorts indices into the CSR arena (verts, off) by the
// edges they name.
func sortByEdge(verts []V, off []int32, idx []int32) {
	slices.SortFunc(idx, func(x, y int32) int {
		return slices.Compare(verts[off[x]:off[x+1]], verts[off[y]:off[y+1]])
	})
}

// canonicalize packs the edges of the CSR arena (verts, off) that
// sorted and unsorted list into dst and dstOff, in canonical order and
// once each, and returns them. sorted lists edges in canonical order
// and distinct; unsorted lists edges that may be out of place or
// repeat. It sorts unsorted by edge, merges it with sorted into merged
// while dropping every edge equal to the one kept before it, sizes dst
// and dstOff to exactly the kept edges (reallocating only when their
// capacity is short) and copies each kept edge once. merged needs room
// for both lists; it may be unsorted itself only when sorted is empty.
func canonicalize(verts []V, off []int32, sorted, unsorted, merged []int32, dst []V, dstOff []int32) ([]V, []int32) {
	sortByEdge(verts, off, unsorted)
	edge := func(x int32) Edge { return verts[off[x]:off[x+1]] }
	merged = merged[:0]
	total := 0
	for i, j := 0, 0; i < len(sorted) || j < len(unsorted); {
		var x int32
		if j == len(unsorted) || i < len(sorted) && slices.Compare(edge(sorted[i]), edge(unsorted[j])) <= 0 {
			x, i = sorted[i], i+1
		} else {
			x, j = unsorted[j], j+1
		}
		if len(merged) > 0 && slices.Equal(edge(x), edge(merged[len(merged)-1])) {
			continue
		}
		merged = append(merged, x)
		total += len(edge(x))
	}
	dst, dstOff = resize(dst, total), resize(dstOff, len(merged)+1)
	dstOff[0] = 0
	w := 0
	for r, x := range merged {
		w += copy(dst[w:], edge(x))
		dstOff[r+1] = int32(w)
	}
	return dst, dstOff
}

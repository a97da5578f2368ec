// Package bitset implements packed vertex sets: one bit per vertex in
// a []uint64, so membership tests are branch-free word probes and the
// set algebra the round engine needs (union, intersection, difference,
// population count) runs word-parallel — 64 vertices per machine
// operation, an ~8× smaller working set than the []bool masks it
// replaces.
//
// A Set is just a word slice; hot loops are free to index the words
// directly (the solvers' marking passes do, skipping zero words). All
// operations are deterministic and none allocate except New and Grow.
//
// Concurrency: distinct words may be written by distinct goroutines
// (the parallel passes split sets at word boundaries); writes to bits
// of the same word must be serialized by the caller — per-shard sets
// merged word-parallel by UnionShards are the package's answer to
// parallel scatter writes.
package bitset

import (
	"math/bits"

	"repro/internal/par"
)

// Set is a packed bitset. Bit i lives in word i/64. The value is a
// plain slice: assignment shares storage, and the zero value is an
// empty set over zero vertices.
type Set []uint64

// Words returns the number of 64-bit words needed for n bits.
func Words(n int) int { return (n + 63) >> 6 }

// New returns a zeroed set with capacity for n bits.
func New(n int) Set { return make(Set, Words(n)) }

// Grow returns s resliced (reallocating only if needed) to hold n bits,
// zeroing every word. Use to recycle a scratch set across rounds.
func (s Set) Grow(n int) Set {
	w := Words(n)
	if cap(s) < w {
		return make(Set, w)
	}
	s = s[:w]
	s.Reset()
	return s
}

// Has reports whether bit i is set.
func (s Set) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Add sets bit i.
func (s Set) Add(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Del clears bit i.
func (s Set) Del(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// Reset clears every bit.
func (s Set) Reset() {
	for i := range s {
		s[i] = 0
	}
}

// SetAll sets bits [0, n) and clears the tail of the last word, so
// Count returns exactly n afterwards.
func (s Set) SetAll(n int) {
	full := n >> 6
	for i := 0; i < full; i++ {
		s[i] = ^uint64(0)
	}
	for i := full; i < len(s); i++ {
		s[i] = 0
	}
	if rem := uint(n) & 63; rem != 0 {
		s[full] = 1<<rem - 1
	}
}

// Count returns the number of set bits (population count).
func (s Set) Count() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// OrRange unions words [lo, hi) of o into s; the word-range form the
// parallel shard reduction uses (each worker owns a disjoint range).
func (s Set) OrRange(o Set, lo, hi int) {
	for i := lo; i < hi; i++ {
		s[i] |= o[i]
	}
}

// AndNot removes o's bits from s (s &^= o).
func (s Set) AndNot(o Set) {
	for i, w := range o {
		s[i] &^= w
	}
}

// Copy overwrites s with o. Lengths must match.
func (s Set) Copy(o Set) { copy(s, o) }

// Any reports whether at least one bit is set.
func (s Set) Any() bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// AndCount returns |s ∩ o| without materializing the intersection.
func AndCount(a, b Set) int {
	c := 0
	for i, w := range a {
		c += bits.OnesCount64(w & b[i])
	}
	return c
}

// AndNotInto writes a \ b into dst and returns its population count —
// the fused Copy+AndNot+Count form (three sweeps → one) for
// mark/discard steps that materialize a difference and immediately
// need its size. dst may alias a (the in-place discard case). Lengths
// must match.
func AndNotInto(dst, a, b Set) int {
	c := 0
	for i, w := range a {
		nw := w &^ b[i]
		dst[i] = nw
		c += bits.OnesCount64(nw)
	}
	return c
}

// ForEach calls f for every set bit in ascending order.
func (s Set) ForEach(f func(i int)) {
	s.ForEachInWords(0, len(s), f)
}

// ForEachInWords calls f for every set bit of words [lo, hi) in
// ascending order. The word-range form lets parallel passes iterate
// disjoint blocks; f receives absolute bit indices.
func (s Set) ForEachInWords(lo, hi int, f func(i int)) {
	for wi := lo; wi < hi; wi++ {
		w := s[wi]
		base := wi << 6
		for w != 0 {
			f(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// UnionShards is the parallel-scatter idiom for bit writes: body(local,
// lo, hi) marks, in an n-bit shard-private set, whatever items [lo, hi)
// of some m-item collection produce, and the shard sets are OR-merged
// word-parallel into dst (a union is order-independent, so the result
// is deterministic for any engine). With shards ≤ 1 the body writes
// dst directly — no scratch, no merge. pool recycles the shard sets
// across calls; pass nil to allocate fresh ones.
func UnionShards(eng par.Engine, dst Set, n, m, shards int, pool *[]Set, body func(local Set, lo, hi int)) {
	if shards <= 1 {
		body(dst, 0, m)
		return
	}
	var locals []Set
	if pool != nil {
		if cap(*pool) < shards {
			*pool = make([]Set, shards)
		}
		*pool = (*pool)[:shards]
		locals = *pool
	} else {
		locals = make([]Set, shards)
	}
	eng.ForShards(nil, m, shards, func(s, lo, hi int) {
		local := locals[s]
		if local == nil {
			local = New(n)
			locals[s] = local
		} else {
			local = local.Grow(n)
			locals[s] = local
		}
		body(local, lo, hi)
	})
	// Merge only the shards whose block is non-empty (exactly the
	// invoked ones): a pooled set of an uninvoked trailing shard still
	// holds a previous call's bits and must not leak in.
	chunk := par.BlockLen(m, shards)
	invoked := min((m+chunk-1)/chunk, shards)
	eng.ForBlocked(nil, len(dst), func(lo, hi int) {
		for s := 0; s < invoked; s++ {
			if locals[s] != nil {
				dst.OrRange(locals[s], lo, hi)
			}
		}
	})
}

// WriteBools unpacks s into mask (true where the bit is set, false
// elsewhere). len(mask) bits are read.
func (s Set) WriteBools(mask []bool) {
	for i := range mask {
		mask[i] = s.Has(i)
	}
}

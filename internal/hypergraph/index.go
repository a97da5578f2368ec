package hypergraph

// This file implements the one hashed edge-set index the package's
// keyed structures share: 64-bit hashEdge keys into a bucket map, with
// colliding entries chained through a per-id link array and always
// verified against the stored vertex sets (the hash is an accelerator,
// never an identity). Consumers — RemoveSupersets and DegreeTable —
// store their vertex sets in their own arenas and walk chains with
// head/next; the insertion logic lives here once.

// hashEdge returns a 64-bit hash of a sorted vertex set (SplitMix64-style
// mixing per element, seeded by the length). Distinct sets can collide,
// so every consumer verifies equality on lookup and chains colliding
// entries.
func hashEdge(e Edge) uint64 {
	h := uint64(len(e))*0x9e3779b97f4a7c15 + 0x94d049bb133111eb
	for _, v := range e {
		h ^= uint64(uint32(v))
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	return h ^ h>>29
}

// edgeIndex maps hashes to chains of integer ids. Ids are assigned by
// the consumer, sequentially from 0 (add's id must equal the number of
// prior add calls), and name entries in the consumer's own storage.
type edgeIndex struct {
	idx  map[uint64]int32
	next []int32 // chain link per id; -1 terminates
}

func newEdgeIndex(capHint int) edgeIndex {
	return edgeIndex{idx: make(map[uint64]int32, capHint), next: make([]int32, 0, capHint)}
}

// head returns the first id of the hash's chain, or -1.
func (ix *edgeIndex) head(hash uint64) int32 {
	id, ok := ix.idx[hash]
	if !ok {
		return -1
	}
	return id
}

// find walks the hash's chain and returns the first id whose stored
// vertex set eq accepts, or -1. eq is only called, never retained, so
// callers' closures stay on the stack.
func (ix *edgeIndex) find(hash uint64, eq func(id int32) bool) int32 {
	for id := ix.head(hash); id >= 0; id = ix.next[id] {
		if eq(id) {
			return id
		}
	}
	return -1
}

// add prepends id to the hash's chain. id must equal the number of
// prior add calls (ids are dense).
func (ix *edgeIndex) add(hash uint64, id int32) {
	head, ok := ix.idx[hash]
	if !ok {
		head = -1
	}
	ix.next = append(ix.next, head)
	ix.idx[hash] = id
}

// size returns the number of ids ever added.
func (ix *edgeIndex) size() int { return len(ix.next) }

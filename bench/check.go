package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"syscall"

	hypermis "repro"
)

// kind is the work an item asks for.
type kind uint8

const (
	kindSolve kind = iota
	kindColor
	kindTransversal
)

var kindNames = [...]string{"solve", "color", "transversal"}

func (k kind) String() string { return kindNames[k] }

// item is one unit of requested work: a kind on one of the workload's
// instances under one solver seed. Equal items must get equal answers.
type item struct {
	inst int
	seed uint64
	kind kind
}

func (it item) key() uint64 { return mix(it.seed, uint64(it.kind), it.inst) }

// The checker packs every answer into a record outside the Go heap: a
// header, then one bit per vertex for a solve's MIS or a transversal,
// or one byte per vertex for a coloring. Answers are packed during a
// measured window and verified between windows, so verification costs
// the measured system no CPU. Verified answers leave a 16-byte print
// (item key, answer fingerprint) for the repeat check. Neither answers
// nor prints live on the Go heap, so as they pile up they neither add
// collector work nor raise its heap goal, either of which would change
// the measured server's speed during a run.
const recHeader = 16 // inst uint32, kind uint8, unused uint8, colors uint16, seed uint64

// region is a byte arena in an anonymous mapping: address space only,
// its pages are touched as it fills.
type region struct {
	mem  []byte
	used int
}

func mapRegion(size int) (region, error) {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	return region{mem: mem}, err
}

// grab returns the next n bytes, cleared, or nil when the region is
// full.
func (r *region) grab(n int) []byte {
	if r.used+n > len(r.mem) {
		return nil
	}
	b := r.mem[r.used : r.used+n : r.used+n]
	r.used += n
	clear(b)
	return b
}

// checker holds a run's answers. Recording is safe from many client
// goroutines; verify and finish run while nothing records.
type checker struct {
	insts []*hypermis.Hypergraph

	mu      sync.Mutex
	answers region
	prints  region
	wrong   int
	first   error
}

func newChecker(insts []*hypermis.Hypergraph) (*checker, error) {
	answers, err := mapRegion(1 << 28)
	if err != nil {
		return nil, fmt.Errorf("answer arena: %w", err)
	}
	prints, err := mapRegion(1 << 26)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("answer arena: %w", err), syscall.Munmap(answers.mem))
	}
	return &checker{insts: insts, answers: answers, prints: prints}, nil
}

// close releases the arenas.
func (c *checker) close() error {
	return errors.Join(syscall.Munmap(c.answers.mem), syscall.Munmap(c.prints.mem))
}

// payloadLen is the packed size of an answer of kind k for instance h.
func payloadLen(h *hypermis.Hypergraph, k kind) int {
	if k == kindColor {
		return h.N()
	}
	return (h.N() + 7) / 8
}

// reserve claims a cleared record for it and returns its payload, or
// nil when the arena is full.
func (c *checker) reserve(it item, nColors int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.answers.grab(recHeader + payloadLen(c.insts[it.inst], it.kind))
	if rec == nil {
		c.failLocked(errors.New("answer arena full"))
		return nil
	}
	binary.LittleEndian.PutUint32(rec, uint32(it.inst))
	rec[4] = byte(it.kind)
	binary.LittleEndian.PutUint16(rec[6:], uint16(nColors))
	binary.LittleEndian.PutUint64(rec[8:], it.seed)
	return rec[recHeader:]
}

// setMembers records a solve or transversal answered as a vertex list.
func (c *checker) setMembers(it item, members []int) {
	n := c.insts[it.inst].N()
	for _, v := range members {
		if v < 0 || v >= n {
			c.fail(fmt.Errorf("vertex %d out of range [0,%d)", v, n))
			return
		}
	}
	if bits := c.reserve(it, 0); bits != nil {
		for _, v := range members {
			bits[v/8] |= 1 << (v % 8)
		}
	}
}

// setMask records a solve answered as a vertex mask.
func (c *checker) setMask(it item, mask []bool) {
	if n := c.insts[it.inst].N(); len(mask) != n {
		c.fail(fmt.Errorf("mask of %d vertices for an instance of %d", len(mask), n))
		return
	}
	if bits := c.reserve(it, 0); bits != nil {
		for v, in := range mask {
			if in {
				bits[v/8] |= 1 << (v % 8)
			}
		}
	}
}

// setColors records a coloring answered as one color per vertex.
func (c *checker) setColors(it item, colors []int, nColors int) {
	if n := c.insts[it.inst].N(); nColors > 256 || len(colors) != n {
		// A byte per vertex holds 256 colors; a palette that large on
		// these instances is a fault anyway.
		c.fail(fmt.Errorf("coloring of %d vertices with %d colors for an instance of %d", len(colors), nColors, n))
		return
	}
	for v, col := range colors {
		if col < 0 || col >= nColors {
			c.fail(fmt.Errorf("vertex %d has color %d outside [0,%d)", v, col, nColors))
			return
		}
	}
	if packed := c.reserve(it, nColors); packed != nil {
		for v, col := range colors {
			packed[v] = uint8(col)
		}
	}
}

func (c *checker) fail(err error) {
	c.mu.Lock()
	c.failLocked(err)
	c.mu.Unlock()
}

func (c *checker) failLocked(err error) {
	c.wrong++
	if c.first == nil {
		c.first = err
	}
}

// verify checks every answer recorded since the last call against its
// instance: a maximal independent set, a minimal transversal or a
// proper coloring. It keeps a fingerprint of each and frees the arena.
func (c *checker) verify() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for off := 0; off < c.answers.used; {
		rec := c.answers.mem[off:]
		it := item{inst: int(binary.LittleEndian.Uint32(rec)), kind: kind(rec[4]), seed: binary.LittleEndian.Uint64(rec[8:])}
		nColors := int(binary.LittleEndian.Uint16(rec[6:]))
		h := c.insts[it.inst]
		payload := rec[recHeader : recHeader+payloadLen(h, it.kind)]
		off += recHeader + len(payload)
		if err := verifyOne(h, it.kind, payload, nColors); err != nil {
			c.failLocked(fmt.Errorf("%s of instance %d seed %d: %w", it.kind, it.inst, it.seed, err))
			continue
		}
		f := fnv.New64a()
		f.Write(payload)
		p := c.prints.grab(16)
		if p == nil {
			c.failLocked(errors.New("answer print arena full"))
			continue
		}
		binary.LittleEndian.PutUint64(p, it.key())
		binary.LittleEndian.PutUint64(p[8:], f.Sum64())
	}
	c.answers.used = 0
}

func verifyOne(h *hypermis.Hypergraph, k kind, payload []byte, nColors int) error {
	if k == kindColor {
		col := &hypermis.Coloring{Colors: make([]int, len(payload)), NumColors: nColors, ClassSizes: make([]int, nColors)}
		for v, x := range payload {
			col.Colors[v] = int(x)
			col.ClassSizes[x]++
		}
		return hypermis.VerifyColoring(h, col)
	}
	mask := make([]bool, h.N())
	for v := range mask {
		mask[v] = payload[v/8]&(1<<(v%8)) != 0
	}
	if k == kindTransversal {
		return hypermis.VerifyMinimalTransversal(h, mask)
	}
	return hypermis.VerifyMIS(h, mask)
}

// finish verifies what is left, then requires every repeated item to
// have been answered identically. It returns the number of wrong
// answers and the first failure.
func (c *checker) finish() (int, error) {
	c.verify()
	c.mu.Lock()
	defer c.mu.Unlock()
	prints := make([][2]uint64, c.prints.used/16)
	for i := range prints {
		b := c.prints.mem[16*i:]
		prints[i] = [2]uint64{binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])}
	}
	sort.Slice(prints, func(i, j int) bool { return prints[i][0] < prints[j][0] })
	for i := 1; i < len(prints); i++ {
		if p, q := prints[i-1], prints[i]; p[0] == q[0] && p[1] != q[1] {
			c.failLocked(errors.New("an item's answer differs between repeats"))
		}
	}
	return c.wrong, c.first
}

package pram

// This file implements the Beame–Luby marking stage as an actual
// program on the simulated EREW machine — the strongest grounding of
// the paper's "can be implemented on EREW PRAM" claims (Theorem 2).
// The delicate part of an EREW realization is that the naive stage is
// full of concurrent reads: every edge wants to read the mark bits of
// its vertices, and every vertex wants to read the fully-marked flags
// of its edges. The standard resolution, implemented here:
//
//  1. Mark: one processor per vertex writes its mark bit (host supplies
//     the random tape; a randomized PRAM's coins are processor-local).
//  2. Fan-out marks: each vertex *broadcasts* its mark bit into one
//     private cell per (edge, slot) incidence via recursive doubling
//     over its own incidence list — O(log maxdeg) steps, never two
//     processors on one cell.
//  3. Edge AND: each edge tree-reduces its private slot cells to decide
//     "fully marked" — O(log d) steps over disjoint segments.
//  4. Fan-out unmarks: each fully-marked edge broadcasts its flag back
//     into a second set of private slot cells — O(log d).
//  5. Vertex OR: each vertex gathers its private unmark cells (one
//     exclusive read each) and tree-reduces the OR — O(log maxdeg).
//  6. Update: one processor per vertex commits marked ∧ ¬unmarked into
//     the IS and clears liveness.
//
// The access pattern is static, so the (src, dst) pairs of every
// doubling/reduction round are precomputed by the host when the layout
// is built ("program loading"); the machine then executes the stage in
// O(log(maxdeg) + log d) audited steps. Structural cleanup between
// stages (edge shrinking, superset and singleton removal) is standard
// sorting/compaction whose EREW costs are charged analytically in
// package bl; this kernel is the part where EREW discipline is actually
// at risk, hence the part run on the machine.

import (
	"fmt"

	"repro/internal/hypergraph"
)

// pair is one (src, dst) cell copy executed by one processor in one step.
type pair struct{ src, dst int }

// binop is one (left, right → dst) combine executed by one processor.
type binop struct{ a, b, dst int }

// BLLayout is a hypergraph laid out in machine memory together with the
// precomputed step schedules of one marking stage.
type BLLayout struct {
	N, M int

	// Memory map (cell offsets).
	randOff   int // n cells: host-written random tape (0/1)
	liveOff   int // n cells
	markedOff int // n cells
	unmarkOff int // n cells
	inISOff   int // n cells
	slotMark  int // S cells: per-(edge,slot) private mark copies
	slotUnmk  int // S cells: per-(edge,slot) private unmark copies
	edgeFull  int // m cells: edge fully-marked flags
	gatherOff int // S cells: per-vertex contiguous gather area
	Size      int // total cells

	// Precomputed schedules.
	markPairs    []pair    // randOff → markedOff, masked by live (step 1)
	bcastRounds  [][]pair  // step 2: vertex → slots, doubling rounds
	andRounds    [][]binop // step 3: per-edge AND trees (in slotMark)
	edgeOutPairs []pair    // slotMark head → edgeFull
	ubcastRounds [][]pair  // step 4: edgeFull → slotUnmk, doubling
	gatherPairs  []pair    // step 5a: slotUnmk → per-vertex gather area
	orRounds     [][]binop // step 5b: per-vertex OR trees (in gather)
	orOutPairs   []pair    // gather head → unmarkOff
}

// BuildBLLayout lays h out in machine memory (growing it as needed) and
// precomputes the stage schedules. Host-side setup is not charged to
// the machine: it is the static program, not the computation.
func BuildBLLayout(m *Machine, h *hypergraph.Hypergraph) *BLLayout {
	n := h.N()
	S := h.ArenaLen()
	L := &BLLayout{N: n, M: h.M()}
	off := 0
	alloc := func(k int) int { o := off; off += k; return o }
	L.randOff = alloc(n)
	L.liveOff = alloc(n)
	L.markedOff = alloc(n)
	L.unmarkOff = alloc(n)
	L.inISOff = alloc(n)
	L.slotMark = alloc(S)
	L.slotUnmk = alloc(S)
	L.edgeFull = alloc(L.M)
	L.gatherOff = alloc(S)
	L.Size = off
	m.Grow(off)

	// Slot positions: edge e owns slots [start[e], start[e]+|e|).
	start := make([]int, L.M+1)
	for i, e := range h.Edges() {
		start[i+1] = start[i] + len(e)
	}
	// Vertex incidence → slot positions, and the gather area mapping.
	vertSlots := make([][]int, n)
	for ei, e := range h.Edges() {
		for si, v := range e {
			vertSlots[v] = append(vertSlots[v], start[ei]+si)
		}
	}
	incStart := make([]int, n+1)
	for v := 0; v < n; v++ {
		incStart[v+1] = incStart[v] + len(vertSlots[v])
	}

	// Step 1: marking (rand → marked) is one elementwise step.
	for v := 0; v < n; v++ {
		L.markPairs = append(L.markPairs, pair{L.randOff + v, L.markedOff + v})
	}

	// Step 2: per-vertex doubling broadcast marked[v] → slotMark[pos…].
	maxDeg := 0
	for v := 0; v < n; v++ {
		if len(vertSlots[v]) > maxDeg {
			maxDeg = len(vertSlots[v])
		}
	}
	// Round -1 (seed): marked[v] → first slot. Folded into round 0 list.
	var seed []pair
	for v := 0; v < n; v++ {
		if len(vertSlots[v]) > 0 {
			seed = append(seed, pair{L.markedOff + v, L.slotMark + vertSlots[v][0]})
		}
	}
	L.bcastRounds = append(L.bcastRounds, seed)
	for done := 1; done < maxDeg; done *= 2 {
		var round []pair
		for v := 0; v < n; v++ {
			g := len(vertSlots[v])
			for i := done; i < g && i < 2*done; i++ {
				round = append(round, pair{
					L.slotMark + vertSlots[v][i-done],
					L.slotMark + vertSlots[v][i],
				})
			}
		}
		if len(round) > 0 {
			L.bcastRounds = append(L.bcastRounds, round)
		}
	}

	// Step 3: per-edge AND trees over slotMark segments (in place,
	// pairing i with width-1-i as in ReduceSum).
	maxEdge := h.Dim()
	widths := make([]int, L.M)
	for i, e := range h.Edges() {
		widths[i] = len(e)
	}
	for level := maxEdge; level > 1; level = (level + 1) / 2 {
		var round []binop
		for ei := range L.M {
			w := widths[ei]
			if w <= 1 {
				continue
			}
			half := w / 2
			base := L.slotMark + start[ei]
			for i := 0; i < half; i++ {
				round = append(round, binop{base + i, base + w - 1 - i, base + i})
			}
			widths[ei] = (w + 1) / 2
		}
		if len(round) > 0 {
			L.andRounds = append(L.andRounds, round)
		}
	}
	for ei := range L.M {
		L.edgeOutPairs = append(L.edgeOutPairs, pair{L.slotMark + start[ei], L.edgeFull + ei})
	}

	// Step 4: per-edge doubling broadcast edgeFull[e] → slotUnmk segment.
	var useed []pair
	for ei := range L.M {
		useed = append(useed, pair{L.edgeFull + ei, L.slotUnmk + start[ei]})
	}
	L.ubcastRounds = append(L.ubcastRounds, useed)
	for done := 1; done < maxEdge; done *= 2 {
		var round []pair
		for ei, e := range h.Edges() {
			g := len(e)
			base := L.slotUnmk + start[ei]
			for i := done; i < g && i < 2*done; i++ {
				round = append(round, pair{base + i - done, base + i})
			}
		}
		if len(round) > 0 {
			L.ubcastRounds = append(L.ubcastRounds, round)
		}
	}

	// Step 5a: gather slotUnmk into each vertex's contiguous area.
	for v := 0; v < n; v++ {
		for i, pos := range vertSlots[v] {
			L.gatherPairs = append(L.gatherPairs, pair{
				L.slotUnmk + pos,
				L.gatherOff + incStart[v] + i,
			})
		}
	}
	// Step 5b: per-vertex OR trees over the gather segments.
	gw := make([]int, n)
	for v := 0; v < n; v++ {
		gw[v] = len(vertSlots[v])
	}
	for level := maxDeg; level > 1; level = (level + 1) / 2 {
		var round []binop
		for v := 0; v < n; v++ {
			w := gw[v]
			if w <= 1 {
				continue
			}
			half := w / 2
			base := L.gatherOff + incStart[v]
			for i := 0; i < half; i++ {
				round = append(round, binop{base + i, base + w - 1 - i, base + i})
			}
			gw[v] = (w + 1) / 2
		}
		if len(round) > 0 {
			L.orRounds = append(L.orRounds, round)
		}
	}
	for v := 0; v < n; v++ {
		if len(vertSlots[v]) > 0 {
			L.orOutPairs = append(L.orOutPairs, pair{L.gatherOff + incStart[v], L.unmarkOff + v})
		}
	}
	return L
}

// LoadState writes the live mask into machine memory and clears the
// stage-local arrays (host access, not charged).
func (L *BLLayout) LoadState(m *Machine, live []bool) {
	for v := 0; v < L.N; v++ {
		m.Store(L.liveOff+v, boolCell(live[v]))
		m.Store(L.inISOff+v, 0)
		m.Store(L.unmarkOff+v, 0)
	}
}

// RunStage executes one marking stage: the host provides the random
// tape (marks[v] = coin for vertex v, already multiplied by the marking
// probability), the machine decides the survivors. Returns the set of
// vertices added to the IS this stage. The machine's Steps/Work counters
// advance by the stage's audited cost.
func (L *BLLayout) RunStage(m *Machine, marks []bool) []hypergraph.V {
	if len(marks) != L.N {
		panic(fmt.Sprintf("pram: marks length %d, want %d", len(marks), L.N))
	}
	// Host writes the random tape.
	for v := 0; v < L.N; v++ {
		m.Store(L.randOff+v, boolCell(marks[v]))
	}
	// Clear slot areas (host; a real machine would fold clearing into
	// the writes below — charging it would only add O(1) steps).
	for i := L.slotMark; i < L.slotUnmk; i++ {
		m.Store(i, 0)
	}
	for i := L.slotUnmk; i < L.edgeFull; i++ {
		m.Store(i, 0)
	}
	for v := 0; v < L.N; v++ {
		m.Store(L.unmarkOff+v, 0)
	}

	// Step 1: marked[v] = rand[v] ∧ live[v].
	mp := L.markPairs
	live := L.liveOff
	m.Step(len(mp), func(p *Proc) {
		pr := mp[p.ID()]
		v := pr.src - L.randOff
		if p.Read(live+v) != 0 && p.Read(pr.src) != 0 {
			p.Write(pr.dst, 1)
		} else {
			p.Write(pr.dst, 0)
		}
	})

	// Step 2: fan-out marks.
	for _, round := range L.bcastRounds {
		r := round
		m.Step(len(r), func(p *Proc) {
			pr := r[p.ID()]
			p.Write(pr.dst, p.Read(pr.src))
		})
	}
	// Step 3: edge AND trees.
	for _, round := range L.andRounds {
		r := round
		m.Step(len(r), func(p *Proc) {
			op := r[p.ID()]
			a := p.Read(op.a)
			b := p.Read(op.b)
			p.Write(op.dst, a&b)
		})
	}
	eo := L.edgeOutPairs
	m.Step(len(eo), func(p *Proc) {
		pr := eo[p.ID()]
		p.Write(pr.dst, p.Read(pr.src))
	})
	// Step 4: fan-out unmark flags.
	for _, round := range L.ubcastRounds {
		r := round
		m.Step(len(r), func(p *Proc) {
			pr := r[p.ID()]
			p.Write(pr.dst, p.Read(pr.src))
		})
	}
	// Step 5a: gather.
	gp := L.gatherPairs
	m.Step(len(gp), func(p *Proc) {
		pr := gp[p.ID()]
		p.Write(pr.dst, p.Read(pr.src))
	})
	// Step 5b: vertex OR trees.
	for _, round := range L.orRounds {
		r := round
		m.Step(len(r), func(p *Proc) {
			op := r[p.ID()]
			a := p.Read(op.a)
			b := p.Read(op.b)
			p.Write(op.dst, a|b)
		})
	}
	oo := L.orOutPairs
	m.Step(len(oo), func(p *Proc) {
		pr := oo[p.ID()]
		p.Write(pr.dst, p.Read(pr.src))
	})

	// Step 6: commit survivors.
	n := L.N
	m.Step(n, func(p *Proc) {
		v := p.ID()
		if p.Read(L.liveOff+v) != 0 && p.Read(L.markedOff+v) != 0 && p.Read(L.unmarkOff+v) == 0 {
			p.Write(L.inISOff+v, 1)
			p.Write(L.liveOff+v, 0)
		}
	})

	// Host reads the outcome.
	var added []hypergraph.V
	for v := 0; v < n; v++ {
		if m.Load(L.inISOff+v) != 0 {
			added = append(added, hypergraph.V(v))
		}
	}
	return added
}

func boolCell(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

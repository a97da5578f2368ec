// Wireless: channel allocation under group interference.
//
// Transmitters on a grid interfere in *groups*: a set of transmitters
// sharing a congested cell cannot all use the same channel, but any
// proper subset can (capture effect / CDMA-style tolerance). Group
// conflicts are exactly hyperedges — the pairwise graph model would be
// far too conservative. Assigning channels greedily by repeated MIS
// extraction gives every transmitter a channel with no hyperedge
// monochromatic.
//
// The example compares the hypergraph coloring against the pessimistic
// pairwise-graph coloring on the same layout: the hypergraph model
// needs visibly fewer channels, which is the practical reason to want
// hypergraph MIS (and the fast parallel primitive the paper provides).
//
//	go run ./examples/wireless
package main

import (
	"fmt"
	"log"

	hypermis "repro"
	"repro/internal/rng"
)

const (
	gridSide    = 24  // transmitters on a gridSide×gridSide layout
	cellCount   = 140 // congested cells
	groupSize   = 4   // transmitters per congested cell
	maxChannels = 64  // safety bound
)

func main() {
	n := gridSide * gridSide
	s := rng.New(99)

	// Congested cells pick nearby transmitters (a random anchor and
	// its neighbourhood) — groups of size groupSize form the hyperedges.
	groups := make([]hypermis.Edge, 0, cellCount)
	for c := 0; c < cellCount; c++ {
		ax, ay := s.Intn(gridSide), s.Intn(gridSide)
		seen := map[int]bool{}
		e := make(hypermis.Edge, 0, groupSize)
		for len(e) < groupSize {
			dx, dy := s.Intn(5)-2, s.Intn(5)-2
			x, y := (ax+dx+gridSide)%gridSide, (ay+dy+gridSide)%gridSide
			id := x*gridSide + y
			if !seen[id] {
				seen[id] = true
				e = append(e, hypermis.V(id))
			}
		}
		groups = append(groups, e)
	}

	hyper, err := hypermis.FromEdges(n, groups)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transmitters=%d interference groups=%d (size %d)\n", n, hyper.M(), groupSize)

	hyperChannels := colorByMIS(hyper, "hypergraph")

	// Pairwise pessimistic model: every pair inside a group conflicts.
	pb := hypermis.NewBuilder(n)
	for _, g := range groups {
		for i := 0; i < len(g); i++ {
			for j := i + 1; j < len(g); j++ {
				pb.AddEdge(g[i], g[j])
			}
		}
	}
	pairwise, err := pb.Build()
	if err != nil {
		log.Fatal(err)
	}
	pairChannels := colorByMIS(pairwise, "pairwise graph")

	fmt.Printf("\nchannels needed — hypergraph model: %d, pairwise model: %d\n",
		hyperChannels, pairChannels)
	if hyperChannels > pairChannels {
		log.Fatal("hypergraph model should never need more channels")
	}
}

// colorByMIS assigns channels by repeated MIS extraction and returns
// the number of channels used. Every extracted set is verified.
func colorByMIS(h *hypermis.Hypergraph, label string) int {
	n := h.N()
	channel := make([]int, n)
	for i := range channel {
		channel[i] = -1
	}
	assigned := 0
	ch := 0
	for assigned < n && ch < maxChannels {
		b := hypermis.NewBuilder(n)
		for _, e := range h.Edges() {
			all := true
			for _, v := range e {
				if channel[v] != -1 {
					all = false
					break
				}
			}
			if all {
				b.AddEdgeSlice(e)
			}
		}
		sub, err := b.Build()
		if err != nil {
			log.Fatal(err)
		}
		res, err := hypermis.Solve(sub, hypermis.Options{Seed: uint64(7 + ch)})
		if err != nil {
			log.Fatal(err)
		}
		if err := hypermis.VerifyMIS(sub, res.MIS); err != nil {
			log.Fatal(err)
		}
		batch := 0
		for v := 0; v < n; v++ {
			if channel[v] == -1 && res.MIS[v] {
				channel[v] = ch
				batch++
			}
		}
		assigned += batch
		fmt.Printf("  %-15s channel %2d -> %4d transmitters (%4d left)\n",
			label, ch, batch, n-assigned)
		ch++
	}
	// Sanity: no hyperedge monochromatic.
	for _, e := range h.Edges() {
		c0 := channel[e[0]]
		mono := true
		for _, v := range e {
			if channel[v] != c0 {
				mono = false
				break
			}
		}
		if mono {
			log.Fatalf("%s: monochromatic conflict group %v", label, e)
		}
	}
	return ch
}

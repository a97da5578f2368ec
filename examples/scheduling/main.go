// Scheduling: batch admission under shared-resource conflicts.
//
// A cluster runs batch jobs; each resource (GPU pool, license server,
// bandwidth class) can serve only a limited number of its subscribers at
// once. Every minimal over-subscribed subset of jobs forms a hyperedge:
// those jobs must not all run in the same window. A maximal independent
// set is then exactly a maximal admissible batch — no constraint
// violated, no further job admittable.
//
// Repeatedly extracting an MIS and removing it partitions the whole job
// set into conflict-free windows (MIS-peeling), the classic application
// pattern for parallel MIS primitives.
//
//	go run ./examples/scheduling
package main

import (
	"fmt"
	"log"

	hypermis "repro"
	"repro/internal/rng"
)

const (
	numJobs      = 1200
	numResources = 180
	subsPerRes   = 9 // jobs subscribed to each resource
	capacity     = 6 // how many subscribers a resource can serve at once
)

func main() {
	s := rng.New(2024)

	// Each resource picks its subscribers; any (capacity+1)-subset of a
	// resource's subscribers is an over-subscription constraint. Using
	// one random minimal violating set per resource keeps the instance
	// sparse while preserving the structure (capacity constraints give
	// (cap+1)-uniform hyperedges over subscriber pools).
	b := hypermis.NewBuilder(numJobs)
	edgeCount := 0
	for r := 0; r < numResources; r++ {
		subs := make([]hypermis.V, 0, subsPerRes)
		seen := map[int]bool{}
		for len(subs) < subsPerRes {
			j := s.Intn(numJobs)
			if !seen[j] {
				seen[j] = true
				subs = append(subs, hypermis.V(j))
			}
		}
		// Three random minimal violating subsets per resource.
		for c := 0; c < 3; c++ {
			perm := s.Perm(subsPerRes)
			e := make(hypermis.Edge, capacity+1)
			for i := 0; i <= capacity; i++ {
				e[i] = subs[perm[i]]
			}
			b.AddEdgeSlice(e)
			edgeCount++
		}
	}
	h, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("jobs=%d resources=%d constraints=%d (dimension %d)\n",
		numJobs, numResources, h.M(), h.Dim())

	// MIS-peeling: window after window until all jobs are scheduled.
	remaining := make([]bool, numJobs)
	for i := range remaining {
		remaining[i] = true
	}
	window := 0
	scheduled := 0
	for scheduled < numJobs {
		// Restrict the instance to unscheduled jobs: edges with a
		// scheduled job can no longer be violated within this window
		// universe, but edges entirely among remaining jobs still bind.
		sub := activeSubinstance(h, remaining)
		res, err := hypermis.Solve(sub, hypermis.Options{
			Algorithm: hypermis.AlgBL, // dimension 7: BL's home turf
			Seed:      uint64(1000 + window),
		})
		if err != nil {
			log.Fatal(err)
		}
		batch := 0
		for v := 0; v < numJobs; v++ {
			if remaining[v] && res.MIS[v] {
				remaining[v] = false
				batch++
			}
		}
		scheduled += batch
		window++
		fmt.Printf("window %2d: admitted %4d jobs (%4d remaining)\n",
			window, batch, numJobs-scheduled)
		if batch == 0 {
			log.Fatal("no progress — impossible for a correct MIS")
		}
	}
	fmt.Printf("\nall %d jobs scheduled in %d conflict-free windows\n", numJobs, window)
}

// activeSubinstance keeps only edges fully inside the remaining set and
// marks removed jobs as isolated (they are ignored by the solve; the
// caller intersects the result with `remaining`).
func activeSubinstance(h *hypermis.Hypergraph, remaining []bool) *hypermis.Hypergraph {
	b := hypermis.NewBuilder(h.N())
	for _, e := range h.Edges() {
		inside := true
		for _, v := range e {
			if !remaining[v] {
				inside = false
				break
			}
		}
		if inside {
			b.AddEdgeSlice(e)
		}
	}
	sub, err := b.Build()
	if err != nil {
		panic(err)
	}
	return sub
}

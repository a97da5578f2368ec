package main

import (
	"testing"

	hypermis "repro"
)

func solved(t *testing.T, h *hypermis.Hypergraph, seed uint64) []bool {
	t.Helper()
	res, err := hypermis.Solve(h, hypermis.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res.MIS
}

func TestCheckerRejectsPlantedAnswers(t *testing.T) {
	h := hypermis.RandomGraph(1, 200, 600)
	mis := solved(t, h, 1)
	col, err := hypermis.ColorByMIS(h, hypermis.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A maximal independent set minus one member is still independent,
	// but no longer maximal: the member can be added back.
	nonMaximal := append([]bool(nil), mis...)
	for v, in := range nonMaximal {
		if in {
			nonMaximal[v] = false
			break
		}
	}
	// One color for every vertex leaves every edge monochromatic.
	improper := make([]int, h.N())

	for _, c := range []struct {
		name   string
		record func(*checker)
		wrong  int
	}{
		{"valid MIS", func(c *checker) { c.setMask(item{seed: 1}, mis) }, 0},
		{"valid coloring", func(c *checker) { c.setColors(item{seed: 1, kind: kindColor}, col.Colors, col.NumColors) }, 0},
		{"non-maximal mask", func(c *checker) { c.setMask(item{seed: 1}, nonMaximal) }, 1},
		{"improper coloring", func(c *checker) { c.setColors(item{seed: 1, kind: kindColor}, improper, 1) }, 1},
		{"repeat answered differently", func(c *checker) {
			c.setMask(item{seed: 7}, mis)
			c.verify()
			c.setMask(item{seed: 7}, solved(t, h, 2))
		}, 1},
	} {
		chk, err := newChecker([]*hypermis.Hypergraph{h})
		if err != nil {
			t.Fatal(err)
		}
		c.record(chk)
		wrong, err := chk.finish()
		if wrong != c.wrong || (err != nil) != (c.wrong > 0) {
			t.Errorf("%s: %d wrong (%v), want %d", c.name, wrong, err, c.wrong)
		}
		if err := chk.close(); err != nil {
			t.Fatal(err)
		}
	}
}

package experiments

import (
	"math"

	"repro/internal/bl"
	"repro/internal/harness"
	"repro/internal/hypergraph"
	"repro/internal/mathx"
	"repro/internal/potential"
	"repro/internal/rng"
	"repro/internal/stats"
)

// T4 — Theorem 2: BL terminates in O((log n)^{(d+4)!}) stages for
// d ≤ log(2)n/(4·log(3)n). The bound is astronomically loose by design;
// the measurable content is that stages grow polylogarithmically — we
// fit stages against log n and report the exponent alongside the bound.
func init() {
	harness.Register(harness.Experiment{
		ID:    "t4",
		Title: "BL stage counts vs dimension (Theorem 2)",
		Claim: "BL terminates in O((log n)^{(d+4)!}) stages w.h.p. for d ≤ log(2)n/(4·log(3)n)",
		Run:   runT4,
	})
}

func runT4(cfg harness.Config) []*harness.Table {
	trials := trialsOr(cfg.Trials, 3)
	sizes := sweepSizes(cfg.Quick)
	dims := []int{2, 3, 4, 5}
	if cfg.Quick {
		dims = []int{2, 3}
	}
	tab := &harness.Table{
		ID:      "t4",
		Title:   "BL stages on random d-uniform hypergraphs (m = 2n)",
		Note:    "measured stages must stay polylog; the (d+4)! bound is reported as log₂ for scale (vacuously loose)",
		Columns: []string{"d", "n", "stages mean", "stages max", "polylog fit e: stages~(logn)^e", "log₂ bound (logn)^{(d+4)!}"},
	}
	for _, d := range dims {
		var logns, st []float64
		rows := make([][2]float64, 0, len(sizes))
		var maxByN []float64
		for _, n := range sizes {
			var stages []float64
			for t := 0; t < trials; t++ {
				h := hypergraph.RandomUniform(rng.New(cfg.Seed+uint64(7000*n+100*d+t)), n, 2*n, d)
				res, err := bl.Run(h, nil, rng.New(cfg.Seed+uint64(t)), nil, bl.DefaultOptions())
				if err != nil {
					cfg.Logf("t4: d=%d n=%d: %v", d, n, err)
					continue
				}
				stages = append(stages, float64(res.Stages))
			}
			if len(stages) == 0 {
				continue
			}
			s := stats.Summarize(stages)
			rows = append(rows, [2]float64{float64(n), s.Mean})
			maxByN = append(maxByN, s.Max)
			logns = append(logns, mathx.Log2(float64(n)))
			st = append(st, s.Mean)
		}
		fit := stats.GrowthExponent(logns, st)
		for i, r := range rows {
			n := int(r[0])
			fitCell := ""
			if i == len(rows)-1 {
				fitCell = fmtF(fit.Slope)
			}
			tab.AddRow(fmtI(d), fmtI(n), fmtF(r[1]), fmtF(maxByN[i]), fitCell,
				fmtF(potential.StageBoundLog(float64(n), d)))
		}
		cfg.Logf("t4: d=%d done", d)
	}
	return []*harness.Table{tab}
}

// T5 — Lemma 2 ([2] Lemma 1): conditioned on a set X being fully
// marked, the probability that any of its vertices is unmarked by a
// fully-marked edge is < 1/2, i.e. marked sets survive into the IS with
// probability > 1/2. Measured by forcing C_X = 1 and simulating.
func init() {
	harness.Register(harness.Experiment{
		ID:    "t5",
		Title: "Survival probability of marked sets (Lemma 2)",
		Claim: "Pr[E_X | C_X] < 1/2 whenever |X| < d and no edge is inside X",
		Run:   runT5,
	})
}

func runT5(cfg harness.Config) []*harness.Table {
	trials := trialsOr(cfg.Trials, 4000)
	n := 512
	if cfg.Quick {
		n, trials = 256, 1000
	}
	tab := &harness.Table{
		ID:      "t5",
		Title:   "Pr[E_X | C_X] at BL's marking probability p = 1/(2^{d+1}Δ)",
		Note:    "every measured probability must sit strictly below 0.5 — the engine of per-stage progress",
		Columns: []string{"d", "|X|", "p", "Pr[E_X|C_X] measured", "bound"},
	}
	for _, d := range []int{3, 4, 5} {
		h := hypergraph.RandomUniform(rng.New(cfg.Seed+uint64(100*d)), n, 2*n, d)
		tabDeg := hypergraph.BuildDegreeTable(h)
		delta := tabDeg.Delta()
		p := 1.0 / (math.Pow(2, float64(d+1)) * delta)
		if p > 1 {
			p = 1
		}
		for _, xLen := range []int{1, 2} {
			if xLen >= d {
				continue
			}
			s := rng.New(cfg.Seed + uint64(d*10+xLen))
			hits, total := 0, 0
			marked := make([]bool, n)
			for t := 0; t < trials; t++ {
				// Pick X as a random subset of a random edge (guaranteed
				// to be a candidate set with no contained edge, since
				// proper subsets of minimal edges are not edges after
				// superset removal; random uniform instances rarely have
				// nested edges at all).
				e := h.Edge(s.Intn(h.M()))
				x := e[:xLen]
				ts := s.Child(uint64(t))
				for v := range marked {
					marked[v] = ts.Child(uint64(v)).Bernoulli(p)
				}
				for _, v := range x {
					marked[v] = true // condition on C_X
				}
				// E_X: some vertex of X belongs to a fully-marked edge.
				ex := false
				for _, f := range h.Edges() {
					all := true
					touchesX := false
					for _, v := range f {
						if !marked[v] {
							all = false
							break
						}
					}
					if !all {
						continue
					}
					for _, v := range f {
						for _, xv := range x {
							if v == xv {
								touchesX = true
							}
						}
					}
					if touchesX {
						ex = true
						break
					}
				}
				total++
				if ex {
					hits++
				}
			}
			tab.AddRow(fmtI(d), fmtI(xLen), fmtF(p),
				fmtF(float64(hits)/float64(total)), "0.5")
		}
		cfg.Logf("t5: d=%d done", d)
	}
	return []*harness.Table{tab}
}

// T6 — Lemma 3 ([2] Lemma 2): if d_j(X,H) ≥ εΔ then with probability
// ≥ ¼(ε/a)^j some Y ∈ N_j(X,H) is fully added to the IS in one stage
// (collapsing X's degree). Measured on star instances where the hub has
// the extreme degree.
func init() {
	harness.Register(harness.Experiment{
		ID:    "t6",
		Title: "Degree collapse probability (Lemma 3)",
		Claim: "d_j(X) ≥ εΔ ⟹ Pr[∃Y ∈ N_j(X): A_Y] ≥ ¼(ε/a)^j with a = 2^{d+1}",
		Run:   runT6,
	})
}

func runT6(cfg harness.Config) []*harness.Table {
	trials := trialsOr(cfg.Trials, 3000)
	n := 512
	if cfg.Quick {
		n, trials = 256, 800
	}
	tab := &harness.Table{
		ID:      "t6",
		Title:   "One-stage collapse frequency for the maximum-degree set (star instances)",
		Note:    "measured frequency must dominate the ¼(ε/a)^j lower bound",
		Columns: []string{"d", "j", "eps", "bound ¼(ε/a)^j", "measured", "ratio"},
	}
	for _, d := range []int{3, 4} {
		m := 4 * n / d
		h := hypergraph.Star(rng.New(cfg.Seed+uint64(d)), n, m, d)
		tabDeg := hypergraph.BuildDegreeTable(h)
		delta := tabDeg.Delta()
		a := math.Pow(2, float64(d+1))
		p := 1.0 / (a * delta)
		x := hypergraph.Edge{0} // the hub
		j := d - 1
		dj := tabDeg.NormDegree(x, j)
		eps := dj / delta
		bound := 0.25 * math.Pow(eps/a, float64(j))
		s := rng.New(cfg.Seed + uint64(31*d))
		marked := make([]bool, n)
		unmark := make([]bool, n)
		hits := 0
		for t := 0; t < trials; t++ {
			ts := s.Child(uint64(t))
			for v := range marked {
				marked[v] = ts.Child(uint64(v)).Bernoulli(p)
				unmark[v] = false
			}
			for _, f := range h.Edges() {
				all := true
				for _, v := range f {
					if !marked[v] {
						all = false
						break
					}
				}
				if all {
					for _, v := range f {
						unmark[v] = true
					}
				}
			}
			// Collapse: some petal Y (edge minus hub) fully added.
			for _, f := range h.Edges() {
				y := f[1:] // hub is vertex 0, first in sorted order
				allIn := true
				for _, v := range y {
					if !(marked[v] && !unmark[v]) {
						allIn = false
						break
					}
				}
				if allIn {
					hits++
					break
				}
			}
		}
		measured := float64(hits) / float64(trials)
		ratio := math.Inf(1)
		if bound > 0 {
			ratio = measured / bound
		}
		tab.AddRow(fmtI(d), fmtI(j), fmtF(eps), fmtF(bound), fmtF(measured), fmtF(ratio))
		cfg.Logf("t6: d=%d done", d)
	}
	return []*harness.Table{tab}
}

// T7 — Lemma 5: within (log n)^r stages, v₂(H_s) stays ≤ v₂·(1+o(1));
// more precisely v_j(H_s) ≤ T_j·(1+λ(n)). We track the v_j trajectory
// (log₂-space, paper recurrence) across a BL run on migration-heavy
// instances.
func init() {
	harness.Register(harness.Experiment{
		ID:    "t7",
		Title: "Potential-function trajectory v_j(H_s) (Lemma 5)",
		Claim: "v_j(H_s) ≤ T_j·(1+λ(n)) throughout; v₂ decreases by a constant factor every q_d stages",
		Run:   runT7,
	})
}

func runT7(cfg harness.Config) []*harness.Table {
	n := 1024
	if cfg.Quick {
		n = 512
	}
	h := hypergraph.LayeredMigration(rng.New(cfg.Seed+3), n, 2, 4, 6, n/16)
	opts := bl.DefaultOptions()
	opts.CollectStats = true
	res, err := bl.Run(h, nil, rng.New(cfg.Seed), nil, opts)
	tab := &harness.Table{
		ID:      "t7",
		Title:   "log₂ v_j across BL stages (layered-migration instance, paper recurrence f(+d²))",
		Note:    "v₂ must be non-increasing up to the (1+λ) slack; λ(n) = 2·loglog n/log n",
		Columns: []string{"stage", "edges", "dim", "Δ(H)", "log₂v₂", "log₂v₃", "log₂v₄", "added"},
	}
	if err != nil {
		cfg.Logf("t7: %v", err)
		return []*harness.Table{tab}
	}
	d := h.Dim()
	ft := potential.PaperTable(d)
	logCell := func(v []float64, j int) string {
		if j < len(v) && !math.IsInf(v[j], -1) {
			return fmtF(v[j])
		}
		return "-inf"
	}
	// Sample at most ~24 stages evenly to keep the table readable.
	step := 1
	if len(res.Stats) > 24 {
		step = len(res.Stats) / 24
	}
	prevV2 := math.Inf(1)
	violations := 0
	lambda := potential.Lambda(float64(n))
	slackLog := math.Log2(1 + lambda)
	for i, st := range res.Stats {
		if st.Deltas == nil {
			continue
		}
		v := ft.VValuesLog(float64(n), st.Deltas)
		v2 := math.Inf(-1)
		if len(v) > 2 {
			v2 = v[2]
		}
		if v2 > prevV2+slackLog+1e-9 {
			violations++
		}
		if v2 < prevV2 {
			prevV2 = v2
		}
		if i%step == 0 || i == len(res.Stats)-1 {
			tab.AddRow(fmtI(st.Stage), fmtI(st.Edges), fmtI(st.Dim), fmtF(st.Delta),
				logCell(v, 2), logCell(v, 3), logCell(v, 4), fmtI(st.Added))
		}
	}
	sum := &harness.Table{
		ID: "t7", Title: "Trajectory summary",
		Columns: []string{"stages", "λ(n)", "v₂ slack violations", "verdict"},
	}
	verdict := "monotone within (1+λ) slack"
	if violations > 0 {
		verdict = "VIOLATIONS — investigate"
	}
	sum.AddRow(fmtI(res.Stages), fmtF(lambda), fmtI(violations), verdict)
	return []*harness.Table{tab, sum}
}

// Package concentration implements the probabilistic machinery of
// Sections 3–4 of the paper: Kelsen's polynomial concentration setting,
// his Theorem 1 (the paper's Theorem 3) tail bound, the cleaner
// Corollary 1 form, the Kim–Vu style sharpening of Section 4
// (Corollaries 3 and 4), and Monte-Carlo estimation of the true tails so
// experiments T9 and F2 can compare measured behaviour against every
// bound.
//
// The object of study is the edge polynomial of a weighted hypergraph
// (H, w) under independent vertex coloring: each vertex v is blue with
// probability p (indicator C_v), and
//
//	S(H,w,p) = Σ_{e ∈ E} w(e) · Π_{v∈e} C_v.
//
// The bounds are phrased against the maximum partial-derivative
// expectation
//
//	P(H,w,p,x) = Σ_{e ⊇ x} w(e) · p^{|e|−|x|}
//	D(H,w,p)   = max_{x ⊆ V} P(H,w,p,x)    (x = ∅ gives E[S]).
package concentration

import (
	"math"

	"repro/internal/hypergraph"
	"repro/internal/mathx"
	"repro/internal/rng"
)

// Weighted is a weighted hypergraph (H, w): the carrier of the edge
// polynomial S(H, w, p). Weights must be positive.
type Weighted struct {
	N       int
	Edges   []hypergraph.Edge
	Weights []float64
}

// FromHypergraph wraps h with unit weights. The Weighted lists h's
// edges, sharing their vertices with h.
func FromHypergraph(h *hypergraph.Hypergraph) *Weighted {
	edges := make([]hypergraph.Edge, h.M())
	w := make([]float64, h.M())
	for i, e := range h.Edges() {
		edges[i] = e
		w[i] = 1
	}
	return &Weighted{N: h.N(), Edges: edges, Weights: w}
}

// Dim returns the dimension of the weighted hypergraph.
func (w *Weighted) Dim() int {
	d := 0
	for _, e := range w.Edges {
		if len(e) > d {
			d = len(e)
		}
	}
	return d
}

// Evaluate computes S for a concrete coloring: the weighted count of
// fully-blue edges.
func (w *Weighted) Evaluate(blue []bool) float64 {
	total := 0.0
	for i, e := range w.Edges {
		all := true
		for _, v := range e {
			if !blue[v] {
				all = false
				break
			}
		}
		if all {
			total += w.Weights[i]
		}
	}
	return total
}

// Expectation returns E[S(H,w,p)] = Σ w(e)·p^{|e|} = P(H,w,p,∅).
func (w *Weighted) Expectation(p float64) float64 {
	total := 0.0
	for i, e := range w.Edges {
		total += w.Weights[i] * mathx.PowInt(p, len(e))
	}
	return total
}

// PartialExpectation returns P(H,w,p,x) for a sorted vertex set x: the
// expected weighted count of fully-blue edges around x given that x is
// already blue.
func (w *Weighted) PartialExpectation(p float64, x hypergraph.Edge) float64 {
	total := 0.0
	for i, e := range w.Edges {
		if hypergraph.ContainsSorted(e, x) {
			total += w.Weights[i] * mathx.PowInt(p, len(e)-len(x))
		}
	}
	return total
}

// D returns D(H,w,p) = max over all x ⊆ V of P(H,w,p,x). Only subsets
// of edges (and ∅) can attain the maximum, so those are enumerated —
// Θ(m·2^d), the regime these analyses live in.
func (w *Weighted) D(p float64) float64 {
	best := w.Expectation(p) // x = ∅
	// Accumulate P(x) for every nonempty subset x of every edge.
	acc := make(map[string]float64)
	var scratch hypergraph.Edge
	for i, e := range w.Edges {
		k := len(e)
		for mask := uint32(1); mask < uint32(1)<<uint(k); mask++ {
			scratch = scratch[:0]
			for b := 0; b < k; b++ {
				if mask&(1<<uint(b)) != 0 {
					scratch = append(scratch, e[b])
				}
			}
			acc[edgeKey(scratch)] += w.Weights[i] * mathx.PowInt(p, k-len(scratch))
		}
	}
	for _, v := range acc {
		if v > best {
			best = v
		}
	}
	return best
}

func edgeKey(x hypergraph.Edge) string {
	buf := make([]byte, 0, 4*len(x))
	for _, v := range x {
		buf = append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return string(buf)
}

// TailResult summarizes a Monte-Carlo tail estimate.
type TailResult struct {
	Trials    int
	Exceed    int     // trials with S > Threshold
	Threshold float64 //
	Mean      float64 // empirical mean of S
	Max       float64 // empirical max of S
}

// Probability returns the empirical exceedance probability.
func (t TailResult) Probability() float64 {
	if t.Trials == 0 {
		return 0
	}
	return float64(t.Exceed) / float64(t.Trials)
}

// MonteCarloTail estimates Pr[S(H,w,p) > threshold] over the given
// number of independent colorings.
func MonteCarloTail(w *Weighted, p, threshold float64, trials int, s *rng.Stream) TailResult {
	blue := make([]bool, w.N)
	res := TailResult{Trials: trials, Threshold: threshold}
	sum := 0.0
	for t := 0; t < trials; t++ {
		ts := s.Child(uint64(t))
		for v := range blue {
			blue[v] = ts.Child(uint64(v)).Bernoulli(p)
		}
		val := w.Evaluate(blue)
		sum += val
		if val > threshold {
			res.Exceed++
		}
		if val > res.Max {
			res.Max = val
		}
	}
	if trials > 0 {
		res.Mean = sum / float64(trials)
	}
	return res
}

// --- Kelsen's Theorem 1 ([5]; the paper's Theorem 3) ---

// KelsenK returns k(H) = (log n + 2)^{2^d − 1} · δ^{2^d − 1}: the
// multiple of D(H,w,p) the tail is measured against.
func KelsenK(n, d int, delta float64) float64 {
	exp := math.Pow(2, float64(d)) - 1
	return math.Pow(mathx.Log2(float64(n))+2, exp) * math.Pow(delta, exp)
}

// KelsenTailProb returns p(H) = (2^d·⌈log n⌉·m)^{d−1} · log n ·
// (4e/δ)^{(δ−1)/4}: the probability bound of Theorem 3. Values above 1
// mean the bound is vacuous at these parameters (common at small n —
// that emptiness is itself reported in experiment T9).
func KelsenTailProb(n, d, m int, delta float64) float64 {
	if delta <= 1 {
		return 1
	}
	logn := mathx.Log2(float64(n))
	base := math.Pow(2, float64(d)) * math.Ceil(logn) * float64(m)
	lead := math.Pow(base, float64(d-1)) * logn
	tail := math.Pow(4*math.E/delta, (delta-1)/4)
	return lead * tail
}

// KelsenCorollary1Threshold returns the (log n)^{2^{d+1}}·D threshold of
// Corollary 1 (δ = log² n), whose failure probability is
// n^{−Θ(log n·log log n)}.
func KelsenCorollary1Threshold(n, d int, dVal float64) float64 {
	return math.Pow(mathx.Log2(float64(n)), math.Pow(2, float64(d+1))) * dVal
}

// --- Section 4: Kim–Vu sharpening ---

// KimVuA returns a_r = 8^r·(r!)^{1/2} (the constant of Corollary 3 with
// r = k−j).
func KimVuA(r int) float64 {
	return math.Pow(8, float64(r)) * math.Sqrt(mathx.Factorial(r))
}

// KimVuThresholdFactor returns 1 + a_{k−j}·λ^{k−j}: the multiple of
// (Δ_{|X|+k})^j in Corollary 3.
func KimVuThresholdFactor(kMinusJ int, lambda float64) float64 {
	return 1 + KimVuA(kMinusJ)*mathx.PowInt(lambda, kMinusJ)
}

// KimVuTailProb returns 2e²·e^{−λ}·n^{k−j−1}: the failure probability of
// Corollary 3.
func KimVuTailProb(n int, kMinusJ int, lambda float64) float64 {
	return 2 * math.E * math.E * math.Exp(-lambda) * mathx.PowInt(float64(n), kMinusJ-1)
}

// --- Migration bounds (Corollary 2 vs Corollary 4) ---

// KelsenMigrationFactor returns (log n)^{2^{k−j}+1}: Kelsen's per-stage
// bound on the increase of d_{j−|X|} contributed by dimension-k edges,
// as a multiple of Δ_k(H) (Corollary 2).
func KelsenMigrationFactor(n, k, j int) float64 {
	return math.Pow(mathx.Log2(float64(n)), math.Pow(2, float64(k-j))+1)
}

// KimVuMigrationFactor returns (log n)^{2(k−j)}: the paper's sharpened
// bound (Corollary 4), "much smaller" than Kelsen's for k−j ≥ 2.
func KimVuMigrationFactor(n, k, j int) float64 {
	return math.Pow(mathx.Log2(float64(n)), 2*float64(k-j))
}

// --- The migration polynomial of Section 3 ---

// MigrationPolynomial constructs the weighted hypergraph (H', w') the
// analysis bounds edge migration with. Given a set X and levels
// j < k ≤ d−|X|: the edges of H' are all (k−j)-subsets Y of the petals
// Z ∈ N_k(X, H) ("all the potential ways in which an edge of size
// |X|+k can lose k−j vertices"), and w'(Y) counts the edges Z ∈
// N_k(X,H) containing Y — the number of size-|X|+j edges around X that
// appear if Y is fully added to the MIS. S(H',w',p) then upper-bounds
// the one-stage increase of |N_j(X,H)|.
func MigrationPolynomial(h *hypergraph.Hypergraph, x hypergraph.Edge, j, k int) *Weighted {
	acc := make(map[string]float64)
	var keys []string
	for _, e := range h.Edges() {
		if len(e) != len(x)+k || !hypergraph.ContainsSorted(e, x) {
			continue
		}
		z := hypergraph.DiffSorted(e, x) // the petal, |z| = k
		// Enumerate (k−j)-subsets of z.
		var sub hypergraph.Edge
		kk := len(z)
		for mask := uint32(1); mask < uint32(1)<<uint(kk); mask++ {
			if popcount(mask) != k-j {
				continue
			}
			sub = sub[:0]
			for b := 0; b < kk; b++ {
				if mask&(1<<uint(b)) != 0 {
					sub = append(sub, z[b])
				}
			}
			key := edgeKey(sub)
			if _, seen := acc[key]; !seen {
				keys = append(keys, key)
			}
			acc[key]++
		}
	}
	w := &Weighted{N: h.N()}
	for _, key := range keys {
		w.Edges = append(w.Edges, decodeEdgeKey(key))
		w.Weights = append(w.Weights, acc[key])
	}
	return w
}

func decodeEdgeKey(key string) hypergraph.Edge {
	e := make(hypergraph.Edge, len(key)/4)
	for i := range e {
		e[i] = hypergraph.V(uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 |
			uint32(key[4*i+2])<<8 | uint32(key[4*i+3]))
	}
	return e
}

func popcount(x uint32) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// Lemma4Bound returns (Δ_{|X|+k}(H))^j — Kelsen's Lemma 3 ([5] Lemma 3,
// the paper's Lemma 4) upper bound on D(H',w',p) for the migration
// polynomial.
func Lemma4Bound(tab *hypergraph.DegreeTable, xLen, j, k int) float64 {
	return mathx.PowInt(tab.DeltaI(xLen+k), j)
}

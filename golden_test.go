package hypermis

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestDeterminismGoldenAnswers pins answers across commits, not just
// across parallelism degrees: the SHA-256 of each MIS mask (one byte
// per vertex, 0 or 1) and the round count, for fixed instances and
// seeds, at degrees 1, 2 and 8. The durable result tier serves records
// an older binary wrote as the answer, so a solver change that moves
// any of these values changes what the service returns. The values were
// recorded before the residual-multiset round pipeline replaced the
// canonical one, and must never be regenerated to make a change pass.
//
// The α = 0.45 SBL rows leave a tail of about 2,000 vertices with live
// edges, so the KUW and greedy tails give different answers there; at
// the default α the tail has no edges left and both agree.
//
// The RandomUniform(47, …) BL rows have an arena of 36,000 vertex
// slots, above par.MinScanWork, and were recorded while BL's stages
// still canonicalized arenas that large with a sharded sort and Merge
// Path merges; they pin the serial canonicalizer that replaced them.
func TestDeterminismGoldenAnswers(t *testing.T) {
	instances := map[string]*Hypergraph{
		"RandomMixed(41, 3000, 6000, 2, 14)":  RandomMixed(41, 3000, 6000, 2, 14),
		"RandomMixed(42, 5000, 15000, 2, 12)": RandomMixed(42, 5000, 15000, 2, 12),
		"RandomMixed(43, 3000, 6000, 2, 10)":  RandomMixed(43, 3000, 6000, 2, 10),
		"RandomMixed(44, 2000, 6000, 2, 12)":  RandomMixed(44, 2000, 6000, 2, 12),
		"RandomUniform(45, 1500, 3000, 3)":    RandomUniform(45, 1500, 3000, 3),
		"RandomMixed(46, 1000, 2000, 2, 4)":   RandomMixed(46, 1000, 2000, 2, 4),
		"RandomUniform(47, 4000, 12000, 3)":   RandomUniform(47, 4000, 12000, 3),
	}
	golden := []struct {
		solver   string // "sbl-kuw" and "sbl-greedy" are SBL with that tail
		instance string
		alpha    float64
		seed     uint64
		rounds   int
		maskSHA  string
	}{
		{"sbl-kuw", "RandomMixed(41, 3000, 6000, 2, 14)", 0, 1, 29, "193065d9880f2fde11f73b2b7f428d9a25b732d33b816386afdfce01d24a96e3"},
		{"sbl-kuw", "RandomMixed(41, 3000, 6000, 2, 14)", 0, 2, 27, "80a7f2bf47a323f1c6345cece704c741317e417a52b85ab2d54df509cd6d7d6b"},
		{"sbl-kuw", "RandomMixed(42, 5000, 15000, 2, 12)", 0.45, 1, 40, "e584aab060b30da319dbf12a4492f506343d45e5f3b2cf4bf27fe76ec27674a8"},
		{"sbl-kuw", "RandomMixed(42, 5000, 15000, 2, 12)", 0.45, 2, 40, "20e3c99abfc093f068d028e516d8299a92c8b631600e997366eb62e71643c4f2"},
		{"sbl-greedy", "RandomMixed(41, 3000, 6000, 2, 14)", 0, 1, 29, "193065d9880f2fde11f73b2b7f428d9a25b732d33b816386afdfce01d24a96e3"},
		{"sbl-greedy", "RandomMixed(41, 3000, 6000, 2, 14)", 0, 2, 27, "80a7f2bf47a323f1c6345cece704c741317e417a52b85ab2d54df509cd6d7d6b"},
		{"sbl-greedy", "RandomMixed(42, 5000, 15000, 2, 12)", 0.45, 1, 40, "ee9f99a1f31a9888b2c0052f0bc84b763704440a3ad1e0206aa0d24489485663"},
		{"sbl-greedy", "RandomMixed(42, 5000, 15000, 2, 12)", 0.45, 2, 40, "462654a759dd81f7772731a25708108e7ba5b8c976899f4870e6745de2a41909"},
		{"kuw", "RandomMixed(43, 3000, 6000, 2, 10)", 0, 1, 34, "66175cfb5ea9055afc6a5e0e2a9e2785997ff3d6c3ae1f46bad4822c96f504f1"},
		{"kuw", "RandomMixed(43, 3000, 6000, 2, 10)", 0, 2, 36, "d5593f4d261a4c608a727382166ce273bc1f299cf89511e885c812d77e748cbc"},
		{"kuw", "RandomMixed(44, 2000, 6000, 2, 12)", 0, 1, 29, "637f106eaad642ca7e65fd91e0cbf7acd40ab63b187e856ea628be0e8486c938"},
		{"kuw", "RandomMixed(44, 2000, 6000, 2, 12)", 0, 2, 27, "b720250c1953afa28f36dc39377a342c285a0a93bb1c29ca7d96df44dca5b9ef"},
		{"bl", "RandomUniform(45, 1500, 3000, 3)", 0, 1, 136, "793ac18c463d3aaa52e031184189b390494c6c6cb00774c573e6b74ab8545b77"},
		{"bl", "RandomUniform(45, 1500, 3000, 3)", 0, 2, 128, "f485707011727dbe77b1d45e700cc9ef0018c7021c28ef9191e70654c33b03a1"},
		{"bl", "RandomMixed(46, 1000, 2000, 2, 4)", 0, 1, 172, "1c4c5e0d7263f360db385eaf4970cb7d76f460ef32ddde915dd941ec3d3747ee"},
		{"bl", "RandomMixed(46, 1000, 2000, 2, 4)", 0, 2, 187, "ff471b9ac54c425f7ed81203f3e35292942f232553984ff7cb26a65a9b26f644"},
		{"bl", "RandomUniform(47, 4000, 12000, 3)", 0, 1, 172, "ac147f2fa19732cadd4b8895453706ae0ef7ca6c9852eb093b3c0aa9a4a78f38"},
		{"bl", "RandomUniform(47, 4000, 12000, 3)", 0, 2, 168, "7f01b4e0a21b4933caf78413d423e02c52382eb9c1cd48891368cf3f95007dbd"},
	}
	algos := map[string]Algorithm{"sbl-kuw": AlgSBL, "sbl-greedy": AlgSBL, "kuw": AlgKUW, "bl": AlgBL}
	for _, g := range golden {
		h := instances[g.instance]
		for _, p := range []int{1, 2, 8} {
			label := fmt.Sprintf("%s %s α=%v seed=%d par=%d", g.solver, g.instance, g.alpha, g.seed, p)
			res, err := Solve(h, Options{
				Algorithm:     algos[g.solver],
				Seed:          g.seed,
				Parallelism:   p,
				Alpha:         g.alpha,
				UseGreedyTail: g.solver == "sbl-greedy",
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := VerifyMIS(h, res.MIS); err != nil {
				t.Fatalf("%s: invalid MIS: %v", label, err)
			}
			if res.Rounds != g.rounds {
				t.Errorf("%s: rounds %d, golden %d", label, res.Rounds, g.rounds)
			}
			if sha := maskSHA256(res.MIS); sha != g.maskSHA {
				t.Errorf("%s: mask SHA-256 %s, golden %s", label, sha, g.maskSHA)
			}
		}
	}
}

// maskSHA256 hashes a vertex mask written as one byte (0 or 1) per
// vertex.
func maskSHA256(mask []bool) string {
	b := make([]byte, len(mask))
	for i, in := range mask {
		if in {
			b[i] = 1
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

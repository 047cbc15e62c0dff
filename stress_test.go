package repro_test

import (
	"fmt"
	"testing"

	"repro"
)

// The stress suite runs the main algorithms at sizes an order of magnitude
// beyond the unit tests, including the adversarial ascending-identifier
// regimes where the measure-uniform algorithms genuinely pay Θ(n) rounds.
// Skipped with -short.

func TestStressMISLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("stress suite skipped with -short")
	}
	cases := []struct {
		name string
		g    *repro.Graph
	}{
		{"gnp-5000", repro.GNP(5000, 0.0015, repro.NewRand(1))},
		{"grid-70x70", repro.Grid2D(70, 70)},
		{"ring-4999", repro.Ring(4999)},
		{"ba-4000", repro.BarabasiAlbert(4000, 3, repro.NewRand(2))},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			perfect := repro.PerfectMIS(c.g)
			for _, flips := range []int{0, 50, c.g.N() / 2} {
				preds := repro.FlipBits(perfect, flips, repro.NewRand(int64(flips)))
				for _, alg := range []string{"simple", "parallel", "interleaved"} {
					res, err := repro.RunProblem(c.g, "mis", alg, preds, repro.Options{Seed: 3, Parallel: true})
					if err != nil {
						t.Fatalf("alg %s flips %d: %v", alg, flips, err)
					}
					if flips == 0 && res.Run.Rounds > 3 {
						t.Errorf("alg %s: consistency broken at scale (%d rounds)", alg, res.Run.Rounds)
					}
				}
			}
		})
	}
}

func TestStressAdversarialLine(t *testing.T) {
	if testing.Short() {
		t.Skip("stress suite skipped with -short")
	}
	n := 8192
	g := repro.Line(n)
	preds := repro.Uniform(n, 1)
	// Simple pays ~n rounds; Parallel stays at O(Δ + log* d).
	simple, err := repro.RunProblem(g, "mis", "simple", preds, repro.Options{MaxRounds: 2 * n})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := repro.RunProblem(g, "mis", "parallel", preds, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if simple.Run.Rounds < n/2 {
		t.Errorf("simple took only %d rounds on the adversarial line; expected ~n", simple.Run.Rounds)
	}
	if parallel.Run.Rounds > 100 {
		t.Errorf("parallel took %d rounds; expected O(Δ + log* d) ≈ dozens", parallel.Run.Rounds)
	}
}

func TestStressAllProblemsOneNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("stress suite skipped with -short")
	}
	g := repro.GNP(2000, 0.003, repro.NewRand(9))
	if _, err := repro.RunProblem(g, "matching", "simple",
		repro.PerturbMatching(g, repro.PerfectMatching(g), 40, repro.NewRand(1)), repro.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.RunProblem(g, "vcolor", "simple",
		repro.PerturbVColor(g, repro.PerfectVColor(g), 40, repro.NewRand(2)), repro.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.RunProblem(g, "ecolor", "simple",
		repro.PerturbEColor(g, repro.PerfectEColor(g), 40, repro.NewRand(3)), repro.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestStressTreeLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("stress suite skipped with -short")
	}
	for _, n := range []int{5000, 20000} {
		r := repro.RandomRooted(n, repro.NewRand(int64(n)))
		preds := repro.FlipBits(repro.PerfectMIS(r.G), n/100, repro.NewRand(4))
		res, err := repro.RunTreeMIS(r, "parallel", preds, repro.Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		etaT := repro.TreeEtaT(r, preds)
		limit := (etaT+1)/2 + 5
		// The parallel variant is bounded by min{ceil(etaT/2)+5, O(log* d)}.
		if res.Run.Rounds > limit && res.Run.Rounds > 60 {
			t.Errorf("n=%d: %d rounds, etaT=%d", n, res.Run.Rounds, etaT)
		}
	}
}

func TestStressEngineParityLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("stress suite skipped with -short")
	}
	g := repro.GNP(3000, 0.002, repro.NewRand(11))
	preds := repro.FlipBits(repro.PerfectMIS(g), 100, repro.NewRand(12))
	seq, err := repro.RunProblem(g, "mis", "simple", preds, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := repro.RunProblem(g, "mis", "simple", preds, repro.Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Run.Rounds != par.Run.Rounds || fmt.Sprint(seq.Output) != fmt.Sprint(par.Output) {
		t.Error("engine modes disagree at scale")
	}
}

package repro_test

import (
	"fmt"

	"repro"
)

// ExampleRunProblem runs the Corollary 12 algorithm on a ring whose predictions
// contain one error: the two adjacent prediction-1 nodes form the only error
// component, so the algorithm finishes within a few rounds of the
// consistency bound.
func ExampleRunProblem() {
	g := repro.Ring(12)
	preds := repro.PerfectMIS(g)
	preds[1] = 1 // corrupt one bit

	res, err := repro.RunProblem(g, "mis", "parallel", preds, repro.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("valid:", len(res.Output) == g.N())
	fmt.Println("rounds <= 7:", res.Run.Rounds <= 7)
	// Output:
	// valid: true
	// rounds <= 7: true
}

// ExampleMISErrorReport computes the paper's error measures for a grid with
// the Figure 2 black/white prediction pattern: the whole grid is one error
// component (η₁ = n) but the black and white components have 4 nodes each.
func ExampleMISErrorReport() {
	g := repro.Grid2D(8, 8)
	preds := repro.GridBW(8, 8)
	errs, err := repro.MISErrorReport(g, preds)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("eta1:", errs.Eta1)
	fmt.Println("eta_bw:", errs.EtaBW)
	// Output:
	// eta1: 64
	// eta_bw: 4
}

// ExampleRunTreeMIS demonstrates the Section 9.2 example: the mod-3 line has
// η₁ = n but the rooted-tree initialization finishes it in three rounds.
func ExampleRunTreeMIS() {
	r := repro.DirectedLine(30)
	preds := repro.Mod3Line(10)
	res, err := repro.RunTreeMIS(r, "simple", preds, repro.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("eta_t:", repro.TreeEtaT(r, preds))
	fmt.Println("rounds:", res.Run.Rounds)
	// Output:
	// eta_t: 2
	// rounds: 3
}

// ExampleRunProblem_congest runs the Greedy algorithm under an enforced
// CONGEST bandwidth budget — its constant-size notifications fit easily.
func ExampleRunProblem_congest() {
	g := repro.Ring(64)
	res, err := repro.RunProblem(g, "mis", "greedy", nil, repro.Options{CongestBits: 32})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("max message bits <= 32:", res.Run.MaxMsgBits <= 32)
	// Output:
	// max message bits <= 32: true
}

// ExampleRunProblem_matching solves maximal matching reusing a perfect
// prediction.
func ExampleRunProblem_matching() {
	g := repro.Line(8)
	preds := repro.PerfectMatching(g)
	res, err := repro.RunProblem(g, "matching", "simple", preds, repro.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("rounds:", res.Run.Rounds)
	// Output:
	// rounds: 2
}

// ExampleRunProblem_onRoundStats streams the engine's per-round
// instrumentation (wall time, deliveries, payload bits) to library code via
// Options.OnRoundStats.
func ExampleRunProblem_onRoundStats() {
	g := repro.Line(8)
	var rounds, messages int
	res, err := repro.RunProblem(g, "mis", "simple", repro.PerfectMIS(g), repro.Options{
		OnRoundStats: func(s repro.RoundStats) {
			rounds++
			messages += s.Messages
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("stats records == rounds:", rounds == res.Run.Rounds)
	fmt.Println("per-round messages sum to total:", messages == res.Run.Messages)
	// Output:
	// stats records == rounds: true
	// per-round messages sum to total: true
}

// ExampleRunProblemWithRecovery heals a chaos-damaged MIS run: the faulted
// outputs are carved into an extendable partial solution and the paper's
// clean-up machinery extends it back to a verified maximal independent set.
func ExampleRunProblemWithRecovery() {
	g := repro.GNP(40, 0.15, repro.NewRand(2))
	res, err := repro.RunProblemWithRecovery(g, "mis", nil, repro.Options{
		MaxRounds: 150,
		Adversary: repro.NewChaos(repro.ChaosPolicy{Seed: 5, Drop: 0.45, Crash: 0.1}),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("verified solution:", len(res.Output) == g.N())
	fmt.Println("healed:", res.Healed)
	// Output:
	// verified solution: true
	// healed: true
}

// Quickstart: run the Maximal Independent Set problem with predictions on a
// random graph, sweeping the number of corrupted prediction bits, and watch
// the round complexity track the prediction error η instead of the graph
// size — the paper's core promise (consistency + smooth degradation +
// robustness).
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := repro.NewRand(1)
	g := repro.GNP(300, 0.02, rng)
	fmt.Printf("graph: n=%d m=%d Δ=%d\n\n", g.N(), g.M(), g.MaxDegree())

	perfect := repro.PerfectMIS(g)
	fmt.Println("flips  eta1  eta2  rounds(simple)  rounds(parallel)  rounds(no predictions)")
	for _, flips := range []int{0, 1, 2, 5, 10, 20, 50, 100, 300} {
		preds := repro.FlipBits(perfect, flips, repro.NewRand(int64(flips)))
		errs, err := repro.MISErrorReport(g, preds)
		if err != nil {
			return err
		}
		simple, err := repro.RunProblem(g, "mis", "simple", preds, repro.Options{})
		if err != nil {
			return err
		}
		parallel, err := repro.RunProblem(g, "mis", "parallel", preds, repro.Options{})
		if err != nil {
			return err
		}
		scratch, err := repro.RunProblem(g, "mis", "greedy", nil, repro.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("%5d  %4d  %4d  %14d  %16d  %22d\n",
			flips, errs.Eta1, errs.Eta2, simple.Run.Rounds, parallel.Run.Rounds, scratch.Run.Rounds)
	}
	fmt.Println("\nWith zero flips every algorithm terminates in 3 rounds (consistency);")
	fmt.Println("rounds then grow with eta, not with n (degradation), and never beyond the")
	fmt.Println("prediction-free baseline's ballpark (robustness).")
	return nil
}

// All problems, one network: the framework covers all four problems from the
// paper's Section 8 with the same template machinery. This example solves
// MIS, Maximal Matching, (Δ+1)-Vertex Coloring, and (2Δ−1)-Edge Coloring on
// the same random network, each with mildly corrupted predictions, and
// reports how the Simple and Parallel templates behave side by side.
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
	g := repro.GNP(400, 0.015, repro.NewRand(7))
	fmt.Printf("network: n=%d m=%d Δ=%d\n\n", g.N(), g.M(), g.MaxDegree())
	fmt.Println("problem       eta1  simple rounds  parallel rounds")

	// MIS.
	misPreds := repro.FlipBits(repro.PerfectMIS(g), 12, repro.NewRand(1))
	misErrs, err := repro.MISErrorReport(g, misPreds)
	if err != nil {
		return err
	}
	misSimple, err := repro.RunProblem(g, "mis", "simple", misPreds, repro.Options{})
	if err != nil {
		return err
	}
	misParallel, err := repro.RunProblem(g, "mis", "parallel", misPreds, repro.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("%-12s  %4d  %13d  %15d\n", "mis", misErrs.Eta1, misSimple.Run.Rounds, misParallel.Run.Rounds)

	// Maximal matching.
	mPreds := repro.PerturbMatching(g, repro.PerfectMatching(g), 12, repro.NewRand(2))
	mSimple, err := repro.RunProblem(g, "matching", "simple", mPreds, repro.Options{})
	if err != nil {
		return err
	}
	mParallel, err := repro.RunProblem(g, "matching", "parallel", mPreds, repro.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("%-12s  %4d  %13d  %15d\n", "matching",
		repro.MatchingEta1(g, mPreds), mSimple.Run.Rounds, mParallel.Run.Rounds)

	// Vertex coloring.
	vPreds := repro.PerturbVColor(g, repro.PerfectVColor(g), 12, repro.NewRand(3))
	vSimple, err := repro.RunProblem(g, "vcolor", "simple", vPreds, repro.Options{})
	if err != nil {
		return err
	}
	vParallel, err := repro.RunProblem(g, "vcolor", "parallel", vPreds, repro.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("%-12s  %4d  %13d  %15d\n", "vcolor",
		repro.VColorEta1(g, vPreds), vSimple.Run.Rounds, vParallel.Run.Rounds)

	// Edge coloring.
	ePreds := repro.PerturbEColor(g, repro.PerfectEColor(g), 12, repro.NewRand(4))
	eSimple, err := repro.RunProblem(g, "ecolor", "simple", ePreds, repro.Options{})
	if err != nil {
		return err
	}
	eParallel, err := repro.RunProblem(g, "ecolor", "parallel", ePreds, repro.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("%-12s  %4d  %13d  %15d\n", "ecolor",
		repro.EColorEta1(g, ePreds), eSimple.Run.Rounds, eParallel.Run.Rounds)

	// The distributed checkers (constant rounds) report whether each
	// prediction set was already a correct solution.
	fmt.Println("\n2-round local verification of the predictions:")
	cm, _ := repro.CheckPredictions(g, "mis", misPreds, repro.Options{})
	cmm, _ := repro.CheckPredictions(g, "matching", mPreds, repro.Options{})
	cv, _ := repro.CheckPredictions(g, "vcolor", vPreds, repro.Options{})
	ce, _ := repro.CheckPredictions(g, "ecolor", ePreds, repro.Options{})
	fmt.Printf("mis accept=%v  matching accept=%v  vcolor accept=%v  ecolor accept=%v\n",
		cm.AllAccept, cmm.AllAccept, cv.AllAccept, ce.AllAccept)
	return nil
}

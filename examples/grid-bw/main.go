// Grid black/white components: the paper's Figure 2 instance and the
// Section 9.1 algorithm. The 4-block pattern makes the whole grid a single
// error component (η₁ = n) yet its black and white components have only four
// nodes each (η_bw = 4); the black/white alternating measure-uniform
// algorithm U_bw exploits exactly that.
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
	fmt.Println("grid    n     eta1  eta_bw  greedy after base  U_bw after base")
	for _, side := range []int{8, 16, 32, 48} {
		g := repro.Grid2D(side, side)
		preds := repro.GridBW(side, side)
		errs, err := repro.MISErrorReport(g, preds)
		if err != nil {
			return err
		}
		greedy, err := repro.RunProblem(g, "mis", "base", preds, repro.Options{})
		if err != nil {
			return err
		}
		bw, err := repro.RunProblem(g, "mis", "bw", preds, repro.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("%-6s  %-5d %-5d %-7d %-18d %d\n",
			fmt.Sprintf("%dx%d", side, side), g.N(), errs.Eta1, errs.EtaBW,
			greedy.Run.Rounds, bw.Run.Rounds)
	}
	fmt.Println()
	fmt.Println("eta1 equals n on every instance, while eta_bw stays at 4: splitting the")
	fmt.Println("error components by the predicted color is a symmetry-breaking mechanism,")
	fmt.Println("and U_bw's running time tracks the finer measure.")
	return nil
}

// Rooted trees: the paper's Section 9.2 specialization. On rooted trees a
// better initialization leaves monochromatic components, the error measure
// η_t (monochromatic upward path length) replaces η₁, and the reference is
// the O(log* d) Goldberg–Plotkin–Shannon 3-coloring — so MIS with
// predictions runs in min{⌈η_t/2⌉+5, O(log* d)} rounds, independent of Δ.
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
	// The paper's showcase: a directed line of 3k nodes, white at distance
	// 0 mod 3 from the root. eta1 = 3k, but eta_t = 2.
	fmt.Println("--- mod-3 directed line (paper example) ---")
	fmt.Println("n     eta_t  tree simple  tree parallel  general-graph simple")
	for _, k := range []int{20, 60, 200} {
		r := repro.DirectedLine(3 * k)
		preds := repro.Mod3Line(k)
		simple, err := repro.RunTreeMIS(r, "simple", preds, repro.Options{})
		if err != nil {
			return err
		}
		parallel, err := repro.RunTreeMIS(r, "parallel", preds, repro.Options{})
		if err != nil {
			return err
		}
		general, err := repro.RunProblem(r.G, "mis", "simple", preds, repro.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("%-5d %5d  %11d  %13d  %20d\n",
			3*k, repro.TreeEtaT(r, preds), simple.Run.Rounds, parallel.Run.Rounds, general.Run.Rounds)
	}

	fmt.Println()
	fmt.Println("--- random rooted trees, corrupted predictions ---")
	fmt.Println("n    flips  eta_t  simple  bound ceil(eta_t/2)+5  parallel")
	for _, n := range []int{100, 400} {
		r := repro.RandomRooted(n, repro.NewRand(int64(n)))
		perfect := repro.PerfectMIS(r.G)
		for _, flips := range []int{0, 2, 8, 32, n} {
			preds := repro.FlipBits(perfect, flips, repro.NewRand(int64(flips)))
			etaT := repro.TreeEtaT(r, preds)
			simple, err := repro.RunTreeMIS(r, "simple", preds, repro.Options{})
			if err != nil {
				return err
			}
			parallel, err := repro.RunTreeMIS(r, "parallel", preds, repro.Options{})
			if err != nil {
				return err
			}
			fmt.Printf("%-4d %5d  %5d  %6d  %21d  %8d\n",
				n, flips, etaT, simple.Run.Rounds, (etaT+1)/2+5, parallel.Run.Rounds)
		}
	}
	return nil
}

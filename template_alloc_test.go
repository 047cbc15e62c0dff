package repro_test

import (
	"testing"

	"repro"
)

// TestTemplateAllocBudget is the whole-run allocation guard of the template
// layer: a Simple Template solve through RunProblem must not allocate per
// node. The template layer carves its per-node machines, memories,
// neighbor tables and outboxes from per-run slabs, so the allocations of a
// run stay flat from n = 2,000 to n = 16,000, up to a small absolute slack
// for the engine's own buffers.
//
// Matching still boxes one int per partner identifier of 256 or more: each
// encoded prediction (problem.EncodeInts) and each matched node's output.
// Those boxes are counted exactly and taken off before the comparison, so
// any other per-node allocation still shows.
func TestTemplateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement; skipped with -short")
	}
	const slack = 64
	for _, c := range []struct {
		problem string
		graph   func(n int) *repro.Graph
	}{
		{"mis", func(n int) *repro.Graph { return repro.BarabasiAlbert(n, 3, repro.NewRand(1)) }},
		{"matching", repro.Ring},
	} {
		var base float64
		for _, n := range []int{2000, 16000} {
			g := c.graph(n)
			preds, err := repro.GeneratePreds(c.problem, g, n/10, 2)
			if err != nil {
				t.Fatal(err)
			}
			var res *repro.ProblemResult
			allocs := testing.AllocsPerRun(3, func() {
				if res, err = repro.RunProblem(g, c.problem, "simple", preds, repro.Options{}); err != nil {
					t.Fatal(err)
				}
			})
			boxed := boxedInts(preds.([]int)) + boxedInts(res.Output)
			perRun := allocs - float64(boxed)
			t.Logf("%s n=%d: %.0f allocs/run, %d of them boxed ints", c.problem, n, allocs, boxed)
			if n == 2000 {
				base = perRun
			} else if perRun > base+slack {
				t.Errorf("%s: %.0f allocs/run at n=%d against %.0f at n=2000 (boxed ints excluded): the template layer allocates per node",
					c.problem, perRun, n, base)
			}
		}
	}
}

// boxedInts counts the values Go boxes on the heap when converting them to
// an interface: every int outside [0, 256).
func boxedInts(xs []int) int {
	k := 0
	for _, x := range xs {
		if x < 0 || x >= 256 {
			k++
		}
	}
	return k
}

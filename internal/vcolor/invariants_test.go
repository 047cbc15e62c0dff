package vcolor_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/predict"
	"repro/internal/runtime"
	"repro/internal/vcolor"
	"repro/internal/verify"
)

// TestInterruptAnywhereStaysProper interrupts the measure-uniform coloring
// at every budget and completes with the list-aware Linial reference: any
// partial proper coloring is extendable for this problem (Section 8.2), so
// every interruption point must lead to a proper final coloring.
func TestInterruptAnywhereStaysProper(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	g := graph.GNP(24, 0.25, rng)
	preds := predict.PerturbVColor(g, predict.PerfectVColor(g), 10, rng)
	anyPreds := make([]any, len(preds))
	for i, p := range preds {
		anyPreds[i] = p
	}
	for budget := 1; budget <= 12; budget++ {
		factory := core.Sequence(vcolor.NewMemory,
			vcolor.Init(), vcolor.MeasureUniform(budget), vcolor.LinialList())
		res, err := runtime.Run(runtime.Config{Graph: g, Factory: factory, Predictions: anyPreds})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		out := make([]int, g.N())
		for i, o := range res.Outputs {
			out[i] = o.(int)
		}
		if err := verify.VColor(g, out); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
	}
}

// TestPartialProperEveryRound: the measure-uniform list coloring maintains a
// proper partial coloring after every single round.
func TestPartialProperEveryRound(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	for trial := 0; trial < 10; trial++ {
		g := graph.GNP(30, 0.2, rng)
		palette := g.MaxDegree() + 1
		res, err := runtime.Run(runtime.Config{
			Graph:   g,
			Factory: vcolor.Solo(vcolor.MeasureUniform(0)),
		})
		if err != nil {
			t.Fatal(err)
		}
		for round := 1; round <= res.Rounds; round++ {
			if err := verify.VColorPartial(g, settledAt(res, round), palette); err != nil {
				t.Errorf("trial %d round %d: %v", trial, round, err)
			}
		}
	}
}

// settledAt is a completed run's partial output vector at the end of round
// r: node i holds its int output iff it terminated by then
// (0 < TerminatedAt[i] <= r), and is Undecided otherwise.
func settledAt(res *runtime.Result, r int) []int {
	partial := make([]int, len(res.Outputs))
	for i, at := range res.TerminatedAt {
		partial[i] = verify.Undecided
		if v, ok := res.Outputs[i].(int); ok && at > 0 && at <= r {
			partial[i] = v
		}
	}
	return partial
}

// TestQuickVColorAlwaysValid property-checks the pipeline with garbage
// predictions (arbitrary colors, possibly out of palette).
func TestQuickVColorAlwaysValid(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%30) + 1
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(n, 0.2, rng)
		preds := make([]any, n)
		for i := range preds {
			preds[i] = rng.Intn(g.MaxDegree()+4) - 1 // may be 0 or out of range
		}
		res, err := runtime.Run(runtime.Config{
			Graph: g, Factory: vcolor.SimpleGreedy(), Predictions: preds,
		})
		if err != nil {
			return false
		}
		out := make([]int, n)
		for i, o := range res.Outputs {
			v, ok := o.(int)
			if !ok {
				return false
			}
			out[i] = v
		}
		return verify.VColor(g, out) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestInterleavedAndParallelLinial exercises the two new template
// instantiations for vertex coloring across graphs and error levels.
func TestInterleavedAndParallelLinial(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	graphs := map[string]*graph.Graph{
		"ring21":   graph.Ring(21),
		"grid6x6":  graph.Grid2D(6, 6),
		"gnp40":    graph.GNP(40, 0.12, rng),
		"clique7":  graph.Clique(7),
		"star12":   graph.Star(12),
		"shuffled": graph.ShuffleIDs(graph.Grid2D(5, 5), 250, rng),
	}
	for name, g := range graphs {
		perfect := predict.PerfectVColor(g)
		for _, k := range []int{0, 2, 8, g.N()} {
			preds := predict.PerturbVColor(g, perfect, k, rng)
			anyPreds := make([]any, len(preds))
			for i, p := range preds {
				anyPreds[i] = p
			}
			for fname, f := range map[string]runtime.Factory{
				"interleaved": vcolor.InterleavedLinial(),
				"parallel":    vcolor.ParallelLinial(),
			} {
				t.Run(name+"/"+fname, func(t *testing.T) {
					res, err := runtime.Run(runtime.Config{
						Graph: g, Factory: f, Predictions: anyPreds,
					})
					if err != nil {
						t.Fatal(err)
					}
					out := make([]int, g.N())
					for i, o := range res.Outputs {
						out[i] = o.(int)
					}
					if err := verify.VColor(g, out); err != nil {
						t.Fatal(err)
					}
					eta1 := func() int {
						active := predict.VColorBaseActive(g, preds)
						return predict.Eta1(predict.ErrorComponents(g, active))
					}()
					if eta1 == 0 && res.Rounds > 2 {
						t.Errorf("consistency broken: %d rounds at eta=0", res.Rounds)
					}
				})
			}
		}
	}
}

// TestQuickParallelLinialAlwaysValid hammers the vcolor Parallel Template
// with garbage predictions on shuffled-ID graphs.
func TestQuickParallelLinialAlwaysValid(t *testing.T) {
	f := func(seed int64, rawN uint8, shuffle bool) bool {
		n := int(rawN%26) + 1
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(n, 0.2, rng)
		if shuffle {
			g = graph.ShuffleIDs(g, 3*n, rng)
		}
		preds := make([]any, n)
		for i := range preds {
			preds[i] = rng.Intn(g.MaxDegree()+3) - 1
		}
		res, err := runtime.Run(runtime.Config{
			Graph: g, Factory: vcolor.ParallelLinial(), Predictions: preds,
		})
		if err != nil {
			return false
		}
		out := make([]int, n)
		for i, o := range res.Outputs {
			v, ok := o.(int)
			if !ok {
				return false
			}
			out[i] = v
		}
		return verify.VColor(g, out) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/mis"
	"repro/internal/predict"
	"repro/internal/runtime"
)

// E17 — Section 7.1 (second Simple-Template example): a reference that is
// uniform with respect to Δ has round complexity governed by the error
// components' maximum degree Δ', not the global Δ. A perfectly-predicted
// star of growing size is attached to a badly-predicted ring: the
// Δ-doubling reference's rounds stay flat while a global-Δ-bound reference
// scales with the star.
func E17() []*Table {
	t := &Table{
		ID:    "E17",
		Title: "Uniform (Delta-doubling) reference: local vs global parameters",
		Columns: []string{
			"star size", "n", "global delta", "delta'", "uniform rounds", "collect-ref rounds",
		},
	}
	ring := graph.Ring(24)
	ringPreds := predict.Uniform(24, 1)
	for _, starSize := range []int{25, 50, 100, 200, 400, 800} {
		star := graph.Star(starSize)
		g := graph.DisjointUnion(star, ring)
		preds := append(predict.PerfectMIS(star), ringPreds...)
		info := runtime.NodeInfo{N: g.N(), D: g.D(), Delta: g.MaxDegree()}
		res := solve(g, "mis", mis.SimpleUniform(), preds, maxRounds(mis.UniformMaxRounds(info)))
		collect := solve(g, "mis", mis.SimpleCollect(), preds)
		t.AddRow(starSize, g.N(), g.MaxDegree(), 2, res.Rounds, collect.Rounds)
	}
	t.Note("paper: with a Delta-uniform reference the Simple Template runs in rounds governed by")
	t.Note("Delta' (the error components' maximum degree) and log* d — flat as the perfectly")
	t.Note("predicted star grows — while a reference with a global bound (collect: n+1) scales with n")
	return []*Table{t}
}

// E18 — Section 10 open problem: a consistency/robustness trade-off knob.
// The Consecutive Template's measure-uniform budget is λ·n: λ large trusts
// the predictions (best degradation, worst case ~n), λ small bails out to
// the reference early (worst case ~reference, degradation pays the switch).
func E18() []*Table {
	t := &Table{
		ID:      "E18",
		Title:   "Consistency/robustness trade-off (lambda sweep)",
		Columns: []string{"lambda", "rounds k=0", "rounds k=8", "rounds k=64", "rounds worst (all 1s)"},
	}
	// Ascending IDs make the line Greedy's worst case; the length is chosen
	// so the decomposition reference (nearly n-independent) is faster than
	// Greedy's Θ(n).
	g := graph.LineWithIDs(identity(1024))
	perfect := predict.PerfectMIS(g)
	for _, lambda := range []float64{0, 0.05, 0.125, 0.25, 0.5, 1} {
		row := []any{fmt.Sprintf("%.3f", lambda)}
		for _, k := range []int{0, 8, 64} {
			preds := predict.FlipBits(perfect, k, rand.New(rand.NewSource(int64(700+k))))
			res := solve(g, "mis", mis.ConsecutiveTradeoff(lambda, 13), preds, maxRounds(64*g.N()))
			row = append(row, res.Rounds)
		}
		worst := solve(g, "mis", mis.ConsecutiveTradeoff(lambda, 13), predict.Uniform(g.N(), 1), maxRounds(64*g.N()))
		row = append(row, worst.Rounds)
		t.AddRow(row...)
	}
	t.Note("small lambda caps the worst case near the reference's cost but pays the reference")
	t.Note("even at moderate error; large lambda degrades linearly with eta but risks ~n rounds —")
	t.Note("the trade-off the paper asks about in Section 10")
	return []*Table{t}
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i + 1
	}
	return ids
}

// E19 — message complexity of the templates: rounds are the paper's
// performance measure, but the templates differ markedly in communication;
// this table records delivered messages and the largest message size per
// template across prediction quality, on both a sparse random graph and a
// heavy-tailed (Barabási–Albert) one.
func E19() []*Table {
	t := &Table{
		ID:      "E19",
		Title:   "Message complexity of the templates",
		Columns: []string{"graph", "error", "template", "rounds", "messages", "max msg bits"},
	}
	rng := rand.New(rand.NewSource(19))
	cases := []instance{
		{"gnp-160-.03", graph.GNP(160, 0.03, rng)},
		{"ba-160-2", graph.BarabasiAlbert(160, 2, rng)},
		// Ascending-ID line with all-wrong predictions: the Greedy lane is
		// slow, so the reference algorithms actually run and the templates'
		// communication profiles separate.
		{"line-256-asc", graph.Line(256)},
	}
	templates := []struct {
		name    string
		factory runtime.Factory
	}{
		{"simple", mis.SimpleGreedy()},
		{"consecutive", mis.ConsecutiveDecomp(19)},
		{"interleaved", mis.InterleavedDecomp(19)},
		{"parallel", mis.ParallelColoring()},
	}
	for _, c := range cases {
		for _, k := range []string{"0", "8", "all-1s"} {
			var preds []int
			switch k {
			case "0":
				preds = predict.PerfectMIS(c.g)
			case "8":
				preds = perturbed(c.g, 8, 1908)
			default:
				preds = predict.Uniform(c.g.N(), 1)
			}
			for _, tmpl := range templates {
				res := solve(c.g, "mis", tmpl.factory, preds)
				t.AddRow(c.name, k, tmpl.name, res.Rounds, res.Messages, res.MaxMsgBits)
			}
		}
	}
	t.Note("the parallel template pays extra messages for the coloring lane even when the")
	t.Note("measure-uniform lane wins; LOCAL-size floods (max msg bits -1) appear only when the")
	t.Note("decomposition reference is actually reached")
	return []*Table{t}
}

package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/ecolor"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mis"
	"repro/internal/predict"
	"repro/internal/runtime"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/vcolor"
)

// E8 — Section 9.2 / Corollary 15: rooted-tree MIS with predictions tracks
// η_t, which can be far below η₁.
func E8() []*Table {
	t := &Table{
		ID:      "E8",
		Title:   "Rooted-tree MIS: eta_t sweeps",
		Columns: []string{"tree", "flips", "eta1", "eta_t", "simple", "<=ceil(eta_t/2)+5", "parallel", "cv bound"},
	}
	rng := rand.New(rand.NewSource(8))
	trees := []struct {
		name string
		r    *tree.Rooted
	}{
		{"line-90", tree.DirectedLine(90)},
		{"rand-127", tree.RandomRooted(127, rng)},
		{"rand-255", tree.RandomRooted(255, rng)},
		{"cat-16x4", tree.RootAt(graph.Caterpillar(16, 4), 0)},
	}
	for _, tc := range trees {
		for _, k := range []int{0, 1, 2, 4, 8, tc.r.G.N()} {
			preds := perturbed(tc.r.G, k, int64(800+k))
			active := predict.MISBaseActive(tc.r.G, preds)
			eta1 := predict.Eta1(predict.ErrorComponents(tc.r.G, active))
			etaT := tree.EtaT(tc.r, preds, active)
			resS := solve(tc.r.G, "mis", tree.SimpleRootsLeaves(tc.r), preds)
			resP := solve(tc.r.G, "mis", tree.ParallelColoring(tc.r), preds)
			cvBound := 4 + tree.CVRounds(tc.r.G.D()) + 1 + 2 + 2
			t.AddRow(tc.name, k, eta1, etaT, resS.Rounds,
				resS.Rounds <= (etaT+1)/2+5, resP.Rounds, cvBound)
		}
	}
	mod3 := &Table{
		ID:      "E8b",
		Title:   "Mod-3 directed line (Section 9.2 example)",
		Columns: []string{"3k", "eta1", "eta_t", "rounds tree-init", "rounds general-init"},
	}
	for _, k := range []int{10, 30, 100} {
		r := tree.DirectedLine(3 * k)
		preds := predict.Mod3Line(k)
		active := predict.MISBaseActive(r.G, preds)
		eta1 := predict.Eta1(predict.ErrorComponents(r.G, active))
		etaT := tree.EtaT(r, preds, active)
		resTree := solve(r.G, "mis", tree.SimpleRootsLeaves(r), preds)
		resGen := solve(r.G, "mis", mis.SimpleGreedy(), preds)
		mod3.AddRow(3*k, eta1, etaT, resTree.Rounds, resGen.Rounds)
	}
	mod3.Note("paper: eta1 = 3k but the tree initialization terminates everyone by round 2 (eta_t = 2)")
	return []*Table{t, mod3}
}

// E9 — Section 10: Luby's algorithm as the Simple reference takes expected
// rounds logarithmic in the *sum* of component sizes, not in η₁: on many
// small components its expected maximum grows with the component count.
func E9() []*Table {
	t := &Table{
		ID:      "E9",
		Title:   "Luby reference on many small components",
		Columns: []string{"path len L", "count", "n", "eta1", "many: mean±std (p90)", "single: mean±std (p90)", "greedy"},
	}
	const trials = 25
	for _, pathLen := range []int{3, 4, 6, 8} {
		count := 512
		g := graph.DisjointPaths(count, pathLen)
		single := graph.DisjointPaths(1, pathLen)
		preds := predict.Uniform(g.N(), 1)
		predsSingle := predict.Uniform(single.N(), 1)
		eta1, _ := misErrors(g, preds)
		var many, one []int
		for s := int64(0); s < trials; s++ {
			many = append(many, solve(g, "mis", mis.SimpleLuby(1000+s), preds).Rounds)
			one = append(one, solve(single, "mis", mis.SimpleLuby(2000+s), predsSingle).Rounds)
		}
		sm, so := stats.Summarize(many), stats.Summarize(one)
		resG := solve(g, "mis", mis.SimpleGreedy(), preds)
		t.AddRow(pathLen, count, g.N(), eta1,
			fmt.Sprintf("%.2f±%.2f (%d)", sm.Mean, sm.Std, sm.P90),
			fmt.Sprintf("%.2f±%.2f (%d)", so.Mean, so.Std, so.P90),
			resG.Rounds)
	}
	t.Note("paper: E[rounds] over all components grows with log(sum of sizes) ~ L, while a single")
	t.Note("component of size L finishes in O(log L) expected rounds; the gap widens with count")
	return []*Table{t}
}

// E10 — Section 5: relations between the error measures.
func E10() []*Table {
	t := &Table{
		ID:      "E10",
		Title:   "Error measure relations over random instances",
		Columns: []string{"graph", "flips", "etaH", "eta1", "eta2", "eta_bw", "eta2<=eta1", "bw<=eta1", "init<=base"},
	}
	rng := rand.New(rand.NewSource(10))
	cases := []instance{
		{"gnp-24-.15", graph.GNP(24, 0.15, rng)},
		{"grid-5x5", graph.Grid2D(5, 5)},
		{"ring-20", graph.Ring(20)},
		{"tree-24", graph.RandomTree(24, rng)},
	}
	for _, c := range cases {
		for _, k := range []int{0, 1, 2, 4, 8} {
			preds := perturbed(c.g, k, int64(150+k))
			active := predict.MISBaseActive(c.g, preds)
			comps := predict.ErrorComponents(c.g, active)
			eta1 := predict.Eta1(comps)
			eta2, err := predict.Eta2(comps)
			if err != nil {
				eta2 = -1
			}
			etaBW := predict.EtaBW(c.g, preds, active)
			etaH, err := predict.EtaH(c.g, preds)
			if err != nil {
				etaH = -1
			}
			// η computed from a reasonable initialization's remaining
			// components is at most η from the base algorithm: approximate
			// the init-active set by running Simple and observing the
			// survivors after round 3 via the smaller measure directly.
			initEta1 := initActiveEta1(c.g, preds)
			t.AddRow(c.name, k, etaH, eta1, eta2, etaBW,
				eta2 <= eta1, etaBW <= eta1, initEta1 <= eta1)
		}
	}
	t.Note("paper: eta2 <= eta1, eta_bw <= eta1, and measures over a reasonable initialization's")
	t.Note("components never exceed those over the base algorithm's (Section 5)")
	return []*Table{t}
}

// initActiveEta1 computes η₁ over the components left by the MIS
// Initialization Algorithm (rather than the Base Algorithm).
func initActiveEta1(g *graph.Graph, preds []int) int {
	inI := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		if preds[v] != 1 {
			continue
		}
		ok := true
		for _, u := range g.Neighbors(v) {
			if preds[u] == 1 && g.ID(int(u)) > g.ID(v) {
				ok = false
				break
			}
		}
		inI[v] = ok
	}
	active := make([]bool, g.N())
	for v := range active {
		active[v] = !inI[v]
	}
	for v := 0; v < g.N(); v++ {
		if inI[v] {
			for _, u := range g.Neighbors(v) {
				active[u] = false
			}
		}
	}
	return predict.Eta1(predict.ErrorComponents(g, active))
}

// E11 — Lemmas 4, 5, 13, 14: on lines with adversarial (ascending)
// identifiers, the measure-uniform algorithms take Θ(n) rounds, matching the
// (n−c)/2 lower bounds for measure-uniform algorithms.
func E11() []*Table {
	t := &Table{
		ID:      "E11",
		Title:   "Measure-uniform algorithms on ascending-ID lines vs lower bounds",
		Columns: []string{"n", "mis", "(n-5)/2", "matching", "(n-3)/2", "vcolor", "ecolor", "mis rnd-ids"},
	}
	for _, n := range []int{64, 128, 256, 512} {
		g := graph.Line(n)
		resMIS := solve(g, "mis", mis.Solo(mis.Greedy()), nil)
		resMatch := solve(g, "matching", matching.Solo(matching.MeasureUniform(0)), nil)
		resV := solve(g, "vcolor", vcolor.Solo(vcolor.MeasureUniform(0)), nil)
		resE := solve(g, "ecolor", ecolor.Solo(ecolor.MeasureUniform(0)), nil)
		rng := rand.New(rand.NewSource(int64(n)))
		shuffled := graph.ShuffleIDs(g, n, rng)
		resRand := solve(shuffled, "mis", mis.Solo(mis.Greedy()), nil)
		t.AddRow(n, resMIS.Rounds, (n-5)/2, resMatch.Rounds, (n-3)/2,
			resV.Rounds, resE.Rounds, resRand.Rounds)
	}
	t.Note("paper: any measure-uniform algorithm needs >= (n-5)/2 rounds on some ID assignment of the line")
	t.Note("(Ramsey argument); ascending IDs realize the worst case here, random IDs do much better")

	// Constructive check of the lower bounds on small lines: exhaust every
	// identifier assignment and record the worst-case round count, which must
	// meet the Ramsey-style lower bounds of Lemmas 5 and 13.
	worst := &Table{
		ID:      "E11b",
		Title:   "Exhaustive worst case over all ID assignments (small lines)",
		Columns: []string{"n", "assignments", "mis worst", "(n-5)/2", "matching worst", "(n-3)/2"},
	}
	for _, n := range []int{5, 6, 7, 8} {
		misWorst := worstOverPermutations(n, func(g *graph.Graph) int {
			return solve(g, "mis", mis.Solo(mis.Greedy()), nil).Rounds
		})
		matchWorst := worstOverPermutations(n, func(g *graph.Graph) int {
			return solve(g, "matching", matching.Solo(matching.MeasureUniform(0)), nil).Rounds
		})
		worst.AddRow(n, factorial(n), misWorst, (n-5)/2, matchWorst, (n-3)/2)
	}
	worst.Note("every lower bound is met by some assignment, confirming the Ramsey-style argument")
	worst.Note("constructively at small n (the bound is asymptotic; small-n constants differ)")
	return []*Table{t, worst}
}

// worstOverPermutations runs the measured algorithm on the n-node line under
// every identifier permutation and returns the maximum round count.
func worstOverPermutations(n int, rounds func(*graph.Graph) int) int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i + 1
	}
	worst := 0
	permute(ids, 0, func(perm []int) {
		if r := rounds(graph.LineWithIDs(perm)); r > worst {
			worst = r
		}
	})
	return worst
}

// permute enumerates all permutations of ids[k:] in place.
func permute(ids []int, k int, visit func([]int)) {
	if k == len(ids)-1 {
		visit(ids)
		return
	}
	for i := k; i < len(ids); i++ {
		ids[k], ids[i] = ids[i], ids[k]
		permute(ids, k+1, visit)
		ids[k], ids[i] = ids[i], ids[k]
	}
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// E12 — Section 8.1: maximal matching with predictions.
func E12() []*Table {
	t := &Table{
		ID:      "E12",
		Title:   "Maximal matching with predictions",
		Columns: []string{"graph", "perturbed", "eta1", "simple", "<=3*floor(eta1/2)+5", "consecutive", "parallel"},
	}
	rng := rand.New(rand.NewSource(12))
	for _, c := range misInstances() {
		perfect := predict.PerfectMatching(c.g)
		for _, k := range []int{0, 1, 2, 4, 16, c.g.N()} {
			preds := predict.PerturbMatching(c.g, perfect, k, rng)
			active := predict.MatchingBaseActive(c.g, preds)
			eta1 := predict.Eta1(predict.ErrorComponents(c.g, active))
			resS := solve(c.g, "matching", matching.SimpleGreedy(), preds)
			resC := solve(c.g, "matching", matching.ConsecutiveCollect(), preds)
			resP := solve(c.g, "matching", matching.ParallelColoring(), preds)
			t.AddRow(c.name, k, eta1, resS.Rounds,
				resS.Rounds <= 3*(eta1/2)+5, resC.Rounds, resP.Rounds)
		}
	}
	t.Note("paper: base 2 rounds; measure-uniform <= 3*floor(s/2) per component (Section 8.1)")
	return []*Table{t}
}

// E13 — Section 8.2: (Δ+1)-vertex coloring with predictions.
func E13() []*Table {
	t := &Table{
		ID:      "E13",
		Title:   "Vertex coloring with predictions",
		Columns: []string{"graph", "perturbed", "eta1", "simple", "<=eta1+2", "consecutive", "interleaved", "parallel", "linial bound"},
	}
	rng := rand.New(rand.NewSource(13))
	for _, c := range misInstances() {
		perfect := predict.PerfectVColor(c.g)
		bound := 2 + vcolor.RoundsList(c.g.D(), c.g.MaxDegree())
		for _, k := range []int{0, 1, 2, 4, 16, c.g.N()} {
			preds := predict.PerturbVColor(c.g, perfect, k, rng)
			active := predict.VColorBaseActive(c.g, preds)
			eta1 := predict.Eta1(predict.ErrorComponents(c.g, active))
			resS := solve(c.g, "vcolor", vcolor.SimpleGreedy(), preds)
			resC := solve(c.g, "vcolor", vcolor.ConsecutiveLinial(), preds)
			resI := solve(c.g, "vcolor", vcolor.InterleavedLinial(), preds)
			resP := solve(c.g, "vcolor", vcolor.ParallelLinial(), preds)
			t.AddRow(c.name, k, eta1, resS.Rounds,
				resS.Rounds <= eta1+2, resC.Rounds, resI.Rounds, resP.Rounds, bound)
		}
	}
	t.Note("paper: base 2 rounds, no clean-up needed; measure-uniform <= s per component (Section 8.2)")
	return []*Table{t}
}

// E14 — Section 8.3: (2Δ−1)-edge coloring with predictions.
func E14() []*Table {
	t := &Table{
		ID:      "E14",
		Title:   "Edge coloring with predictions",
		Columns: []string{"graph", "perturbed", "eta1", "simple", "<=2*eta1+2", "consecutive", "parallel"},
	}
	rng := rand.New(rand.NewSource(14))
	for _, c := range misInstances() {
		perfect := predict.PerfectEColor(c.g)
		for _, k := range []int{0, 1, 2, 4, 16, c.g.M()} {
			preds := predict.PerturbEColor(c.g, perfect, k, rng)
			uncolored := predict.EColorBaseUncolored(c.g, preds)
			eta1 := predict.Eta1(predict.EdgeErrorComponents(c.g, uncolored))
			resS := solve(c.g, "ecolor", ecolor.SimpleGreedy(), preds)
			resC := solve(c.g, "ecolor", ecolor.ConsecutiveCollect(), preds)
			resP := solve(c.g, "ecolor", ecolor.ParallelColoring(), preds)
			bound := 2*eta1 + 2
			if eta1 == 0 {
				bound = 2
			}
			t.AddRow(c.name, k, eta1, resS.Rounds, resS.Rounds <= bound, resC.Rounds, resP.Rounds)
		}
	}
	t.Note("paper: base <= 2 rounds; measure-uniform <= 2s-3 per component (Section 8.3)")
	return []*Table{t}
}

// E15 — Section 1.1: the motivating scenario — an MIS computed on one
// network reused as predictions after the network drifts.
func E15() []*Table {
	t := &Table{
		ID:      "E15",
		Title:   "Network churn: reuse of a stale MIS as predictions",
		Columns: []string{"churn", "eta1", "eta2", "simple", "consecutive", "interleaved", "parallel", "from scratch"},
	}
	rng := rand.New(rand.NewSource(15))
	base := graph.GNP(192, 0.03, rng)
	for _, churn := range []int{0, 1, 2, 4, 8, 16, 32, 64, 128} {
		g := graph.FlipEdges(base, churn, rng)
		preds := predict.MISFromRelatedGraph(g, base)
		eta1, eta2 := misErrors(g, preds)
		rS := solve(g, "mis", mis.SimpleGreedy(), preds)
		rC := solve(g, "mis", mis.ConsecutiveDecomp(15), preds)
		rI := solve(g, "mis", mis.InterleavedDecomp(15), preds)
		rP := solve(g, "mis", mis.ParallelColoring(), preds)
		rScratch := solve(g, "mis", mis.Solo(mis.Greedy()), nil)
		t.AddRow(churn, eta1, eta2, rS.Rounds, rC.Rounds, rI.Rounds, rP.Rounds, rScratch.Rounds)
	}
	t.Note("paper motivation (Section 1.1): small churn -> small eta -> near-consistent rounds,")
	t.Note("versus recomputing from scratch with the prediction-less measure-uniform algorithm")
	return []*Table{t}
}

// E16 — Section 2: engine self-checks — the goroutine and sequential engines
// agree exactly, and CONGEST-accountable algorithms stay within O(log n)
// bits per message.
func E16() []*Table {
	t := &Table{
		ID:      "E16",
		Title:   "Engine parity and message accounting",
		Columns: []string{"config", "rounds seq", "rounds par", "agree", "messages", "max msg bits"},
	}
	rng := rand.New(rand.NewSource(16))
	g := graph.GNP(96, 0.06, rng)
	preds := perturbed(g, 20, 99)
	cases := []struct {
		name    string
		factory runtime.Factory
		preds   []int
	}{
		{"greedy-solo", mis.Solo(mis.Greedy()), nil},
		{"simple", mis.SimpleGreedy(), preds},
		{"parallel-coloring", mis.ParallelColoring(), preds},
		{"interleaved", mis.InterleavedDecomp(3), preds},
		{"collect", mis.SimpleCollect(), preds},
	}
	for _, c := range cases {
		seq := solve(g, "mis", c.factory, c.preds)
		par := solve(g, "mis", c.factory, c.preds, func(cfg *runtime.Config) { cfg.Parallel = true })
		agree := seq.Rounds == par.Rounds
		for i := range seq.Outputs {
			if seq.Outputs[i] != par.Outputs[i] {
				agree = false
			}
		}
		t.AddRow(c.name, seq.Rounds, par.Rounds, agree, seq.Messages, seq.MaxMsgBits)
	}
	t.Note("every payload is size-accounted: LOCAL-by-design algorithms (collect/decomp floods)")
	t.Note("report their true linear payload sizes; max msg bits -1 marks runs that delivered")
	t.Note("no messages; the greedy/base/clean-up family fits CONGEST with O(1)-bit payloads")
	return []*Table{t}
}

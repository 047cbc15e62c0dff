package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/ecolor"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mis"
	"repro/internal/predict"
	"repro/internal/runtime"
	"repro/internal/vcolor"
)

// E20 — Section 5's case against global error measures: scattered and
// concentrated prediction errors with the *same* η_H behave completely
// differently, because nodes in different error components work
// independently. On a union of k short paths, flipping one bit per path
// (scattered) and flipping every bit of one path (concentrated) give similar
// global error counts but very different η₁ — and the measured rounds track
// η₁, not η_H.
func E20() []*Table {
	t := &Table{
		ID:      "E20",
		Title:   "Global vs local error measures (scattered vs concentrated errors)",
		Columns: []string{"pattern", "flipped bits", "eta1", "rounds simple", "rounds parallel"},
	}
	const paths, pathLen = 16, 16
	g := graph.DisjointPaths(paths, pathLen)
	perfect := predict.PerfectMIS(g)

	// Scattered: set the second node of eight different paths to 1, creating
	// eight independent two-node error components (8 corrupted bits).
	scattered := append([]int(nil), perfect...)
	for p := 0; p < 8; p++ {
		scattered[p*pathLen+1] = 1
	}
	// Concentrated: set every node of the first path to 1 (also 8 corrupted
	// bits — the zeros of the alternating solution), making the entire path
	// one error component.
	concentrated := append([]int(nil), perfect...)
	for i := 0; i < pathLen; i++ {
		concentrated[i] = 1
	}

	for _, c := range []struct {
		name  string
		preds []int
	}{
		{"scattered (1 per path)", scattered},
		{"concentrated (1 path)", concentrated},
	} {
		flips := 0
		for i := range c.preds {
			if c.preds[i] != perfect[i] {
				flips++
			}
		}
		eta1, _ := misErrors(g, c.preds)
		resS := solve(g, "mis", mis.SimpleGreedy(), c.preds)
		resP := solve(g, "mis", mis.ParallelColoring(), c.preds)
		t.AddRow(c.name, flips, eta1, resS.Rounds, resP.Rounds)
	}
	t.Note("both patterns corrupt 8 bits, but the scattered errors split across 8 components")
	t.Note("(small eta1, fast) while the concentrated ones form one large component (eta1 = path")
	t.Note("length); a global measure like eta_H cannot distinguish them (Section 5)")
	return []*Table{t}
}

// E21 — active-set decay series: the per-round number of active nodes for
// each template on a fixed adversarial instance — the repository's analogue
// of a convergence figure. Series are printed at a coarse sampling so the
// table stays readable.
func E21() []*Table {
	t := &Table{
		ID:      "E21",
		Title:   "Active-set decay (per-round active node counts)",
		Columns: []string{"template", "series (round:active, sampled)"},
	}
	g := graph.Line(256)
	preds := predict.Uniform(g.N(), 1) // all wrong: the whole line is one error component
	templates := []struct {
		name    string
		factory runtime.Factory
	}{
		{"simple", mis.SimpleGreedy()},
		{"interleaved", mis.InterleavedDecomp(21)},
		{"parallel", mis.ParallelColoring()},
	}
	for _, tmpl := range templates {
		res := solve(g, "mis", tmpl.factory, preds)
		// A node is active after round r iff it terminates later; nothing
		// crashes here, so every node has a termination round.
		left := make([]int, res.Rounds+1)
		for _, at := range res.TerminatedAt {
			left[at]++
		}
		var series []string
		count, last := g.N(), -1
		for round := 1; round <= res.Rounds; round++ {
			count -= left[round]
			// Sample: record when the count changes materially or at every
			// 32nd round.
			if count != last && (last < 0 || last-count >= 16 || count == 0 || round%32 == 0) {
				series = append(series, fmt.Sprintf("%d:%d", round, count))
				last = count
			}
		}
		t.AddRow(tmpl.name, strings.Join(series, " "))
	}
	t.Note("simple (Greedy on ascending IDs) sheds ~2 nodes per round; the parallel template's")
	t.Note("coloring lane clears the line right after its O(log* d) section; the interleaved")
	t.Note("template alternates Greedy slices with decomposition phases")
	return []*Table{t}
}

// E22 — Section 1.2's consistency calibration: an algorithm with predictions
// is consistent when its round complexity at η = 0 is within a constant of
// the optimal cost of *checking* a predicted solution. The table puts the
// distributed checkers' constant round counts next to the initialization
// algorithms' consistency for each problem.
func E22() []*Table {
	t := &Table{
		ID:      "E22",
		Title:   "Checking cost vs consistency (Section 1.2 / 1.3)",
		Columns: []string{"problem", "checker rounds", "consistency (rounds at eta=0)", "ratio <= 2"},
	}
	rng := rand.New(rand.NewSource(22))
	g := graph.GNP(80, 0.08, rng)

	for _, c := range []struct {
		problem string
		perfect any
		simple  runtime.Factory
	}{
		{"mis", predict.PerfectMIS(g), mis.SimpleGreedy()},
		{"matching", predict.PerfectMatching(g), matching.SimpleGreedy()},
		{"vcolor", predict.PerfectVColor(g), vcolor.SimpleGreedy()},
		{"ecolor", predict.PerfectEColor(g), ecolor.SimpleGreedy()},
	} {
		checker := checkRounds(g, c.problem, c.perfect)
		consist := solve(g, c.problem, c.simple, c.perfect).Rounds
		t.AddRow(c.problem, checker, consist, consist <= 2*checker)
	}

	t.Note("paper: consistency is defined relative to the optimal checking cost; every")
	t.Note("initialization here finishes error-free instances within 2x its problem's checker")
	return []*Table{t}
}

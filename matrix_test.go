package repro_test

import (
	"fmt"
	"testing"

	"repro"
)

// The integration matrix is registry-driven: TestRegistryMatrix runs every
// registered (problem, algorithm) pair — whatever is registered, with no
// hand-maintained enumeration — on three graph families under both engine
// modes and validates each output with the problem's distributed checker.
// TestMatrixBounds then asserts the paper's consistency and degradation
// bounds for the algorithms where they are proved. This is the repository's
// broadest regression net.

type matrixGraph struct {
	name string
	g    *repro.Graph
}

func matrixGraphs() []matrixGraph {
	rng := repro.NewRand(777)
	return []matrixGraph{
		{"line33", repro.Line(33)},
		{"ring34", repro.Ring(34)},
		{"star21", repro.Star(21)},
		{"clique10", repro.Clique(10)},
		{"grid6x7", repro.Grid2D(6, 7)},
		{"gnp45", repro.GNP(45, 0.1, rng)},
		{"ba45", repro.BarabasiAlbert(45, 2, rng)},
		{"tree38", repro.RandomTree(38, rng)},
		{"hcube5", repro.Hypercube(5)},
		{"paths6x6", repro.DisjointPaths(6, 6)},
		{"shuffled", repro.ShuffleIDs(repro.Grid2D(5, 7), 350, rng)},
	}
}

// registryGraphsFor picks the three-family sweep for a problem: acyclic
// instances for the tree problem, general graphs for the rest.
func registryGraphsFor(p repro.ProblemInfo) []matrixGraph {
	rng := repro.NewRand(777)
	if p.Name == "tree" {
		return []matrixGraph{
			{"line33", repro.Line(33)},
			{"star21", repro.Star(21)},
			{"tree38", repro.RandomTree(38, rng)},
		}
	}
	return []matrixGraph{
		{"ring34", repro.Ring(34)},
		{"grid6x7", repro.Grid2D(6, 7)},
		{"gnp45", repro.GNP(45, 0.1, rng)},
	}
}

// TestRegistryMatrix: every registered (problem, algorithm) pair × three
// graph families × two error levels, under both engine modes. The two
// engines must agree on the output, and the problem's constant-round
// distributed checker must accept it.
func TestRegistryMatrix(t *testing.T) {
	problems := repro.Problems()
	if len(problems) < 5 {
		t.Fatalf("registry lists %d problems, want at least 5", len(problems))
	}
	for _, p := range problems {
		for _, mg := range registryGraphsFor(p) {
			for _, flips := range []int{0, 4} {
				preds, err := repro.GeneratePreds(p.Name, mg.g, flips, int64(flips)+9)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range p.Algorithms {
					a := a
					t.Run(fmt.Sprintf("%s/%s/%s/k%d", p.Name, a.Name, mg.name, flips), func(t *testing.T) {
						seq, err := repro.RunProblem(mg.g, p.Name, a.Name, preds, repro.Options{Seed: 5})
						if err != nil {
							t.Fatal(err)
						}
						par, err := repro.RunProblem(mg.g, p.Name, a.Name, preds, repro.Options{Seed: 5, Parallel: true})
						if err != nil {
							t.Fatal(err)
						}
						if fmt.Sprint(seq.Output, seq.EdgeOutput) != fmt.Sprint(par.Output, par.EdgeOutput) {
							t.Errorf("engines disagree:\nseq: %v %v\npar: %v %v",
								seq.Output, seq.EdgeOutput, par.Output, par.EdgeOutput)
						}
						cr, err := repro.CheckSolution(mg.g, p.Name, seq, repro.Options{})
						if err != nil {
							t.Fatal(err)
						}
						if !cr.AllAccept {
							t.Errorf("distributed checker rejected the output")
						}
					})
				}
			}
		}
	}
}

var matrixErrorLevels = []int{0, 1, 5, 1 << 30 /* capped to n: everything */}

// TestMatrixBounds asserts the paper's consistency and degradation bounds on
// the full graph list: prediction-consuming algorithms finish within the
// initialization when η = 0, and the η-degrading algorithms stay within
// their proved round bounds.
func TestMatrixBounds(t *testing.T) {
	t.Run("mis", func(t *testing.T) {
		for _, mg := range matrixGraphs() {
			perfect := repro.PerfectMIS(mg.g)
			for _, k := range matrixErrorLevels {
				preds := repro.FlipBits(perfect, k, repro.NewRand(int64(k)+9))
				errs, err := repro.MISErrorReport(mg.g, preds)
				if err != nil {
					t.Fatal(err)
				}
				for _, aname := range []string{"greedy", "simple", "base", "bw", "luby", "collect", "consecutive", "decomp", "interleaved", "parallel", "uniform"} {
					aname := aname
					t.Run(fmt.Sprintf("%s/k%d/%s", mg.name, k, aname), func(t *testing.T) {
						res, err := repro.RunProblem(mg.g, "mis", aname, preds, repro.Options{Seed: 5})
						if err != nil {
							t.Fatal(err)
						}
						if errs.Eta1 == 0 && aname != "greedy" && res.Run.Rounds > 3 {
							t.Errorf("eta=0 but %d rounds", res.Run.Rounds)
						}
						switch aname {
						case "simple":
							if res.Run.Rounds > errs.Eta1+3 {
								t.Errorf("rounds %d > eta1+3 (%d)", res.Run.Rounds, errs.Eta1+3)
							}
						case "parallel":
							if errs.Eta2 >= 0 && res.Run.Rounds > errs.Eta2+4 {
								t.Errorf("rounds %d > eta2+4 (%d)", res.Run.Rounds, errs.Eta2+4)
							}
						}
					})
				}
			}
		}
	})
	t.Run("matching", func(t *testing.T) {
		for _, mg := range matrixGraphs() {
			perfect := repro.PerfectMatching(mg.g)
			for _, k := range matrixErrorLevels {
				preds := repro.PerturbMatching(mg.g, perfect, k, repro.NewRand(int64(k)+11))
				eta1 := repro.MatchingEta1(mg.g, preds)
				for _, aname := range []string{"greedy", "simple", "collect", "consecutive", "parallel"} {
					aname := aname
					t.Run(fmt.Sprintf("%s/k%d/%s", mg.name, k, aname), func(t *testing.T) {
						res, err := repro.RunProblem(mg.g, "matching", aname, preds, repro.Options{})
						if err != nil {
							t.Fatal(err)
						}
						if eta1 == 0 && aname != "greedy" && res.Run.Rounds > 3 {
							t.Errorf("eta=0 but %d rounds", res.Run.Rounds)
						}
						if aname == "simple" && res.Run.Rounds > 3*(eta1/2)+5 {
							t.Errorf("rounds %d > 3*floor(eta1/2)+5 (eta1=%d)", res.Run.Rounds, eta1)
						}
					})
				}
			}
		}
	})
	t.Run("vcolor", func(t *testing.T) {
		for _, mg := range matrixGraphs() {
			perfect := repro.PerfectVColor(mg.g)
			for _, k := range matrixErrorLevels {
				preds := repro.PerturbVColor(mg.g, perfect, k, repro.NewRand(int64(k)+13))
				eta1 := repro.VColorEta1(mg.g, preds)
				for _, aname := range []string{"greedy", "simple", "linial", "consecutive", "interleaved", "parallel"} {
					aname := aname
					t.Run(fmt.Sprintf("%s/k%d/%s", mg.name, k, aname), func(t *testing.T) {
						res, err := repro.RunProblem(mg.g, "vcolor", aname, preds, repro.Options{})
						if err != nil {
							t.Fatal(err)
						}
						if eta1 == 0 && aname != "greedy" && res.Run.Rounds > 2 {
							t.Errorf("eta=0 but %d rounds", res.Run.Rounds)
						}
						if aname == "simple" && res.Run.Rounds > eta1+2 {
							t.Errorf("rounds %d > eta1+2 (eta1=%d)", res.Run.Rounds, eta1)
						}
					})
				}
			}
		}
	})
	t.Run("ecolor", func(t *testing.T) {
		for _, mg := range matrixGraphs() {
			if mg.g.M() == 0 {
				continue
			}
			perfect := repro.PerfectEColor(mg.g)
			for _, k := range matrixErrorLevels {
				preds := repro.PerturbEColor(mg.g, perfect, k, repro.NewRand(int64(k)+17))
				eta1 := repro.EColorEta1(mg.g, preds)
				for _, aname := range []string{"greedy", "simple", "collect", "consecutive", "parallel"} {
					aname := aname
					t.Run(fmt.Sprintf("%s/k%d/%s", mg.name, k, aname), func(t *testing.T) {
						res, err := repro.RunProblem(mg.g, "ecolor", aname, preds, repro.Options{})
						if err != nil {
							t.Fatal(err)
						}
						if eta1 == 0 && aname != "greedy" && res.Run.Rounds > 2 {
							t.Errorf("eta=0 but %d rounds", res.Run.Rounds)
						}
						if aname == "simple" && eta1 > 0 && res.Run.Rounds > 2*eta1+2 {
							t.Errorf("rounds %d > 2*eta1+2 (eta1=%d)", res.Run.Rounds, eta1)
						}
					})
				}
			}
		}
	})
}

func TestMatrixCheckers(t *testing.T) {
	for _, mg := range matrixGraphs() {
		mg := mg
		t.Run(mg.name, func(t *testing.T) {
			// Perfect predictions are accepted everywhere; a corrupted
			// instance (when it corrupts at all) is rejected somewhere.
			mis := repro.PerfectMIS(mg.g)
			cr, err := repro.CheckPredictions(mg.g, "mis", mis, repro.Options{})
			if err != nil || !cr.AllAccept {
				t.Fatalf("perfect MIS rejected: %v", err)
			}
			bad := append([]int(nil), mis...)
			bad[0] ^= 1
			cr, err = repro.CheckPredictions(mg.g, "mis", bad, repro.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if cr.AllAccept {
				t.Error("corrupted MIS accepted")
			}
			m, err := repro.CheckPredictions(mg.g, "matching", repro.PerfectMatching(mg.g), repro.Options{})
			if err != nil || !m.AllAccept {
				t.Fatalf("perfect matching rejected: %v", err)
			}
			v, err := repro.CheckPredictions(mg.g, "vcolor", repro.PerfectVColor(mg.g), repro.Options{})
			if err != nil || !v.AllAccept {
				t.Fatalf("perfect coloring rejected: %v", err)
			}
			if mg.g.M() > 0 {
				e, err := repro.CheckPredictions(mg.g, "ecolor", repro.PerfectEColor(mg.g), repro.Options{})
				if err != nil || !e.AllAccept {
					t.Fatalf("perfect edge coloring rejected: %v", err)
				}
			}
		})
	}
}

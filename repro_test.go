package repro_test

import (
	"testing"

	"repro"
	"repro/internal/runtime/fault"
)

// These tests exercise the public facade end to end: every exported runner,
// on every registered algorithm name, with verified outputs.

func TestPublicMISAlgorithms(t *testing.T) {
	g := repro.GNP(60, 0.08, repro.NewRand(4))
	preds := repro.FlipBits(repro.PerfectMIS(g), 6, repro.NewRand(5))
	algs := []string{
		"greedy", "simple", "base", "bw",
		"luby", "collect", "consecutive",
		"decomp", "interleaved",
		"parallel", "lubysolo", "uniform",
	}
	for _, alg := range algs {
		res, err := repro.RunProblem(g, "mis", alg, preds, repro.Options{Seed: 6})
		if err != nil {
			t.Fatalf("alg %s: %v", alg, err)
		}
		if res.Run.Rounds <= 0 {
			t.Errorf("alg %s: nonpositive rounds", alg)
		}
		if len(res.Output) != g.N() {
			t.Errorf("alg %s: %d outputs", alg, len(res.Output))
		}
	}
	if _, err := repro.RunProblem(g, "mis", "no-such-algorithm", preds, repro.Options{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	for _, lambda := range []float64{0, 0.5, 1} {
		if _, err := repro.RunMISTradeoff(g, preds, lambda, repro.Options{MaxRounds: 64 * g.N()}); err != nil {
			t.Fatalf("tradeoff lambda=%v: %v", lambda, err)
		}
	}
}

func TestPublicMatchingVColorEColor(t *testing.T) {
	g := repro.Grid2D(7, 7)
	mPreds := repro.PerturbMatching(g, repro.PerfectMatching(g), 5, repro.NewRand(7))
	for _, alg := range []string{"greedy", "simple", "collect", "consecutive", "parallel"} {
		if _, err := repro.RunProblem(g, "matching", alg, mPreds, repro.Options{}); err != nil {
			t.Fatalf("matching alg %s: %v", alg, err)
		}
	}
	vPreds := repro.PerturbVColor(g, repro.PerfectVColor(g), 5, repro.NewRand(8))
	for _, alg := range []string{
		"greedy", "simple", "linial", "consecutive", "standalone", "interleaved", "parallel",
	} {
		if _, err := repro.RunProblem(g, "vcolor", alg, vPreds, repro.Options{}); err != nil {
			t.Fatalf("vcolor alg %s: %v", alg, err)
		}
	}
	ePreds := repro.PerturbEColor(g, repro.PerfectEColor(g), 5, repro.NewRand(9))
	for _, alg := range []string{"greedy", "simple", "collect", "consecutive", "parallel"} {
		if _, err := repro.RunProblem(g, "ecolor", alg, ePreds, repro.Options{}); err != nil {
			t.Fatalf("ecolor alg %s: %v", alg, err)
		}
	}
}

func TestPublicTreeMIS(t *testing.T) {
	r := repro.RandomRooted(50, repro.NewRand(10))
	preds := repro.FlipBits(repro.PerfectMIS(r.G), 5, repro.NewRand(11))
	for _, alg := range []string{"greedy", "simple", "parallel", "consecutive"} {
		res, err := repro.RunTreeMIS(r, alg, preds, repro.Options{})
		if err != nil {
			t.Fatalf("tree alg %s: %v", alg, err)
		}
		if res.Run.Rounds <= 0 {
			t.Errorf("tree alg %s: nonpositive rounds", alg)
		}
	}
	if got := repro.TreeEtaT(r, preds); got < 0 {
		t.Errorf("TreeEtaT = %d", got)
	}
}

// TestRunTreeMISHonoursForest: RunTreeMIS runs on the forest it is given,
// not on the registry's default rooting at node 0. Rooting the same tree at
// node 57 changes the parent pointers the rooted-tree algorithms follow, so
// node 0's output differs; both outputs are still maximal independent sets
// of the underlying graph.
func TestRunTreeMISHonoursForest(t *testing.T) {
	g := repro.RandomRooted(200, repro.NewRand(200)).G
	preds := repro.FlipBits(repro.PerfectMIS(g), 32, repro.NewRand(32))
	rerooted, err := repro.RunTreeMIS(repro.RootAt(g, 57), "simple", preds, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	byDefault, err := repro.RunProblem(g, "tree", "simple", preds, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rerooted.Output[0] == byDefault.Output[0] {
		t.Errorf("node 0 outputs %d under both rootings; the forest argument was ignored", rerooted.Output[0])
	}
	for _, res := range []*repro.ProblemResult{rerooted, byDefault} {
		cr, err := repro.CheckPredictions(g, "mis", res.Output, repro.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !cr.AllAccept {
			t.Errorf("output %v is not a maximal independent set", res.Output)
		}
	}
}

func TestPublicErrorMeasures(t *testing.T) {
	g := repro.Ring(24)
	preds := repro.FlipBits(repro.PerfectMIS(g), 4, repro.NewRand(12))
	errs, err := repro.MISErrorReport(g, preds)
	if err != nil {
		t.Fatal(err)
	}
	if errs.Eta2 > errs.Eta1 || errs.EtaBW > errs.Eta1 {
		t.Errorf("measure ordering violated: %+v", errs)
	}
	if errs.EtaH < 0 {
		t.Errorf("etaH should be computable on n=24: %+v", errs)
	}
	perfect := repro.PerfectMIS(g)
	clean, err := repro.MISErrorReport(g, perfect)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Eta1 != 0 || clean.Eta2 != 0 || clean.EtaBW != 0 || clean.EtaH != 0 {
		t.Errorf("perfect predictions should have zero error: %+v", clean)
	}
	if a, err := repro.Alpha(g); err != nil || a != 12 {
		t.Errorf("alpha(C24) = %d, %v; want 12", a, err)
	}
	if tau, err := repro.Tau(g); err != nil || tau != 12 {
		t.Errorf("tau(C24) = %d, %v; want 12", tau, err)
	}
}

func TestCrashInjectionSurfacesAsError(t *testing.T) {
	// A crashed node never outputs, so the full-solution verifier must
	// reject the run; the fault-tolerance guarantees themselves (survivors
	// stay consistent) are tested at the runtime and vcolor layers.
	g := repro.Ring(12)
	if _, err := repro.RunProblem(g, "mis", "greedy", nil, repro.Options{
		Adversary: fault.Schedule{0: 1},
	}); err == nil {
		t.Error("crashed node should make full-solution verification fail")
	}
}

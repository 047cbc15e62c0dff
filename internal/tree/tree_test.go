package tree_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/predict"
	"repro/internal/runtime"
	"repro/internal/tree"
	"repro/internal/verify"
)

func runTreeMIS(t *testing.T, r *tree.Rooted, factory runtime.Factory, preds []int) *runtime.Result {
	t.Helper()
	var anyPreds []any
	if preds != nil {
		anyPreds = make([]any, len(preds))
		for i, p := range preds {
			anyPreds[i] = p
		}
	}
	res, err := runtime.Run(runtime.Config{Graph: r.G, Factory: factory, Predictions: anyPreds})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := make([]int, r.G.N())
	for i, o := range res.Outputs {
		v, ok := o.(int)
		if !ok {
			t.Fatalf("node %d output %v (%T)", r.G.ID(i), o, o)
		}
		out[i] = v
	}
	if err := verify.MIS(r.G, out); err != nil {
		t.Fatalf("invalid MIS: %v", err)
	}
	return res
}

func testTrees() map[string]*tree.Rooted {
	rng := rand.New(rand.NewSource(41))
	return map[string]*tree.Rooted{
		"single":   tree.DirectedLine(1),
		"pair":     tree.DirectedLine(2),
		"line30":   tree.DirectedLine(30),
		"line3k":   tree.DirectedLine(30), // used with the mod-3 pattern
		"rand40":   tree.RandomRooted(40, rng),
		"rand100":  tree.RandomRooted(100, rng),
		"star":     tree.RootAt(graph.Star(12), 0),
		"starleaf": tree.RootAt(graph.Star(12), 3),
		"cat":      tree.RootAt(graph.Caterpillar(8, 3), 0),
	}
}

func TestRootsAndLeavesSolo(t *testing.T) {
	for name, r := range testTrees() {
		t.Run(name, func(t *testing.T) {
			res := runTreeMIS(t, r, tree.Solo(r, tree.RootsAndLeaves(0)), nil)
			// Roots and leaves eat the tree from both ends: the height
			// shrinks by at least two per 2-round group.
			if limit := r.Height() + 6; res.Rounds > limit {
				t.Errorf("rounds %d > height+6 = %d", res.Rounds, limit)
			}
		})
	}
}

func TestTreeInitConsistency(t *testing.T) {
	for name, r := range testTrees() {
		preds := predict.PerfectMIS(r.G)
		t.Run(name, func(t *testing.T) {
			res := runTreeMIS(t, r, tree.SimpleRootsLeaves(r), preds)
			if res.Rounds > 3 {
				t.Errorf("consistency: got %d rounds, want <= 3", res.Rounds)
			}
		})
	}
}

// TestTreeInitExtremePrediction: a parent predicting math.MinInt is
// neither black nor white, so its white child joins in round 3. Every
// integer prediction must round-trip through the neighbor table.
func TestTreeInitExtremePrediction(t *testing.T) {
	r := tree.DirectedLine(6)
	res := runTreeMIS(t, r, tree.SimpleRootsLeaves(r), []int{math.MinInt, 0, math.MinInt, 0, 1, 0})
	if want := []any{0, 1, 0, 0, 1, 0}; !reflect.DeepEqual(res.Outputs, want) || res.Rounds != 4 {
		t.Errorf("outputs %v in %d rounds, want %v in 4", res.Outputs, res.Rounds, want)
	}
}

func TestMod3LineExample(t *testing.T) {
	// Section 9.2's example: a directed line of 3k nodes with white nodes at
	// distance 0 mod 3. The tree initialization terminates everyone by round
	// 2 even though eta1 = 3k, and eta_t = 2.
	k := 10
	r := tree.DirectedLine(3 * k)
	preds := predict.Mod3Line(k)
	active := predict.MISBaseActive(r.G, preds)
	comps := predict.ErrorComponents(r.G, active)
	if eta1 := predict.Eta1(comps); eta1 != 3*k {
		t.Errorf("eta1 = %d, want %d", eta1, 3*k)
	}
	if etaT := tree.EtaT(r, preds, active); etaT != 2 {
		t.Errorf("etaT = %d, want 2", etaT)
	}
	res := runTreeMIS(t, r, tree.SimpleRootsLeaves(r), preds)
	if res.Rounds > 3 {
		t.Errorf("rounds = %d, want <= 3 (paper: all terminate by end of round 2)", res.Rounds)
	}
}

func TestTreeTemplatesAcrossErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, r := range testTrees() {
		for _, k := range []int{0, 1, 3, r.G.N()} {
			preds := predict.FlipBits(predict.PerfectMIS(r.G), k, rng)
			for fname, f := range map[string]runtime.Factory{
				"simple":   tree.SimpleRootsLeaves(r),
				"parallel": tree.ParallelColoring(r),
			} {
				t.Run(name+"/"+fname, func(t *testing.T) {
					runTreeMIS(t, r, f, preds)
				})
			}
		}
	}
}

func TestCorollary15Degradation(t *testing.T) {
	// Rounds <= ceil(eta_t / 2) + 5 for the Simple version.
	rng := rand.New(rand.NewSource(77))
	for name, r := range testTrees() {
		for _, k := range []int{0, 1, 2, 5} {
			preds := predict.FlipBits(predict.PerfectMIS(r.G), k, rng)
			active := predict.MISBaseActive(r.G, preds)
			etaT := tree.EtaT(r, preds, active)
			res := runTreeMIS(t, r, tree.SimpleRootsLeaves(r), preds)
			if limit := (etaT+1)/2 + 5; res.Rounds > limit {
				t.Errorf("%s k=%d: rounds %d > ceil(etaT/2)+5 = %d (etaT=%d)",
					name, k, res.Rounds, limit, etaT)
			}
		}
	}
}

func TestGPSColoringProper(t *testing.T) {
	// The 3-coloring reference alone: run part 1 + part 2 as a standalone
	// MIS algorithm (no predictions, empty measure-uniform lane is simulated
	// by the parallel factory with all-zero predictions flowing through the
	// tree initialization).
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 33, 128} {
		r := tree.RandomRooted(n, rng)
		res := runTreeMIS(t, r, tree.ParallelColoring(r), predict.Uniform(n, 0))
		if res.Rounds > tree.CVRounds(r.G.D())+16 {
			t.Errorf("n=%d: rounds %d exceed CV bound %d + slack", n, res.Rounds, tree.CVRounds(r.G.D()))
		}
	}
}

func TestConsecutiveColoring(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for name, r := range testTrees() {
		for _, k := range []int{0, 2, r.G.N()} {
			preds := predict.FlipBits(predict.PerfectMIS(r.G), k, rng)
			t.Run(name, func(t *testing.T) {
				res := runTreeMIS(t, r, tree.ConsecutiveColoring(r), preds)
				etaT := func() int {
					active := predict.MISBaseActive(r.G, preds)
					return tree.EtaT(r, preds, active)
				}()
				if etaT == 0 && res.Rounds > 3 {
					t.Errorf("consistency broken: %d rounds at eta_t=0", res.Rounds)
				}
			})
		}
	}
}

// TestConsecutiveColoringReferenceTakesOver forces the reference path: on a
// deep directed line with all-wrong predictions, Algorithm 6 needs ~n/2
// rounds but its budget is only CVRounds+O(1), so the clean-up and the GPS
// coloring reference must finish the job.
func TestConsecutiveColoringReferenceTakesOver(t *testing.T) {
	n := 300
	r := tree.DirectedLine(n)
	preds := predict.Uniform(n, 1)
	res := runTreeMIS(t, r, tree.ConsecutiveColoring(r), preds)
	budget := tree.CVRounds(n) + 4
	if res.Rounds <= budget {
		t.Fatalf("rounds %d <= budget %d: reference never ran", res.Rounds, budget)
	}
	refBound := 4 + budget + 1 + tree.CVRounds(n) + 2 + 4
	if res.Rounds > refBound {
		t.Errorf("rounds %d > robustness bound %d", res.Rounds, refBound)
	}
}

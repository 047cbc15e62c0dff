package matching_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/predict"
	"repro/internal/runtime"
	"repro/internal/verify"
)

// TestGreedyExtendableAtGroupBoundaries verifies the invariant the
// Consecutive Template relies on for matching: the measure-uniform
// algorithm's partial solution is extendable at the end of every 3-round
// group (Section 8.1).
func TestGreedyExtendableAtGroupBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		g := graph.GNP(35, 0.15, rng)
		res, err := runtime.Run(runtime.Config{
			Graph:   g,
			Factory: matching.Solo(matching.MeasureUniform(0)),
		})
		if err != nil {
			t.Fatal(err)
		}
		for round := 3; round <= res.Rounds; round += 3 {
			if err := verify.MatchingPartialExtendable(g, settledAt(res, round)); err != nil {
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

// TestBaseExtendable: the matching base/initialization algorithms leave
// extendable partial solutions.
func TestBaseExtendable(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 15; trial++ {
		g := graph.GNP(30, 0.2, rng)
		preds := predict.PerturbMatching(g, predict.PerfectMatching(g), 8, rng)
		anyPreds := make([]any, len(preds))
		for i, p := range preds {
			anyPreds[i] = p
		}
		for name, f := range map[string]runtime.Factory{
			"base": matching.SimpleBase(),
			"init": matching.SimpleGreedy(),
		} {
			res, err := runtime.Run(runtime.Config{
				Graph:       g,
				Factory:     f,
				Predictions: anyPreds,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds < 2 {
				continue
			}
			if err := verify.MatchingPartialExtendable(g, settledAt(res, 2)); err != nil {
				t.Errorf("trial %d %s: %v", trial, name, err)
			}
		}
	}
}

// TestQuickMatchingAlwaysValid property-checks the pipeline over random
// graphs and garbage predictions (arbitrary identifiers, not just perturbed
// solutions).
func TestQuickMatchingAlwaysValid(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%30) + 1
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(n, 0.2, rng)
		preds := make([]any, n)
		for i := range preds {
			// Random garbage: sometimes a real id, sometimes nonsense.
			switch rng.Intn(3) {
			case 0:
				preds[i] = matching.Unmatched
			case 1:
				preds[i] = 1 + rng.Intn(n)
			default:
				preds[i] = n + 100 // non-existent identifier
			}
		}
		res, err := runtime.Run(runtime.Config{
			Graph: g, Factory: matching.SimpleGreedy(), Predictions: preds,
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
		return verify.Matching(g, out) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestQuickParallelMatchingAlwaysValid property-checks the Parallel
// Template for matching with garbage predictions, including on graphs whose
// identifiers are shuffled.
func TestQuickParallelMatchingAlwaysValid(t *testing.T) {
	f := func(seed int64, rawN uint8, shuffle bool) bool {
		n := int(rawN%24) + 1
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(n, 0.2, rng)
		if shuffle {
			g = graph.ShuffleIDs(g, 4*n, rng)
		}
		preds := make([]any, n)
		for i := range preds {
			switch rng.Intn(3) {
			case 0:
				preds[i] = matching.Unmatched
			case 1:
				preds[i] = 1 + rng.Intn(4*n)
			default:
				preds[i] = g.ID(rng.Intn(n))
			}
		}
		res, err := runtime.Run(runtime.Config{
			Graph: g, Factory: matching.ParallelColoring(), Predictions: preds,
			MaxRounds: 64*n + 1024,
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
		return verify.Matching(g, out) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

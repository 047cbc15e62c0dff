package mis_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mis"
	"repro/internal/predict"
	"repro/internal/runtime"
	"repro/internal/verify"
)

// observeRun executes factory and hands check the snapshot at the end of
// every round (as a partial output vector with Undecided for active nodes),
// read back from the completed run.
func observeRun(t *testing.T, g *graph.Graph, factory runtime.Factory, preds []int,
	check func(round int, partial []int)) {
	t.Helper()
	var anyPreds []any
	if preds != nil {
		anyPreds = make([]any, len(preds))
		for i, p := range preds {
			anyPreds[i] = p
		}
	}
	res, err := runtime.Run(runtime.Config{
		Graph:       g,
		Factory:     factory,
		Predictions: anyPreds,
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= res.Rounds; round++ {
		check(round, settledAt(res, round))
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

// TestGreedyExtendableAtEvenRounds verifies the extendability invariant the
// templates rely on: the Greedy MIS Algorithm's partial solution is an
// extendable partial solution at the end of every even round (Section 6).
func TestGreedyExtendableAtEvenRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		g := graph.GNP(40, 0.12, rng)
		observeRun(t, g, mis.Solo(mis.Greedy()), nil, func(round int, partial []int) {
			if round%2 != 0 {
				return
			}
			if err := verify.MISPartialExtendable(g, partial); err != nil {
				t.Errorf("trial %d round %d: %v", trial, round, err)
			}
		})
	}
}

// TestInitLeavesExtendablePartial verifies that both initialization
// algorithms leave extendable partial solutions (Section 4).
func TestInitLeavesExtendablePartial(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 10; trial++ {
		g := graph.GNP(35, 0.15, rng)
		preds := predict.FlipProb(predict.PerfectMIS(g), 0.3, rng)
		for name, f := range map[string]runtime.Factory{
			"base": mis.SimpleBase(),
			"init": mis.SimpleGreedy(),
		} {
			observeRun(t, g, f, preds, func(round int, partial []int) {
				if round != 3 {
					return
				}
				if err := verify.MISPartialExtendable(g, partial); err != nil {
					t.Errorf("trial %d %s: %v", trial, name, err)
				}
			})
		}
	}
}

// TestInitContainsBase verifies the "reasonable initialization" property:
// the partial solution of the Initialization Algorithm contains the Base
// Algorithm's (Section 4).
func TestInitContainsBase(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 20; trial++ {
		g := graph.GNP(30, 0.2, rng)
		preds := predict.FlipProb(predict.PerfectMIS(g), 0.35, rng)
		var basePartial, initPartial []int
		observeRun(t, g, mis.SimpleBase(), preds, func(round int, partial []int) {
			if round == 3 {
				basePartial = append([]int(nil), partial...)
			}
		})
		observeRun(t, g, mis.SimpleGreedy(), preds, func(round int, partial []int) {
			if round == 3 {
				initPartial = append([]int(nil), partial...)
			}
		})
		for i := range basePartial {
			if basePartial[i] != verify.Undecided && initPartial[i] != basePartial[i] {
				t.Fatalf("trial %d node %d: base decided %d, init decided %d",
					trial, g.ID(i), basePartial[i], initPartial[i])
			}
		}
	}
}

// TestBWGreedyExtendableAtEvenRounds does the same for the black/white
// alternating algorithm of Section 9.1.
func TestBWGreedyExtendableAtEvenRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 10; trial++ {
		g := graph.Grid2D(6, 6)
		preds := predict.FlipProb(predict.GridBW(6, 6), 0.1, rng)
		observeRun(t, g, mis.SimpleBW(), preds, func(round int, partial []int) {
			if round <= 3 || (round-3)%2 != 0 {
				return
			}
			if err := verify.MISPartialExtendable(g, partial); err != nil {
				t.Errorf("trial %d round %d: %v", trial, round, err)
			}
		})
	}
}

// TestGreedyCONGEST: the Greedy MIS family is a CONGEST algorithm — every
// message fits in O(log n) bits (here: constant payload + lane header).
func TestGreedyCONGEST(t *testing.T) {
	g := graph.GNP(60, 0.1, rand.New(rand.NewSource(65)))
	preds := predict.FlipBits(predict.PerfectMIS(g), 10, rand.New(rand.NewSource(66)))
	for name, f := range map[string]runtime.Factory{
		"greedy-solo": mis.Solo(mis.Greedy()),
		"simple":      mis.SimpleGreedy(),
		"bw":          mis.SimpleBW(),
		"cleanup-seq": mis.ConsecutiveCollect(), // collect part is LOCAL
	} {
		res := runMIS(t, g, f, preds, false)
		switch name {
		case "cleanup-seq":
			// Contains the LOCAL collect reference only if it is reached;
			// with small eta it never is, so accept either.
			if res.MaxMsgBits > 16 && res.MaxMsgBits != -1 {
				t.Errorf("%s: MaxMsgBits=%d", name, res.MaxMsgBits)
			}
		default:
			if res.MaxMsgBits < 0 || res.MaxMsgBits > 16 {
				t.Errorf("%s: MaxMsgBits=%d, want small and sized", name, res.MaxMsgBits)
			}
		}
	}
}

// TestLubyManySeeds: Luby's algorithm yields a valid MIS for every seed.
func TestLubyManySeeds(t *testing.T) {
	g := graph.GNP(50, 0.12, rand.New(rand.NewSource(67)))
	for seed := int64(0); seed < 20; seed++ {
		runMIS(t, g, mis.Solo(mis.Luby(seed)), nil, false)
	}
}

// TestQuickSimpleTemplateAlwaysValid property-checks the full pipeline over
// random graphs and random predictions.
func TestQuickSimpleTemplateAlwaysValid(t *testing.T) {
	f := func(seed int64, rawN uint8, p8 uint8) bool {
		n := int(rawN%40) + 1
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(n, 0.15, rng)
		preds := make([]int, n)
		for i := range preds {
			if rng.Float64() < float64(p8)/255 {
				preds[i] = 1
			}
		}
		var anyPreds []any
		anyPreds = make([]any, n)
		for i, p := range preds {
			anyPreds[i] = p
		}
		res, err := runtime.Run(runtime.Config{
			Graph: g, Factory: mis.SimpleGreedy(), Predictions: anyPreds,
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
		return verify.MIS(g, out) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestQuickParallelTemplateAlwaysValid does the same for the Corollary 12
// algorithm, whose moving parts (fault-tolerant coloring + greedy-augmented
// conversion + crash semantics) are the most intricate in the repository.
func TestQuickParallelTemplateAlwaysValid(t *testing.T) {
	f := func(seed int64, rawN uint8, p8 uint8) bool {
		n := int(rawN%30) + 1
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(n, 0.2, rng)
		preds := make([]any, n)
		for i := range preds {
			bit := 0
			if rng.Float64() < float64(p8)/255 {
				bit = 1
			}
			preds[i] = bit
		}
		res, err := runtime.Run(runtime.Config{
			Graph: g, Factory: mis.ParallelColoring(), Predictions: preds,
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
		return verify.MIS(g, out) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestPruningProperty: with correct predictions, both initializations output
// exactly the predictions (the pruning property of Section 4) — already
// covered for Init by the consistency test; here for arbitrary *correct*
// predicted solutions, not just the canonical one.
func TestPruningProperty(t *testing.T) {
	g := graph.Ring(9)
	// A different valid MIS of C9 than the canonical greedy one.
	preds := []int{0, 1, 0, 1, 0, 1, 0, 0, 1}
	if err := verify.MIS(g, preds); err != nil {
		t.Fatalf("test fixture invalid: %v", err)
	}
	res := runMIS(t, g, mis.SimpleGreedy(), preds, false)
	for i, o := range res.Outputs {
		if o.(int) != preds[i] {
			t.Errorf("node %d output %v, predicted %d", g.ID(i), o, preds[i])
		}
	}
	if res.Rounds > 3 {
		t.Errorf("rounds = %d", res.Rounds)
	}
}

// TestInterruptAnywhereStaysValid interrupts Greedy at every even budget and
// completes with clean-up + collect; the final output must be a valid MIS no
// matter where the interruption lands. This is the Consecutive Template's
// switching machinery exercised directly (with realistic budgets the
// measure-uniform stage provably finishes first, since its round bound mu1
// never exceeds the collect reference's n+1).
func TestInterruptAnywhereStaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	g := graph.GNP(24, 0.15, rng)
	preds := predict.FlipProb(predict.PerfectMIS(g), 0.5, rng)
	for budget := 2; budget <= 16; budget += 2 {
		factory := core.Sequence(mis.NewMemory(),
			mis.Init(), mis.GreedyBudget(budget), mis.Cleanup(), mis.Collect())
		runMIS(t, g, factory, preds, false)
	}
}

// TestConsecutiveDecompActuallySwitches: on a long adversarial line the
// Greedy lane exceeds the decomposition reference's declared bound, so the
// template interrupts it, runs the clean-up, and lets the reference finish —
// the switch that Lemma 8's second case describes.
func TestConsecutiveDecompActuallySwitches(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance; skipped with -short")
	}
	n := 3000
	g := graph.Line(n)
	info := runtime.NodeInfo{N: n, D: n, Delta: 2}
	bound := decompBound(info)
	if bound >= n {
		t.Fatalf("test premise broken: decomp bound %d >= n %d", bound, n)
	}
	preds := predict.Uniform(n, 1)
	var anyPreds []any
	anyPreds = make([]any, n)
	for i, p := range preds {
		anyPreds[i] = p
	}
	res, err := runtime.Run(runtime.Config{
		Graph:       g,
		Factory:     mis.ConsecutiveDecomp(31),
		Predictions: anyPreds,
		MaxRounds:   16 * n,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, n)
	for i, o := range res.Outputs {
		out[i] = o.(int)
	}
	if err := verify.MIS(g, out); err != nil {
		t.Fatal(err)
	}
	// The run must have gone past the interruption point (3 + budget) and
	// finished well before Greedy's ~n rounds would allow on its own;
	// crucially it must also stay within the robustness bound O(r).
	if res.Rounds <= bound {
		t.Errorf("rounds %d <= budget %d: the reference never ran", res.Rounds, bound)
	}
	if res.Rounds > 3*bound+8 {
		t.Errorf("rounds %d > 3*bound+8 = %d: robustness violated", res.Rounds, 3*bound+8)
	}
}

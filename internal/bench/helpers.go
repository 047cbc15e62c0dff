package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/predict"
	"repro/internal/problem"
	"repro/internal/runtime"
)

// The harness treats any engine or verification error as a programming bug
// and panics with context; experiments are deterministic, so a panic here is
// reproducible and caught by the benchmark tests.

// solve runs factory on g through the named problem's descriptor: preds are
// encoded by its EncodePreds, and the outputs must pass its Finalize. The
// options adjust the engine configuration (round cap, parallel engine,
// observer) before the run.
func solve(g *graph.Graph, name string, factory runtime.Factory, preds any, opts ...func(*runtime.Config)) *runtime.Result {
	d := descriptor(name)
	res := run(g, d, factory, preds, opts)
	if _, err := d.Finalize(g, nil, res.Outputs); err != nil {
		panic(fmt.Sprintf("bench: invalid %s output: %v", name, err))
	}
	return res
}

// checkRounds runs the named problem's distributed checker on a candidate
// solution, which every node must accept, and returns its round count.
func checkRounds(g *graph.Graph, name string, candidate any) int {
	d := descriptor(name)
	res := run(g, d, d.Checker(), candidate, nil)
	for i, o := range res.Outputs {
		if o != check.Accept {
			panic(fmt.Sprintf("bench: %s checker rejected node %d", name, g.ID(i)))
		}
	}
	return res.Rounds
}

func descriptor(name string) *problem.Descriptor {
	d, err := problem.Get(name)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return d
}

// run encodes preds through d and runs factory on g with them.
func run(g *graph.Graph, d *problem.Descriptor, factory runtime.Factory, preds any, opts []func(*runtime.Config)) *runtime.Result {
	encoded, err := d.EncodePreds(preds)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	cfg := runtime.Config{Graph: g, Factory: factory, Predictions: encoded}
	for _, opt := range opts {
		opt(&cfg)
	}
	res, err := runtime.Run(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: %s run failed: %v", d.Name, err))
	}
	return res
}

// maxRounds caps a solve's engine run.
func maxRounds(n int) func(*runtime.Config) {
	return func(c *runtime.Config) { c.MaxRounds = n }
}

// misErrors computes (η₁, η₂) for an MIS instance; η₂ is -1 when a component
// is too large for the exact solver.
func misErrors(g *graph.Graph, preds []int) (eta1, eta2 int) {
	active := predict.MISBaseActive(g, preds)
	comps := predict.ErrorComponents(g, active)
	eta1 = predict.Eta1(comps)
	e2, err := predict.Eta2(comps)
	if err != nil {
		return eta1, -1
	}
	return eta1, e2
}

// perturbed returns a perturbed perfect MIS prediction with k flips.
func perturbed(g *graph.Graph, k int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	return predict.FlipBits(predict.PerfectMIS(g), k, rng)
}

// instance couples a named graph with its construction.
type instance struct {
	name string
	g    *graph.Graph
}

// misInstances is the shared instance family for the MIS sweeps.
func misInstances() []instance {
	rng := rand.New(rand.NewSource(1))
	return []instance{
		{"ring-129", graph.Ring(129)},
		{"grid-12x12", graph.Grid2D(12, 12)},
		{"gnp-128-.04", graph.GNP(128, 0.04, rng)},
		{"tree-127", graph.RandomTree(127, rng)},
		{"hcube-7", graph.Hypercube(7)},
	}
}

package repro

import (
	"repro/internal/matching"
	"repro/internal/mis"
	"repro/internal/predict"
	"repro/internal/problem"
)

// This file keeps the two entry points RunProblem cannot express: a
// caller-supplied rooted forest, and the continuous λ of the trade-off
// variant. Both run through the registry's single run body in registry.go.

// RunTreeMIS executes a registered rooted-tree MIS algorithm (Section 9.2;
// see Problems for the "tree" variants) on an explicit rooted forest and
// verifies the output. RunProblem(g, "tree", ...) roots the graph at node 0
// instead.
func RunTreeMIS(r *Rooted, alg string, preds []int, opts Options) (*ProblemResult, error) {
	d, err := problem.Get("tree")
	if err != nil {
		return nil, err
	}
	return runGeneric(r.G, d, alg, nil, r, preds, opts)
}

// RunMISTradeoff runs the Section 10 consistency/robustness trade-off
// variant of the Consecutive Template: the measure-uniform stage is budgeted
// λ·n rounds before the decomposition reference takes over. λ = 0 trusts the
// predictions only through the initialization; λ ≥ 1 matches the Greedy
// algorithm's worst-case needs. The λ knob is continuous, so this variant
// stays outside the registry's named algorithms and plugs its factory into
// the same generic machinery.
func RunMISTradeoff(g *Graph, preds []int, lambda float64, opts Options) (*ProblemResult, error) {
	d, err := problem.Get("mis")
	if err != nil {
		return nil, err
	}
	return runGeneric(g, d, "tradeoff", mis.ConsecutiveTradeoff(lambda, opts.Seed), nil, preds, opts)
}

// Ensure predict's Unmatched matches matching's (compile-time check).
var _ = [1]struct{}{}[predict.Unmatched-matching.Unmatched]

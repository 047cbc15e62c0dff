package mis

import (
	"repro/internal/core"
	"repro/internal/exact"
)

// Collect returns the collect-and-solve LOCAL reference algorithm
// (core.Collect): n rounds of flooding the active neighbors, then every
// node outputs its bit of the canonical greedy-by-identifier MIS of its
// component. Its round bound is core.CollectBound.
//
// It exists to exercise the templates with a reference whose bound is known
// and simple; the decomposition reference in internal/decomp plays the role
// of the paper's sophisticated references.
func Collect() core.Stage {
	return core.Collect("mis/collect", core.CollectHooks{
		Nbrs:   func(c *core.StageCtx) []int { return c.Memory().(*Memory).ActiveNeighbors(c.Info()) },
		Finish: core.SolveOwn(exact.GreedyMISByID),
	})
}

package matching

import (
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/runtime"
)

// Collect returns the collect-and-solve reference for maximal matching
// (core.Collect): n rounds of flooding the active neighbors, then every node
// outputs its partner in the canonical greedy-by-identifier maximal matching
// of its component. Its round bound core.CollectBound(info) = n+1 is
// computable by all nodes, as the Consecutive Template requires.
func Collect() core.Stage {
	return core.Collect("matching/collect", core.CollectHooks{
		Nbrs:   func(c *core.StageCtx) []int { return c.Memory().(*Memory).ActiveNeighbors(c.Info()) },
		Finish: core.SolveOwn(exact.GreedyMatchingByID),
	})
}

// Solo runs a single matching stage as a complete algorithm.
func Solo(stage core.Stage) runtime.Factory {
	return core.Sequence(NewMemory(), stage)
}

// SimpleGreedy is the Simple Template for maximal matching: initialization
// followed by the measure-uniform proposal algorithm.
func SimpleGreedy() runtime.Factory {
	return core.Simple(NewMemory(), Init(), MeasureUniform(0))
}

// SimpleBase is SimpleGreedy with the Base Algorithm as initialization.
func SimpleBase() runtime.Factory {
	return core.Simple(NewMemory(), Base(), MeasureUniform(0))
}

// SimpleCollect is the Simple Template with the collect-and-solve reference.
func SimpleCollect() runtime.Factory {
	return core.Simple(NewMemory(), Init(), Collect())
}

// ConsecutiveCollect is the Consecutive Template: initialization, the
// measure-uniform algorithm for r(n)+c'(n) rounds (rounded up to a 3-round
// proposal-group boundary), clean-up, then the reference.
func ConsecutiveCollect() runtime.Factory {
	cleanup := Cleanup()
	return core.Consecutive(core.ConsecutiveSpec{
		Mem:    NewMemory(),
		B:      Init(),
		U:      MeasureUniform,
		Budget: func(info runtime.NodeInfo) int { return core.CollectBound(info) + 1 },
		Align:  3,
		C:      &cleanup,
		Ref:    core.FixedRef(Collect()),
	})
}

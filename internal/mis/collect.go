package mis

import (
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/runtime"
)

// Collect returns the collect-and-solve LOCAL reference algorithm
// (core.Collect): n rounds of adjacency flooding, then every node outputs
// its bit of the canonical greedy-by-identifier MIS of its component.
//
// It exists to exercise the templates with a reference whose bound is known
// and simple; the decomposition reference in internal/decomp plays the role
// of the paper's sophisticated references.
func Collect() core.Stage { return core.Collect("mis/collect", exact.GreedyMISByID) }

// CollectBound is the round bound r(n) of Collect, computable by every node.
func CollectBound(info runtime.NodeInfo) int { return info.N + 1 }

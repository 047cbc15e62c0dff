package ecolor

import (
	"repro/internal/core"
	"repro/internal/runtime"
)

// Collect returns the collect-and-solve reference for (2Δ−1)-edge coloring
// (core.Collect): n rounds of flooding the uncolored subgraph's structure,
// each row carrying the colors already used at its node, then every node
// extends the coloring canonically (finishColoring) and outputs its edge
// vector. Bound: core.CollectBound(info) = n+1.
func Collect() core.Stage {
	return core.Collect("ecolor/collect", core.CollectHooks{
		Nbrs:   func(c *core.StageCtx) []int { return c.Memory().(*Memory).Uncolored(c.Info()) },
		Extra:  func(c *core.StageCtx) []int { return c.Memory().(*Memory).UsedColors() },
		Finish: finishColoring,
	})
}

// finishColoring extends the coloring canonically over the learned uncolored
// subgraph — uncolored edges in ascending (min ID, max ID) order each get the
// smallest color in {1, ..., 2Δ−1} free at both endpoints, a row's Extra
// being the colors already used at its node — and outputs this node's edge
// vector.
func finishColoring(c *core.StageCtx, rows []core.Row) {
	info := c.Info()
	mem := c.Memory().(*Memory)
	idx := make(map[int]int, len(rows))
	used := make([]map[int]bool, len(rows))
	for i, r := range rows {
		idx[r.ID] = i
		used[i] = make(map[int]bool, len(r.Extra))
		for _, col := range r.Extra {
			used[i][col] = true
		}
	}
	// An edge joins rows a < b. Rows are sorted by ID and each row's Nbrs
	// ascend (Uncolored keeps the order of NeighborIDs), so the edges come
	// out in ascending (min ID, max ID) order.
	type edge struct{ a, b int }
	var edges []edge
	for a, r := range rows {
		for _, nb := range r.Nbrs {
			if b, known := idx[nb]; known && a < b {
				edges = append(edges, edge{a: a, b: b})
			}
		}
	}
	colors := make(map[edge]int, len(edges))
	for _, e := range edges {
		for col := 1; col <= 2*info.Delta-1; col++ {
			if !used[e.a][col] && !used[e.b][col] {
				colors[e] = col
				used[e.a][col] = true
				used[e.b][col] = true
				break
			}
		}
	}
	me := idx[info.ID]
	for _, nb := range mem.Uncolored(info) {
		other, known := idx[nb]
		if !known {
			continue
		}
		e := edge{a: me, b: other}
		if other < me {
			e = edge{a: other, b: me}
		}
		if col, ok := colors[e]; ok {
			mem.SetColor(info, nb, col)
		}
	}
	c.Output(mem.OutputVector(info))
}

// Solo runs a single edge-coloring stage as a complete algorithm. The
// measure-uniform algorithm assumes the two-hop uncolored-edge lists
// distributed by round 2 of the initialization (Section 8.3), so Solo
// prepends the one-round clean-up, which distributes exactly that state.
func Solo(stage core.Stage) runtime.Factory {
	return core.Sequence(NewMemory, Cleanup(), stage)
}

// SimpleGreedy is the Simple Template for edge coloring: the base algorithm
// followed by the distance-2 measure-uniform algorithm.
func SimpleGreedy() runtime.Factory {
	return core.Simple(NewMemory, Base(), MeasureUniform(0))
}

// SimpleCollect is the Simple Template with the collect-and-solve reference.
func SimpleCollect() runtime.Factory {
	return core.Simple(NewMemory, Base(), Collect())
}

// ConsecutiveCollect is the Consecutive Template: base, the measure-uniform
// algorithm for r(n)+c'(n) rounds (rounded up to an even group boundary),
// clean-up, then the reference.
func ConsecutiveCollect() runtime.Factory {
	cleanup := Cleanup()
	return core.Consecutive(core.ConsecutiveSpec{
		Mem:    NewMemory,
		B:      Base(),
		U:      MeasureUniform,
		Budget: func(info runtime.NodeInfo) int { return core.CollectBound(info) + 1 },
		Align:  2,
		C:      &cleanup,
		Ref:    core.FixedRef(Collect()),
	})
}

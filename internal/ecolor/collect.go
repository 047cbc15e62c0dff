package ecolor

import (
	"sort"

	"repro/internal/core"
	"repro/internal/runtime"
)

// ecRow is one node's state for the collect-and-solve reference: its
// uncolored-edge endpoints and the colors already used at it.
type ecRow struct {
	ID        int
	Uncolored []int
	Used      []int
}

// ecRows carries newly learned rows (LOCAL-size).
type ecRows struct{ Rows []ecRow }

// Bits sizes the flooding batch for CONGEST accounting (LOCAL-size by
// design; honest accounting keeps Result.Bits meaningful).
func (m ecRows) Bits() int {
	n := 0
	for _, r := range m.Rows {
		n += 32 * (1 + len(r.Uncolored) + len(r.Used))
	}
	return n
}

// Collect returns the collect-and-solve reference for (2Δ−1)-edge coloring:
// n rounds of flooding the uncolored subgraph's structure and the colors
// already used at each node, then every node extends the coloring
// canonically — uncolored edges in ascending (min ID, max ID) order each get
// the smallest color free at both endpoints — and outputs its edge vector.
// Bound: CollectBound(info) = n+1.
func Collect() core.Stage {
	return core.Stage{
		Name: "ecolor/collect",
		New: func(info runtime.NodeInfo, pred any, mem any) core.StageMachine {
			return &collectMachine{mem: mem.(*Memory), rows: map[int]ecRow{}}
		},
	}
}

// CollectBound is the round bound of Collect.
func CollectBound(info runtime.NodeInfo) int { return info.N + 1 }

type collectMachine struct {
	mem   *Memory
	rows  map[int]ecRow
	fresh []ecRow
}

func (m *collectMachine) Send(c *core.StageCtx) []runtime.Out {
	info := c.Info()
	if c.StageRound() == 1 {
		mine := ecRow{ID: info.ID, Uncolored: m.mem.Uncolored(info), Used: m.mem.UsedColors()}
		m.rows[info.ID] = mine
		m.fresh = []ecRow{mine}
	}
	if c.StageRound() > info.N {
		m.solveAndOutput(c)
		return nil
	}
	if len(m.fresh) == 0 {
		return nil
	}
	payload := ecRows{Rows: m.fresh}
	m.fresh = nil
	return c.BroadcastTo(m.mem.Uncolored(info), payload)
}

func (m *collectMachine) Receive(c *core.StageCtx, inbox []runtime.Msg) {
	for _, msg := range inbox {
		r, ok := msg.Payload.(ecRows)
		if !ok {
			continue
		}
		for _, row := range r.Rows {
			if _, seen := m.rows[row.ID]; !seen {
				m.rows[row.ID] = row
				m.fresh = append(m.fresh, row)
			}
		}
	}
	sort.Slice(m.fresh, func(i, j int) bool { return m.fresh[i].ID < m.fresh[j].ID })
}

// solveAndOutput extends the coloring canonically over the known uncolored
// subgraph and outputs this node's edge vector.
func (m *collectMachine) solveAndOutput(c *core.StageCtx) {
	info := c.Info()
	used := make(map[int]map[int]bool, len(m.rows))
	for id, r := range m.rows {
		set := make(map[int]bool, len(r.Used))
		for _, col := range r.Used {
			set[col] = true
		}
		used[id] = set
	}
	type edge struct{ a, b int }
	var edges []edge
	for id, r := range m.rows {
		for _, nb := range r.Uncolored {
			if _, known := m.rows[nb]; known && id < nb {
				edges = append(edges, edge{a: id, b: nb})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})
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
	for _, nb := range m.mem.Uncolored(info) {
		e := edge{a: info.ID, b: nb}
		if nb < info.ID {
			e = edge{a: nb, b: info.ID}
		}
		if col, ok := colors[e]; ok {
			m.mem.SetColor(info, nb, col)
		}
	}
	c.Output(m.mem.OutputVector(info))
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
		Budget: func(info runtime.NodeInfo) int { return CollectBound(info) + 1 },
		Align:  2,
		C:      &cleanup,
		Ref:    core.FixedRef(Collect()),
	})
}

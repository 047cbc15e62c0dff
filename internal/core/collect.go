package core

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/runtime"
)

// activeNeighborer is the shared memory a collect-and-solve stage floods
// over: it reports the neighbors still active at the node.
type activeNeighborer interface {
	ActiveNeighbors(info runtime.NodeInfo) []int
}

// Collect returns a collect-and-solve LOCAL reference stage: every active
// node floods adjacency rows for exactly n rounds (by which time each node
// knows the entire subgraph induced by the nodes that entered the stage with
// it), then runs solve on its component and outputs its own entry of the
// result. The node's shared memory must have an ActiveNeighbors method.
//
// Its round complexity is exactly n+1 regardless of the input, so every node
// can compute the bound from its static information — the property the
// Consecutive Template requires of its reference (Section 7.2). The problem
// packages instantiate it with their canonical greedy-by-identifier solvers.
func Collect(name string, solve func(*graph.Graph) []int) Stage {
	return Stage{
		Name: name,
		New: func(info runtime.NodeInfo, pred any, mem any) StageMachine {
			return &collectMachine{
				mem:   mem.(activeNeighborer),
				rows:  map[int][]int{},
				solve: solve,
			}
		},
	}
}

// row carries newly learned adjacency rows during flooding. Arbitrarily
// large, so the algorithm is LOCAL-only.
type row struct {
	Entries map[int][]int
}

// Bits sizes the flooding batch for CONGEST accounting: one ID (32 bits)
// per key and per adjacency entry. The collect-and-solve reference is
// LOCAL-size by design; honest accounting keeps Result.Bits meaningful.
func (r row) Bits() int {
	n := 0
	for _, nbrs := range r.Entries {
		n += 32 * (1 + len(nbrs))
	}
	return n
}

type collectMachine struct {
	mem   activeNeighborer
	rows  map[int][]int // id -> neighbor ids, learned so far
	fresh []int         // ids learned last round, to forward
	solve func(*graph.Graph) []int
}

func (m *collectMachine) Send(c *StageCtx) []runtime.Out {
	info := c.Info()
	if c.StageRound() == 1 {
		// Start by flooding our own row, restricted to neighbors that are
		// still active (terminated neighbors are not part of the remaining
		// problem; extendability guarantees solving without them is safe).
		mine := m.mem.ActiveNeighbors(info)
		m.rows[info.ID] = mine
		m.fresh = []int{info.ID}
	}
	if c.StageRound() > info.N {
		m.solveAndOutput(c)
		return nil
	}
	if len(m.fresh) == 0 {
		return nil
	}
	entries := make(map[int][]int, len(m.fresh))
	for _, id := range m.fresh {
		entries[id] = m.rows[id]
	}
	m.fresh = nil
	return c.BroadcastTo(m.mem.ActiveNeighbors(info), row{Entries: entries})
}

func (m *collectMachine) Receive(c *StageCtx, inbox []runtime.Msg) {
	for _, msg := range inbox {
		r, ok := msg.Payload.(row)
		if !ok {
			continue
		}
		for id, nbrs := range r.Entries {
			if _, known := m.rows[id]; !known {
				m.rows[id] = nbrs
				m.fresh = append(m.fresh, id)
			}
		}
	}
	sort.Ints(m.fresh)
}

// solveAndOutput reconstructs the known component and outputs this node's
// entry of its canonical solution.
func (m *collectMachine) solveAndOutput(c *StageCtx) {
	ids := make([]int, 0, len(m.rows))
	for id := range m.rows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	idx := make(map[int]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	b := graph.NewBuilder(len(ids))
	b.SetDomain(c.Info().D)
	for i, id := range ids {
		b.SetID(i, id)
	}
	for i, id := range ids {
		for _, nb := range m.rows[id] {
			if j, ok := idx[nb]; ok && i < j {
				b.AddEdge(i, j)
			}
		}
	}
	sub := b.MustBuild()
	out := m.solve(sub)
	c.Output(out[idx[c.ID()]])
}

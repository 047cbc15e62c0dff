package core

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/runtime"
)

// Row is one node's report in a collect-and-solve flood: its identifier,
// its neighbors in the subgraph being collected, and problem-specific extra
// values (edge coloring sends the colors already used at the node).
type Row struct {
	ID    int
	Nbrs  []int
	Extra []int
}

// CollectHooks adapt Collect to a problem's shared memory.
type CollectHooks struct {
	// Nbrs returns the neighbors the node floods to. It is called every
	// round; its first-round list is also the Nbrs of the node's own row.
	Nbrs func(c *StageCtx) []int
	// Extra, when non-nil, returns the Extra of the node's own row.
	Extra func(c *StageCtx) []int
	// Finish runs after the flood. It gets every row the node learned,
	// its own among them, sorted by ID, and must output.
	Finish func(c *StageCtx, rows []Row)
}

// Collect returns a collect-and-solve LOCAL reference stage: every node
// floods rows for exactly n rounds, by which time it knows the row of every
// node connected to it in the subgraph the rows describe (the nodes that
// entered the stage with it), then hands them to the Finish hook.
//
// Its round complexity is exactly n+1 regardless of the input, so every node
// can compute the bound (CollectBound) from its static information — the
// property the Consecutive Template requires of its reference (Section 7.2).
// The mis and matching packages instantiate it with SolveOwn over their
// canonical greedy-by-identifier solvers, edge coloring with its canonical
// greedy coloring.
func Collect(name string, h CollectHooks) Stage {
	return Stage{
		Name: name,
		New: func(info runtime.NodeInfo, pred any, mem any) StageMachine {
			return &collectMachine{hooks: h, seen: map[int]bool{}}
		},
	}
}

// CollectBound is the round bound r(n) = n+1 of every Collect stage.
func CollectBound(info runtime.NodeInfo) int { return info.N + 1 }

// rowBatch carries newly learned rows, sorted by ID. Arbitrarily large, so
// the algorithm is LOCAL-only.
type rowBatch []Row

// Bits sizes the flooding batch for CONGEST accounting: one ID (32 bits)
// per row and per neighbor and extra entry. The collect-and-solve reference
// is LOCAL-size by design; honest accounting keeps Result.Bits meaningful.
func (b rowBatch) Bits() int {
	n := 0
	for _, r := range b {
		n += 32 * (1 + len(r.Nbrs) + len(r.Extra))
	}
	return n
}

type collectMachine struct {
	hooks CollectHooks
	seen  map[int]bool // ids whose row is known
	rows  []Row        // rows learned so far, in learning order
	fresh rowBatch     // rows learned last round, to forward
}

func (m *collectMachine) Send(c *StageCtx) []runtime.Out {
	var dests []int
	if c.StageRound() == 1 {
		// Start by flooding our own row. For mis and matching it lists only
		// neighbors that are still active: terminated neighbors are not
		// part of the remaining problem, and extendability guarantees
		// solving without them is safe.
		dests = m.hooks.Nbrs(c)
		mine := Row{ID: c.ID(), Nbrs: dests}
		if m.hooks.Extra != nil {
			mine.Extra = m.hooks.Extra(c)
		}
		m.seen[mine.ID] = true
		m.rows = append(m.rows, mine)
		m.fresh = rowBatch{mine}
	}
	if c.StageRound() > c.Info().N {
		sort.Slice(m.rows, func(i, j int) bool { return m.rows[i].ID < m.rows[j].ID })
		m.hooks.Finish(c, m.rows)
		return nil
	}
	if len(m.fresh) == 0 {
		return nil
	}
	if dests == nil {
		dests = m.hooks.Nbrs(c)
	}
	payload := m.fresh
	m.fresh = nil
	return c.BroadcastTo(dests, payload)
}

func (m *collectMachine) Receive(c *StageCtx, inbox []runtime.Msg) {
	for _, msg := range inbox {
		b, ok := msg.Payload.(rowBatch)
		if !ok {
			continue
		}
		for _, r := range b {
			if !m.seen[r.ID] {
				m.seen[r.ID] = true
				m.rows = append(m.rows, r)
				m.fresh = append(m.fresh, r)
			}
		}
	}
	sort.Slice(m.fresh, func(i, j int) bool { return m.fresh[i].ID < m.fresh[j].ID })
}

// SolveOwn returns a Finish hook that rebuilds the learned component, runs
// solve on it and outputs the node's own entry of the result.
func SolveOwn(solve func(*graph.Graph) []int) func(c *StageCtx, rows []Row) {
	return func(c *StageCtx, rows []Row) {
		out := solve(Component(c.Info().D, rows))
		i := sort.Search(len(rows), func(i int) bool { return rows[i].ID >= c.ID() })
		c.Output(out[i])
	}
}

// Component builds the graph the rows describe: node i carries rows[i].ID
// from the identifier domain d, and nodes i < j are adjacent when rows[i]
// lists rows[j].ID among its neighbors. The rows must be sorted by ID;
// neighbors without a row are left out.
func Component(d int, rows []Row) *graph.Graph {
	idx := make(map[int]int, len(rows))
	b := graph.NewBuilder(len(rows))
	b.SetDomain(d)
	for i, r := range rows {
		idx[r.ID] = i
		b.SetID(i, r.ID)
	}
	for i, r := range rows {
		for _, nb := range r.Nbrs {
			if j, ok := idx[nb]; ok && i < j {
				b.AddEdge(i, j)
			}
		}
	}
	return b.MustBuild()
}
